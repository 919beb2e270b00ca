"""Per-step gradients of the baseline GRU cell, kept as a test oracle.

The program's sweeps run ``bmrnn.cells.sgru_backward`` and form parameter
gradients once per sweep with ``sgru_param_grads``; the tests check that a
skip-free sweep reproduces these longhand per-step gradients bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from bmrnn.cells import GRUParams, StepTrace
from bmrnn.numeric import Array


@dataclass
class GRUStepGrads:
    params: GRUParams
    dx: Array
    dh_prev: Array


def gru_backward(
    params: GRUParams,
    x_t: Array,
    h_prev: Array,
    trace: StepTrace,
    dh_t: Array,
) -> GRUStepGrads:
    """Analytic gradients of one baseline step given upstream dL/dh_t."""
    z, r, h_tilde = trace.z, trace.r, trace.h_tilde
    g = GRUParams(**{n: np.zeros_like(t) for n, t in params.named_tensors()})

    dz = dh_t * (h_tilde - h_prev)
    dh_tilde = dh_t * z
    dh_prev = dh_t * (1.0 - z)

    da_h = dh_tilde * (1.0 - h_tilde * h_tilde)
    g.W_hx += np.outer(da_h, x_t)
    rh = r * h_prev
    g.W_hh += np.outer(da_h, rh)
    g.b_h += da_h
    dx = params.W_hx.T @ da_h
    drh = params.W_hh.T @ da_h
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r

    da_z = dz * z * (1.0 - z)
    g.W_zx += np.outer(da_z, x_t)
    g.W_zh += np.outer(da_z, h_prev)
    g.b_z += da_z
    dx += params.W_zx.T @ da_z
    dh_prev = dh_prev + params.W_zh.T @ da_z

    da_r = dr * r * (1.0 - r)
    g.W_rx += np.outer(da_r, x_t)
    g.W_rh += np.outer(da_r, h_prev)
    g.b_r += da_r
    dx += params.W_rx.T @ da_r
    dh_prev = dh_prev + params.W_rh.T @ da_r

    return GRUStepGrads(params=g, dx=dx, dh_prev=dh_prev)
