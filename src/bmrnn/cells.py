"""Forward and gradient computation for the recurrent cells.

Two cells live here. The baseline gated recurrent cell:

    z_t = sigmoid(W_zx x_t + W_zh h_prev + b_z)        update gate
    r_t = sigmoid(W_rx x_t + W_rh h_prev + b_r)        reset gate
    h~  = tanh(W_hx x_t + W_hh (r_t * h_prev) + b_h)   candidate
    h_t = z_t * h~ + (1 - z_t) * h_prev

Careful: the update gate multiplies the *candidate* here, not the carried
state. Some formulations swap the two terms; this whole package follows the
convention above.

The skip-gated cell extends it with a preservation path. When timestep t has
a skip-ancestor p (an earlier step whose hidden state h_p must survive to t),
a skip gate decides how much of h_p to reinject into the candidate:

    s_t = sigmoid(W_sx x_t + W_sh h_p + b_s)           skip gate
    h~  = tanh(W_hx x_t + W_hh (r_t * h_prev) + W_hp (s_t * h_p) + b_h)

With no ancestor the skip term vanishes and the cell is bit-identical to the
baseline cell on its first nine tensors: ``SGRUParams`` is ``GRUParams`` with
the four skip tensors added.

A sweep steps B rows of one cell, or of two stacked ones, at once; its
input products and gradients come from ``sgru_inputs`` and ``sgru_param_grads``.

Gradients are hand-written analytic derivatives of the above; they are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ShapeMismatchError
from .numeric import Array, SeededRng, init_params

__all__ = [
    "GRUParams",
    "SGRUParams",
    "StepTrace",
    "init_sgru_params",
    "gru_forward",
    "sgru_inputs",
    "sgru_forward",
    "sgru_backward",
    "sgru_param_grads",
    "sgru_layout",
]


@dataclass
class GRUParams:
    """Weights of the baseline cell. Matrices are (hidden, input) or (hidden, hidden)."""

    # the tensors in canonical order: the model file's
    NAMES: ClassVar[tuple[str, ...]] = (
        "W_zx", "W_zh", "W_rx", "W_rh", "W_hx", "W_hh", "b_z", "b_r", "b_h")

    W_zx: Array
    W_zh: Array
    W_rx: Array
    W_rh: Array
    W_hx: Array
    W_hh: Array
    b_z: Array
    b_r: Array
    b_h: Array

    @property
    def hidden_dim(self) -> int:
        return self.W_zh.shape[-2]

    @property
    def input_dim(self) -> int:
        return self.W_zx.shape[-1]

    def named_tensors(self):
        """Canonical (name, array) pairs, fixed order."""
        for name in self.NAMES:
            yield name, getattr(self, name)

    @classmethod
    def from_named(cls, tensors: dict, prefix: str = ""):
        """Parameters from ``{prefix + name: array}``; the arrays are not copied."""
        return cls(**{n: tensors[prefix + n] for n in cls.NAMES})


@dataclass
class SGRUParams(GRUParams):
    """Baseline weights plus the skip gate and preservation matrices."""

    NAMES: ClassVar[tuple[str, ...]] = (
        "W_zx", "W_zh", "W_rx", "W_rh", "W_sx", "W_sh", "W_hx", "W_hh", "W_hp",
        "b_z", "b_r", "b_s", "b_h")

    W_sx: Array
    W_sh: Array
    W_hp: Array
    b_s: Array

    @property
    def base(self) -> GRUParams:
        """The baseline weights, as views: what a skip-free step computes with."""
        return GRUParams.from_named(vars(self))


def sgru_layout(input_dim: int, hidden_dim: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every sGRU tensor in canonical order."""
    return [
        (n, (hidden_dim,) if n.startswith("b")
         else (hidden_dim, input_dim if n.endswith("x") else hidden_dim))
        for n in SGRUParams.NAMES
    ]


class StepTrace(NamedTuple):
    """Gate activations and states of one timestep, of one row or B rows; s
    is None for the baseline cell and zero on a row without a skip ancestor."""

    z: Array
    r: Array
    s: Array | None
    h_tilde: Array
    h: Array


def init_sgru_params(input_dim: int, hidden_dim: int, rng: SeededRng) -> SGRUParams:
    """Uniform fan-in-scaled weights, zero biases.  The draw order is W_zx,
    W_zh, W_rx, W_rh, W_hx, W_hh, then W_sx, W_sh, W_hp: every model file
    depends on it."""
    drawn = {n: init_params(hidden_dim, input_dim if n.endswith("x") else hidden_dim, rng)
             for n in ("W_zx", "W_zh", "W_rx", "W_rh", "W_hx", "W_hh", "W_sx", "W_sh", "W_hp")}
    return SGRUParams.from_named(
        {**drawn, **{n: np.zeros(hidden_dim) for n in ("b_z", "b_r", "b_s", "b_h")}})


def _sigmoid(x: Array) -> Array:
    # exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def gru_forward(params: GRUParams, x_t: Array, h_prev: Array) -> StepTrace:
    """One baseline-cell step."""
    if x_t.shape != (params.input_dim,):
        raise ShapeMismatchError("cell input", x_t.shape, (params.input_dim,))
    if h_prev.shape != (params.hidden_dim,):
        raise ShapeMismatchError("cell hidden state", h_prev.shape, (params.hidden_dim,))
    z = _sigmoid(params.W_zx @ x_t + params.W_zh @ h_prev + params.b_z)
    r = _sigmoid(params.W_rx @ x_t + params.W_rh @ h_prev + params.b_r)
    h_tilde = np.tanh(params.W_hx @ x_t + params.W_hh @ (r * h_prev) + params.b_h)
    h = z * h_tilde + (1.0 - z) * h_prev
    return StepTrace(z, r, None, h_tilde, h)


def sgru_inputs(params: SGRUParams, X: Array) -> Array:
    """Input products of (..., N, D) sequences: row t is
    ``[W_zx, W_rx, W_hx, W_sx] @ x_t``, a (..., N, 4, H) array.

    The batched product runs one matrix-vector product per (step, gate), so
    each row has the bits of ``W @ x_t``; ``X @ W.T`` would round differently.
    """
    if X.ndim < 2 or X.shape[-1] != params.input_dim:
        raise ShapeMismatchError("cell input", X.shape, ("N", params.input_dim))
    W = np.stack([params.W_zx, params.W_rx, params.W_hx, params.W_sx], axis=-3)[..., None, :, :, :]
    return (W @ X[..., None, :, None])[..., 0]


def matvecs(W: Array, h: Array) -> Array:
    """``W @ h`` of every row of h, each with the bits of its own product
    (a GEMM over the rows would round differently)."""
    return (W @ h[..., None])[..., 0]


def sgru_forward(
    params: SGRUParams, xp_t: Array, h_prev: Array, h_skip: Array, has_skip: Array
) -> StepTrace:
    """One skip-cell step of B rows: ``xp_t`` (B, 4, H) is row t of each
    row's ``sgru_inputs``, ``h_prev`` and ``h_skip`` (B, H) its previous and
    skip-ancestor states, ``has_skip`` (B, 1) whether it has an ancestor.

    A row without an ancestor gets s = 0 and exactly what ``gru_forward``
    computes on ``params.base``: its skip terms are selected away with
    ``np.where``, since adding them as zeros could flip a -0.0.
    """
    if h_skip.shape != h_prev.shape:
        raise ShapeMismatchError("skip-ancestor state", h_skip.shape, h_prev.shape)
    gates = _sigmoid(np.stack([      # elementwise: bits as per gate
        xp_t[..., 0, :] + matvecs(params.W_zh, h_prev) + params.b_z,
        xp_t[..., 1, :] + matvecs(params.W_rh, h_prev) + params.b_r,
        xp_t[..., 3, :] + matvecs(params.W_sh, h_skip) + params.b_s]))
    z, r, s = gates[0], gates[1], np.where(has_skip, gates[2], 0.0)
    a_h = xp_t[..., 2, :] + matvecs(params.W_hh, r * h_prev)
    a_h = np.where(has_skip, a_h + matvecs(params.W_hp, s * h_skip), a_h)
    h_tilde = np.tanh(a_h + params.b_h)
    h = z * h_tilde + (1.0 - z) * h_prev
    return StepTrace(z, r, s, h_tilde, h)


def sgru_backward(
    params: SGRUParams, h_prev: Array, h_skip: Array, has_skip: Array,
    trace: StepTrace, dh_t: Array,
) -> tuple[Array, Array, Array]:
    """One skip step's gradients of B rows given upstream dL/dh_t (B, H):
    (da, dh_prev, dh_skip).  ``trace`` is the step's z, r, s, h~ and h: its
    ``StepTrace`` or its (5, B, H) column of a sweep trace.  ``da`` (B, 4, H) holds the
    pre-activation gradients of gates z, r, h, s, for ``sgru_param_grads``;
    da_s and dh_skip are zero on rows without a skip ancestor.
    """
    z, r, s, h_tilde, _ = trace

    dz = dh_t * (h_tilde - h_prev)
    dh_tilde = dh_t * z
    dh_prev = dh_t * (1.0 - z)

    da_h = dh_tilde * (1.0 - h_tilde * h_tilde)
    drh = matvecs(params.W_hh.mT, da_h)
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r

    # preservation term: W_hp (s * h_skip) inside the candidate
    dsh = matvecs(params.W_hp.mT, da_h)
    da_s = np.where(has_skip, dsh * h_skip * s * (1.0 - s), 0.0)
    dh_skip = np.where(has_skip, dsh * s + matvecs(params.W_sh.mT, da_s), 0.0)

    da_z = dz * z * (1.0 - z)
    dh_prev = dh_prev + matvecs(params.W_zh.mT, da_z)
    da_r = dr * r * (1.0 - r)
    dh_prev = dh_prev + matvecs(params.W_rh.mT, da_r)
    return np.stack([da_z, da_r, da_h, da_s], axis=-2), dh_prev, dh_skip


def sgru_param_grads(
    params: SGRUParams, grads: SGRUParams,
    X: Array, H_prev: Array, R: Array, H_skip: Array, S: Array, dA: Array,
) -> Array:
    """Parameter gradients of one or B sweeps, added into ``grads``, and dL/dX.

    Row t of each (N, ·) or (B, N, ·) array is step t's input, previous
    state, reset gate, skip-ancestor state and skip gate (both zero without
    a skip), and its ``sgru_backward`` da in ``dA`` (..., N, 4, H); the
    tensors of ``grads`` lead with the same B axis.  Each gradient is one
    stacked product, which numpy runs as one GEMM per sweep; a single
    (B·N, ·) GEMM would sum across the sweeps.
    """
    dA_z, dA_r, dA_h, dA_s = (dA[..., k, :] for k in range(4))
    pairs = {   # gradient: dA_gᵀ right, or a bias's column sum where right is None
        "W_zx": (dA_z, X), "W_zh": (dA_z, H_prev), "W_rx": (dA_r, X), "W_rh": (dA_r, H_prev),
        "W_sx": (dA_s, X), "W_sh": (dA_s, H_skip), "W_hx": (dA_h, X), "W_hh": (dA_h, R * H_prev),
        "W_hp": (dA_h, S * H_skip), "b_z": (dA_z, None), "b_r": (dA_r, None),
        "b_s": (dA_s, None), "b_h": (dA_h, None)}
    for name, t in grads.named_tensors():   # added as formed: one product is held at a time
        left, right = pairs[name]
        t += left.sum(axis=-2) if right is None else left.mT @ right
    # the terms in the GRU oracle's order (tests/gru_oracle.py), so a one-step
    # skip-free sweep matches it bit for bit
    return dA_h @ params.W_hx + dA_s @ params.W_sx + dA_z @ params.W_zx + dA_r @ params.W_rx
