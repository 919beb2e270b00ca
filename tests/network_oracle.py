"""The network one story and one step at a time, kept as a test oracle.

The program sweeps a group of stories, of one length or of several, longest
first, stepping both directions over the (2, m, H) state of the stories still
live, and merges every step with one batched product; each story of a group
must get, on its own steps, the bits this per-story code gets.  The per-row cell steps here are the
program's former ``sgru_forward`` and ``sgru_backward``, which evaluate the
skip terms only on a step with a skip ancestor.
"""

from typing import NamedTuple

import numpy as np

from bmrnn.cells import StepTrace, _sigmoid, sgru_inputs, sgru_param_grads


class OracleTrace(NamedTuple):
    """One story's (5, N, H) sweep trace of each direction, in time order,
    and its (N, D) merged output."""

    fwd: np.ndarray
    bwd: np.ndarray
    merged: np.ndarray


def time_order(visits, group):
    """(fwd, bwd): each direction's (5, B, N, H) trace, in time order and
    the group's input order, zero past each story's length, from a
    ``ForwardTrace.visits`` array of shape (5, 2, S + 1, H), read through
    ``group.slots`` (slot 0 holds the zero state)."""
    return visits[:, 0][:, group.slots[0]], visits[:, 1][:, group.slots[1]]


def step_forward(params, xp_t, h_prev, h_skip=None):
    """One skip-cell step on row t of ``sgru_inputs``; h_skip is None on a
    step without a skip ancestor, and s is None there."""
    a = [xp_t[0] + params.W_zh @ h_prev + params.b_z,
         xp_t[1] + params.W_rh @ h_prev + params.b_r]
    if h_skip is not None:
        a.append(xp_t[3] + params.W_sh @ h_skip + params.b_s)
    gates = _sigmoid(np.concatenate(a)).reshape(len(a), -1)
    z, r = gates[0], gates[1]
    s = gates[2] if h_skip is not None else None
    a_h = xp_t[2] + params.W_hh @ (r * h_prev)
    if s is not None:
        a_h = a_h + params.W_hp @ (s * h_skip)
    h_tilde = np.tanh(a_h + params.b_h)
    h = z * h_tilde + (1.0 - z) * h_prev
    return StepTrace(z, r, s, h_tilde, h)


def step_backward(params, h_prev, h_skip, trace, dh_t):
    """One step's (da, dh_prev, dh_skip); h_skip is None without an ancestor."""
    z, r, s, h_tilde, _ = trace
    dz = dh_t * (h_tilde - h_prev)
    dh_tilde = dh_t * z
    dh_prev = dh_t * (1.0 - z)
    da_h = dh_tilde * (1.0 - h_tilde * h_tilde)
    drh = params.W_hh.T @ da_h
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r
    dh_skip = da_s = np.zeros_like(dh_prev)
    if h_skip is not None:
        dsh = params.W_hp.T @ da_h
        ds = dsh * h_skip
        da_s = ds * s * (1.0 - s)
        dh_skip = dsh * s + params.W_sh.T @ da_s
    da_z = dz * z * (1.0 - z)
    dh_prev = dh_prev + params.W_zh.T @ da_z
    da_r = dr * r * (1.0 - r)
    dh_prev = dh_prev + params.W_rh.T @ da_r
    return np.stack([da_z, da_r, da_h, da_s]), dh_prev, dh_skip


def ancestor_maps(skips):
    """{step: the step whose state it reads} of each sweep: the forward sweep
    lets step t read step p for each pair (p, t), and the backward sweep,
    which computes t first, lets p read t."""
    return {t: p for p, t in skips.pairs}, {p: t for p, t in skips.pairs}


def sweep(cell, x, anc, order):
    """One directional pass over one story, with the ancestor map ``anc``,
    as a (5, N, H) trace."""
    T = np.zeros((5, len(x), cell.hidden_dim))
    xp = sgru_inputs(cell, x)
    h_prev = zero = np.zeros(cell.hidden_dim)
    for t in order:
        p = anc.get(t)
        z, r, s, h_tilde, h_prev = step_forward(cell, xp[t], h_prev,
                                                None if p is None else T[4, p])
        T[:, t] = z, r, zero if s is None else s, h_tilde, h_prev
    return T


def sweep_backward(cell, grads, x, anc, order, T, dh, dX):
    """BPTT through one ``sweep`` trace, adding into ``grads`` and ``dX``."""
    n, hidden = len(x), cell.hidden_dim
    H_prev, H_skip = np.zeros((2, n, hidden))
    H_prev[order[1:]] = T[4, order[:-1]]
    for d, a in anc.items():
        H_skip[d] = T[4, a]
    carry, skip_acc, dA = np.zeros(hidden), np.zeros((n, hidden)), np.empty((n, 4, hidden))
    for t in reversed(order):
        p = anc.get(t)
        dA[t], carry, dh_skip = step_backward(
            cell, H_prev[t], None if p is None else H_skip[t], T[:, t],
            dh[t] + carry + skip_acc[t])
        if p is not None:
            skip_acc[p] += dh_skip
    dX += sgru_param_grads(cell, grads, x, H_prev, T[1], H_skip, T[2], dA)


def forward(params, story, skips) -> OracleTrace:
    n, (anc_f, anc_b) = story.N, ancestor_maps(skips)
    fwd = sweep(params.fwd, story.rows, anc_f, range(n))
    bwd = sweep(params.bwd, story.rows, anc_b, range(n - 1, -1, -1))
    merged = np.stack([params.merge_f @ fwd[4, t] + params.merge_b @ bwd[4, t] + params.b_merge
                       for t in range(n)])
    return OracleTrace(fwd, bwd, merged)


def backward(params, story, skips, trace, dH):
    """(gradients shaped like params, dL/dX) of one story."""
    n, (anc_f, anc_b) = story.N, ancestor_maps(skips)
    grads, dX = params.zeros_like(), np.zeros_like(story.rows)
    grads.merge_f += dH.T @ trace.fwd[4]
    grads.merge_b += dH.T @ trace.bwd[4]
    grads.b_merge += dH.sum(axis=0)
    sweep_backward(params.fwd, grads.fwd, story.rows, anc_f, range(n), trace.fwd,
                   dH @ params.merge_f, dX)
    sweep_backward(params.bwd, grads.bwd, story.rows, anc_b,
                   range(n - 1, -1, -1), trace.bwd, dH @ params.merge_b, dX)
    return grads, dX
