"""Bidirectional multi-thread recurrent network over photo streams.

Two skip-gated recurrent passes run over each story with fully independent
parameter sets: the forward pass walks t = 0..N-1 with skip edges pointing
past-to-future, the backward pass walks t = N-1..0 with the transposed skip
edges.  Neither pass sees the other's state; a linear merge combines the two
hidden sequences into the output sequence H = {h_0..h_{N-1}} used to score
sentence sequences.

Both passes start from zero initial state.  Full backpropagation through
time is implemented, including gradient flow across skip edges (each edge
carries gradient exactly once per pair).
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cells import (
    SGRUParams,
    init_sgru_params,
    sgru_backward,
    sgru_forward,
    sgru_inputs,
    sgru_layout,
    sgru_param_grads,
)
from .errors import DataError, ShapeMismatchError
from .numeric import (
    SeededRng, decode_tensor, encode_tensor, init_params, read_file, stack_rows, write_file,
)
from .skips import SkipMatrix, transpose_skips

__all__ = [
    "BMRNNParams",
    "StoryStream",
    "ForwardTrace",
    "init_bmrnn_params",
    "bmrnn_forward",
    "bmrnn_backward",
    "save_model",
    "load_model",
    "MODEL_MAGIC",
    "MODEL_VERSION",
]

MODEL_MAGIC = b"BMRN"
MODEL_VERSION = 1


def bmrnn_layout(input_dim: int, hidden_dim: int, output_dim: int):
    """(name, shape) of all 29 tensors in canonical order: the model file's."""
    cell, merge = sgru_layout(input_dim, hidden_dim), (output_dim, hidden_dim)
    return [(f"{d}.{n}", shape) for d in ("fwd", "bwd") for n, shape in cell] + [
        ("merge_f", merge), ("merge_b", merge), ("b_merge", (output_dim,))
    ]


@dataclass
class BMRNNParams:
    """Parameters of both directional passes plus the linear merge.

    The two directions share dimensions but never values; training updates
    them independently.  All 29 tensors live in one contiguous float64
    buffer ``flat``, in canonical order; the fields are views into it, so
    an in-place write to a field is a write to ``flat`` and whole-model
    operations (zeroing, copying, optimizer steps) act on ``flat`` at once.
    """

    fwd: SGRUParams
    bwd: SGRUParams
    merge_f: np.ndarray   # (output_dim, hidden_dim)
    merge_b: np.ndarray   # (output_dim, hidden_dim)
    b_merge: np.ndarray   # (output_dim,)
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        """Copy the given tensors into one buffer, checking every shape."""
        named = dict(self.named_tensors())
        for name in ("fwd.W_zx", "merge_f"):   # every other shape follows from these two
            if np.ndim(named[name]) != 2:
                raise ShapeMismatchError(name, np.shape(named[name]), ("rows", "cols"))
        layout = self.layout()
        for name, shape in layout:
            if np.shape(named[name]) != shape:
                raise ShapeMismatchError(name, np.shape(named[name]), shape)
        self._bind(np.concatenate([np.ravel(named[n]) for n, _ in layout], dtype=float))

    def _bind(self, flat: np.ndarray) -> None:
        """Make ``flat`` the buffer and every field a view into it."""
        views, start = {}, 0
        for name, shape in self.layout():
            end = start + math.prod(shape)
            views[name] = flat[start:end].reshape(shape)
            start = end
        self.flat = flat
        self.fwd = SGRUParams.from_named(views, "fwd.")
        self.bwd = SGRUParams.from_named(views, "bwd.")
        self.merge_f, self.merge_b, self.b_merge = (
            views["merge_f"], views["merge_b"], views["b_merge"]
        )

    def _with_flat(self, flat: np.ndarray) -> "BMRNNParams":
        out = copy.copy(self)
        out._bind(flat)
        return out

    @property
    def input_dim(self) -> int:
        return self.fwd.input_dim

    @property
    def hidden_dim(self) -> int:
        return self.fwd.hidden_dim

    @property
    def output_dim(self) -> int:
        return self.merge_f.shape[0]

    def layout(self):
        return bmrnn_layout(self.input_dim, self.hidden_dim, self.output_dim)

    def named_tensors(self):
        for name, t in self.fwd.named_tensors():
            yield f"fwd.{name}", t
        for name, t in self.bwd.named_tensors():
            yield f"bwd.{name}", t
        yield "merge_f", self.merge_f
        yield "merge_b", self.merge_b
        yield "b_merge", self.b_merge

    def copy(self) -> "BMRNNParams":
        return self._with_flat(self.flat.copy())

    def zeros_like(self) -> "BMRNNParams":
        return self._with_flat(np.zeros_like(self.flat))


@dataclass
class StoryStream:
    """One photo stream: embeddings x, plus optional raw features.

    ``x`` is an (N, D) array, one row per photo; ``raw_fc`` holds the
    pre-embedding feature rows consumed only by skip detection.  Both
    accept a list of rows.
    """

    story_id: str
    x: np.ndarray
    raw_fc: np.ndarray | None = None

    def __post_init__(self):
        self.x = stack_rows(self.x, "story_stream")
        if len(self.x) < 1:
            raise DataError("story must contain at least one step", story_id=self.story_id)
        if self.raw_fc is not None:
            self.raw_fc = stack_rows(self.raw_fc, "story_stream")
            if len(self.raw_fc) != len(self.x):
                raise DataError(
                    f"raw feature count {len(self.raw_fc)} != step count {len(self.x)}",
                    story_id=self.story_id,
                )

    @property
    def N(self) -> int:
        return len(self.x)


class ForwardTrace(NamedTuple):
    """Everything the backward pass needs.  ``fwd`` and ``bwd`` are each
    direction's (5, N, H) sweep trace: rows z, r, s, h~ and h of every step
    (s is zero on a step without a skip ancestor).  ``merged`` is the (N, D)
    output."""

    fwd: np.ndarray
    bwd: np.ndarray
    merged: np.ndarray


def init_bmrnn_params(
    input_dim: int,
    hidden_dim: int,
    output_dim: int,
    rng: SeededRng,
    scale: float | None = None,
) -> BMRNNParams:
    """Random init for both passes and the merge; biases (incl. merge) zero."""
    return BMRNNParams(
        fwd=init_sgru_params(input_dim, hidden_dim, rng, scale=scale),
        bwd=init_sgru_params(input_dim, hidden_dim, rng, scale=scale),
        merge_f=init_params(output_dim, hidden_dim, rng, scale=scale),
        merge_b=init_params(output_dim, hidden_dim, rng, scale=scale),
        b_merge=np.zeros(output_dim),
    )


def _sweep(cell: SGRUParams, x: np.ndarray, skips: SkipMatrix, order) -> np.ndarray:
    """One directional pass visiting the steps in ``order``, as a (5, N, H)
    trace.  A step's previous state is that of the step visited just before
    it (zero for the first), and its skip ancestor, always visited earlier,
    comes from ``skips``."""
    T = np.zeros((5, len(x), cell.hidden_dim))
    xp = sgru_inputs(cell, x)
    h_prev = zero = np.zeros(cell.hidden_dim)
    for t in order:
        anc = skips.ancestor_of(t)
        z, r, s, h_tilde, h_prev = sgru_forward(
            cell, xp[t], h_prev, None if anc is None else T[4, anc])
        T[:, t] = z, r, zero if s is None else s, h_tilde, h_prev
    return T


def _sweep_backward(cell, grads, x, skips, order, T, dh, dX) -> None:
    """BPTT through one ``_sweep`` trace ``T``: steps in reverse visiting
    order; dh_prev flows to the step visited before, dh_skip accumulates on
    the skip ancestor.  ``sgru_param_grads`` then adds into ``grads`` and
    ``dX``."""
    n, hidden = len(x), cell.hidden_dim
    H_prev, H_skip = np.zeros((2, n, hidden))   # skip rows stay zero without a skip
    H_prev[order[1:]] = T[4, order[:-1]]
    anc, desc = np.array(skips.pairs, dtype=int).reshape(-1, 2).T
    H_skip[desc] = T[4, anc]
    carry = np.zeros(hidden)
    skip_acc = np.zeros((n, hidden))
    dA = np.empty((n, 4, hidden))
    for t in reversed(order):
        p = skips.ancestor_of(t)
        dA[t], carry, dh_skip = sgru_backward(
            cell, H_prev[t], None if p is None else H_skip[t], T[:, t],
            dh[t] + carry + skip_acc[t])
        if p is not None:
            skip_acc[p] += dh_skip
    dX += sgru_param_grads(cell, grads, x, H_prev, T[1], H_skip, T[2], dA)


def bmrnn_forward(params: BMRNNParams, story: StoryStream, skips: SkipMatrix) -> ForwardTrace:
    """Run both directional passes and merge their hidden sequences.

    The forward pass walks t = 0..N-1 with skip ancestors p < t; the
    backward pass walks t = N-1..0 with the transposed skips, so its
    "previous" state at step t is that of step t+1.
    """
    n = story.N
    if skips.n != n:
        raise ShapeMismatchError("bmrnn_forward", (skips.n,), (n,))
    fwd = _sweep(params.fwd, story.x, skips, range(n))
    bwd = _sweep(params.bwd, story.x, transpose_skips(skips), range(n - 1, -1, -1))
    # per step, not one GEMM: the reduction to a plain bidirectional GRU is
    # compared bit for bit, and a batched product rounds differently
    merged = np.stack([
        params.merge_f @ fwd[4, t] + params.merge_b @ bwd[4, t] + params.b_merge
        for t in range(n)
    ])
    return ForwardTrace(fwd, bwd, merged)


def bmrnn_backward(
    params: BMRNNParams,
    story: StoryStream,
    skips: SkipMatrix,
    trace: ForwardTrace,
    dH: np.ndarray,
) -> tuple[BMRNNParams, np.ndarray]:
    """Backpropagate dL/dH, one row per merged output, back to params and x.

    Returns (gradients shaped like params, dL/dx as an (N, input_dim) array).
    """
    n = story.N
    dH = np.asarray(dH, dtype=float)
    if len(dH) != n:
        raise ShapeMismatchError("bmrnn_backward", (len(dH),), (n,))
    grads = params.zeros_like()
    dX = np.zeros_like(story.x)

    # merge layer
    grads.merge_f += dH.T @ trace.fwd[4]
    grads.merge_b += dH.T @ trace.bwd[4]
    grads.b_merge += dH.sum(axis=0)

    _sweep_backward(params.fwd, grads.fwd, story.x, skips, range(n),
                    trace.fwd, dH @ params.merge_f, dX)
    _sweep_backward(params.bwd, grads.bwd, story.x, transpose_skips(skips),
                    range(n - 1, -1, -1), trace.bwd, dH @ params.merge_b, dX)
    return grads, dX


# ---------------------------------------------------------------------------
# model file format: magic "BMRN", u16 version, u32 tensor count, then per
# tensor a u16-length-prefixed UTF-8 name and a tensor record
# (numeric.encode_tensor: u32 rank, u32 dims, little-endian float32 row-major)
# ---------------------------------------------------------------------------


FLOAT32_MAX = float(np.finfo(np.float32).max)   # the largest entry a model file holds


def save_model(path, params: BMRNNParams) -> None:
    tensors = list(params.named_tensors())
    parts = [MODEL_MAGIC + struct.pack("<HI", MODEL_VERSION, len(tensors))]
    for name, t in tensors:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)) + raw + encode_tensor(t))
    write_file(path, b"".join(parts), "model file")


def load_model(path) -> BMRNNParams:
    """Read a model file back into parameters (stored as float32, upcast)."""
    raw = read_file(path, "model file")
    if raw[:4] != MODEL_MAGIC:
        raise DataError(f"bad magic {raw[:4]!r}, expected {MODEL_MAGIC!r}", path=str(path))
    if len(raw) < 10:
        raise DataError("truncated model file header", path=str(path))
    version, count = struct.unpack_from("<HI", raw, 4)
    if version != MODEL_VERSION:
        raise DataError(f"unsupported model format version {version}", path=str(path))
    named: dict[str, np.ndarray] = {}
    offset = 10
    for i in range(count):
        # a length prefix cut short reads as less than 2 bytes, so the name overruns too
        name_end = offset + 2 + int.from_bytes(raw[offset : offset + 2], "little")
        if name_end > len(raw):
            raise DataError(f"truncated model file in the name of tensor {i}", path=str(path))
        name = raw[offset + 2 : name_end].decode("utf-8", errors="replace")
        if name in named:
            raise DataError(f"duplicate tensor {name!r}", path=str(path))
        named[name], offset = decode_tensor(raw, name_end, path, name=name)
    if offset != len(raw):
        raise DataError("trailing bytes after last tensor", path=str(path))

    expected = [name for name, _ in bmrnn_layout(0, 0, 0)]
    missing = [n for n in expected if n not in named]
    unknown = [n for n in named if n not in expected]
    if missing:
        raise DataError(f"missing tensors: {', '.join(missing)}", path=str(path))
    if unknown:
        raise DataError(f"unknown tensors: {', '.join(unknown)}", path=str(path))
    try:
        return BMRNNParams(
            fwd=SGRUParams.from_named(named, "fwd."),
            bwd=SGRUParams.from_named(named, "bwd."),
            merge_f=named["merge_f"],
            merge_b=named["merge_b"],
            b_merge=named["b_merge"],
        )
    except ShapeMismatchError as e:
        raise DataError(
            f"tensor {e.op!r} has shape {e.left}, expected {e.right}", path=str(path)
        ) from None
