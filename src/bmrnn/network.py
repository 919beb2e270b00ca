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

import numpy as np

from .cells import (
    SGRUParams,
    StepTrace,
    init_sgru_params,
    sgru_backward,
    sgru_forward,
    sgru_layout,
)
from .errors import DataError, ShapeMismatchError
from .numeric import SeededRng, init_params, stack_rows
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


@dataclass
class ForwardTrace:
    """Everything the backward pass needs: per-step traces and the (N, D) merge."""

    fwd_traces: list[StepTrace]
    bwd_traces: list[StepTrace]
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


def _sweep(cell: SGRUParams, x: np.ndarray, skips: SkipMatrix, order) -> list[StepTrace]:
    """One directional pass visiting the steps in ``order``.  A step's
    previous state is that of the step visited just before it (zero for the
    first), and its skip ancestor, always visited earlier, comes from
    ``skips``."""
    traces: list[StepTrace | None] = [None] * len(x)
    h_prev = np.zeros(cell.hidden_dim)
    for t in order:
        anc = skips.ancestor_of(t)
        h_skip = traces[anc].h if anc is not None else None
        traces[t] = sgru_forward(cell, x[t], h_prev, h_skip)
        h_prev = traces[t].h
    return traces


def _sweep_backward(cell, grads, x, skips, order, traces, dh, dX) -> None:
    """BPTT through one ``_sweep``: steps in reverse visiting order; dh_prev
    flows to the step visited before, dh_skip accumulates on the skip
    ancestor.  Adds into ``grads`` and ``dX``."""
    hidden = cell.hidden_dim
    carry = np.zeros(hidden)
    skip_acc = np.zeros((len(x), hidden))
    for i in reversed(range(len(order))):
        t = order[i]
        upstream = dh[t] + carry + skip_acc[t]
        anc = skips.ancestor_of(t)
        h_prev = traces[order[i - 1]].h if i > 0 else np.zeros(hidden)
        h_skip = traces[anc].h if anc is not None else None
        g = sgru_backward(cell, x[t], h_prev, h_skip, traces[t], upstream, grads)
        dX[t] += g.dx
        carry = g.dh_prev
        if anc is not None:
            skip_acc[anc] += g.dh_skip


def bmrnn_forward(params: BMRNNParams, story: StoryStream, skips: SkipMatrix) -> ForwardTrace:
    """Run both directional passes and merge their hidden sequences.

    The forward pass walks t = 0..N-1 with skip ancestors p < t; the
    backward pass walks t = N-1..0 with the transposed skips, so its
    "previous" state at step t is that of step t+1.
    """
    n = story.N
    if skips.n != n:
        raise ShapeMismatchError("bmrnn_forward", (skips.n,), (n,))
    fwd_traces = _sweep(params.fwd, story.x, skips, range(n))
    bwd_traces = _sweep(params.bwd, story.x, transpose_skips(skips), range(n - 1, -1, -1))
    # per step, not one GEMM: the reduction to a plain bidirectional GRU is
    # compared bit for bit, and a batched product rounds differently
    merged = np.stack([
        params.merge_f @ fwd_traces[t].h + params.merge_b @ bwd_traces[t].h + params.b_merge
        for t in range(n)
    ])
    return ForwardTrace(fwd_traces=fwd_traces, bwd_traces=bwd_traces, merged=merged)


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
    grads.merge_f += dH.T @ np.stack([tr.h for tr in trace.fwd_traces])
    grads.merge_b += dH.T @ np.stack([tr.h for tr in trace.bwd_traces])
    grads.b_merge += dH.sum(axis=0)

    _sweep_backward(params.fwd, grads.fwd, story.x, skips, range(n),
                    trace.fwd_traces, dH @ params.merge_f, dX)
    _sweep_backward(params.bwd, grads.bwd, story.x, transpose_skips(skips),
                    range(n - 1, -1, -1), trace.bwd_traces, dH @ params.merge_b, dX)
    return grads, dX


# ---------------------------------------------------------------------------
# model file format: magic "BMRN", u16 version, u32 tensor count, then per
# tensor a u16-length-prefixed UTF-8 name, u32 rank, u32 dims, and the data
# as little-endian float32 in row-major order
# ---------------------------------------------------------------------------


FLOAT32_MAX = float(np.finfo(np.float32).max)   # the largest entry a model file holds


def save_model(path, params: BMRNNParams) -> None:
    tensors = list(params.named_tensors())
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<HI", MODEL_VERSION, len(tensors)))
        for name, t in tensors:
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", t.ndim))
            f.write(struct.pack(f"<{t.ndim}I", *t.shape))
            f.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def _read_exact(f, count: int, path, what: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise DataError(f"truncated model file while reading {what}", path=str(path))
    return buf


def load_model(path) -> BMRNNParams:
    """Read a model file back into parameters (stored as float32, upcast)."""
    named: dict[str, np.ndarray] = {}
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise DataError("model file not found", path=str(path)) from None
    with f:
        magic = _read_exact(f, 4, path, "magic")
        if magic != MODEL_MAGIC:
            raise DataError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}", path=str(path))
        version, count = struct.unpack("<HI", _read_exact(f, 6, path, "header"))
        if version != MODEL_VERSION:
            raise DataError(f"unsupported model format version {version}", path=str(path))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, path, "name length"))
            name = _read_exact(f, name_len, path, "name").decode("utf-8")
            if name in named:
                raise DataError(f"duplicate tensor {name!r}", path=str(path))
            (rank,) = struct.unpack("<I", _read_exact(f, 4, path, "rank"))
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, path, "dims"))
            n_items = int(np.prod(dims)) if rank else 1
            data = np.frombuffer(
                _read_exact(f, 4 * n_items, path, f"data of {name!r}"), dtype="<f4"
            )
            if not np.all(np.isfinite(data)):
                raise DataError(f"tensor {name!r} holds non-finite values", path=str(path))
            named[name] = data.astype(float).reshape(dims)
        if f.read(1):
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
