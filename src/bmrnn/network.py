"""Bidirectional multi-thread recurrent network over photo streams.

Two skip-gated recurrent passes run over each story with fully independent
parameter sets: the forward pass walks t = 0..N-1 with skip edges pointing
past-to-future, the backward pass walks t = N-1..0 with the transposed skip
edges.  Neither pass sees the other's state; a linear merge combines the two
hidden sequences into the output sequence H = {h_0..h_{N-1}} used to score
sentence sequences.

Stories are swept together as a ``StoryGroup``, over one (B, H) state per
direction; shorter stories are zero-padded to the group's longest, and each
story keeps the bits of a sweep of its own.  Both passes start each story
from zero state: a padded step stores a zero state, so the backward pass
starts a short story at its own last step.  Full backpropagation through
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
    matvecs,
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
from .skips import SkipMatrix

__all__ = [
    "BMRNNParams",
    "StoryStream",
    "StoryGroup",
    "ForwardTrace",
    "story_groups",
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
        """Make ``flat`` the buffer and every field a view into it; the leading
        axes of a (..., P) buffer lead every field too."""
        views, start = {}, 0
        for name, shape in self.layout():
            end = start + math.prod(shape)
            views[name] = flat[..., start:end].reshape(*flat.shape[:-1], *shape)
            start = end
        self.flat = flat
        self.fwd = SGRUParams.from_named(views, "fwd.")
        self.bwd = SGRUParams.from_named(views, "bwd.")
        self.merge_f, self.merge_b, self.b_merge = (
            views["merge_f"], views["merge_b"], views["b_merge"]
        )

    def with_flat(self, flat: np.ndarray) -> "BMRNNParams":
        """Tensors of this model's shapes over ``flat``: one (P,) parameter
        vector, or a (B, P) buffer whose fields carry the B axis first."""
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
        return self.merge_f.shape[-2]

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
        return self.with_flat(self.flat.copy())

    def zeros_like(self, *batch: int) -> "BMRNNParams":
        """Zeros of this model's shapes; ``zeros_like(B)`` has a (B, P) buffer."""
        return self.with_flat(np.zeros((*batch, self.flat.shape[-1])))


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


class StoryGroup(NamedTuple):
    """B stories swept together, zero-padded to the longest, N steps: their
    (B, N, D) inputs, (2, B, N) skip ancestors, -1 for none and on padded
    steps (row 0 for the forward pass, row 1, each step's skip descendant,
    whose state it reads, for the backward pass), and (B,) lengths."""

    x: np.ndarray
    skips: np.ndarray
    lengths: np.ndarray

    @property
    def N(self) -> int:
        return self.x.shape[1]

    def live(self) -> np.ndarray:
        """(B, N, 1): whether each step is one of its story's own."""
        return (np.arange(self.N) < self.lengths[:, None])[..., None]

    @classmethod
    def of(cls, stories: list[StoryStream], skip_matrices: list[SkipMatrix]) -> "StoryGroup":
        lengths = [s.N for s in stories]
        if not stories or lengths != [m.n for m in skip_matrices]:
            raise ShapeMismatchError("story group", lengths, [m.n for m in skip_matrices])
        x = np.zeros((len(stories), max(lengths), stories[0].x.shape[1]))
        skips = np.full((2, *x.shape[:2]), -1)
        for b, (story, m) in enumerate(zip(stories, skip_matrices)):
            x[b, : story.N] = story.x
            skips[:, b, : story.N] = m.ancestors, m.descendants
        return cls(x, skips, np.array(lengths))


class ForwardTrace(NamedTuple):
    """Everything the backward pass needs.  ``fwd`` and ``bwd`` are each
    direction's (5, B, N, H) sweep trace: rows z, r, s, h~ and h of every step
    (s is zero on a step without a skip ancestor); ``merged`` is the (B, N, D)
    output."""

    fwd: np.ndarray
    bwd: np.ndarray
    merged: np.ndarray


def init_bmrnn_params(
    input_dim: int, hidden_dim: int, output_dim: int, rng: SeededRng
) -> BMRNNParams:
    """Random init for both passes and the merge; biases (incl. merge) zero."""
    return BMRNNParams(
        fwd=init_sgru_params(input_dim, hidden_dim, rng),
        bwd=init_sgru_params(input_dim, hidden_dim, rng),
        merge_f=init_params(output_dim, hidden_dim, rng),
        merge_b=init_params(output_dim, hidden_dim, rng),
        b_merge=np.zeros(output_dim),
    )


def story_groups(stories: list[StoryStream], skip_matrices: list[SkipMatrix]):
    """[(positions, group)]: the stories in one ``StoryGroup`` per length,
    with their positions in the input."""
    by_length: dict[int, list[int]] = {}
    for i, story in enumerate(stories):
        by_length.setdefault(story.N, []).append(i)
    return [(pos, StoryGroup.of([stories[i] for i in pos], [skip_matrices[i] for i in pos]))
            for pos in by_length.values()]


def _sweep(cell: SGRUParams, X: np.ndarray, anc: np.ndarray, order, live) -> np.ndarray:
    """One directional pass over a group's (B, N, D) inputs, visiting the
    steps in ``order``, as a (5, B, N, H) trace.  A step's previous state is
    that of the step visited just before it (zero for the first), and its
    skip ancestor ``anc[:, t]`` (-1 for none) was visited earlier.  A padded
    step (``live`` False) stores a zero state."""
    B, n = anc.shape
    T, h_prev = np.zeros((5, B, n, cell.hidden_dim)), np.zeros((B, cell.hidden_dim))
    xp, rows, has = sgru_inputs(cell, X), np.arange(B), (anc >= 0)[..., None]
    for t in order:
        # a row without an ancestor reads some state through -1; the cell ignores it
        step = sgru_forward(cell, xp[:, t], h_prev, T[4, rows, anc[:, t]], has[:, t])
        step = step._replace(h=np.where(live[:, t], step.h, 0.0))
        T[:, :, t] = step
        h_prev = step.h
    return T


def _sweep_backward(cell, grads, X, anc, order, T, dh, dX, parts) -> None:
    """BPTT through one ``_sweep`` trace ``T``: steps in reverse visiting
    order; dh_prev flows to the step visited before, dh_skip accumulates on
    the skip ancestor.  ``sgru_param_grads`` then adds into the group's
    ``grads``, whose tensors lead with the B axis, and into ``dX``, over each
    of the (stories, steps) ``parts``, which leave padded steps out.  A
    padded step has zero ``dh`` and no skip: in the forward pass the carry
    out of it into its story's last step is a zero (+0.0 or -0.0), which
    leaves that step unchanged; in the backward pass the carry flows only
    from a story's steps into padded ones."""
    B, n = anc.shape
    hidden, rows, has = cell.hidden_dim, np.arange(B), (anc >= 0)[..., None]
    H_prev = np.zeros((B, n, hidden))
    H_prev[:, order[1:]] = T[4][:, order[:-1]]
    H_skip = np.where(has, T[4, rows[:, None], anc], 0.0)   # zero without a skip
    carry, dA = np.zeros((B, hidden)), np.empty((B, n, 4, hidden))
    skip_acc = np.zeros((B, n + 1, hidden))    # rows without a skip add their zeros at -1
    for t in reversed(order):
        dA[:, t], carry, dh_skip = sgru_backward(
            cell, H_prev[:, t], H_skip[:, t], has[:, t], T[:, :, t],
            dh[:, t] + carry + skip_acc[:, t])
        skip_acc[rows, anc[:, t]] += dh_skip
    for i, s in parts:
        part = SGRUParams.from_named({name: g[i] for name, g in grads.named_tensors()})
        dX[i, s] += sgru_param_grads(cell, part, X[i, s], H_prev[i, s], T[1][i, s],
                                     H_skip[i, s], T[2][i, s], dA[i, s])


def bmrnn_forward(params: BMRNNParams, group: StoryGroup) -> ForwardTrace:
    """Run both directional passes over a ``StoryGroup`` and merge their
    hidden sequences.

    The forward pass walks t = 0..N-1 with skip ancestors p < t; the
    backward pass walks t = N-1..0 with the transposed skips, so its
    "previous" state at step t is that of step t+1.
    """
    n, live = group.N, group.live()
    fwd = _sweep(params.fwd, group.x, group.skips[0], range(n), live)
    bwd = _sweep(params.bwd, group.x, group.skips[1], range(n - 1, -1, -1), live)
    # one matrix-vector product per step, not one GEMM: the reduction to a
    # plain bidirectional GRU is compared bit for bit, and a GEMM rounds differently
    merged = matvecs(params.merge_f, fwd[4]) + matvecs(params.merge_b, bwd[4]) + params.b_merge
    return ForwardTrace(fwd, bwd, merged)


def bmrnn_backward(params: BMRNNParams, group: StoryGroup, trace: ForwardTrace, dH: np.ndarray):
    """Backpropagate a group's (B, N, D) dL/dH, one row per merged output,
    back to params and x; rows past a story's length are ignored.  Returns
    the gradients, shaped like params with the B axis first (one (B, P)
    buffer), and the (B, N, input_dim) dL/dx, zero on padded steps.
    """
    B, n = group.skips.shape[1:]
    if dH.shape[:2] != (B, n):
        raise ShapeMismatchError("bmrnn_backward", dH.shape[:2], (B, n))
    grads, dX = params.zeros_like(B), np.zeros_like(group.x)
    # a GEMM's bits depend on its row count, so each story's products run over
    # its own steps: stacked (numpy runs one GEMM per story) unless padded, as
    # a per-story loop made sind-short's unpadded minibatches train 11% slower
    parts = ([(slice(None), slice(None))] if group.lengths.min() == n
             else [(b, slice(0, m)) for b, m in enumerate(group.lengths)])
    dh_f, dh_b = np.zeros((2, B, n, params.hidden_dim))
    for i, s in parts:
        grads.merge_f[i] += dH[i, s].mT @ trace.fwd[4][i, s]
        grads.merge_b[i] += dH[i, s].mT @ trace.bwd[4][i, s]
        grads.b_merge[i] += dH[i, s].sum(axis=-2)
        dh_f[i, s], dh_b[i, s] = dH[i, s] @ params.merge_f, dH[i, s] @ params.merge_b

    _sweep_backward(params.fwd, grads.fwd, group.x, group.skips[0], range(n),
                    trace.fwd, dh_f, dX, parts)
    _sweep_backward(params.bwd, grads.bwd, group.x, group.skips[1],
                    range(n - 1, -1, -1), trace.bwd, dh_b, dX, parts)
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
