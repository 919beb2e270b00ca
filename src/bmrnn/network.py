"""Bidirectional multi-thread recurrent network over photo streams.

Two skip-gated recurrent passes run over each story with fully independent
parameter sets: the forward pass walks t = 0..N-1 with skip edges pointing
past-to-future, the backward pass walks t = N-1..0 with the transposed skip
edges.  Neither pass sees the other's state; a linear merge combines the two
hidden sequences into the output sequence H = {h_0..h_{N-1}} used to score
sentence sequences.

Stories are swept together as a zero-padded ``StoryGroup``, and one loop
steps both passes over one (2, B, H) state: visit k is step k forward and
step N-1-k backward.  Each story keeps the bits of a sweep of its own from
zero state (a padded step stores one).  A training minibatch is one group; a
sweep over a whole split takes ``story_groups``' length buckets.  Full
backpropagation through time is implemented, including gradient flow across
skip edges (each edge carries gradient exactly once per pair).
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass
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

# story_groups' buckets.  A group step costs nearly the same at any B, so
# stories of near lengths share steps, up to a quarter of them padding.  The
# cap bounds a sweep's arrays: one group of 1,000 steps made glibc give back
# and re-fault about 920 pages per call; 512 halves that (README has the figures)
BUCKET_PADDING = 0.25
BUCKET_STEPS = 512


@functools.cache
def _table(input_dim: int, hidden_dim: int, output_dim: int):
    """(name, start, end, shape) of all 29 tensors in canonical order, the
    model file's: each one's slice of a model's parameter vector."""
    cell, merge = sgru_layout(input_dim, hidden_dim), (output_dim, hidden_dim)
    shapes = [(f"{d}.{n}", shape) for d in ("fwd", "bwd") for n, shape in cell] + [
        ("merge_f", merge), ("merge_b", merge), ("b_merge", (output_dim,))]
    ends = itertools.accumulate(math.prod(shape) for _, shape in shapes)
    return tuple((name, end - math.prod(shape), end, shape)
                 for (name, shape), end in zip(shapes, ends))


def _view(flat: np.ndarray, start: int, end: int, shape: tuple[int, ...]) -> np.ndarray:
    """One tensor of a (..., P) buffer, its leading axes first."""
    return flat[..., start:end].reshape(flat.shape[:-1] + shape)


class BMRNNParams:
    """Parameters of both directional passes plus the linear merge.

    The two directions share dimensions but never values; training updates
    them independently.  All 29 tensors live in one contiguous float64
    buffer ``flat``, in canonical order, and are read through the table of
    the model's ``dims`` (input, hidden, output): ``named_tensors()``,
    ``fwd``, ``bwd``, ``cells`` and the merge tensors are views into it, so
    an in-place write to one is a write to ``flat``, and whole-model
    operations (zeroing, copying, optimizer steps) act on ``flat`` at once.
    ``flat`` is one (P,) parameter vector, or a (B, P) buffer whose views
    carry the B axis first.  ``cells`` views both directions' (adjacent)
    cells as one of (2, B, ...) tensors, B = 1 for (P,).
    """

    def __init__(self, flat: np.ndarray, dims: tuple[int, int, int]):
        table = _table(*dims)
        cell = table[: len(SGRUParams.NAMES)]     # the forward cell's; the backward's follows
        size = cell[-1][2]
        rows = flat.reshape(-1, flat.shape[-1])[:, : 2 * size]
        both = rows.reshape(-1, 2, size).swapaxes(0, 1)             # (2, B, size)
        self.flat, self.dims = flat, dims
        self.cells = SGRUParams(**{name[4:]: _view(both, *entry) for name, *entry in cell})
        self.merge_f, self.merge_b, self.b_merge = (_view(flat, *entry) for _, *entry in table[-3:])

    @classmethod
    def from_named(cls, tensors: dict) -> "BMRNNParams":
        """A model copied from ``{name: array}`` into one new buffer, checking
        every shape against the table of the dims read off ``fwd.W_zx`` and
        ``merge_f``."""
        for name in ("fwd.W_zx", "merge_f"):   # every other shape follows from these two
            if np.ndim(tensors[name]) != 2:
                raise ShapeMismatchError(name, np.shape(tensors[name]), ("rows", "cols"))
        (hidden, input_dim), output = np.shape(tensors["fwd.W_zx"]), len(tensors["merge_f"])
        table = _table(input_dim, hidden, output)
        for name, _, _, shape in table:
            if np.shape(tensors[name]) != shape:
                raise ShapeMismatchError(name, np.shape(tensors[name]), shape)
        flat = np.concatenate([np.ravel(tensors[name]) for name, *_ in table], dtype=float)
        return cls(flat, (input_dim, hidden, output))

    def with_flat(self, flat: np.ndarray) -> "BMRNNParams":
        """Tensors of this model's shapes over ``flat``, (P,) or (B, P)."""
        return BMRNNParams(flat, self.dims)

    input_dim = property(lambda self: self.dims[0])
    hidden_dim = property(lambda self: self.dims[1])
    output_dim = property(lambda self: self.dims[2])
    # each direction's cell, as views; the sweeps read ``cells``
    fwd = property(lambda self: SGRUParams.from_named(dict(self.named_tensors()), "fwd."))
    bwd = property(lambda self: SGRUParams.from_named(dict(self.named_tensors()), "bwd."))

    def named_tensors(self):
        """(name, view) of every tensor, in canonical order."""
        for name, *entry in _table(*self.dims):
            yield name, _view(self.flat, *entry)

    def copy(self) -> "BMRNNParams":
        return self.with_flat(self.flat.copy())

    def zeros_like(self, *batch: int) -> "BMRNNParams":
        """Zeros of this model's shapes; ``zeros_like(B)`` has a (B, P) buffer."""
        return self.with_flat(np.zeros((*batch, self.flat.shape[-1])))


@dataclass
class StoryStream:
    """One photo stream: its embeddings ``x``, an (N, D) array, one row per
    photo; a list of rows is accepted too."""

    story_id: str
    x: np.ndarray

    def __post_init__(self):
        self.x = stack_rows(self.x, "story_stream")
        if len(self.x) < 1:
            raise DataError("story must contain at least one step", story_id=self.story_id)

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
    """Everything the backward pass needs: the (B, N, D) output ``merged``
    and ``visits``, both directions' sweep trace as one (5, 2, N + 1, B, H)
    array of rows z, r, s, h~ and h (s is zero on a step without a skip
    ancestor), slot k + 1 holding visit k and slot 0 the zero state before it."""

    merged: np.ndarray
    visits: np.ndarray


def init_bmrnn_params(
    input_dim: int, hidden_dim: int, output_dim: int, rng: SeededRng
) -> BMRNNParams:
    """Random init for both passes and the merge; biases (incl. merge) zero.
    Draws all of the forward cell, then the backward one, then the merge maps."""
    named = {f"{d}.{n}": t for d in ("fwd", "bwd")
             for n, t in init_sgru_params(input_dim, hidden_dim, rng).named_tensors()}
    for name in ("merge_f", "merge_b"):
        named[name] = init_params(output_dim, hidden_dim, rng)
    return BMRNNParams.from_named({**named, "b_merge": np.zeros(output_dim)})


def story_groups(stories: list[StoryStream], skip_matrices: list[SkipMatrix]):
    """[(positions, group)]: the stories, sorted by length, in zero-padded
    ``StoryGroup`` buckets, with their positions in the input.  A bucket
    closes before a longer story would make its padding more than
    ``BUCKET_PADDING`` of its B * N steps, or B * N more than
    ``BUCKET_STEPS``; a story longer than the cap has a bucket of its own."""
    buckets: list[list[int]] = []
    live = 0                       # the steps of the last bucket's own stories
    for i in sorted(range(len(stories)), key=lambda i: stories[i].N):
        n = stories[i].N
        steps = (len(buckets[-1]) + 1) * n if buckets else 0
        if not buckets or steps > BUCKET_STEPS or steps - live - n > BUCKET_PADDING * steps:
            buckets.append([])
            live = 0
        buckets[-1].append(i)
        live += n
    return [(pos, StoryGroup.of([stories[i] for i in pos], [skip_matrices[i] for i in pos]))
            for pos in buckets]


def _paired(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """(2, B, N, ...): a forward- and a backward-pass array, the second reversed
    in time (time order to visit order and back), as one new C-ordered array:
    numpy multiplies a strided 1-wide operand without BLAS, which rounds differently."""
    return np.array([fwd, bwd[:, ::-1]])


def _ancestors(group: StoryGroup) -> np.ndarray:
    """(2, B, N): the trace slot of each visit's skip ancestor, 0 for none;
    backward visit k is step N-1-k, and its ancestor, descendant d, visit N-1-d."""
    anc, desc = group.skips
    return _paired(anc + 1, np.where(desc >= 0, group.N - desc, 0))


def bmrnn_forward(params: BMRNNParams, group: StoryGroup) -> ForwardTrace:
    """Run both directional passes over a ``StoryGroup`` and merge their
    hidden sequences.

    The forward pass walks t = 0..N-1 with skip ancestors p < t; the
    backward pass walks t = N-1..0 with the transposed skips, so its
    "previous" state at step t is that of step t+1.  Visit k steps both over
    one (2, B, H) state; a padded step stores a zero state."""
    cells, anc, live = params.cells, _ancestors(group), _paired(group.live(), group.live())
    T = np.zeros((5, 2, group.N + 1, len(group.x), cells.hidden_dim))   # slot 0: the zero state
    xp = sgru_inputs(cells, _paired(group.x, group.x).swapaxes(1, 2))    # (2, N, B, 4, H)
    has, sides, rows = anc > 0, np.arange(2)[:, None], np.arange(len(group.x))
    for k in range(group.N):
        step = sgru_forward(cells, xp[:, k], T[4, :, k], T[4, sides, anc[..., k], rows],
                            has[..., k, None])
        T[:, :, k + 1] = step._replace(h=np.where(live[:, :, k], step.h, 0.0))
    h_f, h_b = T[4, 0, 1:].swapaxes(0, 1), T[4, 1, :0:-1].swapaxes(0, 1)   # in time order
    # one matrix-vector product per step, not one GEMM: the reduction to a
    # plain bidirectional GRU is compared bit for bit, and a GEMM rounds differently
    merged = matvecs(params.merge_f, h_f) + matvecs(params.merge_b, h_b) + params.b_merge
    return ForwardTrace(merged, T)


def bmrnn_backward(params: BMRNNParams, group: StoryGroup, trace: ForwardTrace, dH: np.ndarray):
    """Backpropagate a group's (B, N, D) dL/dH, one row per merged output,
    back to params and x; rows past a story's length are ignored.  Returns
    the gradients, shaped like params with the B axis first (one (B, P)
    buffer), and the (B, N, input_dim) dL/dx, zero on padded steps.

    BPTT walks ``trace.visits`` backwards.  A padded step has zero dh and no
    skip: in the forward pass the carry out of it into its story's last step
    is a zero (+0.0 or -0.0), which leaves that step unchanged; in the
    backward pass the carry flows only from a story's steps into padded ones.
    """
    B, n = group.skips.shape[1:]
    if dH.shape[:2] != (B, n):
        raise ShapeMismatchError("bmrnn_backward", dH.shape[:2], (B, n))
    grads, dX, cells, T = params.zeros_like(B), np.zeros_like(group.x), params.cells, trace.visits
    # a GEMM's bits depend on its row count, so a padded group's products run per
    # story over its own steps; unpadded, stacked ones (per story was 11% slower)
    parts = ([(slice(None), slice(None))] if group.lengths.min() == n
             else [(slice(b, b + 1), slice(0, m)) for b, m in enumerate(group.lengths)])
    dh = np.zeros((2, B, n, params.hidden_dim))      # in visit order
    # numpy multiplies some views of the trace without BLAS, so the merge takes a copy
    dh_f, dh_b, H = dh[0], dh[1, :, ::-1], _paired(*T[4, :, 1:].swapaxes(1, 2))
    for i, s in parts:
        grads.merge_f[i] += dH[i, s].mT @ H[0, i, s]
        grads.merge_b[i] += dH[i, s].mT @ H[1, i, s]
        grads.b_merge[i] += dH[i, s].sum(axis=-2)
        dh_f[i, s], dh_b[i, s] = dH[i, s] @ params.merge_f, dH[i, s] @ params.merge_b
    sides, rows, anc = np.arange(2)[:, None], np.arange(B), _ancestors(group)
    H_skip, has = T[4, sides[..., None], anc, rows[:, None]], (anc > 0)[..., None]   # slot 0: zero
    carry, dA = np.zeros((2, B, cells.hidden_dim)), np.empty((2, B, n, 4, cells.hidden_dim))
    skip_acc = np.zeros((2, B, n + 1, cells.hidden_dim))   # by slot; rows without a skip add at 0
    for k in reversed(range(n)):
        dA[:, :, k], carry, dh_skip = sgru_backward(
            cells, T[4, :, k], H_skip[:, :, k], has[:, :, k], T[:, :, k + 1],
            dh[:, :, k] + carry + skip_acc[:, :, k + 1])
        skip_acc[sides, rows, anc[..., k]] += dh_skip
    # the parameter gradients run in time order: a GEMM over reversed steps rounds differently
    H_skip[1], dA[1] = H_skip[1, :, ::-1], dA[1, :, ::-1]      # numpy copies overlapping views
    H_prev, R, S = (_paired(*a.swapaxes(1, 2)) for a in (T[4, :, :-1], T[1, :, 1:], T[2, :, 1:]))
    for i, s in parts:
        g = SGRUParams(**{k: t[:, i] for k, t in vars(grads.cells).items()})
        for d in sgru_param_grads(cells, g, group.x[None, i, s], H_prev[:, i, s], R[:, i, s],
                                  H_skip[:, i, s], S[:, i, s], dA[:, i, s]):
            dX[i, s] += d      # the forward direction's, then the backward's
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

    expected = [name for name, *_ in _table(0, 0, 0)]
    missing = [n for n in expected if n not in named]
    unknown = [n for n in named if n not in expected]
    if missing:
        raise DataError(f"missing tensors: {', '.join(missing)}", path=str(path))
    if unknown:
        raise DataError(f"unknown tensors: {', '.join(unknown)}", path=str(path))
    try:
        return BMRNNParams.from_named(named)
    except ShapeMismatchError as e:
        raise DataError(
            f"tensor {e.op!r} has shape {e.left}, expected {e.right}", path=str(path)
        ) from None
