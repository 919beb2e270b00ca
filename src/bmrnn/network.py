"""Bidirectional multi-thread recurrent network over photo streams.

Two skip-gated recurrent passes run over each story with fully independent
parameter sets: the forward pass walks t = 0..N-1 with skip edges pointing
past-to-future, the backward pass walks t = N-1..0 with the transposed skip
edges.  Neither pass sees the other's state; a linear merge combines the two
hidden sequences into the output sequence H = {h_0..h_{N-1}} used to score
sentence sequences.

Stories are swept together as a ``StoryGroup``, longest first, and one
loop steps both passes over one (2, B, H) state: visit k is step k forward
and step N_b-1-k backward of each story longer than k, so a sweep steps only
live steps.  Each story keeps the bits of a sweep of its own from zero
state.  A training minibatch is one group; a sweep over a whole split takes
``story_groups``' groups.  Full backpropagation through time is implemented,
including gradient flow across skip edges (each edge carries gradient
exactly once per pair).
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
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
    SeededRng, Sequence, decode_tensor, encode_tensor, init_params, read_file, write_file,
)
from .skips import SkipMatrix

__all__ = [
    "BMRNNParams",
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

# story_groups' cap on a group's live steps.  A visit costs nearly the same
# at any B, so a split sweeps in as few groups as the cap allows; the cap
# bounds a sweep's arrays, which glibc gives back and re-faults on every call
# once they grow past its trim threshold (README has the figures)
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


class StoryGroup(NamedTuple):
    """B stories, longest first (ties in input order), one slot per live
    step.  Visit k steps forward step k and backward step N_b-1-k of the m_k
    stories longer than k, in slots ``starts[k]`` to ``starts[k + 1]``, a
    prefix of the visit before's stories; slot 0 is the zero state.  ``x``
    (S + 1, D) is each forward slot's input, ``fore`` the forward slot of
    each backward slot's step, ``skips`` (2, S + 1) each slot's skip
    ancestor's slot, 0 for none (for the backward pass, the step's skip
    descendant), ``slots`` (2, B, N) the slot of each story's step t, 0 past
    its length, and ``lengths`` (B,), both in input order."""

    x: np.ndarray
    fore: np.ndarray
    skips: np.ndarray
    slots: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    @property
    def N(self) -> int:
        return self.slots.shape[2]

    @classmethod
    def of(cls, stories: list[Sequence], skip_matrices: list[SkipMatrix]) -> "StoryGroup":
        lengths = [s.N for s in stories]
        if not stories or lengths != [m.n for m in skip_matrices]:
            raise ShapeMismatchError("story group", lengths, [m.n for m in skip_matrices])
        order = np.argsort([-n for n in lengths], kind="stable")
        live = np.arange(max(lengths)) < np.array(lengths)[order, None]   # longest first
        starts, (rows, steps) = np.cumsum([1, *live.sum(0)]), np.nonzero(live)
        ends = live.sum(1)[rows] - 1                    # backward step t is visit N_b-1-t
        fwd, bwd = starts[steps] + rows, starts[ends - steps] + rows
        x, fore = np.zeros((starts[-1], stories[0].rows.shape[1])), np.zeros(starts[-1], int)
        x[fwd], fore[bwd] = np.concatenate([stories[b].rows for b in order]), fwd
        anc, desc = (np.concatenate([getattr(skip_matrices[b], kind) for b in order])
                     for kind in ("ancestors", "descendants"))
        skips, slots = np.zeros((2, starts[-1]), int), np.zeros((2, *live.shape), int)
        skips[0, fwd] = np.where(anc >= 0, starts[anc] + rows, 0)
        skips[1, bwd] = np.where(desc >= 0, starts[ends - desc] + rows, 0)
        slots[:, order[rows], steps] = fwd, bwd
        return cls(x, fore, skips, slots, starts, np.array(lengths))


class ForwardTrace(NamedTuple):
    """Everything the backward pass needs: the (B, N, D) output ``merged``,
    in input order and zero past each story's length, and ``visits``, both
    directions' trace as one (5, 2, S + 1, H) array of rows z, r, s, h~ and h
    (s is zero on a step without a skip ancestor) by the group's slots."""

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


def story_groups(stories: list[Sequence], skip_matrices: list[SkipMatrix]):
    """[(positions, group)]: the stories, longest first (ties in input
    order), in ``StoryGroup``s, with their positions in the input.  A group
    closes before the next story would take its live steps past
    ``BUCKET_STEPS``; a story longer than that has a group of its own."""
    groups: list[list[int]] = []
    for i in sorted(range(len(stories)), key=lambda i: -stories[i].N):
        if not groups or steps + stories[i].N > BUCKET_STEPS:
            groups.append([])
            steps = 0
        groups[-1].append(i)
        steps += stories[i].N
    return [(pos, StoryGroup.of([stories[i] for i in pos], [skip_matrices[i] for i in pos]))
            for pos in groups]


def _visits(group: StoryGroup, h: np.ndarray):
    """(first slot, end slot, previous states) of each visit: the (2, m_k, H)
    states of the visit before's first m_k slots in ``h``, zero at visit 0."""
    starts = group.starts.tolist()
    for k, (lo, hi) in enumerate(zip(starts, starts[1:])):
        yield lo, hi, (h[:, starts[k - 1] : starts[k - 1] + hi - lo] if k
                       else np.zeros((2, hi - lo, h.shape[-1])))


def bmrnn_forward(params: BMRNNParams, group: StoryGroup) -> ForwardTrace:
    """Run both directional passes over a ``StoryGroup`` and merge their
    hidden sequences.

    The forward pass walks t = 0..N-1 with skip ancestors p < t; the
    backward pass walks t = N-1..0 with the transposed skips, so its
    "previous" state at step t is that of step t+1.  Visit k steps both over
    one (2, m_k, H) state."""
    cells, anc = params.cells, group.skips
    T = np.zeros((5, *anc.shape, cells.hidden_dim))       # slot 0: the zero state
    xp = sgru_inputs(cells, np.stack([group.x, group.x[group.fore]])[:, None])[:, 0]
    has, sides = anc > 0, np.arange(2)[:, None]
    for lo, hi, h_prev in _visits(group, T[4]):
        T[:, :, lo:hi] = sgru_forward(cells, xp[:, lo:hi], h_prev, T[4, sides, anc[:, lo:hi]],
                                      has[:, lo:hi, None])
    # one matrix-vector product per step, not one GEMM: the reduction to a
    # plain bidirectional GRU is compared bit for bit, and a GEMM rounds differently
    merged = matvecs(params.merge_f, T[4, 0, group.fore]) + matvecs(params.merge_b, T[4, 1])
    merged += params.b_merge
    merged[0] = 0.0                  # slot 0: past each story's length
    return ForwardTrace(merged[group.slots[1]], T)


def bmrnn_backward(params: BMRNNParams, group: StoryGroup, trace: ForwardTrace, dH: np.ndarray):
    """Backpropagate a group's (B, N, D) dL/dH, one row per merged output,
    back to params and x; rows past a story's length are ignored.  Returns
    the gradients, shaped like params with the B axis first (one (B, P)
    buffer), and the (B, N, input_dim) dL/dx, zero past each story's length.

    BPTT walks the visits of ``trace.visits`` backwards over the same rows;
    each story's carry starts from zero at its last visit."""
    B, n = group.slots.shape[1:]
    if dH.shape[:2] != (B, n):
        raise ShapeMismatchError("bmrnn_backward", dH.shape[:2], (B, n))
    grads, dX = params.zeros_like(B), np.zeros((B, n, params.input_dim))
    cells, T, anc, sides = params.cells, trace.visits, group.skips, np.arange(2)[:, None]
    # a GEMM's bits depend on its row count, so a mixed group's products run per
    # story over its own steps, read by slot in time order; an equal one's stacked
    parts = ([(slice(None), slice(None))] if group.lengths.min() == n
             else [(slice(b, b + 1), slice(0, m)) for b, m in enumerate(group.lengths)])
    parts = [(i, s, (sides[..., None], group.slots[:, i, s])) for i, s in parts]
    dh, skip_acc = np.zeros((2, *T.shape[1:]))      # dL/dh, and the skip edges' part, by slot
    for i, s, at in parts:
        dh[at] = dH[i, s] @ params.merge_f, dH[i, s] @ params.merge_b
    H_skip, has = T[4, sides, anc], (anc > 0)[..., None]     # slot 0: zero
    carry, dA = np.zeros((2, B, cells.hidden_dim)), np.zeros((*anc.shape, 4, cells.hidden_dim))
    for lo, hi, h_prev in reversed(list(_visits(group, T[4]))):
        dA[:, lo:hi], carry[:, : hi - lo], dh_skip = sgru_backward(
            cells, h_prev, H_skip[:, lo:hi], has[:, lo:hi], T[:, :, lo:hi],
            dh[:, lo:hi] + carry[:, : hi - lo] + skip_acc[:, lo:hi])
        skip_acc[sides, anc[:, lo:hi]] += dh_skip       # rows without a skip add at 0
    # the parameter gradients run in time order: a GEMM over reversed steps rounds differently
    for i, s, at in parts:
        H = T[4][at]
        grads.merge_f[i] += dH[i, s].mT @ H[0]
        grads.merge_b[i] += dH[i, s].mT @ H[1]
        grads.b_merge[i] += dH[i, s].sum(axis=-2)
        H_prev = np.zeros_like(H)
        H_prev[0, :, 1:], H_prev[1, :, :-1] = H[0, :, :-1], H[1, :, 1:]
        g = SGRUParams(**{k: t[:, i] for k, t in vars(grads.cells).items()})
        for d in sgru_param_grads(cells, g, group.x[None, group.slots[0, i, s]], H_prev,
                                  T[1][at], H_skip[at], T[2][at], dA[at]):
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
