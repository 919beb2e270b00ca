"""Seeded randomness, weight initialization, row stacking, the sequence
type, the tensor record codec and the file boundary for the whole package.

Vectors are 1-D float64 numpy arrays and matrices are 2-D float64 numpy
arrays, row-major; a sequence of N steps is one (N, D) matrix, and a
story's photo stream and its sentences are each one ``Sequence``. Disk
formats store float32, so the codec widens to float64 on the way in.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ShapeMismatchError

Array = np.ndarray

MAX_RANK = 8     # a record declaring more dims is rejected as corrupt


def read_file(path, what: str, text: bool = False, story_id: str | None = None) -> bytes | str:
    """The bytes of ``path``, or its UTF-8 text.  A file that cannot be read
    or decoded is a DataError naming ``what``, the path and ``story_id``."""
    try:
        with open(path, "rb") as f:      # Path(path).read_bytes() took twice as long
            raw = f.read()
        return raw.decode("utf-8") if text else raw
    except OSError as e:
        raise DataError(f"cannot read {what} ({e.strerror})",
                        path=str(path), story_id=story_id) from None
    except UnicodeDecodeError as e:
        raise DataError(f"{what} is not UTF-8 text (byte {e.start})",
                        path=str(path), story_id=story_id) from None


def write_file(path, data, what: str) -> None:
    """Write bytes, or text as UTF-8, to ``path``; a path that cannot be
    written is a DataError naming ``what`` and the path."""
    try:
        Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as e:
        raise DataError(f"cannot write {what} ({e.strerror})", path=str(path)) from None


def encode_tensor(a) -> bytes:
    """One tensor record: u32 rank, u32 dims, float32 little-endian row-major payload."""
    a = np.asarray(a, dtype="<f4")
    return struct.pack(f"<{a.ndim + 1}I", a.ndim, *a.shape) + a.tobytes()


def decode_tensor(raw: bytes, offset: int, path, name: str | None = None,
                  story_id: str | None = None) -> tuple[Array, int]:
    """The tensor record at ``raw[offset:]`` as float64, and the offset past it.
    Sizes are checked against the bytes present before anything is allocated;
    a bad record or a non-finite entry is a DataError naming ``path`` and
    ``name`` or ``story_id``."""
    rank = struct.unpack_from("<I", raw, offset)[0] if len(raw) >= offset + 4 else 0
    if rank > MAX_RANK:
        raise _record_error(f"has implausible rank {rank}", path, name, story_id)
    start = offset + 4 + 4 * rank
    if len(raw) < start:     # also when the rank itself is cut short
        raise _record_error("has a truncated header", path, name, story_id)
    dims = struct.unpack_from(f"<{rank}I", raw, offset + 4)
    n_items = math.prod(dims)
    if len(raw) < start + 4 * n_items:
        raise _record_error(f"payload is {len(raw) - start} bytes, expected {4 * n_items}",
                            path, name, story_id)
    data = np.frombuffer(raw, dtype="<f4", count=n_items, offset=start)
    if not np.isfinite(data).all():
        raise _record_error("holds non-finite values", path, name, story_id)
    return data.astype(np.float64).reshape(dims), start + 4 * n_items


def _record_error(message: str, path, name: str | None, story_id: str | None) -> DataError:
    """The DataError of a bad tensor record; built only when one is raised,
    since ``decode_tensor`` runs once per tensor file of a corpus."""
    what = "tensor" if name is None else f"tensor {name!r}"
    return DataError(f"{what} {message}", path=str(path), story_id=story_id)


def stack_rows(rows, op: str) -> Array:
    """An (N, D) float64 array from a 2-d array (not copied when float64) or
    a list of equal-shape rows; ragged rows raise ShapeMismatchError naming
    ``op``.  An empty list gives a (0, 0) array, left for the caller to reject."""
    if not isinstance(rows, np.ndarray):
        rows = [np.asarray(r, dtype=float) for r in rows]
        for r in rows[1:]:
            if r.shape != rows[0].shape:
                raise ShapeMismatchError(op, rows[0].shape, r.shape)
        rows = np.stack(rows) if rows else np.zeros((0, 0))
    if rows.ndim != 2:
        raise ShapeMismatchError(op, rows.shape, ("steps", "dim"))
    return rows.astype(float, copy=False)


@dataclass
class Sequence:
    """One story's photo stream or its sentences: ``rows``, an (N, D) array,
    one row per step; a list of equal-shape rows is accepted too."""

    story_id: str
    rows: Array

    def __post_init__(self):
        self.rows = stack_rows(self.rows, "sequence")
        if len(self.rows) < 1:
            raise DataError("sequence must contain at least one step", story_id=self.story_id)

    @property
    def N(self) -> int:
        return len(self.rows)


class SeededRng:
    """Deterministic random source backed by a PCG64 stream.

    The same 64-bit seed yields a bit-identical draw sequence on every
    platform numpy supports, which is what makes training runs and the
    synthetic corpus reproducible across machines.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, shape=None) -> Array:
        return self._gen.uniform(low, high, shape)

    def normal(self, scale: float = 1.0, shape=None) -> Array:
        return self._gen.normal(0.0, scale, shape)

    def integers(self, low: int, high: int, shape=None) -> Array:
        return self._gen.integers(low, high, shape)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)

    def choice_without_replacement(self, n: int, k: int) -> Array:
        return self._gen.choice(n, size=k, replace=False)

    def spawn(self, offset: int) -> "SeededRng":
        """Derive an independent stream; (seed, offset) fully determines it."""
        return SeededRng((self.seed * 0x9E3779B97F4A7C15 + offset) % (1 << 63))


def init_params(rows: int, cols: int, rng: SeededRng) -> Array:
    """Weight matrix with entries uniform in [-1/sqrt(cols), +1/sqrt(cols)],
    i.e. scaled by fan-in."""
    scale = 1.0 / np.sqrt(cols)
    return rng.uniform(-scale, scale, (rows, cols))

