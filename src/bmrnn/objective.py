"""Storyline-constrained compatibility scoring and the contrastive loss.

A predicted sequence H and a sentence sequence V are scored by a weighted
sum of a global term (dot products along the timeline) and a local term
(per-sub-story means), where the sub-stories come from skip detection on
the photo stream.  Training pushes the score of the true pair above the
scores of sampled negative pairs by a margin, hinge-style, on both sides:
wrong sentences for the true photos, and wrong photos for the true
sentences.

Both terms are inner products of rows of H and V, so the score is one
bilinear form, c(H, V) = sum_ab K_ab <H_a, V_b> with K = alpha I +
(1 - alpha) M, where M holds the sub-story weights; the partition builds K
and both local-term modes differ only in M.  Sequences are (N, D) arrays.

Sequences of different lengths (negatives usually differ) are scored over
the common prefix.  The gradient is taken with respect to H only; negative
photo-stream predictions are treated as cached constants by the caller.
A call scores a whole SequenceStack of candidates, grouped by common-prefix
length so that every score keeps the bits of a per-pair ``np.vdot``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeMismatchError
from .numeric import SeededRng, Sequence, stack_rows

__all__ = [
    "SubStoryPartition",
    "CompatibilityConfig",
    "SequenceStack",
    "LossResult",
    "compatibility",
    "compatibility_grad",
    "contrastive_loss",
    "sample_negatives",
]


@dataclass
class SubStoryPartition:
    """Disjoint groups of 0-based timestep indices (one group per sub-story).

    ``_local`` is the all-pairs weight matrix over the steps up to the last
    member: [g(a) = g(b)] / |g|, zero for steps no group covers.
    """

    groups: list[list[int]]
    _local: np.ndarray = field(init=False, repr=False, compare=False)
    _kernels: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        seen: set[int] = set()
        cleaned = []
        for g in self.groups:
            members = sorted(int(i) for i in g)
            if not members:
                raise DataError("sub-story group must be non-empty")
            if members[0] < 0:
                raise DataError(f"negative timestep index {members[0]} in partition")
            overlap = seen.intersection(members)
            if overlap:
                raise DataError(f"timestep {min(overlap)} appears in more than one group")
            seen.update(members)
            cleaned.append(members)
        self.groups = cleaned
        self._local = np.zeros((max(seen, default=-1) + 1,) * 2)
        for members in cleaned:
            self._local[np.ix_(members, members)] = 1.0 / len(members)

    def kernel(self, L: int, cfg: "CompatibilityConfig") -> np.ndarray:
        """K = alpha I + (1 - alpha) M over the first L steps, read-only.

        M_ab = [g(a) = g(b)] / |g| for covered steps in all-pairs mode, and
        only its diagonal 1/|g(a)| in aligned mode.  |g| counts every member,
        also those at or beyond L.  Built once per (L, alpha, mode).
        """
        key = (L, cfg.alpha, cfg.local_term_mode)
        K = self._kernels.get(key)
        if K is None:
            m = min(L, len(self._local))
            M = np.zeros((L, L))
            M[:m, :m] = self._local[:m, :m]
            if cfg.local_term_mode == "aligned":
                M = np.diag(np.diag(M))
            K = cfg.alpha * np.eye(L) + (1.0 - cfg.alpha) * M
            K.flags.writeable = False
            self._kernels[key] = K
        return K


@dataclass
class CompatibilityConfig:
    alpha: float = 0.5
    gamma: float = 0.2
    negatives_per_positive: int = 127
    local_term_mode: str = "aligned"

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not self.gamma > 0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if self.negatives_per_positive < 1:
            raise ConfigError(
                f"negatives_per_positive must be >= 1, got {self.negatives_per_positive}"
            )
        if self.local_term_mode not in ("aligned", "all-pairs"):
            raise ConfigError(
                f"local_term_mode must be 'aligned' or 'all-pairs', got {self.local_term_mode!r}"
            )


@dataclass
class SequenceStack:
    """C sequences of one width, zero-padded into one (C, N_max, D) float64
    array, with their lengths as a (C,) int array."""

    padded: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, seqs) -> "SequenceStack":
        """Stack Sequences or (N, D) arrays."""
        arrays = [s.rows if isinstance(s, Sequence) else stack_rows(s, "compatibility")
                  for s in seqs]
        if min(map(len, arrays), default=0) < 1:
            raise DataError("cannot score an empty sequence or an empty stack")
        padded = np.zeros((len(arrays), max(map(len, arrays)), arrays[0].shape[1]))
        for i, a in enumerate(arrays):
            if a.shape[1:] != padded.shape[2:]:
                raise ShapeMismatchError("sequence stack", padded.shape[2:], a.shape[1:])
            padded[i, : len(a)] = a
        return cls(padded, np.array([len(a) for a in arrays]))

    def __len__(self) -> int:
        return len(self.lengths)

    def take(self, idx, width: int | None = None) -> "SequenceStack":
        """The sequences at the integer indices ``idx``, in that order, cut to
        ``width`` steps: all a score against a ``width``-step query reads."""
        padded = self.padded[idx, :width]
        return SequenceStack(padded, np.minimum(self.lengths[idx], padded.shape[1]))


def _prefix_groups(H: SequenceStack, V: SequenceStack, partition: SubStoryPartition, cfg):
    """The pair count and, per common-prefix length L, its pairs' indices,
    H rows and K_L V.  A stack of one broadcasts against the other side."""
    if H.padded.shape[2:] != V.padded.shape[2:]:
        raise ShapeMismatchError("compatibility", H.padded.shape[2:], V.padded.shape[2:])
    # mismatched lengths (negatives usually differ) score the common prefix;
    # partition members beyond it simply do not contribute
    prefix = np.minimum(H.lengths, V.lengths)
    order = prefix.argsort(kind="stable")
    lengths = prefix[order].tolist()
    groups, start = [], 0
    for L in dict.fromkeys(lengths):            # ascending, each once
        end = start + lengths.count(L)
        idx, start = order[start:end], end
        H_g, V_g = [a[idx, :L] if len(a) > 1 else a[:, :L] for a in (H.padded, V.padded)]
        # one (L, D) block per pair keeps the bits of its own K @ V; padding
        # the blocks to one length would not
        groups.append((idx, H_g, partition.kernel(L, cfg) @ V_g))
    return len(prefix), groups


def compatibility(H: SequenceStack, V: SequenceStack, partition: SubStoryPartition,
                  cfg: CompatibilityConfig) -> np.ndarray:
    """c(H, V) = sum_{a,b<L} K_ab <H_a, V_b> over the common prefix L: the
    alpha-weighted global term plus the per-sub-story local term, one score
    per pair, as a (C,) array."""
    count, groups = _prefix_groups(H, V, partition, cfg)
    scores = np.empty(count)
    for idx, H_rows, KV in groups:
        n = KV.shape[1] * KV.shape[2]     # (1, n) @ (n, 1) is the dot product np.vdot takes
        scores[idx] = (H_rows.reshape(-1, 1, n) @ KV.reshape(-1, n, 1))[:, 0, 0]
    return scores


def compatibility_grad(H: SequenceStack, V: SequenceStack, partition: SubStoryPartition,
                       cfg: CompatibilityConfig) -> np.ndarray:
    """d compatibility / dH of each pair, as a (C, N, D) array shaped like
    H's padded rows: K V over the prefix, zero beyond."""
    count, groups = _prefix_groups(H, V, partition, cfg)
    grad = np.zeros((count, *H.padded.shape[1:]))
    for idx, _, KV in groups:
        grad[idx, : KV.shape[1]] = KV
    return grad


@dataclass
class LossResult:
    loss: float
    dH: np.ndarray
    active_v_hinges: int = 0
    active_h_hinges: int = 0


def contrastive_loss(
    H: np.ndarray,
    V: Sequence,
    negatives_V: SequenceStack,
    negatives_H: SequenceStack,
    partition: SubStoryPartition,
    cfg: CompatibilityConfig,
) -> LossResult:
    """Two-sided margin loss and its exact subgradient w.r.t. H.

    loss = sum_{V'} max(0, gamma - c(H,V) + c(H,V'))
         + sum_{H'} max(0, gamma - c(H,V) + c(H',V))

    Hinges exactly at the boundary take the zero branch.  The H' sequences
    are constants here (the trainer refreshes them once per epoch), so only
    the -c(H,V) part of an active H'-hinge contributes to dH.
    """
    for side, negatives in (("sentence", negatives_V), ("stream", negatives_H)):
        if len(negatives) != cfg.negatives_per_positive:
            raise ConfigError(
                f"expected {cfg.negatives_per_positive} {side} negatives, got {len(negatives)}"
            )
    H, V = SequenceStack.of([H]), SequenceStack.of([V])    # stacked once for all five calls

    base = compatibility(H, V, partition, cfg)[0]
    base_grad = compatibility_grad(H, V, partition, cfg)[0]
    # grouped so an equal-scoring negative cancels exactly (hinge == gamma);
    # the sub-story structure lives on the positive pair's timeline, so
    # c(H', V) reuses the same partition over the common prefix
    hinge_v = cfg.gamma + (compatibility(H, negatives_V, partition, cfg) - base)
    hinge_h = cfg.gamma + (compatibility(negatives_H, V, partition, cfg) - base)
    active_v, active_h = np.flatnonzero(hinge_v > 0.0), np.flatnonzero(hinge_h > 0.0)

    # both sums add one term at a time to zero, in draw order, as accumulate
    # does; sum() and add.reduce may pair terms up (along one-element rows)
    terms = np.concatenate(([0.0], hinge_v[active_v], hinge_h[active_h]))
    steps = compatibility_grad(H, negatives_V.take(active_v), partition, cfg) - base_grad
    dH = np.add.accumulate(np.concatenate((np.zeros((1, *base_grad.shape)), steps)))[-1]
    dH -= len(active_h) * base_grad
    return LossResult(float(np.add.accumulate(terms)[-1]), dH, len(active_v), len(active_h))


def sample_negatives(n: int, positive: int, count: int, rng: SeededRng) -> np.ndarray:
    """Uniformly draw ``count`` distinct rows of ``n``, never row ``positive``:
    the drawn row indices in draw order.  If fewer than ``count`` other rows
    exist, sampling falls back to replacement with a warning.
    """
    if n < 2:
        raise DataError("cannot sample negatives from a single-story dataset")
    if n - 1 >= count:
        idx = rng.choice_without_replacement(n - 1, count)
    else:
        warnings.warn(
            f"only {n - 1} candidate negatives for {count} requested; "
            "sampling with replacement",
            stacklevel=2,
        )
        idx = np.array([rng.integers(0, n - 1) for _ in range(count)])
    # draw among the n - 1 other rows, then skip over the positive
    return idx + (idx >= positive)
