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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeMismatchError
from .numeric import SeededRng, stack_rows

__all__ = [
    "SubStoryPartition",
    "CompatibilityConfig",
    "SentenceSequence",
    "LossResult",
    "NegativeDraw",
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

    @classmethod
    def from_clusters(cls, clusters: list[list[int]]) -> "SubStoryPartition":
        """Build from skip-detection clusters (singletons included)."""
        return cls(groups=[list(c) for c in clusters])

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
        if self.gamma <= 0:
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
class SentenceSequence:
    """One story's sentence embeddings: an (N, D) array, one row per step
    (a list of rows is accepted)."""

    story_id: str
    v: np.ndarray

    def __post_init__(self):
        self.v = stack_rows(self.v, "sentence_sequence")
        if len(self.v) < 1:
            raise DataError("sentence sequence must contain at least one step",
                            story_id=self.story_id)

    @property
    def N(self) -> int:
        return len(self.v)


def _prefix_kernel(H, V: SentenceSequence, partition: SubStoryPartition, cfg):
    """H as an array, the common-prefix length L, and the kernel over it."""
    H = np.asarray(H, dtype=float)
    if len(H) < 1:
        raise DataError("compatibility needs a non-empty predicted sequence")
    if H.shape[1:] != V.v.shape[1:]:
        raise ShapeMismatchError("compatibility", H.shape[1:], V.v.shape[1:])
    # mismatched lengths (negatives usually differ) score the common prefix;
    # partition members beyond it simply do not contribute
    L = min(len(H), V.N)
    return H, L, partition.kernel(L, cfg)


def compatibility(
    H: np.ndarray,
    V: SentenceSequence,
    partition: SubStoryPartition,
    cfg: CompatibilityConfig,
) -> float:
    """c(H, V) = sum_{a,b<L} K_ab <H_a, V_b> over the common prefix L: the
    alpha-weighted global term plus the per-sub-story local term."""
    H, L, K = _prefix_kernel(H, V, partition, cfg)
    return float(np.vdot(H[:L], K @ V.v[:L]))


def compatibility_grad(
    H: np.ndarray,
    V: SentenceSequence,
    partition: SubStoryPartition,
    cfg: CompatibilityConfig,
) -> np.ndarray:
    """d compatibility / dH, shaped like H: K V over the prefix, zero beyond."""
    H, L, K = _prefix_kernel(H, V, partition, cfg)
    grad = np.zeros_like(H)
    grad[:L] = K @ V.v[:L]
    return grad


@dataclass
class LossResult:
    loss: float
    dH: np.ndarray
    active_v_hinges: int = 0
    active_h_hinges: int = 0


def contrastive_loss(
    H: np.ndarray,
    V: SentenceSequence,
    negatives_V: list[SentenceSequence],
    negatives_H: list[np.ndarray],
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

    base = compatibility(H, V, partition, cfg)
    base_grad = compatibility_grad(H, V, partition, cfg)

    loss = 0.0
    dH = np.zeros_like(base_grad)
    active_v = active_h = 0

    for Vp in negatives_V:
        # grouped so an equal-scoring negative cancels exactly (hinge == gamma)
        hinge = cfg.gamma + (compatibility(H, Vp, partition, cfg) - base)
        if hinge > 0.0:
            loss += hinge
            active_v += 1
            dH += compatibility_grad(H, Vp, partition, cfg) - base_grad

    for Hp in negatives_H:
        # the sub-story structure lives on the positive pair's timeline, so
        # c(H', V) reuses the same partition over the common prefix
        hinge = cfg.gamma + (compatibility(Hp, V, partition, cfg) - base)
        if hinge > 0.0:
            loss += hinge
            active_h += 1
    dH -= active_h * base_grad

    return LossResult(loss=loss, dH=dH, active_v_hinges=active_v, active_h_hinges=active_h)


@dataclass
class NegativeDraw:
    """Stories drawn as negatives; V' and H' come from the same draw."""

    neg_V: list
    neg_H_sources: list


def sample_negatives(dataset, positive_id: str, count: int, rng: SeededRng) -> NegativeDraw:
    """Uniformly draw ``count`` distinct stories, never the positive one.

    ``dataset`` maps story_id -> record; the same drawn records serve as
    both the sentence-side and the stream-side negatives.  If fewer than
    ``count`` other stories exist, sampling falls back to replacement with
    a warning.
    """
    others = [sid for sid in dataset if sid != positive_id]
    if not others:
        raise DataError("cannot sample negatives from a single-story dataset")
    if len(others) >= count:
        idx = rng.choice_without_replacement(len(others), count)
        chosen = [others[i] for i in idx]
    else:
        warnings.warn(
            f"only {len(others)} candidate negatives for {count} requested; "
            "sampling with replacement",
            stacklevel=2,
        )
        chosen = [others[rng.integers(0, len(others))] for _ in range(count)]
    records = [dataset[sid] for sid in chosen]
    return NegativeDraw(neg_V=records, neg_H_sources=list(records))
