"""Per-pair compatibility scoring, contrastive loss and the id-list negative
sampler, kept as test oracles.

``bmrnn.objective`` scores every candidate of a side in one call, grouping
candidates by common-prefix length; the tests check that its scores, loss,
``dH``, hinge counts and retrieval ranks equal these per-pair loops bit for
bit.  Its ``sample_negatives`` draws row indices; the tests check that it
draws the stories this sampler draws by id.
"""

import warnings

import numpy as np

from bmrnn.errors import ConfigError, DataError, ShapeMismatchError
from bmrnn.numeric import Sequence
from bmrnn.objective import (
    CompatibilityConfig,
    LossResult,
    SubStoryPartition,
)


def _prefix_kernel(H, V: Sequence, partition: SubStoryPartition, cfg):
    """H as an array, the common-prefix length L, and the kernel over it."""
    H = np.asarray(H, dtype=float)
    if len(H) < 1:
        raise DataError("compatibility needs a non-empty predicted sequence")
    if H.shape[1:] != V.rows.shape[1:]:
        raise ShapeMismatchError("compatibility", H.shape[1:], V.rows.shape[1:])
    # mismatched lengths (negatives usually differ) score the common prefix;
    # partition members beyond it simply do not contribute
    L = min(len(H), V.N)
    return H, L, partition.kernel(L, cfg)


def compatibility(
    H: np.ndarray,
    V: Sequence,
    partition: SubStoryPartition,
    cfg: CompatibilityConfig,
) -> float:
    """c(H, V) = sum_{a,b<L} K_ab <H_a, V_b> over the common prefix L: the
    alpha-weighted global term plus the per-sub-story local term."""
    H, L, K = _prefix_kernel(H, V, partition, cfg)
    return float(np.vdot(H[:L], K @ V.rows[:L]))


def compatibility_grad(
    H: np.ndarray,
    V: Sequence,
    partition: SubStoryPartition,
    cfg: CompatibilityConfig,
) -> np.ndarray:
    """d compatibility / dH, shaped like H: K V over the prefix, zero beyond."""
    H, L, K = _prefix_kernel(H, V, partition, cfg)
    grad = np.zeros_like(H)
    grad[:L] = K @ V.rows[:L]
    return grad


def contrastive_loss(
    H: np.ndarray,
    V: Sequence,
    negatives_V: list[Sequence],
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


def sample_negatives(dataset, positive_id: str, count: int, rng) -> list:
    """Uniformly draw ``count`` distinct stories, never the positive one.

    ``dataset`` is any mapping keyed by story_id; the values of the drawn
    ids come back in draw order.  If fewer than ``count`` other stories
    exist, sampling falls back to replacement with a warning.
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
    return [dataset[sid] for sid in chosen]
