"""Per-pair compatibility scoring and contrastive loss, kept as a test oracle.

``bmrnn.objective`` scores every candidate of a side in one call, grouping
candidates by common-prefix length; the tests check that its scores, loss,
``dH``, hinge counts and retrieval ranks equal these per-pair loops bit for
bit.
"""

import numpy as np

from bmrnn.errors import ConfigError, DataError, ShapeMismatchError
from bmrnn.objective import (
    CompatibilityConfig,
    LossResult,
    SentenceSequence,
    SubStoryPartition,
)


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
