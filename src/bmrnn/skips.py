"""Unsupervised detection of cross-skipping structure in photo streams.

Photos of the same scene tend to recur non-contiguously in a stream.  This
module finds those recurrences without supervision: pairwise inner-product
similarity over feature vectors, affinity-propagation clustering (no cluster
count required up front), and finally a skip matrix that chains each
cluster's members along the original temporal order.  A skip pair (p, t)
says "step t may read the hidden state of step p" in addition to step t-1.

All indices are 0-based.  Skip matrices are sparse by construction: every
step has at most one skip ancestor and at most one skip descendant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeMismatchError
from .numeric import stack_rows

__all__ = [
    "SimilarityMatrix",
    "ClusterAssignment",
    "SkipMatrix",
    "similarity",
    "affinity_propagation",
    "build_skip_matrix",
    "cluster_chains",
    "transpose_skips",
]


@dataclass
class SimilarityMatrix:
    """Symmetric matrix of pairwise inner products between feature vectors."""

    s: np.ndarray

    @property
    def n(self) -> int:
        return self.s.shape[0]


@dataclass
class ClusterAssignment:
    """Result of clustering: exemplar per index, clusters as index lists."""

    exemplar_of: np.ndarray        # shape (n,), exemplar_of[i] is i's exemplar
    clusters: list[list[int]]      # sorted members, one list per exemplar
    exemplars: list[int]           # ascending exemplar indices
    converged: bool

    @property
    def n(self) -> int:
        return self.exemplar_of.shape[0]


@dataclass
class SkipMatrix:
    """Sparse skip structure: pairs (ancestor, descendant).

    Forward matrices have ancestor < descendant (the descendant additionally
    reads an earlier state).  Transposed matrices, used by the backward
    sweep, have ancestor > descendant.  Each index appears at most once as
    an ancestor and at most once as a descendant.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]
    _anc: dict[int, int] = field(init=False, repr=False)
    _desc: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.pairs = tuple(sorted(tuple(p) for p in self.pairs))
        anc: dict[int, int] = {}
        desc: dict[int, int] = {}
        for a, d in self.pairs:
            if not (0 <= a < self.n and 0 <= d < self.n):
                raise DataError(f"skip pair ({a}, {d}) out of range for length {self.n}")
            if a == d:
                raise DataError(f"skip pair ({a}, {d}) is a self-loop")
            if d in anc:
                raise DataError(f"step {d} has more than one skip ancestor")
            if a in desc:
                raise DataError(f"step {a} has more than one skip descendant")
            anc[d] = a
            desc[a] = d
        self._anc = anc
        self._desc = desc

    def ancestor_of(self, t: int) -> int | None:
        """The step whose hidden state step t additionally reads, if any."""
        return self._anc.get(t)

    def descendant_of(self, p: int) -> int | None:
        """The step that additionally reads step p's hidden state, if any."""
        return self._desc.get(p)

    def __len__(self) -> int:
        return len(self.pairs)


def similarity(features: np.ndarray, normalize: bool = False) -> SimilarityMatrix:
    """Pairwise inner products s[i][j] = fc_i . fc_j of the rows of an (n, D)
    feature array (or a list of rows).

    Features are used raw by default; set ``normalize`` to L2-normalize each
    row first (turning the entries into cosines).
    """
    X = stack_rows(features, "similarity")
    if len(X) < 2:
        raise DataError(f"similarity needs at least 2 feature vectors, got {len(X)}")
    if normalize:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        X = X / np.where(norms == 0, 1.0, norms)
    return SimilarityMatrix(s=X @ X.T)


def affinity_propagation(
    sim: SimilarityMatrix,
    damping: float = 0.9,
    preference: float | None = None,
    max_iter: int = 200,
    convergence_window: int = 15,
) -> ClusterAssignment:
    """Affinity-propagation clustering by message passing.

    Exchanges responsibility and availability messages until the exemplar
    set (indices where the self-responsibility plus self-availability is
    positive) is stable for ``convergence_window`` iterations.  Never
    aborts: if max_iter is hit first, the current assignment is returned
    with ``converged`` False so downstream skip detection degrades to
    whatever clustering emerged.

    ``preference`` (the self-similarity placed on the diagonal) defaults to
    the median of the off-diagonal similarities.  Assignment ties are broken
    toward the lowest exemplar index, so output is deterministic.
    """
    if not (0.5 <= damping < 1.0):
        raise ConfigError(f"damping must be in [0.5, 1.0), got {damping}")
    S = np.array(sim.s, dtype=float, copy=True)
    n = S.shape[0]
    if S.shape != (n, n):
        raise ShapeMismatchError("affinity_propagation", S.shape, (n, n))
    if preference is None:
        preference = float(np.median(S[~np.eye(n, dtype=bool)]))
    np.fill_diagonal(S, preference)

    # The schedule always runs to max_iter and the exemplar decision reads
    # the *final* messages.  Stopping at the first window of set-stability
    # is tempting but wrong on near-tied instances: the messages pass
    # through long transients (e.g. two points with a deep preference sit
    # with both self-evidences slightly positive for dozens of iterations
    # before decaying to the correct tie at zero).
    A = np.zeros((n, n))
    R = np.zeros((n, n))
    rows = np.arange(n)
    history: deque[tuple[int, ...]] = deque(maxlen=convergence_window)

    for _ in range(max_iter):
        # r(i,k) = s(i,k) - max_{k' != k} [a(i,k') + s(i,k')]
        AS = A + S
        top = np.argmax(AS, axis=1)
        first = AS[rows, top]
        AS[rows, top] = -np.inf
        second = np.max(AS, axis=1)
        max_excl = np.broadcast_to(first[:, None], (n, n)).copy()
        max_excl[rows, top] = second
        R = damping * R + (1.0 - damping) * (S - max_excl)

        # a(i,k) = min(0, r(k,k) + sum_{i' not in {i,k}} max(0, r(i',k)))
        # a(k,k) = sum_{i' != k} max(0, r(i',k))
        Rp = np.maximum(R, 0.0)
        np.fill_diagonal(Rp, 0.0)
        col_pos = Rp.sum(axis=0)
        A_new = np.minimum(0.0, np.diagonal(R)[None, :] + col_pos[None, :] - Rp)
        np.fill_diagonal(A_new, col_pos)
        A = damping * A + (1.0 - damping) * A_new

        history.append(tuple(np.flatnonzero(np.diagonal(R) + np.diagonal(A) > 0).tolist()))

    exemplars = np.flatnonzero(np.diagonal(R) + np.diagonal(A) > 0)
    converged = (
        len(history) == convergence_window
        and exemplars.size > 0
        and len(set(history)) == 1
    )
    if exemplars.size == 0:
        # degenerate run (e.g. heavy damping, tiny max_iter): fall back to
        # the single most self-confident point so the result is still usable
        exemplars = np.array([int(np.argmax(np.diagonal(R) + np.diagonal(A)))])

    # assign every point to the best exemplar by a+s; argmax over the
    # ascending exemplar list breaks ties toward the lowest index
    AS = A + S
    best = np.argmax(AS[:, exemplars], axis=1)
    labels = exemplars[best]
    labels[exemplars] = exemplars
    clusters = [np.flatnonzero(labels == e).tolist() for e in exemplars]
    return ClusterAssignment(
        exemplar_of=labels,
        clusters=clusters,
        exemplars=exemplars.tolist(),
        converged=converged,
    )


def build_skip_matrix(assignment: ClusterAssignment) -> SkipMatrix:
    """Chain each cluster along the timeline into skip pairs.

    A cluster with time-sorted members i_1 < i_2 < ... < i_m contributes
    the pairs (i_1, i_2), ..., (i_{m-1}, i_m); singletons contribute
    nothing.  Because clusters partition the indices, every step gets at
    most one ancestor and one descendant.
    """
    return SkipMatrix(n=assignment.n, pairs=tuple(cluster_chains(assignment.clusters)))


def cluster_chains(clusters) -> list[tuple[int, int]]:
    """Skip pairs chaining each cluster's time-sorted members, cluster by cluster."""
    pairs = []
    for members in clusters:
        ordered = sorted(members)
        pairs.extend(zip(ordered, ordered[1:]))
    return pairs


def transpose_skips(r: SkipMatrix) -> SkipMatrix:
    """Reverse every edge: the backward sweep reads skips in the other direction.

    If the forward pass lets step t read step p's state (pair (p, t)), the
    backward pass lets step p read step t's backward state, which that sweep
    computes first.  So (p, t) becomes (t, p).
    """
    return SkipMatrix(n=r.n, pairs=tuple((t, p) for (p, t) in r.pairs))
