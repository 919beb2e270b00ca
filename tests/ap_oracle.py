"""Allocating affinity-propagation loop, kept as a test oracle.

``bmrnn.skips.affinity_propagation`` updates its messages in place and
records exemplar masks only over the last convergence window; the tests
check that it returns exactly what this allocating loop returns, field for
field.
"""

from collections import deque

import numpy as np

from bmrnn.skips import ClusterAssignment, SimilarityMatrix


def affinity_propagation(
    sim: SimilarityMatrix,
    damping: float = 0.9,
    preference: float | None = None,
    max_iter: int = 200,
    convergence_window: int = 15,
) -> ClusterAssignment:
    """The program's clustering before its loop updated messages in place;
    settings are assumed valid."""
    S = np.array(sim.s, dtype=float, copy=True)
    n = S.shape[0]
    if preference is None:
        preference = float(np.median(S[~np.eye(n, dtype=bool)]))
    np.fill_diagonal(S, preference)

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
