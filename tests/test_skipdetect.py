from itertools import combinations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ap_oracle
from bmrnn.errors import ConfigError, DataError, ShapeMismatchError
from bmrnn.skips import (
    ClusterAssignment,
    ClusterStack,
    SimilarityMatrix,
    SkipMatrix,
    affinity_propagation,
    build_skip_matrix,
    similarity,
)


def two_blob_instance(seed, n=None, noise=0.2):
    """Two well-separated blobs (orthogonal centers, raw dot products)."""
    r = np.random.default_rng(seed)
    dim = int(r.integers(2, 8))
    Q, _ = np.linalg.qr(r.normal(size=(dim, dim)))
    centers = Q[:2] * r.uniform(8, 12, size=(2, 1))
    if n is None:
        n = int(r.integers(6, 9))
    s0 = int(r.integers(3, n - 2))
    order = [0] * s0 + [1] * (n - s0)
    r.shuffle(order)
    pts = [centers[b] + r.normal(0, noise, dim) for b in order]
    return pts, order


@st.composite
def ap_similarities(draw):
    """Similarities of 2-40 rows: real-valued, integer-valued or duplicated
    (the last two give exact ties between messages)."""
    n, dim = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["real", "integer", "duplicated"]))
    if kind == "integer":
        X = r.integers(-2, 3, size=(n, dim)).astype(float)
    else:
        X = r.normal(size=(n, dim))
        if kind == "duplicated":
            X = X[r.integers(0, max(1, n // 3), size=n)]
    return SimilarityMatrix(s=X @ X.T)


@st.composite
def ap_stacks(draw):
    """(B, n, n) stacks of similarities, B 1-10 and n 2-24: real-valued or
    integer-valued rows (exact ties), and at times one matrix repeated."""
    B, n, dim = draw(st.integers(1, 10)), draw(st.integers(2, 24)), draw(st.integers(1, 6))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    stack = np.empty((B, n, n))
    for b in range(B):
        X = r.integers(-2, 3, size=(n, dim)).astype(float) if integer else r.normal(size=(n, dim))
        stack[b] = X @ X.T
    if draw(st.booleans()):
        stack[r.integers(B)] = stack[0]
    return stack


@st.composite
def wide_ap_stacks(draw):
    """(B, n, n) stacks with B 70-120 and n 1-8, so B >= 8 n and the loop
    takes its column sums by row adds.  Each story's rows are real-valued,
    integer-valued, duplicated or all zero; one story's similarities are one
    constant, equal to the preference where one is given: its messages stay
    0, so it ends with no exemplar and takes the fallback.  Returns the
    stack, the preference (explicit when n <= 2) and that story's index."""
    B, n, dim = draw(st.integers(70, 120)), draw(st.integers(1, 8)), draw(st.integers(1, 6))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    preference = draw((st.none() if n > 2 else st.nothing()) | st.floats(-20.0, 5.0)
                      | st.integers(-3, 1).map(float))
    stack = np.empty((B, n, n))
    for b in range(B):
        kind = r.choice(["real", "integer", "duplicated", "zero"])
        X = r.integers(-2, 3, size=(n, dim)).astype(float) if kind == "integer" else (
            np.zeros((n, dim)) if kind == "zero" else r.normal(size=(n, dim)))
        if kind == "duplicated":
            X = X[r.integers(0, max(1, n // 3), size=n)]
        stack[b] = X @ X.T
    fallback = int(r.integers(B))
    stack[fallback] = r.normal() if preference is None else preference
    return stack, preference, fallback


# tied rows: all zero, repeated and integer-valued features
ZERO_ROWS = np.zeros((5, 5))
REPEATED_ROWS = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 2.0], [0.0, 1.0], [1.0, 2.0]])
REPEATED_ROWS = REPEATED_ROWS @ REPEATED_ROWS.T
INTEGER_ROWS = np.array([[2.0, -1.0, 0.0], [1.0, 1.0, -2.0], [0.0, 2.0, 1.0], [-1.0, 0.0, 2.0]])
INTEGER_ROWS = INTEGER_ROWS @ INTEGER_ROWS.T

# n = 2 under heavy damping and preference 0: the first story keeps both
# points as exemplars, the second ends with no positive self-evidence and
# takes the single-exemplar fallback
FALLBACK_MIX = np.array([[[9.0, -3.0], [-3.0, 9.0]], [[9.0, 1.0], [1.0, 9.0]]])


def assert_same_assignment(got, want):
    assert got.exemplar_of.dtype == want.exemplar_of.dtype
    npt.assert_array_equal(got.exemplar_of, want.exemplar_of)
    assert got.clusters == want.clusters
    assert got.exemplars == want.exemplars
    assert got.converged is want.converged


def net_similarity(S, pref, exemplars):
    """Independent oracle: total similarity of assigning to an exemplar set."""
    tot = len(exemplars) * pref
    for i in range(S.shape[0]):
        if i not in exemplars:
            tot += max(S[i, k] for k in exemplars)
    return tot


class TestSimilarity:
    def test_orthonormal_features(self):
        feats = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        s = similarity(feats).s
        npt.assert_array_equal(s, np.eye(3))

    def test_equal_features_give_squared_norm(self):
        f = np.array([3.0, 4.0])
        s = similarity([f, f]).s
        npt.assert_allclose(s[0, 1], 25.0, atol=0)

    def test_hand_computed(self):
        s = similarity([np.array([1.0, 0.0]), np.array([0.8, 0.6]), np.array([0.0, 1.0])]).s
        npt.assert_allclose(s[0, 1], 0.8, atol=1e-15)
        npt.assert_allclose(s[0, 2], 0.0, atol=0)
        npt.assert_allclose(s[1, 2], 0.6, atol=1e-15)

    def test_symmetry(self):
        r = np.random.default_rng(3)
        s = similarity([r.normal(size=5) for _ in range(6)]).s
        npt.assert_allclose(s, s.T, atol=0)

    def test_normalize_option(self):
        s = similarity([np.array([2.0, 0.0]), np.array([0.0, 5.0])], normalize=True).s
        npt.assert_allclose(np.diagonal(s), 1.0, atol=1e-15)
        npt.assert_allclose(s[0, 1], 0.0, atol=0)

    def test_too_few_items(self):
        with pytest.raises(DataError):
            similarity([np.array([1.0])])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            similarity([np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])])


class TestAffinityPropagation:
    def test_identical_points_one_cluster(self):
        a = affinity_propagation(similarity([np.array([1.0, 2.0])] * 5))
        assert len(a.clusters) == 1
        assert sorted(a.clusters[0]) == [0, 1, 2, 3, 4]

    def test_two_blobs_recover_partition(self):
        pts, order = two_blob_instance(0, n=8)
        a = affinity_propagation(similarity(pts))
        planted = {frozenset(i for i in range(8) if order[i] == b) for b in (0, 1)}
        assert {frozenset(c) for c in a.clusters} == planted
        assert a.converged

    def test_two_point_deep_preference(self):
        # exhaustive oracle over the 3 possible exemplar sets: {0} and {1}
        # (net -99.1) both beat {0,1} (net -200), so one cluster must emerge
        sim = similarity([np.array([1.0, 0.0]), np.array([0.9, 0.1])])
        a = affinity_propagation(sim, preference=-100.0)
        assert len(a.clusters) == 1
        assert sorted(a.clusters[0]) == [0, 1]

    def test_deterministic(self):
        pts, _ = two_blob_instance(7)
        sim = similarity(pts)
        a, b = affinity_propagation(sim), affinity_propagation(sim)
        npt.assert_array_equal(a.exemplar_of, b.exemplar_of)
        assert a.exemplars == b.exemplars and a.converged == b.converged

    def test_assignment_is_partition_with_member_exemplars(self):
        for seed in range(10):
            pts, _ = two_blob_instance(100 + seed)
            a = affinity_propagation(similarity(pts))
            seen = sorted(i for c in a.clusters for i in c)
            assert seen == list(range(len(pts)))
            for e, c in zip(a.exemplars, a.clusters):
                assert e in c
                assert all(a.exemplar_of[i] == e for i in c)

    def test_relabel_equivariance(self):
        pts, _ = two_blob_instance(42, n=8)
        a = affinity_propagation(similarity(pts))
        perm = np.random.default_rng(1).permutation(8)
        b = affinity_propagation(similarity([pts[i] for i in perm]))
        orig = {frozenset(c) for c in a.clusters}
        # index j of the permuted stream is original index perm[j]
        mapped = {frozenset(int(perm[i]) for i in c) for c in b.clusters}
        assert mapped == orig

    def test_exemplar_set_near_exhaustive_optimum(self):
        # brute force over all exemplar subsets for n <= 8
        for seed in range(40):
            pts, _ = two_blob_instance(200 + seed)
            n = len(pts)
            sim = similarity(pts)
            S = sim.s
            pref = float(np.median(S[~np.eye(n, dtype=bool)]))
            a = affinity_propagation(sim)
            best = max(
                net_similarity(S, pref, set(E))
                for r in range(1, n + 1)
                for E in combinations(range(n), r)
            )
            got = net_similarity(S, pref, set(a.exemplars))
            assert got >= best - 0.05 * abs(best), (seed, got, best)

    def test_non_convergence_degrades_gracefully(self):
        pts, _ = two_blob_instance(5)
        a = affinity_propagation(similarity(pts), max_iter=3)
        assert not a.converged
        assert sorted(i for c in a.clusters for i in c) == list(range(len(pts)))

    @settings(max_examples=60, deadline=None)
    @given(sim=ap_similarities(), damping=st.floats(0.5, 0.99),
           preference=st.none() | st.floats(-20.0, 5.0) | st.integers(-3, 1).map(float),
           max_iter=st.integers(1, 250), window=st.integers(1, 30))
    @example(sim=SimilarityMatrix(s=np.ones((4, 4))), damping=0.5, preference=None,
             max_iter=3, window=10)
    @example(sim=SimilarityMatrix(s=ZERO_ROWS), damping=0.9, preference=None,
             max_iter=200, window=15)
    @example(sim=SimilarityMatrix(s=REPEATED_ROWS), damping=0.9, preference=None,
             max_iter=200, window=15)
    @example(sim=SimilarityMatrix(s=INTEGER_ROWS), damping=0.5, preference=-1.0,
             max_iter=100, window=10)
    def test_equals_allocating_oracle(self, sim, damping, preference, max_iter, window):
        kwargs = dict(damping=damping, preference=preference, max_iter=max_iter,
                      convergence_window=window)
        got = affinity_propagation(sim, **kwargs)
        assert type(got) is ClusterAssignment
        assert_same_assignment(got, ap_oracle.affinity_propagation(sim, **kwargs))

    @settings(max_examples=60, deadline=None)
    @given(stack=ap_stacks(), damping=st.floats(0.5, 0.99),
           preference=st.none() | st.floats(-20.0, 5.0) | st.integers(-3, 1).map(float),
           max_iter=st.integers(1, 250), window=st.integers(1, 30))
    @example(stack=np.ones((3, 5, 5)), damping=0.5, preference=None, max_iter=3, window=10)
    @example(stack=FALLBACK_MIX, damping=0.99, preference=0.0, max_iter=5, window=2)
    @example(stack=np.stack([ZERO_ROWS, REPEATED_ROWS, ZERO_ROWS]), damping=0.9,
             preference=None, max_iter=200, window=15)
    @example(stack=np.stack([INTEGER_ROWS, INTEGER_ROWS]), damping=0.5, preference=0.0,
             max_iter=100, window=10)
    def test_stack_equals_oracle_per_story(self, stack, damping, preference, max_iter, window):
        kwargs = dict(damping=damping, preference=preference, max_iter=max_iter,
                      convergence_window=window)
        got = affinity_propagation(SimilarityMatrix(s=stack), **kwargs)
        assert type(got) is ClusterStack and len(got.assignments) == len(stack)
        want = [ap_oracle.affinity_propagation(SimilarityMatrix(s=s), **kwargs) for s in stack]
        for g, w in zip(got.assignments, want):
            assert_same_assignment(g, w)
        assert got.converged is all(w.converged for w in want)

    @settings(max_examples=25, deadline=None)
    @given(case=wide_ap_stacks(), damping=st.floats(0.5, 0.99), max_iter=st.integers(1, 80),
           window=st.integers(1, 30))
    def test_wide_stack_equals_oracle_per_story(self, case, damping, max_iter, window):
        stack, preference, fallback = case
        assert len(stack) >= 8 * stack.shape[-1]        # the row-add column sums
        kwargs = dict(damping=damping, preference=preference, max_iter=max_iter,
                      convergence_window=window)
        got = affinity_propagation(SimilarityMatrix(s=stack), **kwargs)
        assert type(got) is ClusterStack and len(got.assignments) == len(stack)
        want = [ap_oracle.affinity_propagation(SimilarityMatrix(s=s), **kwargs) for s in stack]
        for g, w in zip(got.assignments, want):
            assert_same_assignment(g, w)
        assert type(got.converged) is bool
        assert got.converged is all(w.converged for w in want)
        if stack.shape[-1] > 1:     # a lone point always keeps itself as exemplar
            n = stack.shape[-1]
            assert (got.assignments[fallback].exemplars, got.assignments[fallback].clusters,
                    got.assignments[fallback].converged) == ([0], [list(range(n))], False)

    def test_stack_mixes_fallback_and_regular_stories(self):
        got = affinity_propagation(SimilarityMatrix(s=FALLBACK_MIX), damping=0.99, preference=0.0,
                                   max_iter=5, convergence_window=2)
        assert [(a.exemplars, a.converged) for a in got.assignments] == [([0, 1], True),
                                                                         ([0], False)]
        assert got.converged is False

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_similarity_left_unchanged(self, layout):
        # acceptance test 6 reads sim.s after clustering
        pts, _ = two_blob_instance(11)
        sim = SimilarityMatrix(s=layout(similarity(pts).s))
        before = sim.s.copy()
        for preference in (None, -3.0):
            affinity_propagation(sim, preference=preference)
            assert sim.s.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"convergence_window": 0}])
    def test_iteration_settings_below_one(self, kwargs):
        pts, _ = two_blob_instance(5)
        with pytest.raises(ConfigError, match="must be >= 1"):
            affinity_propagation(similarity(pts), **kwargs)

    def test_non_square_similarity(self):
        with pytest.raises(ShapeMismatchError, match="affinity_propagation"):
            affinity_propagation(SimilarityMatrix(s=np.zeros((3, 4))))

    @pytest.mark.parametrize("shape", [(2, 3, 4), (5,), (2, 2, 3, 3)])
    def test_non_square_stack(self, shape):
        with pytest.raises(ShapeMismatchError, match="affinity_propagation"):
            affinity_propagation(SimilarityMatrix(s=np.zeros(shape)))

    def test_stack_left_unchanged(self):
        stack = np.stack([similarity(two_blob_instance(seed, n=7)[0]).s for seed in (1, 2, 3)])
        before = stack.copy()
        for preference in (None, -3.0):
            affinity_propagation(SimilarityMatrix(s=stack), preference=preference)
            assert stack.tobytes() == before.tobytes()

    def test_damping_out_of_range(self):
        sim = similarity([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        for bad in (0.4, 1.0, 1.3):
            with pytest.raises(ConfigError):
                affinity_propagation(sim, damping=bad)


def manual_assignment(clusters, n):
    exemplar_of = np.empty(n, dtype=int)
    exemplars = []
    for c in clusters:
        e = min(c)
        exemplars.append(e)
        for i in c:
            exemplar_of[i] = e
    return ClusterAssignment(
        exemplar_of=exemplar_of,
        clusters=[sorted(c) for c in clusters],
        exemplars=exemplars,
        converged=True,
    )


class TestBuildSkipMatrix:
    def test_interleaved_story(self):
        # five photos, scenes recurring as A B C A B: clusters {0,3},{1,4},{2}
        sk = build_skip_matrix(manual_assignment([[0, 3], [1, 4], [2]], 5))
        assert set(sk.pairs) == {(0, 3), (1, 4)}
        assert sk.ancestors.tolist() == [-1, -1, -1, 0, 1]
        assert all(2 not in pair for pair in sk.pairs)

    def test_all_singletons(self):
        sk = build_skip_matrix(manual_assignment([[0], [1], [2]], 3))
        assert sk.pairs == ()

    def test_single_chain(self):
        sk = build_skip_matrix(manual_assignment([[0, 1, 2]], 3))
        assert set(sk.pairs) == {(0, 1), (1, 2)}

    def test_structural_invariants_random_partitions(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, n + 1))
            labels = rng.integers(0, m, size=n)
            clusters = [list(np.flatnonzero(labels == c)) for c in range(m) if np.any(labels == c)]
            sk = build_skip_matrix(manual_assignment(clusters, n))
            ancestors = [p for p, _ in sk.pairs]
            descendants = [t for _, t in sk.pairs]
            assert len(set(ancestors)) == len(ancestors)
            assert len(set(descendants)) == len(descendants)
            assert len(sk.pairs) == sum(len(c) - 1 for c in clusters)
            for p, t in sk.pairs:
                assert p < t
                assert labels[p] == labels[t]
                # t is p's immediate successor within its cluster
                between = [i for i in range(p + 1, t) if labels[i] == labels[p]]
                assert between == []


class TestSkipMatrixValidation:
    def test_duplicate_descendant(self):
        with pytest.raises(DataError):
            SkipMatrix(n=4, pairs=((0, 3), (1, 3)))

    def test_duplicate_ancestor(self):
        with pytest.raises(DataError):
            SkipMatrix(n=4, pairs=((0, 2), (0, 3)))

    def test_self_loop(self):
        with pytest.raises(DataError):
            SkipMatrix(n=4, pairs=((2, 2),))

    def test_backward_pair(self):
        with pytest.raises(DataError, match=r"\(2, 0\)"):
            SkipMatrix(n=3, pairs=((2, 0),))

    def test_out_of_range(self):
        with pytest.raises(DataError):
            SkipMatrix(n=3, pairs=((0, 3),))


def transposed_pairs(sk):
    """The backward sweep's skip pairs, read off ``descendants``: step p reads
    the state of its descendant t, so (p, t) becomes (t, p)."""
    return {(int(t), p) for p, t in enumerate(sk.descendants) if t >= 0}


class TestTransposeSkips:
    def test_single_pair(self):
        sk = SkipMatrix(n=5, pairs=((0, 3),))
        assert transposed_pairs(sk) == {(3, 0)}
        assert sk.descendants.tolist() == [3, -1, -1, -1, -1]

    def test_empty(self):
        assert transposed_pairs(SkipMatrix(n=4, pairs=())) == set()

    def test_chain(self):
        assert transposed_pairs(SkipMatrix(n=4, pairs=((0, 1), (1, 2)))) == {(1, 0), (2, 1)}

    def test_involution(self):
        sk = SkipMatrix(n=6, pairs=((0, 2), (1, 4), (3, 5)))
        for p, t in enumerate(sk.descendants):
            if t >= 0:
                assert sk.ancestors[t] == p
