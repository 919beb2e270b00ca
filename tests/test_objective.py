import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import objective_oracle
from bmrnn.data import SkipRecord
from bmrnn.errors import ConfigError, DataError, ShapeMismatchError
from bmrnn.evaluation import rank_of_truth
from bmrnn.numeric import SeededRng, Sequence
from bmrnn.objective import (
    CompatibilityConfig,
    SequenceStack,
    SubStoryPartition,
    compatibility,
    compatibility_grad,
    contrastive_loss,
    sample_negatives,
)


def seq(story_id, rows):
    return Sequence(story_id=story_id, rows=[np.asarray(r, dtype=float) for r in rows])


def vecs(rows):
    return [np.asarray(r, dtype=float) for r in rows]


class TestPartition:
    def test_from_clusters_keeps_singletons(self):
        p = SkipRecord("s", clusters=[[0, 3], [1, 4], [2]], pairs=[], converged=True).partition()
        assert p.groups == [[0, 3], [1, 4], [2]]

    def test_overlap_rejected(self):
        with pytest.raises(DataError):
            SubStoryPartition(groups=[[0, 1], [1, 2]])

    def test_empty_group_rejected(self):
        with pytest.raises(DataError):
            SubStoryPartition(groups=[[0], []])

    def test_negative_index_rejected(self):
        with pytest.raises(DataError):
            SubStoryPartition(groups=[[-1, 0]])


class TestConfig:
    def test_defaults(self):
        cfg = CompatibilityConfig()
        assert cfg.alpha == 0.5
        assert cfg.gamma == 0.2
        assert cfg.negatives_per_positive == 127
        assert cfg.local_term_mode == "aligned"

    def test_validation(self):
        with pytest.raises(ConfigError):
            CompatibilityConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            CompatibilityConfig(gamma=0.0)
        with pytest.raises(ConfigError):
            CompatibilityConfig(negatives_per_positive=0)
        with pytest.raises(ConfigError):
            CompatibilityConfig(local_term_mode="fancy")

    def test_nan_gamma_rejected(self):
        with pytest.raises(ConfigError, match="gamma"):
            CompatibilityConfig(gamma=float("nan"))


class TestCompatibility:
    def test_alpha_one_ignores_partition(self):
        rng = np.random.default_rng(0)
        H = vecs(rng.normal(size=(5, 3)))
        V = seq("v", rng.normal(size=(5, 3)))
        cfg = CompatibilityConfig(alpha=1.0)
        plain = sum(float(np.dot(H[t], V.rows[t])) for t in range(5))
        for groups in ([[0, 1, 2, 3, 4]], [[0], [1], [2], [3], [4]], [[0, 2], [1, 4], [3]]):
            c = compatibility(SequenceStack.of([H]), SequenceStack.of([V]),
                              SubStoryPartition(groups=groups), cfg)[0]
            npt.assert_allclose(c, plain, atol=0)

    def test_unit_basis_single_group(self):
        n = 4
        H = vecs(np.eye(n))
        V = seq("v", np.eye(n))
        c = compatibility(SequenceStack.of([H]), SequenceStack.of([V]),
                          SubStoryPartition(groups=[list(range(n))]),
                          CompatibilityConfig(alpha=0.5))[0]
        # global = N, local = (1/N) * N = 1 -> 0.5*4 + 0.5*1 = 2.5
        npt.assert_allclose(c, 2.5, atol=0)

    def test_hand_computed_two_step(self):
        H = vecs([[1.0, 0.0], [0.0, 1.0]])
        V = seq("v", [[1.0, 0.0], [1.0, 0.0]])
        c = compatibility(SequenceStack.of([H]), SequenceStack.of([V]),
                          SubStoryPartition(groups=[[0], [1]]), CompatibilityConfig(alpha=0.5))[0]
        # global = 1 + 0 = 1, local = 1/1 + 0/1 = 1 -> 0.5 + 0.5 = 1
        npt.assert_allclose(c, 1.0, atol=0)

    def test_all_pairs_mode_differs(self):
        H = SequenceStack.of([vecs([[1.0, 0.0], [0.0, 1.0]])])
        V = SequenceStack.of([seq("v", [[1.0, 0.0], [1.0, 0.0]])])
        part = SubStoryPartition(groups=[[0, 1]])
        aligned = compatibility(H, V, part, CompatibilityConfig(alpha=0.0))[0]
        allp = compatibility(H, V, part,
                             CompatibilityConfig(alpha=0.0, local_term_mode="all-pairs"))[0]
        # aligned: (1+0)/2 = 0.5; all-pairs: (h0+h1).(v0+v1)/2 = (1+1+0+0)/2 = 1
        npt.assert_allclose(aligned, 0.5, atol=0)
        npt.assert_allclose(allp, 1.0, atol=0)

    def test_common_prefix_rule(self):
        H = vecs([[1.0], [2.0], [3.0]])
        V = seq("v", [[1.0], [1.0]])
        cfg = CompatibilityConfig(alpha=0.5)
        c = compatibility(SequenceStack.of([H]), SequenceStack.of([V]),
                          SubStoryPartition(groups=[[0, 1, 2]]), cfg)[0]
        # only t=0,1 score: global = 3, local = (1+2)/3
        npt.assert_allclose(c, 0.5 * 3 + 0.5 * 1.0, atol=1e-15)

    def test_symmetric_when_lengths_match(self):
        rng = np.random.default_rng(1)
        A = vecs(rng.normal(size=(4, 3)))
        B = rng.normal(size=(4, 3))
        part = SubStoryPartition(groups=[[0, 2], [1], [3]])
        cfg = CompatibilityConfig(alpha=0.3)
        ab = compatibility(SequenceStack.of([A]), SequenceStack.of([seq("b", B)]), part, cfg)
        ba = compatibility(SequenceStack.of([vecs(B)]), SequenceStack.of([seq("a", np.stack(A))]),
                           part, cfg)
        npt.assert_allclose(ab, ba, atol=0)

    def test_empty_H_rejected(self):
        with pytest.raises(DataError):
            compatibility(SequenceStack.of([[]]), SequenceStack.of([seq("v", [[1.0]])]),
                          SubStoryPartition(groups=[[0]]), CompatibilityConfig())

    @pytest.mark.parametrize("v", [[], np.zeros((0, 4))], ids=["no-rows", "zero-rows"])
    def test_empty_sentence_sequence_rejected(self, v):
        with pytest.raises(DataError, match=r"at least one step \(story: v7\)"):
            Sequence(story_id="v7", rows=v)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            compatibility(SequenceStack.of([vecs([[1.0, 2.0]])]),
                          SequenceStack.of([seq("v", [[1.0]])]),
                          SubStoryPartition(groups=[[0]]), CompatibilityConfig())

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for mode in ("aligned", "all-pairs"):
            cfg = CompatibilityConfig(alpha=0.4, local_term_mode=mode)
            H = vecs(rng.normal(size=(4, 3)))
            V = SequenceStack.of([seq("v", rng.normal(size=(4, 3)))])
            part = SubStoryPartition(groups=[[0, 2], [1], [3]])
            grad = compatibility_grad(SequenceStack.of([H]), V, part, cfg)[0]
            eps = 1e-6
            for t in range(4):
                for i in range(3):
                    Hp = [h.copy() for h in H]
                    Hm = [h.copy() for h in H]
                    Hp[t][i] += eps
                    Hm[t][i] -= eps
                    fd = (compatibility(SequenceStack.of([Hp]), V, part, cfg)[0]
                          - compatibility(SequenceStack.of([Hm]), V, part, cfg)[0]) / (2 * eps)
                    npt.assert_allclose(grad[t][i], fd, rtol=1e-6, atol=1e-9)


class TestContrastiveLoss:
    def setup_method(self):
        self.part = SubStoryPartition(groups=[[0, 2], [1]])

    def test_all_hinges_inactive(self):
        H = vecs([[10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        V = seq("v", [[10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        neg_v = SequenceStack.of([seq("n", [[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]])])
        neg_h = SequenceStack.of([vecs([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]])])
        cfg = CompatibilityConfig(negatives_per_positive=1)
        res = contrastive_loss(H, V, neg_v, neg_h, self.part, cfg)
        assert res.loss == 0.0
        assert res.active_v_hinges == 0 and res.active_h_hinges == 0
        for d in res.dH:
            npt.assert_array_equal(d, 0.0)

    def test_equal_negative_gives_exact_margin(self):
        H = vecs([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0]])
        V = seq("v", [[0.3, 0.1], [1.0, 1.0], [-0.2, 0.4]])
        dup = seq("dup", [np.array(r) for r in [[0.3, 0.1], [1.0, 1.0], [-0.2, 0.4]]])
        far = vecs([[-50.0, -50.0], [-50.0, -50.0], [-50.0, -50.0]])
        cfg = CompatibilityConfig(negatives_per_positive=1, gamma=0.2)
        res = contrastive_loss(H, V, SequenceStack.of([dup]), SequenceStack.of([far]),
                               self.part, cfg)
        assert res.loss == 0.2
        assert res.active_v_hinges == 1 and res.active_h_hinges == 0
        for d in res.dH:  # identical V' cancels the positive gradient exactly
            npt.assert_array_equal(d, 0.0)

    def test_loss_nonnegative_random(self):
        rng = np.random.default_rng(3)
        cfg = CompatibilityConfig(negatives_per_positive=4)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            H = vecs(rng.normal(size=(n, 3)))
            V = seq("v", rng.normal(size=(n, 3)))
            neg_v = SequenceStack.of(
                [seq("nv", rng.normal(size=(int(rng.integers(1, 6)), 3))) for _ in range(4)])
            neg_h = SequenceStack.of(
                [vecs(rng.normal(size=(int(rng.integers(1, 6)), 3))) for _ in range(4)])
            part = SubStoryPartition(groups=[[t] for t in range(n)])
            res = contrastive_loss(H, V, neg_v, neg_h, part, cfg)
            assert res.loss >= 0.0
            if res.active_v_hinges == 0 and res.active_h_hinges == 0:
                assert res.loss == 0.0
            else:
                assert res.loss > 0.0

    def test_monotone_in_positive_score(self):
        # zero-vector sentence negatives keep every c(H, V') pinned at 0 and
        # H' scores never depend on H, so raising c(H,V) must not raise loss
        rng = np.random.default_rng(5)
        V_rows = rng.normal(size=(3, 2))
        H = vecs(V_rows * 0.1)  # positively aligned with V
        V = seq("v", V_rows)
        neg_v = SequenceStack.of([seq("z", np.zeros((3, 2))) for _ in range(2)])
        neg_h = SequenceStack.of([vecs(rng.normal(size=(3, 2))) for _ in range(2)])
        cfg = CompatibilityConfig(negatives_per_positive=2)
        losses = []
        for scale in (1.0, 2.0, 4.0, 8.0):
            res = contrastive_loss([scale * h for h in H], V, neg_v, neg_h,
                                   SubStoryPartition(groups=[[0, 1], [2]]), cfg)
            losses.append(res.loss)
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_wrong_negative_count_rejected(self):
        H = vecs([[1.0]])
        V = seq("v", [[1.0]])
        cfg = CompatibilityConfig(negatives_per_positive=2)
        with pytest.raises(ConfigError):
            contrastive_loss(H, V, SequenceStack.of([V]), SequenceStack.of([H, H]),
                             SubStoryPartition(groups=[[0]]), cfg)
        with pytest.raises(ConfigError):
            contrastive_loss(H, V, SequenceStack.of([V, V]), SequenceStack.of([H]),
                             SubStoryPartition(groups=[[0]]), cfg)

    def test_dh_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        cfg = CompatibilityConfig(negatives_per_positive=3, gamma=0.5)
        part = SubStoryPartition(groups=[[0, 2], [1], [3]])
        H = vecs(rng.normal(size=(4, 3)) * 0.5)
        V = seq("v", rng.normal(size=(4, 3)) * 0.5)
        neg_v = SequenceStack.of(
            [seq(f"nv{k}", rng.normal(size=(int(rng.integers(2, 6)), 3)) * 0.5) for k in range(3)])
        neg_h = SequenceStack.of(
            [vecs(rng.normal(size=(int(rng.integers(2, 6)), 3)) * 0.5) for k in range(3)])
        res = contrastive_loss(H, V, neg_v, neg_h, part, cfg)

        # guard: stay away from hinge boundaries so the loss is smooth here
        H_one, V_one = SequenceStack.of([H]), SequenceStack.of([V])
        base = compatibility(H_one, V_one, part, cfg)[0]
        for c in compatibility(H_one, neg_v, part, cfg):
            assert abs(cfg.gamma - base + c) > 1e-3
        for c in compatibility(neg_h, V_one, part, cfg):
            assert abs(cfg.gamma - base + c) > 1e-3

        eps = 1e-5
        for t in range(4):
            for i in range(3):
                Hp_ = [h.copy() for h in H]
                Hm_ = [h.copy() for h in H]
                Hp_[t][i] += eps
                Hm_[t][i] -= eps
                lp = contrastive_loss(Hp_, V, neg_v, neg_h, part, cfg).loss
                lm = contrastive_loss(Hm_, V, neg_v, neg_h, part, cfg).loss
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(res.dH[t][i]), abs(fd), 1e-5)
                assert abs(res.dH[t][i] - fd) / denom < 1e-6


class TestSampleNegatives:
    def test_full_coverage_when_exact(self):
        draw = sample_negatives(128, 0, 127, SeededRng(1))
        assert sorted(draw) == list(range(1, 128))

    def test_same_seed_same_draw(self):
        a = sample_negatives(50, 7, 10, SeededRng(42))
        b = sample_negatives(50, 7, 10, SeededRng(42))
        npt.assert_array_equal(a, b)

    def test_excludes_positive(self):
        for s in range(20):
            draw = sample_negatives(30, 4, 10, SeededRng(s))
            assert 4 not in draw

    def test_small_dataset_warns_and_fills(self):
        with pytest.warns(UserWarning):
            draw = sample_negatives(5, 0, 10, SeededRng(3))
        assert len(draw) == 10
        assert 0 not in draw

    def test_single_story_rejected(self):
        with pytest.raises(DataError):
            sample_negatives(1, 0, 3, SeededRng(1))

    def test_selection_rates_uniform(self):
        # chi-squared-style check: every story's selection rate within 3 sigma
        rng = SeededRng(99)
        counts = {k: 0 for k in range(11) if k != 5}
        draws = 10_000
        for _ in range(draws):
            for row in sample_negatives(11, 5, 3, rng):
                counts[row] += 1
        p = 3 / 10
        sigma = (draws * p * (1 - p)) ** 0.5
        for k, c in counts.items():
            assert abs(c - draws * p) < 3 * sigma, (k, c)

    @staticmethod
    def assert_same_draws(calls, seed):
        """Each (n, positive, count) call draws the rows the id-list oracle
        draws, its rng continuing from the calls before it."""
        rng, oracle_rng = SeededRng(seed), SeededRng(seed)
        for n, positive, count in calls:
            ids = {f"s{i:03d}": i for i in range(n)}
            want = objective_oracle.sample_negatives(ids, f"s{positive:03d}", count, oracle_rng)
            assert sample_negatives(n, positive, count, rng).tolist() == want, (n, positive, count)

    @pytest.mark.filterwarnings("ignore:only .* candidate negatives")
    def test_small_draws_equal_id_list_oracle(self):
        # count above n - 1 takes the with-replacement branch
        self.assert_same_draws([(n, positive, count) for n in range(2, 13)
                                for count in range(1, 16) for positive in range(n)], seed=5)

    def test_sind_short_draws_equal_id_list_oracle(self):
        positives = np.random.default_rng(0).integers(0, 200, 2000).tolist()
        self.assert_same_draws([(200, positive, 127) for positive in positives], seed=6)


def reference_compatibility(H, V, groups, alpha, mode):
    """Per-timestep loops: the score and d score / dH, independent of the kernel."""
    L = min(len(H), len(V))
    glob = sum(float(np.dot(H[t], V[t])) for t in range(L))
    grad = np.zeros_like(H)
    for t in range(L):
        grad[t] += alpha * V[t]
    local = 0.0
    for g in groups:
        inside = [t for t in g if t < L]
        if mode == "aligned":
            local += sum(float(np.dot(H[t], V[t])) for t in inside) / len(g)
            for t in inside:
                grad[t] += (1.0 - alpha) / len(g) * V[t]
        else:
            local += sum(float(np.dot(H[a], V[b])) for a in inside for b in inside) / len(g)
            v_sum = sum((V[b] for b in inside), start=np.zeros(H.shape[1]))
            for a in inside:
                grad[a] += (1.0 - alpha) / len(g) * v_sum
    return alpha * glob + (1.0 - alpha) * local, grad


@st.composite
def scoring_instances(draw):
    """Random H and V of unequal lengths 1-8 and a partition over up to 8
    steps, with uncovered steps and members beyond the common prefix."""
    dim = draw(st.integers(1, 4))
    n_h, n_v, extent = (draw(st.integers(1, 8)) for _ in range(3))
    labels = draw(st.lists(st.integers(-1, 3), min_size=extent, max_size=extent))
    groups = [[t for t, lab in enumerate(labels) if lab == g] for g in range(4)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = CompatibilityConfig(
        alpha=draw(st.floats(0.0, 1.0)),
        gamma=draw(st.floats(0.01, 5.0)),
        negatives_per_positive=1,
        local_term_mode=draw(st.sampled_from(["aligned", "all-pairs"])),
    )
    return (rng.normal(size=(n_h, dim)), seq("v", rng.normal(size=(n_v, dim))),
            SubStoryPartition(groups=[g for g in groups if g]), cfg)


class TestBilinearForm:
    @settings(max_examples=300, deadline=None)
    @given(scoring_instances())
    def test_matches_per_timestep_loops(self, inst):
        H, V, part, cfg = inst
        want, want_grad = reference_compatibility(H, V.rows, part.groups, cfg.alpha,
                                                  cfg.local_term_mode)
        H_one, V_one = SequenceStack.of([H]), SequenceStack.of([V])
        npt.assert_allclose(compatibility(H_one, V_one, part, cfg)[0], want, rtol=1e-12, atol=1e-12)
        grad = compatibility_grad(H_one, V_one, part, cfg)
        assert isinstance(grad, np.ndarray) and grad.shape == (1, *H.shape)
        npt.assert_allclose(grad[0], want_grad, rtol=1e-12, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(scoring_instances())
    def test_identical_negative_cancels_exactly(self, inst):
        H, V, part, cfg = inst
        g = compatibility_grad(SequenceStack.of([H]), SequenceStack.of([V]), part, cfg)[0]
        sq = float(np.sum(g * g))
        assume(sq > 1e-6)
        # c is linear in H, so this stream negative scores gamma + 1 below
        # the positive and its hinge stays inactive
        far = H - (cfg.gamma + 1.0) / sq * g
        dup = seq("dup", V.rows.copy())
        res = contrastive_loss(H, V, SequenceStack.of([dup]), SequenceStack.of([far]), part, cfg)
        assert res.loss == cfg.gamma
        assert res.active_v_hinges == 1 and res.active_h_hinges == 0
        assert np.all(res.dH == 0.0)


class TestSequenceStack:
    def test_pads_and_takes(self):
        st_ = SequenceStack.of([seq("a", [[1.0, 2.0]]), np.ones((3, 2)), [[5.0, 6.0], [7.0, 8.0]]])
        assert len(st_) == 3 and st_.padded.shape == (3, 3, 2)
        assert st_.lengths.tolist() == [1, 3, 2]
        npt.assert_array_equal(st_.padded[0], [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        sub = st_.take([2, 0])
        assert sub.lengths.tolist() == [2, 1]
        npt.assert_array_equal(sub.padded[0, :2], [[5.0, 6.0], [7.0, 8.0]])
        # cut to a width: the first steps of each, lengths clipped to it
        cut = st_.take([1, 2, 0], width=2)
        assert cut.padded.shape == (3, 2, 2) and cut.lengths.tolist() == [2, 2, 1]
        npt.assert_array_equal(cut.padded[0], np.ones((2, 2)))

    def test_ragged_widths_rejected(self):
        # a width-1 sequence would broadcast silently into the padded array
        with pytest.raises(ShapeMismatchError):
            SequenceStack.of([np.ones((2, 3)), np.ones((2, 1))])

    @pytest.mark.parametrize("seqs", [[np.ones((2, 2)), np.zeros((0, 2))], []],
                             ids=["empty-member", "no-members"])
    def test_empty_rejected(self, seqs):
        with pytest.raises(DataError):
            SequenceStack.of(seqs)

    @pytest.mark.parametrize("side", ["sentence", "stream"])
    def test_candidate_width_mismatch_rejected(self, side):
        part, cfg = SubStoryPartition(groups=[[0]]), CompatibilityConfig()
        wide = SequenceStack.of([np.ones((2, 3)), np.ones((1, 3))])
        with pytest.raises(ShapeMismatchError):
            if side == "sentence":
                compatibility(SequenceStack.of([np.ones((2, 2))]), wide, part, cfg)
            else:
                compatibility(wide, SequenceStack.of([seq("v", np.ones((2, 2)))]), part, cfg)

    def test_stack_results_have_one_row_per_candidate(self):
        rng = np.random.default_rng(2)
        part, cfg = SubStoryPartition(groups=[[0, 2], [1]]), CompatibilityConfig(alpha=0.3)
        H = SequenceStack.of([rng.normal(size=(3, 2))])
        V = SequenceStack.of([seq("v", rng.normal(size=(3, 2)))])
        cands = SequenceStack.of([rng.normal(size=(n, 2)) for n in (1, 4, 3, 2)])
        assert compatibility(H, V, part, cfg).shape == (1,)
        assert compatibility_grad(H, V, part, cfg).shape == (1, 3, 2)
        assert compatibility(H, cands, part, cfg).shape == (4,)
        assert compatibility(cands, V, part, cfg).shape == (4,)
        assert compatibility_grad(H, cands, part, cfg).shape == (4, 3, 2)
        assert compatibility_grad(cands, V, part, cfg).shape == (4, 4, 2)


@st.composite
def loss_instances(draw):
    """A query of length 1-12, 1-8 negatives per side of lengths 1-12 (mostly
    not the query's), a partition with uncovered steps, random alpha, gamma
    and mode, and exact ties: negatives that repeat the positive pair or an
    earlier negative, and small-integer values under which distinct pairs
    can score the same."""
    dim, n, count = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(1, 12), min_size=2 * count, max_size=2 * count))
    extent = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(-1, 3), min_size=extent, max_size=extent))
    groups = [[t for t, lab in enumerate(labels) if lab == g] for g in range(4)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())

    def rows(m):
        if integer:
            return rng.integers(-2, 3, size=(m, dim)).astype(float)
        return rng.normal(size=(m, dim))

    H, V = rows(n), seq("v", rows(n))
    neg_V = [seq(f"nv{k}", rows(m)) for k, m in enumerate(lengths[:count])]
    neg_H = [rows(m) for m in lengths[count:]]
    for k in draw(st.lists(st.integers(0, count - 1), max_size=3)):
        neg_V[k], neg_H[k] = seq("dup", V.rows.copy()), H.copy()
    for k in draw(st.lists(st.integers(0, count - 1), max_size=2)):
        neg_V[k], neg_H[k] = neg_V[0], neg_H[0]
    cfg = CompatibilityConfig(
        alpha=draw(st.floats(0.0, 1.0)),
        gamma=draw(st.floats(0.01, 5.0)),
        negatives_per_positive=count,
        local_term_mode=draw(st.sampled_from(["aligned", "all-pairs"])),
    )
    return H, V, neg_V, neg_H, SubStoryPartition(groups=[g for g in groups if g]), cfg


class TestPerPairOracle:
    """The stacked path against the per-pair loops it replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(loss_instances())
    def test_loss_equals_oracle(self, inst):
        H, V, neg_V, neg_H, part, cfg = inst
        want = objective_oracle.contrastive_loss(H, V, neg_V, neg_H, part, cfg)
        got = contrastive_loss(H, V, SequenceStack.of(neg_V), SequenceStack.of(neg_H), part, cfg)
        assert got.loss == want.loss
        assert got.dH.tobytes() == want.dH.tobytes()
        assert (got.active_v_hinges, got.active_h_hinges) == (
            want.active_v_hinges, want.active_h_hinges)

    @pytest.mark.parametrize("n_dim", [(1, 1), (3, 2)], ids=["one-element", "3x2"])
    def test_many_active_rows_add_in_draw_order(self, n_dim):
        # add.reduce sums one-element rows pairwise once there are 8 or more;
        # dH must add the active rows one at a time, as the oracle does
        rng = np.random.default_rng(5)
        H, V = rng.normal(size=n_dim), seq("v", rng.normal(size=n_dim) * 1e-3)
        neg_V = [seq(f"n{k}", rng.normal(size=n_dim) * 10.0 ** rng.integers(-3, 4))
                 for k in range(40)]
        part = SubStoryPartition(groups=[[0]])
        cfg = CompatibilityConfig(gamma=1e6, negatives_per_positive=40)
        got = contrastive_loss(H, V, SequenceStack.of(neg_V), SequenceStack.of([H] * 40), part, cfg)
        want = objective_oracle.contrastive_loss(H, V, neg_V, [H] * 40, part, cfg)
        assert got.active_v_hinges == 40
        assert got.dH.tobytes() == want.dH.tobytes() and got.loss == want.loss

    @settings(max_examples=300, deadline=None)
    @given(loss_instances())
    def test_scores_and_ranks_equal_oracle(self, inst):
        H, V, neg_V, neg_H, part, cfg = inst
        pool = [V, *neg_V]
        H_one = SequenceStack.of([H])
        got = compatibility(H_one, SequenceStack.of(pool), part, cfg)
        want = [objective_oracle.compatibility(H, c, part, cfg) for c in pool]
        assert got.tobytes() == np.array(want).tobytes()
        stream = compatibility(SequenceStack.of(neg_H), SequenceStack.of([V]), part, cfg)
        assert stream.tobytes() == np.array(
            [objective_oracle.compatibility(h, V, part, cfg) for h in neg_H]).tobytes()
        grads = compatibility_grad(H_one, SequenceStack.of(pool), part, cfg)
        for g, c in zip(grads, pool):
            assert g.tobytes() == objective_oracle.compatibility_grad(H, c, part, cfg).tobytes()
        ids = [f"c{i:02d}" for i in range(len(pool))]
        for truth in ids:
            assert (rank_of_truth(dict(zip(ids, got.tolist())), truth)
                    == rank_of_truth(dict(zip(ids, want)), truth))
