import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmrnn.errors import ConfigError, DataError, ShapeMismatchError
from bmrnn.numeric import SeededRng
from bmrnn.objective import (
    CompatibilityConfig,
    SentenceSequence,
    SubStoryPartition,
    compatibility,
    compatibility_grad,
    contrastive_loss,
    sample_negatives,
)


def seq(story_id, rows):
    return SentenceSequence(story_id=story_id, v=[np.asarray(r, dtype=float) for r in rows])


def vecs(rows):
    return [np.asarray(r, dtype=float) for r in rows]


class TestPartition:
    def test_from_clusters_keeps_singletons(self):
        p = SubStoryPartition.from_clusters([[0, 3], [1, 4], [2]])
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


class TestCompatibility:
    def test_alpha_one_ignores_partition(self):
        rng = np.random.default_rng(0)
        H = vecs(rng.normal(size=(5, 3)))
        V = seq("v", rng.normal(size=(5, 3)))
        cfg = CompatibilityConfig(alpha=1.0)
        plain = sum(float(np.dot(H[t], V.v[t])) for t in range(5))
        for groups in ([[0, 1, 2, 3, 4]], [[0], [1], [2], [3], [4]], [[0, 2], [1, 4], [3]]):
            c = compatibility(H, V, SubStoryPartition(groups=groups), cfg)
            npt.assert_allclose(c, plain, atol=0)

    def test_unit_basis_single_group(self):
        n = 4
        H = vecs(np.eye(n))
        V = seq("v", np.eye(n))
        c = compatibility(H, V, SubStoryPartition(groups=[list(range(n))]),
                          CompatibilityConfig(alpha=0.5))
        # global = N, local = (1/N) * N = 1 -> 0.5*4 + 0.5*1 = 2.5
        npt.assert_allclose(c, 2.5, atol=0)

    def test_hand_computed_two_step(self):
        H = vecs([[1.0, 0.0], [0.0, 1.0]])
        V = seq("v", [[1.0, 0.0], [1.0, 0.0]])
        c = compatibility(H, V, SubStoryPartition(groups=[[0], [1]]),
                          CompatibilityConfig(alpha=0.5))
        # global = 1 + 0 = 1, local = 1/1 + 0/1 = 1 -> 0.5 + 0.5 = 1
        npt.assert_allclose(c, 1.0, atol=0)

    def test_all_pairs_mode_differs(self):
        H = vecs([[1.0, 0.0], [0.0, 1.0]])
        V = seq("v", [[1.0, 0.0], [1.0, 0.0]])
        part = SubStoryPartition(groups=[[0, 1]])
        aligned = compatibility(H, V, part, CompatibilityConfig(alpha=0.0))
        allp = compatibility(H, V, part, CompatibilityConfig(alpha=0.0, local_term_mode="all-pairs"))
        # aligned: (1+0)/2 = 0.5; all-pairs: (h0+h1).(v0+v1)/2 = (1+1+0+0)/2 = 1
        npt.assert_allclose(aligned, 0.5, atol=0)
        npt.assert_allclose(allp, 1.0, atol=0)

    def test_common_prefix_rule(self):
        H = vecs([[1.0], [2.0], [3.0]])
        V = seq("v", [[1.0], [1.0]])
        cfg = CompatibilityConfig(alpha=0.5)
        c = compatibility(H, V, SubStoryPartition(groups=[[0, 1, 2]]), cfg)
        # only t=0,1 score: global = 3, local = (1+2)/3
        npt.assert_allclose(c, 0.5 * 3 + 0.5 * 1.0, atol=1e-15)

    def test_symmetric_when_lengths_match(self):
        rng = np.random.default_rng(1)
        A = vecs(rng.normal(size=(4, 3)))
        B = rng.normal(size=(4, 3))
        part = SubStoryPartition(groups=[[0, 2], [1], [3]])
        cfg = CompatibilityConfig(alpha=0.3)
        ab = compatibility(A, seq("b", B), part, cfg)
        ba = compatibility(vecs(B), seq("a", np.stack(A)), part, cfg)
        npt.assert_allclose(ab, ba, atol=0)

    def test_empty_H_rejected(self):
        with pytest.raises(DataError):
            compatibility([], seq("v", [[1.0]]), SubStoryPartition(groups=[[0]]),
                          CompatibilityConfig())

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            compatibility(vecs([[1.0, 2.0]]), seq("v", [[1.0]]),
                          SubStoryPartition(groups=[[0]]), CompatibilityConfig())

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for mode in ("aligned", "all-pairs"):
            cfg = CompatibilityConfig(alpha=0.4, local_term_mode=mode)
            H = vecs(rng.normal(size=(4, 3)))
            V = seq("v", rng.normal(size=(4, 3)))
            part = SubStoryPartition(groups=[[0, 2], [1], [3]])
            grad = compatibility_grad(H, V, part, cfg)
            eps = 1e-6
            for t in range(4):
                for i in range(3):
                    Hp = [h.copy() for h in H]
                    Hm = [h.copy() for h in H]
                    Hp[t][i] += eps
                    Hm[t][i] -= eps
                    fd = (compatibility(Hp, V, part, cfg) - compatibility(Hm, V, part, cfg)) / (2 * eps)
                    npt.assert_allclose(grad[t][i], fd, rtol=1e-6, atol=1e-9)


class TestContrastiveLoss:
    def setup_method(self):
        self.part = SubStoryPartition(groups=[[0, 2], [1]])

    def test_all_hinges_inactive(self):
        H = vecs([[10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        V = seq("v", [[10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        neg_v = [seq("n", [[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]])]
        neg_h = [vecs([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]])]
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
        res = contrastive_loss(H, V, [dup], [far], self.part, cfg)
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
            neg_v = [seq("nv", rng.normal(size=(int(rng.integers(1, 6)), 3))) for _ in range(4)]
            neg_h = [vecs(rng.normal(size=(int(rng.integers(1, 6)), 3))) for _ in range(4)]
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
        neg_v = [seq("z", np.zeros((3, 2))) for _ in range(2)]
        neg_h = [vecs(rng.normal(size=(3, 2))) for _ in range(2)]
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
            contrastive_loss(H, V, [V], [H, H], SubStoryPartition(groups=[[0]]), cfg)
        with pytest.raises(ConfigError):
            contrastive_loss(H, V, [V, V], [H], SubStoryPartition(groups=[[0]]), cfg)

    def test_dh_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        cfg = CompatibilityConfig(negatives_per_positive=3, gamma=0.5)
        part = SubStoryPartition(groups=[[0, 2], [1], [3]])
        H = vecs(rng.normal(size=(4, 3)) * 0.5)
        V = seq("v", rng.normal(size=(4, 3)) * 0.5)
        neg_v = [seq(f"nv{k}", rng.normal(size=(int(rng.integers(2, 6)), 3)) * 0.5) for k in range(3)]
        neg_h = [vecs(rng.normal(size=(int(rng.integers(2, 6)), 3)) * 0.5) for k in range(3)]
        res = contrastive_loss(H, V, neg_v, neg_h, part, cfg)

        # guard: stay away from hinge boundaries so the loss is smooth here
        base = compatibility(H, V, part, cfg)
        for Vp in neg_v:
            assert abs(cfg.gamma - base + compatibility(H, Vp, part, cfg)) > 1e-3
        for Hp in neg_h:
            assert abs(cfg.gamma - base + compatibility(Hp, V, part, cfg)) > 1e-3

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
    def make_dataset(self, n):
        return {f"s{i:03d}": f"record-{i}" for i in range(n)}

    def test_full_coverage_when_exact(self):
        ds = self.make_dataset(128)
        draw = sample_negatives(ds, "s000", 127, SeededRng(1))
        assert sorted(draw.neg_V) == sorted(v for k, v in ds.items() if k != "s000")
        assert draw.neg_H_sources == draw.neg_V

    def test_same_seed_same_draw(self):
        ds = self.make_dataset(50)
        a = sample_negatives(ds, "s007", 10, SeededRng(42))
        b = sample_negatives(ds, "s007", 10, SeededRng(42))
        assert a.neg_V == b.neg_V

    def test_excludes_positive(self):
        ds = self.make_dataset(30)
        for s in range(20):
            draw = sample_negatives(ds, "s004", 10, SeededRng(s))
            assert "record-4" not in draw.neg_V

    def test_small_dataset_warns_and_fills(self):
        ds = self.make_dataset(5)
        with pytest.warns(UserWarning):
            draw = sample_negatives(ds, "s000", 10, SeededRng(3))
        assert len(draw.neg_V) == 10
        assert "record-0" not in draw.neg_V

    def test_single_story_rejected(self):
        with pytest.raises(DataError):
            sample_negatives({"only": 1}, "only", 3, SeededRng(1))

    def test_selection_rates_uniform(self):
        # chi-squared-style check: every story's selection rate within 3 sigma
        ds = {f"s{i:03d}": f"s{i:03d}" for i in range(11)}
        rng = SeededRng(99)
        counts = {k: 0 for k in ds if k != "s005"}
        draws = 10_000
        for _ in range(draws):
            for rec in sample_negatives(ds, "s005", 3, rng).neg_V:
                counts[rec] += 1
        p = 3 / 10
        sigma = (draws * p * (1 - p)) ** 0.5
        for k, c in counts.items():
            assert abs(c - draws * p) < 3 * sigma, (k, c)


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
        want, want_grad = reference_compatibility(H, V.v, part.groups, cfg.alpha,
                                                  cfg.local_term_mode)
        npt.assert_allclose(compatibility(H, V, part, cfg), want, rtol=1e-12, atol=1e-12)
        grad = compatibility_grad(H, V, part, cfg)
        assert isinstance(grad, np.ndarray) and grad.shape == H.shape
        npt.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(scoring_instances())
    def test_identical_negative_cancels_exactly(self, inst):
        H, V, part, cfg = inst
        g = compatibility_grad(H, V, part, cfg)
        sq = float(np.sum(g * g))
        assume(sq > 1e-6)
        # c is linear in H, so this stream negative scores gamma + 1 below
        # the positive and its hinge stays inactive
        far = H - (cfg.gamma + 1.0) / sq * g
        dup = seq("dup", V.v.copy())
        res = contrastive_loss(H, V, [dup], [far], part, cfg)
        assert res.loss == cfg.gamma
        assert res.active_v_hinges == 1 and res.active_h_hinges == 0
        assert np.all(res.dH == 0.0)
