import numpy as np
import numpy.testing as npt
import pytest

from bmrnn.cells import _sigmoid
from bmrnn.numeric import SeededRng, init_params


class TestElementwise:
    """The cell activations: the sign-split sigmoid of `bmrnn.cells` and tanh."""

    def test_sigmoid_at_zero(self):
        npt.assert_array_equal(_sigmoid(np.array([0.0])), [0.5])

    def test_ranges_strict(self):
        # float64 tanh saturates to exactly +-1 beyond |x| ~ 19, so the
        # strict-open-interval check uses a non-saturating domain
        x = np.linspace(-30, 30, 1001)
        s = _sigmoid(x)
        assert np.all(s > 0) and np.all(s < 1)
        t = np.tanh(np.linspace(-15, 15, 1001))
        assert np.all(t > -1) and np.all(t < 1)

    def test_sigmoid_extreme_inputs_finite(self):
        s = _sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(s))
        npt.assert_allclose(s, [0.0, 1.0], atol=1e-12)


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = init_params(2, 2, SeededRng(7))
        b = init_params(2, 2, SeededRng(7))
        npt.assert_array_equal(a, b)

    def test_default_scale_bound(self):
        m = init_params(4, 100, SeededRng(3))
        assert np.all(np.abs(m) <= 0.1)  # 1/sqrt(100)

    def test_mean_for_seed_1(self):
        # empirical value for this exact seed, frozen
        m = init_params(50, 50, SeededRng(1))
        npt.assert_allclose(m.mean(), -0.0009397966486783469, atol=1e-15)
        assert abs(m.mean()) < 0.02

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            init_params(2, 2, SeededRng(0), scale=0.0)

    def test_all_finite(self):
        assert np.all(np.isfinite(init_params(20, 30, SeededRng(11), scale=5.0)))


class TestSeededRng:
    def test_identical_streams(self):
        a, b = SeededRng(123), SeededRng(123)
        npt.assert_array_equal(a.normal(shape=100), b.normal(shape=100))
        npt.assert_array_equal(a.integers(0, 1000, 50), b.integers(0, 1000, 50))

    def test_spawn_is_deterministic_and_distinct(self):
        a = SeededRng(9).spawn(4)
        b = SeededRng(9).spawn(4)
        c = SeededRng(9).spawn(5)
        npt.assert_array_equal(a.uniform(0, 1, 10), b.uniform(0, 1, 10))
        assert not np.array_equal(a.uniform(0, 1, 10), c.uniform(0, 1, 10))

    def test_choice_without_replacement(self):
        picks = SeededRng(2).choice_without_replacement(10, 10)
        assert sorted(picks.tolist()) == list(range(10))
