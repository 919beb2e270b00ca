import copy

import numpy as np
import numpy.testing as npt
import pytest

from bmrnn.cells import (
    GRUParams,
    SGRUParams,
    gru_forward,
    init_sgru_params,
    sgru_backward,
    sgru_forward,
    sgru_inputs,
    sgru_param_grads,
)
from bmrnn.errors import ShapeMismatchError
from bmrnn.network import init_bmrnn_params
from bmrnn.numeric import SeededRng, init_params
from gru_oracle import gru_backward

EPS = 1e-5


def zero_gru(input_dim, hidden_dim):
    z = lambda *s: np.zeros(s)
    return GRUParams(
        W_zx=z(hidden_dim, input_dim), W_zh=z(hidden_dim, hidden_dim),
        W_rx=z(hidden_dim, input_dim), W_rh=z(hidden_dim, hidden_dim),
        W_hx=z(hidden_dim, input_dim), W_hh=z(hidden_dim, hidden_dim),
        b_z=z(hidden_dim), b_r=z(hidden_dim), b_h=z(hidden_dim),
    )


def zero_sgru(input_dim, hidden_dim):
    z = lambda *s: np.zeros(s)
    return SGRUParams(
        **vars(zero_gru(input_dim, hidden_dim)),
        W_sx=z(hidden_dim, input_dim), W_sh=z(hidden_dim, hidden_dim),
        W_hp=z(hidden_dim, hidden_dim), b_s=z(hidden_dim),
    )


def scalar_gru(W_zx=1.0, W_rx=1.0, W_hx=1.0):
    p = zero_gru(1, 1)
    p.W_zx[:] = W_zx
    p.W_rx[:] = W_rx
    p.W_hx[:] = W_hx
    return p


def rel_err(a, f, floor=1e-5):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
    return np.max(np.abs(a - f) / denom)


def xp1(params, x):
    """The ``sgru_inputs`` row of a one-step sequence x."""
    return sgru_inputs(params, x[None])[0]


def sgru_step(p, x, h, hp):
    """``sgru_forward`` on one row: input x, previous state h and skip
    ancestor state hp (None on a step without one)."""
    return sgru_forward(p, xp1(p, x), h, np.zeros_like(h) if hp is None else hp,
                        np.array(hp is not None))


def sgru_step_grads(p, x, h, hp, tr, g_up):
    """One step's (param grads, dx, dh_prev, dh_skip): ``sgru_backward``,
    then ``sgru_param_grads`` on a one-step sweep."""
    da, dh_prev, dh_skip = sgru_backward(p, h, np.zeros_like(h) if hp is None else hp,
                                         np.array(hp is not None), tr, g_up)
    grads = SGRUParams.from_named({n: np.zeros_like(t) for n, t in p.named_tensors()})
    zero = np.zeros_like(h)
    dx = sgru_param_grads(p, grads, x[None], h[None], tr.r[None],
                          (zero if hp is None else hp)[None],
                          tr.s[None], da[None])[0]
    return grads, dx, dh_prev, dh_skip


def fd_cell_grads(params, x, h_prev, h_skip, g):
    """Central-difference gradients of g . h_t for every tensor and input.

    Independent of the analytic backward path: only the forward pass is used.
    """
    is_sgru = isinstance(params, SGRUParams)

    def loss(p, xv, hv, sv):
        tr = sgru_step(p, xv, hv, sv) if is_sgru else gru_forward(p, xv, hv)
        return float(np.dot(g, tr.h))

    out = {}
    tensors = list(params.named_tensors())
    for name, _ in tensors:
        p_plus = copy.deepcopy(params)
        p_minus = copy.deepcopy(params)
        tp = dict(p_plus.named_tensors())[name]
        tm = dict(p_minus.named_tensors())[name]
        grad = np.zeros_like(tp)
        it = np.nditer(tp, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tp[idx]
            tp[idx] = orig + EPS
            tm[idx] = orig - EPS
            grad[idx] = (loss(p_plus, x, h_prev, h_skip) - loss(p_minus, x, h_prev, h_skip)) / (2 * EPS)
            tp[idx] = orig
            tm[idx] = orig
        out[name] = grad

    for name, vec in [("x", x), ("h_prev", h_prev)] + ([("h_skip", h_skip)] if h_skip is not None else []):
        grad = np.zeros_like(vec)
        for i in range(vec.shape[0]):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += EPS
            vm[i] -= EPS
            args_p = {"x": x, "h_prev": h_prev, "h_skip": h_skip}
            args_m = {"x": x, "h_prev": h_prev, "h_skip": h_skip}
            args_p[name] = vp
            args_m[name] = vm
            grad[i] = (
                loss(params, args_p["x"], args_p["h_prev"], args_p["h_skip"])
                - loss(params, args_m["x"], args_m["h_prev"], args_m["h_skip"])
            ) / (2 * EPS)
        out[name] = grad
    return out


class TestGruForward:
    def test_all_zero_params_zero_state(self):
        tr = gru_forward(zero_gru(2, 3), np.zeros(2), np.zeros(3))
        npt.assert_array_equal(tr.z, 0.5)
        npt.assert_array_equal(tr.r, 0.5)
        npt.assert_array_equal(tr.h_tilde, 0.0)
        npt.assert_array_equal(tr.h, 0.0)

    def test_all_zero_params_halves_state(self):
        v = np.array([0.4, -1.2, 2.0])
        tr = gru_forward(zero_gru(2, 3), np.zeros(2), v)
        npt.assert_allclose(tr.h, 0.5 * v, atol=0)

    def test_scalar_hand_computed(self):
        # z = r = sigmoid(1), h~ = tanh(1), h = z*h~ + (1-z)*0.5; oracle values frozen
        tr = gru_forward(scalar_gru(), np.array([1.0]), np.array([0.5]))
        npt.assert_allclose(tr.z, 0.7310585786300049, atol=1e-12)
        npt.assert_allclose(tr.r, 0.7310585786300049, atol=1e-12)
        npt.assert_allclose(tr.h_tilde, 0.7615941559557649, atol=1e-12)
        npt.assert_allclose(tr.h, 0.6912406518309373, atol=1e-12)

    def test_gate_ranges(self):
        rng = SeededRng(5)
        for _ in range(20):
            p = init_sgru_params(3, 4, rng).base
            tr = gru_forward(p, rng.normal(shape=3), rng.normal(shape=4))
            assert np.all(tr.z > 0) and np.all(tr.z < 1)
            assert np.all(tr.r > 0) and np.all(tr.r < 1)
            assert np.all(np.abs(tr.h_tilde) < 1)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            gru_forward(zero_gru(2, 3), np.zeros(3), np.zeros(3))
        with pytest.raises(ShapeMismatchError):
            gru_forward(zero_gru(2, 3), np.zeros(2), np.zeros(2))

    def test_inputs_not_mutated(self):
        p = init_sgru_params(2, 3, SeededRng(1)).base
        x, h = np.ones(2), np.full(3, 0.3)
        x0, h0 = x.copy(), h.copy()
        gru_forward(p, x, h)
        npt.assert_array_equal(x, x0)
        npt.assert_array_equal(h, h0)


class TestInitSgruParams:
    @pytest.mark.parametrize("input_dim, hidden_dim", [(3, 4), (2, 2), (1, 5)])
    def test_draws_the_gru_matrices_then_the_skip_ones(self, input_dim, hidden_dim):
        rng = SeededRng(11)
        p = init_sgru_params(input_dim, hidden_dim, rng)
        by_hand = SeededRng(11)
        # the order every model file depends on, written out
        for name, cols in [("W_zx", input_dim), ("W_zh", hidden_dim), ("W_rx", input_dim),
                           ("W_rh", hidden_dim), ("W_hx", input_dim), ("W_hh", hidden_dim),
                           ("W_sx", input_dim), ("W_sh", hidden_dim), ("W_hp", hidden_dim)]:
            npt.assert_array_equal(getattr(p, name), init_params(hidden_dim, cols, by_hand),
                                   err_msg=name)
        for name in ("b_z", "b_r", "b_s", "b_h"):
            npt.assert_array_equal(getattr(p, name), np.zeros(hidden_dim), err_msg=name)
        assert rng.uniform(0.0, 1.0) == by_hand.uniform(0.0, 1.0)   # nothing more was drawn


class TestSgruForward:
    def test_no_skip_bit_identical_to_gru(self):
        rng = SeededRng(13)
        for _ in range(10):
            p = init_sgru_params(3, 4, rng)
            x, h = rng.normal(shape=3), rng.normal(shape=4)
            a = sgru_step(p, x, h, None)
            b = gru_forward(p.base, x, h)
            npt.assert_array_equal(a.h, b.h)
            npt.assert_array_equal(a.z, b.z)
            npt.assert_array_equal(a.r, b.r)
            npt.assert_array_equal(a.h_tilde, b.h_tilde)
            npt.assert_array_equal(a.s, 0.0)

    def test_zero_params_with_skip(self):
        v = np.array([1.0, -0.5])
        p = zero_sgru(2, 2)
        tr = sgru_step(p, np.zeros(2), v, np.array([3.0, 3.0]))
        assert tr.s is not None
        npt.assert_array_equal(tr.s, 0.5)  # gate exists, W_hp = 0 annihilates it
        npt.assert_allclose(tr.h, 0.5 * v, atol=0)

    def test_scalar_hand_computed_with_skip(self):
        # s = sigmoid(2), h~ = tanh(1 + s), h = z*h~ + (1-z)*0.5; oracle values frozen
        p = zero_sgru(1, 1)
        p.W_zx[:] = p.W_rx[:] = p.W_hx[:] = 1.0
        p.W_sx[:] = p.W_sh[:] = p.W_hp[:] = 1.0
        tr = sgru_step(p, np.array([1.0]), np.array([0.5]), np.array([1.0]))
        npt.assert_allclose(tr.s, 0.8807970779778823, atol=1e-12)
        npt.assert_allclose(tr.h_tilde, 0.9545629551086131, atol=1e-12)
        npt.assert_allclose(tr.h, 0.8323121478595574, atol=1e-12)

    def test_skip_dim_mismatch(self):
        p = zero_sgru(2, 3)
        with pytest.raises(ShapeMismatchError):
            sgru_step(p, np.zeros(2), np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2,)])
    def test_inputs_of_wrong_width(self, shape):
        with pytest.raises(ShapeMismatchError, match="cell input"):
            sgru_inputs(zero_sgru(2, 3), np.zeros(shape))


class TestGruBackward:
    def test_zero_upstream_zero_grads(self):
        p = init_sgru_params(2, 3, SeededRng(3)).base
        x, h = np.ones(2), np.full(3, 0.2)
        tr = gru_forward(p, x, h)
        g = gru_backward(p, x, h, tr, np.zeros(3))
        for _, t in g.params.named_tensors():
            npt.assert_array_equal(t, 0.0)
        npt.assert_array_equal(g.dx, 0.0)
        npt.assert_array_equal(g.dh_prev, 0.0)

    def test_zero_params_dh_prev_is_half_upstream(self):
        p = zero_gru(2, 3)
        x, h = np.zeros(2), np.array([0.3, -0.7, 1.1])
        g_up = np.array([1.0, -2.0, 0.5])
        tr = gru_forward(p, x, h)
        g = gru_backward(p, x, h, tr, g_up)
        npt.assert_array_equal(g.dh_prev, 0.5 * g_up)
        fd = fd_cell_grads(p, x, h, None, g_up)
        assert rel_err(g.dh_prev, fd["h_prev"]) < 1e-6

    def test_scalar_cell_finite_differences(self):
        rng = np.random.default_rng(17)
        p = init_sgru_params(1, 1, SeededRng(17)).base
        x, h = rng.normal(size=1), rng.normal(size=1)
        g_up = rng.normal(size=1)
        tr = gru_forward(p, x, h)
        back = gru_backward(p, x, h, tr, g_up)
        fd = fd_cell_grads(p, x, h, None, g_up)
        for name, t in back.params.named_tensors():
            assert rel_err(t, fd[name]) < 1e-6, name
        assert rel_err(back.dx, fd["x"]) < 1e-6
        assert rel_err(back.dh_prev, fd["h_prev"]) < 1e-6


class TestSgruBackward:
    def test_no_skip_matches_gru_backward(self):
        rng = SeededRng(29)
        p = init_sgru_params(2, 3, rng)
        x, h = rng.normal(shape=2), rng.normal(shape=3)
        g_up = rng.normal(shape=3)
        tr = sgru_step(p, x, h, None)
        grads, dx, dh_prev, dh_skip = sgru_step_grads(p, x, h, None, tr, g_up)
        want = gru_backward(p.base, x, h, tr, g_up)
        for (name, a), (_, b) in zip(grads.base.named_tensors(), want.params.named_tensors()):
            npt.assert_array_equal(a, b, err_msg=name)
        npt.assert_array_equal(dx, want.dx)
        npt.assert_array_equal(dh_prev, want.dh_prev)
        npt.assert_array_equal(dh_skip, 0.0)
        npt.assert_array_equal(grads.W_hp, 0.0)
        npt.assert_array_equal(grads.W_sx, 0.0)

    def test_zero_upstream_zero_grads(self):
        rng = SeededRng(31)
        p = init_sgru_params(2, 3, rng)
        x, h, hp = rng.normal(shape=2), rng.normal(shape=3), rng.normal(shape=3)
        tr = sgru_step(p, x, h, hp)
        grads, _, _, dh_skip = sgru_step_grads(p, x, h, hp, tr, np.zeros(3))
        for _, t in grads.named_tensors():
            npt.assert_array_equal(t, 0.0)
        npt.assert_array_equal(dh_skip, 0.0)

    def test_three_dim_cell_finite_differences(self):
        rng = SeededRng(41)
        nrng = np.random.default_rng(41)
        p = init_sgru_params(3, 3, rng)
        x, h, hp = nrng.normal(size=3), nrng.normal(size=3), nrng.normal(size=3)
        g_up = nrng.normal(size=3)
        tr = sgru_step(p, x, h, hp)
        grads, dx, dh_prev, dh_skip = sgru_step_grads(p, x, h, hp, tr, g_up)
        fd = fd_cell_grads(p, x, h, hp, g_up)
        for name, t in grads.named_tensors():
            assert rel_err(t, fd[name]) < 1e-6, name
        assert rel_err(dx, fd["x"]) < 1e-6
        assert rel_err(dh_prev, fd["h_prev"]) < 1e-6
        assert rel_err(dh_skip, fd["h_skip"]) < 1e-6

    def test_gradients_many_random_trials(self):
        # dims up to 8, with and without skip
        worst = 0.0
        for trial in range(100):
            rng = SeededRng(1000 + trial)
            nrng = np.random.default_rng(1000 + trial)
            din = int(nrng.integers(1, 9))
            dh = int(nrng.integers(1, 9))
            p = init_sgru_params(din, dh, rng)
            x = nrng.normal(size=din)
            h = nrng.normal(size=dh)
            hp = nrng.normal(size=dh) if trial % 2 == 0 else None
            g_up = nrng.normal(size=dh)
            tr = sgru_step(p, x, h, hp)
            grads, dx, dh_prev, dh_skip = sgru_step_grads(p, x, h, hp, tr, g_up)
            fd = fd_cell_grads(p, x, h, hp, g_up)
            for name, t in grads.named_tensors():
                worst = max(worst, rel_err(t, fd[name]))
            worst = max(worst, rel_err(dx, fd["x"]))
            worst = max(worst, rel_err(dh_prev, fd["h_prev"]))
            if hp is not None:
                worst = max(worst, rel_err(dh_skip, fd["h_skip"]))
        assert worst < 1e-5, worst


def skip_sensitivity(seed):
    """|dh_4/dx_1| by central differences, with and without skip (1,4).

    The second input is adversarial: its reset gate slams shut (r ~ 0) and
    its update gate opens (z ~ 1), so whatever step 1 computed is erased from
    the recurrent path at step 2.
    """
    nrng = np.random.default_rng(seed)
    p = zero_sgru(1, 1)
    p.W_zx[:] = nrng.uniform(0.5, 1.5)    # adversarial x > 0 opens z
    p.W_rx[:] = -nrng.uniform(0.5, 1.5)   # and closes r
    p.W_hx[:] = nrng.uniform(-1, 1)
    p.W_zh[:] = nrng.uniform(-0.5, 0.5)
    p.W_rh[:] = nrng.uniform(-0.5, 0.5)
    p.W_hh[:] = nrng.uniform(-1, 1)
    sign = nrng.choice([-1.0, 1.0])
    p.W_sx[:] = nrng.uniform(-1, 1)
    p.W_sh[:] = nrng.uniform(-1, 1)
    p.W_hp[:] = sign * nrng.uniform(0.5, 1.5)

    xs = nrng.uniform(-1, 1, size=4)
    xs[1] = 8.0  # drives r_2 -> 0, z_2 -> 1

    def h4(x1, with_skip):
        seq = xs.copy()
        seq[0] = x1
        h = np.zeros(1)
        states = []
        for t in range(4):
            h_skip = states[0] if (with_skip and t == 3) else None
            tr = sgru_step(p, seq[t : t + 1], h, h_skip)
            h = tr.h
            states.append(h)
        return float(h[0])

    eps = 1e-5
    x1 = xs[0]
    fd = lambda ws: (h4(x1 + eps, ws) - h4(x1 - eps, ws)) / (2 * eps)
    return abs(fd(True)), abs(fd(False))


class TestPreservation:
    def test_skip_preserves_erased_information(self):
        # the adversarial step erases step 1 from the recurrent path; the
        # skip edge (1,4) must restore measurable sensitivity of h_4 to x_1
        wins = 0
        for seed in range(50):
            with_skip, without = skip_sensitivity(seed)
            if with_skip > without:
                wins += 1
        assert wins >= 45, wins


class TestStackedCell:
    """``BMRNNParams.cells`` views both directions' cells, adjacent in
    ``flat``, as one (2, 1, ...) cell; a stacked call must give each
    direction the bits of its own one-direction call."""

    @staticmethod
    def inputs(B, n=6, in_dim=3, hidden=4, seed=0):
        rng = np.random.default_rng(seed)
        # rows 0, 2, 4, ... have a skip ancestor and the others have none; the
        # second direction's rows the other way round
        has = np.stack([np.arange(B) % 2 == 0, np.arange(B) % 2 == 1])[..., None]
        X, H_prev, R = (rng.normal(size=(2, B, n, d)) for d in (in_dim, hidden, hidden))
        H_skip, S = (np.where(has[:, :, None], rng.normal(size=(2, B, n, hidden)), 0.0)
                     for _ in range(2))
        dA = rng.normal(size=(2, B, n, 4, hidden))
        dA[..., 3, :] *= has[:, :, None]          # da_s is zero without a skip
        return rng, has, X, H_prev, R, H_skip, S, dA

    @pytest.mark.parametrize("B", [1, 5])
    def test_a_stacked_call_has_the_bits_of_one_call_per_direction(self, B):
        p = init_bmrnn_params(3, 4, 2, SeededRng(B))
        for name, t in p.cells.named_tensors():
            assert t.shape[:2] == (2, 1) and np.shares_memory(t, p.flat), name
            npt.assert_array_equal(t[:, 0], [getattr(p.fwd, name), getattr(p.bwd, name)])
        rng, has, X, H_prev, R, H_skip, S, dA = self.inputs(B, seed=B)
        xp = sgru_inputs(p.cells, X)
        step = sgru_forward(p.cells, xp[:, :, 0], H_prev[:, :, 0], H_skip[:, :, 0], has)
        dh = rng.normal(size=(2, B, 4))
        back = sgru_backward(p.cells, H_prev[:, :, 0], H_skip[:, :, 0], has, step, dh)
        stacked, single = p.zeros_like(B), p.zeros_like(B)
        dX = sgru_param_grads(p.cells, stacked.cells, X, H_prev, R, H_skip, S, dA)
        for d, (cell, grads) in enumerate(((p.fwd, single.fwd), (p.bwd, single.bwd))):
            xp_d = sgru_inputs(cell, X[d])
            assert xp[d].tobytes() == xp_d.tobytes()
            one = sgru_forward(cell, xp_d[:, 0], H_prev[d, :, 0], H_skip[d, :, 0], has[d])
            for a, b in zip(step, one, strict=True):
                assert a[d].tobytes() == b.tobytes()
            one = sgru_backward(cell, H_prev[d, :, 0], H_skip[d, :, 0], has[d], one, dh[d])
            for a, b in zip(back, one, strict=True):
                assert a[d].tobytes() == b.tobytes()
            dx = sgru_param_grads(cell, grads, X[d], H_prev[d], R[d], H_skip[d], S[d], dA[d])
            assert dX[d].tobytes() == dx.tobytes()
        assert stacked.flat.tobytes() == single.flat.tobytes()

    def test_a_part_of_one_story_has_the_bits_of_one_call_per_direction(self):
        B, b, m = 4, 2, 5
        p = init_bmrnn_params(3, 4, 2, SeededRng(7))
        _, _, X, H_prev, R, H_skip, S, dA = self.inputs(B, seed=7)
        stacked, single = p.zeros_like(B), p.zeros_like(B)
        # the story's rows b:b+1 of the stacked gradient views, over its first m steps
        part = SGRUParams(**{k: t[:, b : b + 1] for k, t in vars(stacked.cells).items()})
        rows = (slice(None), slice(b, b + 1), slice(0, m))
        dX = sgru_param_grads(p.cells, part, X[rows], H_prev[rows], R[rows], H_skip[rows],
                              S[rows], dA[rows])
        for d, (cell, grads) in enumerate(((p.fwd, single.fwd), (p.bwd, single.bwd))):
            one = SGRUParams(**{k: t[b] for k, t in vars(grads).items()})
            dx = sgru_param_grads(cell, one, X[d, b, :m], H_prev[d, b, :m], R[d, b, :m],
                                  H_skip[d, b, :m], S[d, b, :m], dA[d, b, :m])
            assert dX[d, 0].tobytes() == dx.tobytes()
        assert stacked.flat.tobytes() == single.flat.tobytes()
        assert stacked.flat[b].any() and not np.delete(stacked.flat, b, axis=0).any()
