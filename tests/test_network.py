import math
import struct
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from bmrnn.cells import GRUParams, SGRUParams, gru_forward
from bmrnn.errors import DataError, ShapeMismatchError
from bmrnn.network import (
    MODEL_MAGIC,
    MODEL_VERSION,
    BMRNNParams,
    StoryStream,
    bmrnn_backward,
    bmrnn_forward,
    init_bmrnn_params,
    load_model,
    save_model,
)
from bmrnn.numeric import SeededRng
from bmrnn.skips import SkipMatrix


def sgru_from_scalars(vals):
    arr = lambda v: np.array([[float(v)]])
    vec = lambda v: np.array([float(v)])
    return SGRUParams(
        base=GRUParams(
            W_zx=arr(vals["W_zx"]), W_zh=arr(vals["W_zh"]),
            W_rx=arr(vals["W_rx"]), W_rh=arr(vals["W_rh"]),
            W_hx=arr(vals["W_hx"]), W_hh=arr(vals["W_hh"]),
            b_z=vec(vals["b_z"]), b_r=vec(vals["b_r"]), b_h=vec(vals["b_h"]),
        ),
        W_sx=arr(vals["W_sx"]), W_sh=arr(vals["W_sh"]),
        W_hp=arr(vals["W_hp"]), b_s=vec(vals["b_s"]),
    )


FWD = dict(W_zx=0.3, W_zh=-0.2, W_rx=0.1, W_rh=0.4, W_sx=0.2, W_sh=-0.1,
           W_hx=0.5, W_hh=0.3, W_hp=0.25, b_z=0.05, b_r=-0.05, b_s=0.1, b_h=0.0)
BWD = dict(W_zx=-0.3, W_zh=0.2, W_rx=-0.1, W_rh=-0.4, W_sx=0.15, W_sh=0.05,
           W_hx=-0.5, W_hh=0.1, W_hp=-0.2, b_z=0.0, b_r=0.1, b_s=-0.1, b_h=0.2)


def scalar_net():
    return BMRNNParams(
        fwd=sgru_from_scalars(FWD),
        bwd=sgru_from_scalars(BWD),
        merge_f=np.array([[0.7]]),
        merge_b=np.array([[-0.6]]),
        b_merge=np.array([0.05]),
    )


def straight_line_step(p, x, h, hp):
    """Oracle scalar recurrence written out longhand, no library calls."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    z = sig(p["W_zx"] * x + p["W_zh"] * h + p["b_z"])
    r = sig(p["W_rx"] * x + p["W_rh"] * h + p["b_r"])
    skip_term = 0.0
    if hp is not None:
        s = sig(p["W_sx"] * x + p["W_sh"] * hp + p["b_s"])
        skip_term = p["W_hp"] * (s * hp)
    htil = math.tanh(p["W_hx"] * x + p["W_hh"] * (r * h) + skip_term + p["b_h"])
    return z * htil + (1.0 - z) * h


class TestForward:
    def test_three_step_scalar_oracle_with_skip(self):
        xs = [0.5, -1.0, 0.8]
        # oracle: forward t=0,1,2 with h_0 injected at t=2; backward t=2,1,0
        # with the backward state of t=2 injected at t=0
        hf = []
        h = 0.0
        for t in range(3):
            h = straight_line_step(FWD, xs[t], h, hf[0] if t == 2 else None)
            hf.append(h)
        hb = [None] * 3
        h = 0.0
        for t in (2, 1, 0):
            h = straight_line_step(BWD, xs[t], h, hb[2] if t == 0 else None)
            hb[t] = h
        want = [0.7 * hf[t] + (-0.6) * hb[t] + 0.05 for t in range(3)]

        story = StoryStream(story_id="s", x=[np.array([v]) for v in xs])
        trace = bmrnn_forward(scalar_net(), story, SkipMatrix(n=3, pairs=((0, 2),)))
        got = [float(m[0]) for m in trace.merged]
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_single_step_story(self):
        rng = SeededRng(2)
        p = init_bmrnn_params(3, 4, 2, rng)
        x = np.array([0.3, -0.2, 0.9])
        story = StoryStream(story_id="s", x=[x])
        trace = bmrnn_forward(p, story, SkipMatrix(n=1, pairs=()))
        hf = gru_forward(p.fwd.base, x, np.zeros(4)).h
        hb = gru_forward(p.bwd.base, x, np.zeros(4)).h
        npt.assert_array_equal(trace.merged[0], p.merge_f @ hf + p.merge_b @ hb + p.b_merge)

    def test_all_zero_params(self):
        rng = SeededRng(3)
        p = init_bmrnn_params(2, 3, 2, rng)
        for _, t in p.named_tensors():
            t[:] = 0.0
        story = StoryStream(story_id="s", x=[np.ones(2), -np.ones(2)])
        trace = bmrnn_forward(p, story, SkipMatrix(n=2, pairs=()))
        for m in trace.merged:
            npt.assert_array_equal(m, 0.0)

    def test_skip_length_mismatch(self):
        p = init_bmrnn_params(2, 3, 2, SeededRng(4))
        story = StoryStream(story_id="s", x=[np.zeros(2)] * 3)
        with pytest.raises(ShapeMismatchError):
            bmrnn_forward(p, story, SkipMatrix(n=4, pairs=()))

    def test_deterministic(self):
        rng = SeededRng(5)
        p = init_bmrnn_params(3, 4, 2, rng)
        nrng = np.random.default_rng(5)
        story = StoryStream(story_id="s", x=[nrng.normal(size=3) for _ in range(5)])
        sk = SkipMatrix(n=5, pairs=((1, 3),))
        a = bmrnn_forward(p, story, sk)
        b = bmrnn_forward(p, story, sk)
        for u, v in zip(a.merged, b.merged):
            npt.assert_array_equal(u, v)


class TestReduction:
    def test_empty_skips_equals_plain_bigru(self):
        rng = SeededRng(8)
        nrng = np.random.default_rng(8)
        p = init_bmrnn_params(3, 4, 2, rng)
        xs = [nrng.normal(size=3) for _ in range(6)]
        story = StoryStream(story_id="s", x=xs)
        trace = bmrnn_forward(p, story, SkipMatrix(n=6, pairs=()))

        # plain bidirectional recurrence from the embedded base params
        hf, h = [], np.zeros(4)
        for t in range(6):
            h = gru_forward(p.fwd.base, xs[t], h).h
            hf.append(h)
        hb, h = [None] * 6, np.zeros(4)
        for t in range(5, -1, -1):
            h = gru_forward(p.bwd.base, xs[t], h).h
            hb[t] = h
        for t in range(6):
            want = p.merge_f @ hf[t] + p.merge_b @ hb[t] + p.b_merge
            npt.assert_array_equal(trace.merged[t], want)


class TestTimeReversal:
    def test_swap_and_reverse_is_exact(self):
        rng = SeededRng(9)
        nrng = np.random.default_rng(9)
        p = init_bmrnn_params(3, 4, 2, rng)
        n = 5
        xs = [nrng.normal(size=3) for _ in range(n)]
        sk = SkipMatrix(n=n, pairs=((0, 2), (1, 4)))
        merged = bmrnn_forward(p, StoryStream(story_id="s", x=xs), sk).merged

        swapped = BMRNNParams(
            fwd=p.bwd, bwd=p.fwd, merge_f=p.merge_b, merge_b=p.merge_f, b_merge=p.b_merge
        )
        rev_sk = SkipMatrix(
            n=n, pairs=tuple((n - 1 - t, n - 1 - q) for q, t in sk.pairs)
        )
        rev = bmrnn_forward(swapped, StoryStream(story_id="r", x=xs[::-1]), rev_sk).merged
        for t in range(n):
            npt.assert_array_equal(rev[t], merged[n - 1 - t])


def fd_network_grads(p, story, sk, eps=1e-5):
    """Central differences of sum_t ||h_t||^2 for every parameter entry."""

    def loss(params):
        tr = bmrnn_forward(params, story, sk)
        return float(sum(np.dot(m, m) for m in tr.merged))

    out = {}
    for name, _ in p.named_tensors():
        cp, cm = p.copy(), p.copy()
        tp, tm = dict(cp.named_tensors())[name], dict(cm.named_tensors())[name]
        grad = np.zeros_like(tp)
        it = np.nditer(tp, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tp[idx]
            tp[idx] = orig + eps
            tm[idx] = orig - eps
            grad[idx] = (loss(cp) - loss(cm)) / (2 * eps)
            tp[idx] = orig
            tm[idx] = orig
        out[name] = grad
    return out


def rel_err(a, f, floor=1e-5):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
    return np.max(np.abs(a - f) / denom)


class TestBackward:
    def test_zero_upstream(self):
        rng = SeededRng(10)
        nrng = np.random.default_rng(10)
        p = init_bmrnn_params(2, 3, 2, rng)
        story = StoryStream(story_id="s", x=[nrng.normal(size=2) for _ in range(4)])
        sk = SkipMatrix(n=4, pairs=((0, 2),))
        tr = bmrnn_forward(p, story, sk)
        grads, dX = bmrnn_backward(p, story, sk, tr, [np.zeros(2)] * 4)
        for _, t in grads.named_tensors():
            npt.assert_array_equal(t, 0.0)
        for d in dX:
            npt.assert_array_equal(d, 0.0)

    def test_no_skip_zeroes_skip_tensors(self):
        rng = SeededRng(11)
        nrng = np.random.default_rng(11)
        p = init_bmrnn_params(2, 3, 2, rng)
        story = StoryStream(story_id="s", x=[nrng.normal(size=2) for _ in range(4)])
        sk = SkipMatrix(n=4, pairs=())
        tr = bmrnn_forward(p, story, sk)
        grads, _ = bmrnn_backward(p, story, sk, tr, [nrng.normal(size=2) for _ in range(4)])
        npt.assert_array_equal(grads.fwd.W_hp, 0.0)
        npt.assert_array_equal(grads.bwd.W_hp, 0.0)
        npt.assert_array_equal(grads.fwd.W_sx, 0.0)
        npt.assert_array_equal(grads.bwd.b_s, 0.0)

    def test_finite_differences_one_config(self):
        rng = SeededRng(12)
        nrng = np.random.default_rng(12)
        p = init_bmrnn_params(2, 3, 2, rng)
        story = StoryStream(story_id="s", x=[nrng.normal(size=2) for _ in range(4)])
        sk = SkipMatrix(n=4, pairs=((0, 3),))
        tr = bmrnn_forward(p, story, sk)
        grads, dX = bmrnn_backward(p, story, sk, tr, [2.0 * m for m in tr.merged])
        fd = fd_network_grads(p, story, sk)
        for name, t in grads.named_tensors():
            assert rel_err(t, fd[name]) < 1e-5, name

        # dX against central differences too
        eps = 1e-5
        for t in range(4):
            for i in range(2):
                xp = [x.copy() for x in story.x]
                xm = [x.copy() for x in story.x]
                xp[t][i] += eps
                xm[t][i] -= eps
                lp = float(sum(np.dot(m, m) for m in bmrnn_forward(p, StoryStream(story_id="s", x=xp), sk).merged))
                lm = float(sum(np.dot(m, m) for m in bmrnn_forward(p, StoryStream(story_id="s", x=xm), sk).merged))
                assert rel_err(dX[t][i], (lp - lm) / (2 * eps)) < 1e-5

    def test_finite_differences_many_configs(self):
        worst = 0.0
        for trial in range(20):
            rng = SeededRng(300 + trial)
            nrng = np.random.default_rng(300 + trial)
            n = int(nrng.integers(2, 7))
            hidden = int(nrng.integers(2, 6))
            p = init_bmrnn_params(2, hidden, 2, rng)
            story = StoryStream(story_id="s", x=[nrng.normal(size=2) for _ in range(n)])
            n_skips = int(nrng.integers(0, 3))
            pairs = []
            used = set()
            for _ in range(n_skips):
                cands = [
                    (a, d) for a in range(n) for d in range(a + 1, n)
                    if a not in used and d not in used
                ]
                if not cands:
                    break
                a, d = cands[int(nrng.integers(0, len(cands)))]
                pairs.append((a, d))
                used.update((a, d))
            sk = SkipMatrix(n=n, pairs=tuple(pairs))
            tr = bmrnn_forward(p, story, sk)
            grads, _ = bmrnn_backward(p, story, sk, tr, [2.0 * m for m in tr.merged])
            fd = fd_network_grads(p, story, sk)
            for name, t in grads.named_tensors():
                worst = max(worst, rel_err(t, fd[name]))
        assert worst < 1e-5, worst


class TestStoryStream:
    def test_empty_story_rejected(self):
        with pytest.raises(DataError):
            StoryStream(story_id="s", x=[])

    def test_mixed_dims_rejected(self):
        with pytest.raises(ShapeMismatchError):
            StoryStream(story_id="s", x=[np.zeros(2), np.zeros(3)])

    def test_raw_fc_count_mismatch(self):
        with pytest.raises(DataError):
            StoryStream(story_id="s", x=[np.zeros(2)] * 2, raw_fc=[np.zeros(4)])


class TestModelFile:
    def test_round_trip(self, tmp_path):
        p = init_bmrnn_params(3, 4, 2, SeededRng(20))
        path = tmp_path / "model.bmrn"
        save_model(path, p)
        q = load_model(path)
        for (name, a), (_, b) in zip(p.named_tensors(), q.named_tensors()):
            npt.assert_array_equal(np.asarray(a, dtype=np.float32).astype(float), b, err_msg=name)

    def test_non_finite_tensor_named(self, tmp_path):
        p = init_bmrnn_params(3, 4, 2, SeededRng(24))
        p.bwd.W_hp[1, 2] = np.inf
        path = tmp_path / "m.bmrn"
        save_model(path, p)
        with pytest.raises(DataError, match="'bwd.W_hp' holds non-finite"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bmrn"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(DataError):
            load_model(path)

    def test_bad_version(self, tmp_path):
        p = init_bmrnn_params(2, 2, 2, SeededRng(21))
        path = tmp_path / "m.bmrn"
        save_model(path, p)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_model(path)

    def test_truncated(self, tmp_path):
        p = init_bmrnn_params(2, 2, 2, SeededRng(22))
        path = tmp_path / "m.bmrn"
        save_model(path, p)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataError):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        p = init_bmrnn_params(2, 2, 2, SeededRng(23))
        path = tmp_path / "m.bmrn"
        save_model(path, p)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError):
            load_model(path)

    def test_missing_tensor(self, tmp_path):
        p = init_bmrnn_params(2, 2, 2, SeededRng(24))
        path = tmp_path / "m.bmrn"
        tensors = list(p.named_tensors())[:-1]  # drop b_merge
        with open(path, "wb") as f:
            f.write(MODEL_MAGIC)
            f.write(struct.pack("<HI", MODEL_VERSION, len(tensors)))
            for name, t in tensors:
                raw = name.encode()
                f.write(struct.pack("<H", len(raw)) + raw)
                f.write(struct.pack("<I", t.ndim))
                f.write(struct.pack(f"<{t.ndim}I", *t.shape))
                f.write(np.ascontiguousarray(t, dtype="<f4").tobytes())
        with pytest.raises(DataError, match="missing"):
            load_model(path)

    def test_unknown_tensor(self, tmp_path):
        p = init_bmrnn_params(2, 2, 2, SeededRng(25))
        path = tmp_path / "m.bmrn"
        tensors = list(p.named_tensors()) + [("mystery", np.zeros(2))]
        with open(path, "wb") as f:
            f.write(MODEL_MAGIC)
            f.write(struct.pack("<HI", MODEL_VERSION, len(tensors)))
            for name, t in tensors:
                raw = name.encode()
                f.write(struct.pack("<H", len(raw)) + raw)
                f.write(struct.pack("<I", t.ndim))
                f.write(struct.pack(f"<{t.ndim}I", *t.shape))
                f.write(np.ascontiguousarray(t, dtype="<f4").tobytes())
        with pytest.raises(DataError, match="unknown"):
            load_model(path)

    def test_wrong_shape_names_tensor_and_shapes(self, tmp_path):
        p = init_bmrnn_params(2, 3, 2, SeededRng(27))
        tensors = [(n, np.zeros(1) if n == "fwd.b_z" else t) for n, t in p.named_tensors()]
        path = tmp_path / "m.bmrn"
        save_model(path, SimpleNamespace(named_tensors=lambda: tensors))
        with pytest.raises(DataError, match=r"'fwd\.b_z' has shape \(1,\), expected \(3,\)"):
            load_model(path)

    def test_format_is_little_endian_float32(self, tmp_path):
        # pin the byte layout of the header and the first tensor record
        p = init_bmrnn_params(2, 2, 2, SeededRng(26))
        path = tmp_path / "m.bmrn"
        save_model(path, p)
        raw = path.read_bytes()
        assert raw[:4] == b"BMRN"
        version, count = struct.unpack_from("<HI", raw, 4)
        assert version == MODEL_VERSION and count == 29
        (name_len,) = struct.unpack_from("<H", raw, 10)
        name = raw[12 : 12 + name_len].decode()
        assert name == "fwd.W_zx"
        (rank,) = struct.unpack_from("<I", raw, 12 + name_len)
        dims = struct.unpack_from(f"<{rank}I", raw, 16 + name_len)
        assert rank == 2 and dims == (2, 2)
        first = struct.unpack_from("<f", raw, 16 + name_len + 4 * rank)[0]
        npt.assert_allclose(first, p.fwd.base.W_zx[0, 0], rtol=1e-6)
