import math
import struct
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import network_oracle
from bmrnn.cells import gru_forward, sgru_inputs
from bmrnn.errors import DataError, ShapeMismatchError
from bmrnn.network import (
    BUCKET_STEPS,
    MODEL_MAGIC,
    MODEL_VERSION,
    BMRNNParams,
    StoryGroup,
    bmrnn_backward,
    bmrnn_forward,
    init_bmrnn_params,
    load_model,
    save_model,
    story_groups,
)
from bmrnn.numeric import SeededRng, Sequence, encode_tensor
from bmrnn.skips import SkipMatrix, cluster_chains
from gru_oracle import gru_backward


def scalars(vals, prefix=""):
    """{prefix + name: tensor}: 1x1 weights and length-1 biases from {name: value}."""
    return {prefix + n: np.full((1,) if n.startswith("b") else (1, 1), float(v))
            for n, v in vals.items()}


FWD = dict(W_zx=0.3, W_zh=-0.2, W_rx=0.1, W_rh=0.4, W_sx=0.2, W_sh=-0.1,
           W_hx=0.5, W_hh=0.3, W_hp=0.25, b_z=0.05, b_r=-0.05, b_s=0.1, b_h=0.0)
BWD = dict(W_zx=-0.3, W_zh=0.2, W_rx=-0.1, W_rh=-0.4, W_sx=0.15, W_sh=0.05,
           W_hx=-0.5, W_hh=0.1, W_hp=-0.2, b_z=0.0, b_r=0.1, b_s=-0.1, b_h=0.2)


def scalar_net():
    return BMRNNParams.from_named({**scalars(FWD, "fwd."), **scalars(BWD, "bwd."),
                                   **scalars(dict(merge_f=0.7, merge_b=-0.6, b_merge=0.05))})


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

        story = Sequence(story_id="s", rows=[np.array([v]) for v in xs])
        sk = SkipMatrix(n=3, pairs=((0, 2),))
        trace = bmrnn_forward(scalar_net(), StoryGroup.of([story], [sk]))
        got = [float(m[0]) for m in trace.merged[0]]
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_single_step_story(self):
        rng = SeededRng(2)
        p = init_bmrnn_params(3, 4, 2, rng)
        x = np.array([0.3, -0.2, 0.9])
        story = Sequence(story_id="s", rows=[x])
        trace = bmrnn_forward(p, StoryGroup.of([story], [SkipMatrix(n=1, pairs=())]))
        hf = gru_forward(p.fwd.base, x, np.zeros(4)).h
        hb = gru_forward(p.bwd.base, x, np.zeros(4)).h
        npt.assert_array_equal(trace.merged[0, 0], p.merge_f @ hf + p.merge_b @ hb + p.b_merge)

    def test_all_zero_params(self):
        rng = SeededRng(3)
        p = init_bmrnn_params(2, 3, 2, rng)
        for _, t in p.named_tensors():
            t[:] = 0.0
        story = Sequence(story_id="s", rows=[np.ones(2), -np.ones(2)])
        trace = bmrnn_forward(p, StoryGroup.of([story], [SkipMatrix(n=2, pairs=())]))
        for m in trace.merged[0]:
            npt.assert_array_equal(m, 0.0)

    def test_skip_length_mismatch(self):
        p = init_bmrnn_params(2, 3, 2, SeededRng(4))
        story = Sequence(story_id="s", rows=[np.zeros(2)] * 3)
        with pytest.raises(ShapeMismatchError):
            bmrnn_forward(p, StoryGroup.of([story], [SkipMatrix(n=4, pairs=())]))

    @pytest.mark.parametrize("name", ["fwd.W_zx", "merge_f", "fwd.W_zh"])
    def test_tensor_with_too_few_dims_rejected(self, name):
        # the dims are read off fwd.W_zx's and merge_f's shapes, so their rank comes
        # first; every other tensor, fwd.W_zh too, is checked against them
        p = init_bmrnn_params(2, 3, 2, SeededRng(4))
        named = dict(p.named_tensors())
        named[name] = named[name][0] if name.startswith("fwd.") else np.zeros(())
        with pytest.raises(ShapeMismatchError, match=name):
            BMRNNParams.from_named(named)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_every_view_shares_the_buffer(self, batch):
        p = init_bmrnn_params(2, 3, 4, SeededRng(6))
        assert BMRNNParams.from_named(dict(p.named_tensors())).flat.tobytes() == p.flat.tobytes()
        q = p.zeros_like(*batch)
        q.flat[:] = np.arange(q.flat.size).reshape(q.flat.shape)
        views = [t for _, t in q.named_tensors()]
        for cell in (q.fwd, q.bwd, q.cells):
            views += [t for _, t in cell.named_tensors()]
        for t in views + [q.merge_f, q.merge_b, q.b_merge]:
            assert np.shares_memory(t, q.flat)
        for name, t in q.cells.named_tensors():
            assert t.shape[:2] == (2, batch[0] if batch else 1)
            for d, cell in enumerate((q.fwd, q.bwd)):
                npt.assert_array_equal(t[d].reshape(getattr(cell, name).shape),
                                       getattr(cell, name))

    def test_deterministic(self):
        rng = SeededRng(5)
        p = init_bmrnn_params(3, 4, 2, rng)
        nrng = np.random.default_rng(5)
        story = Sequence(story_id="s", rows=[nrng.normal(size=3) for _ in range(5)])
        sk = SkipMatrix(n=5, pairs=((1, 3),))
        a = bmrnn_forward(p, StoryGroup.of([story], [sk]))
        b = bmrnn_forward(p, StoryGroup.of([story], [sk]))
        for u, v in zip(a.merged[0], b.merged[0]):
            npt.assert_array_equal(u, v)


class TestReduction:
    def test_empty_skips_equals_plain_bigru(self):
        rng = SeededRng(8)
        nrng = np.random.default_rng(8)
        p = init_bmrnn_params(3, 4, 2, rng)
        xs = [nrng.normal(size=3) for _ in range(6)]
        story = Sequence(story_id="s", rows=xs)
        trace = bmrnn_forward(p, StoryGroup.of([story], [SkipMatrix(n=6, pairs=())]))

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
            npt.assert_array_equal(trace.merged[0, t], want)


def plain_bigru(p, x):
    """The merged outputs of a bidirectional GRU on the sGRUs' base parameters."""
    n, hidden = len(x), p.hidden_dim
    hf, hb, h = [None] * n, [None] * n, np.zeros(hidden)
    for t in range(n):
        hf[t] = h = gru_forward(p.fwd.base, x[t], h).h
    h = np.zeros(hidden)
    for t in range(n - 1, -1, -1):
        hb[t] = h = gru_forward(p.bwd.base, x[t], h).h
    return np.stack([p.merge_f @ hf[t] + p.merge_b @ hb[t] + p.b_merge for t in range(n)])


@st.composite
def skip_stories(draw, max_n=8):
    """(n, clusters): a story length 1-max_n and a random partition of its steps."""
    n = draw(st.integers(1, max_n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return n, [[t for t in range(n) if labels[t] == c] for c in sorted(set(labels))]


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(story=skip_stories(), in_dim=st.integers(1, 4), hidden=st.integers(1, 4),
           out_dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_shapes_finiteness_and_skip_free_reduction(self, story, in_dim, hidden,
                                                       out_dim, seed):
        n, clusters = story
        p = init_bmrnn_params(in_dim, hidden, out_dim, SeededRng(seed))
        nrng = np.random.default_rng(seed)
        stream = Sequence(story_id="s", rows=nrng.normal(size=(n, in_dim)))
        sk = SkipMatrix(n=n, pairs=tuple(cluster_chains(clusters)))
        group = StoryGroup.of([stream], [sk])
        trace = bmrnn_forward(p, group)
        grads, dX = bmrnn_backward(p, group, trace, nrng.normal(size=(1, n, out_dim)))
        assert trace.merged.shape == (1, n, out_dim) and dX.shape == (1, n, in_dim)
        for (name, g), (_, t) in zip(grads.named_tensors(), p.named_tensors(), strict=True):
            assert g.shape == (1, *t.shape), name
        assert np.all(np.isfinite(grads.flat))
        assert np.all(np.isfinite(trace.merged)) and np.all(np.isfinite(dX))
        free = bmrnn_forward(p, StoryGroup.of([stream], [SkipMatrix(n=n, pairs=())])).merged
        npt.assert_array_equal(free[0], plain_bigru(p, stream.rows))


def per_step_sweep(cell, x, anc, order):
    """{step: StepTrace} of one direction with the ancestor map ``anc``, by a
    loop of the oracle's one-row steps, which leave s None on a step without
    a skip ancestor."""
    xp, h, steps = sgru_inputs(cell, x), np.zeros(cell.hidden_dim), {}
    for t in order:
        steps[t] = network_oracle.step_forward(
            cell, xp[t], h, steps[anc[t]].h if t in anc else None)
        h = steps[t].h
    return steps


class TestSweepTrace:
    @settings(max_examples=25, deadline=None)
    @given(story=skip_stories(max_n=40), in_dim=st.integers(1, 32), hidden=st.integers(1, 32),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_a_per_step_loop(self, story, in_dim, hidden, seed):
        n, clusters = story
        p = init_bmrnn_params(in_dim, hidden, 2, SeededRng(seed))
        x = np.random.default_rng(seed).normal(size=(n, in_dim))
        sk = SkipMatrix(n=n, pairs=tuple(cluster_chains(clusters)))
        group = StoryGroup.of([Sequence(story_id="s", rows=x)], [sk])
        trace = bmrnn_forward(p, group)
        anc_f, anc_b = network_oracle.ancestor_maps(sk)
        fwd, bwd = network_oracle.time_order(trace.visits, group)
        for T, cell, anc, order in ((fwd, p.fwd, anc_f, range(n)),
                                    (bwd, p.bwd, anc_b, range(n - 1, -1, -1))):
            assert T.shape == (5, 1, n, hidden)
            T = T[:, 0]
            for t, (z, r, s, h_tilde, h) in per_step_sweep(cell, x, anc, order).items():
                has_skip = t in anc
                assert (s is not None) == has_skip
                want = np.stack([z, r, s if has_skip else np.zeros(hidden), h_tilde, h])
                npt.assert_array_equal(T[:, t], want)
                # the s row is zero exactly where the step has no skip ancestor
                assert np.all(T[2, t] > 0) if has_skip else not T[2, t].any()


def random_skips(rng, n):
    """A SkipMatrix chaining a random partition of n steps."""
    labels = rng.integers(0, rng.integers(1, n + 1), size=n)
    clusters = [np.flatnonzero(labels == c).tolist() for c in np.unique(labels)]
    return SkipMatrix(n=n, pairs=tuple(cluster_chains(clusters)))


class TestGroupSweep:
    """A group of stories is swept longest first, each visit stepping the
    stories still live; each story must get, on its own steps, the bits of
    the per-story oracle."""

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=12), mixed=st.booleans(),
           in_dim=st.integers(1, 32), hidden=st.integers(1, 32), out_dim=st.integers(1, 32),
           any_skips=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # 1-step stories padded among longer ones, with and without skips
    @example(lengths=[1, 40, 7, 1], mixed=True, in_dim=5, hidden=6, out_dim=3,
             any_skips=True, seed=0)
    @example(lengths=[3, 1], mixed=True, in_dim=2, hidden=3, out_dim=2,
             any_skips=False, seed=1)
    def test_each_story_matches_the_per_story_oracle(self, lengths, mixed, in_dim, hidden,
                                                     out_dim, any_skips, seed):
        # without mixed, every story takes the first length: every visit steps them all
        lengths = lengths if mixed else [lengths[0]] * len(lengths)
        B, N = len(lengths), max(lengths)
        rng = np.random.default_rng(seed)
        p = init_bmrnn_params(in_dim, hidden, out_dim, SeededRng(seed))
        stories = [Sequence(story_id=f"s{b}", rows=rng.normal(size=(n, in_dim)))
                   for b, n in enumerate(lengths)]
        # with any_skips, about a third of the rows are skip-free, so skip and
        # skip-free rows share steps; without, the group has no skip at all
        matrices = [random_skips(rng, n) if any_skips and rng.random() < 2 / 3
                    else SkipMatrix(n=n, pairs=()) for n in lengths]
        group = StoryGroup.of(stories, matrices)
        trace = bmrnn_forward(p, group)
        # rows of dH past a story's length carry noise too: the backward pass must ignore them
        dH = rng.normal(size=(B, N, out_dim))
        grads, dX = bmrnn_backward(p, group, trace, dH)
        assert trace.merged.shape == (B, N, out_dim) and grads.flat.shape == (B, p.flat.size)
        assert dX.shape == (B, N, in_dim)
        fwd, bwd = network_oracle.time_order(trace.visits, group)
        for b, (story, sk, n) in enumerate(zip(stories, matrices, lengths)):
            want = network_oracle.forward(p, story, sk)
            npt.assert_array_equal(fwd[:, b, :n], want.fwd)
            npt.assert_array_equal(bwd[:, b, :n], want.bwd)
            npt.assert_array_equal(trace.merged[b, :n], want.merged)
            want_grads, want_dX = network_oracle.backward(p, story, sk, want, dH[b, :n])
            for (name, g), (_, w) in zip(grads.named_tensors(), want_grads.named_tensors(),
                                         strict=True):
                npt.assert_array_equal(g[b], w, err_msg=name)
            npt.assert_array_equal(dX[b, :n], want_dX)
            assert not dX[b, n:].any()
            if not sk.pairs:
                # the per-step GRU oracle: the same forward bits; its gradients
                # are sums of per-step outer products, not GEMMs
                npt.assert_array_equal(trace.merged[b, :n], plain_bigru(p, story.rows))
                gru_grads, gru_dX = plain_bigru_grads(p, story.rows, dH[b, :n])
                for name, g in [(k, t[b]) for k, t in grads.named_tensors()] + [("dX", dX[b, :n])]:
                    w = gru_dX if name == "dX" else gru_grads.get(name, np.zeros_like(g))
                    npt.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.max(np.abs(w)),
                                        err_msg=name)

    def test_group_gradients_are_views_of_one_buffer_with_the_models_dimensions(self):
        B, n = 3, 4
        p = init_bmrnn_params(2, 3, 5, SeededRng(0))
        rng = np.random.default_rng(0)
        group = StoryGroup.of([Sequence(story_id=f"s{b}", rows=rng.normal(size=(n, 2)))
                               for b in range(B)], [SkipMatrix(n=n, pairs=((0, 2),))] * B)
        grads, _ = bmrnn_backward(p, group, bmrnn_forward(p, group), rng.normal(size=(B, n, 5)))
        assert (grads.input_dim, grads.hidden_dim, grads.output_dim) == (2, 3, 5)
        assert grads.dims == p.dims
        assert grads.flat.shape == (B, p.flat.size)
        grads.flat[:] = np.arange(grads.flat.size).reshape(B, -1)
        start = 0
        for (name, g), (_, t) in zip(grads.named_tensors(), p.named_tensors(), strict=True):
            assert g.shape == (B, *t.shape) and np.shares_memory(g, grads.flat), name
            npt.assert_array_equal(g.reshape(B, -1), grads.flat[:, start : start + t.size])
            start += t.size
        assert start == p.flat.size

    def test_a_group_builds_no_per_story_objects(self, monkeypatch):
        made = {"SkipMatrix": 0, "BMRNNParams": 0}
        for cls, method in ((SkipMatrix, "__post_init__"), (BMRNNParams, "__init__")):
            def counted(self, *args, _fn=getattr(cls, method), _name=cls.__name__):
                made[_name] += 1
                return _fn(self, *args)
            monkeypatch.setattr(cls, method, counted)
        rng = np.random.default_rng(1)
        n, B = 6, 5
        p = init_bmrnn_params(3, 4, 2, SeededRng(1))
        stories = [Sequence(story_id=f"s{b}", rows=rng.normal(size=(n, 3))) for b in range(B)]
        sk = SkipMatrix(n=n, pairs=((0, 3), (1, 5), (3, 4)))
        matrices = [sk, SkipMatrix(n=n, pairs=()), sk, SkipMatrix(n=n, pairs=((2, 5),)), sk]
        made.update(SkipMatrix=0, BMRNNParams=0)
        [(_, group)] = story_groups(stories, matrices)
        trace = bmrnn_forward(p, group)
        bmrnn_backward(p, group, trace, np.ones((B, n, 2)))
        # one gradient object for the group, and no skip matrix at all
        assert made == {"SkipMatrix": 0, "BMRNNParams": 1}

    def test_stories_of_mixed_lengths_take_one_slot_per_live_step(self):
        rng = np.random.default_rng(2)
        stories = [Sequence(story_id=f"s{n}", rows=rng.normal(size=(n, 2))) for n in (3, 1, 4)]
        matrices = [SkipMatrix(n=3, pairs=((0, 2),)), SkipMatrix(n=1, pairs=()),
                    SkipMatrix(n=4, pairs=((1, 3),))]
        group = StoryGroup.of(stories, matrices)
        assert group.N == 4 and group.lengths.tolist() == [3, 1, 4]
        # longest first: visit k holds the stories longer than k, (s4, s3, s1), (s4, s3), ...
        assert group.starts.tolist() == [1, 4, 6, 8, 9] and group.x.shape == (9, 2)
        # forward step t is visit t; backward step t is visit N_b-1-t
        assert group.slots.tolist() == [[[2, 5, 7, 0], [3, 0, 0, 0], [1, 4, 6, 8]],
                                        [[7, 5, 2, 0], [3, 0, 0, 0], [8, 6, 4, 1]]]
        assert not group.x[0].any() and group.fore[0] == 0 and not group.skips[:, 0].any()
        for b, (story, sk) in enumerate(zip(stories, matrices)):
            fwd, bwd = group.slots[:, b, : story.N]
            npt.assert_array_equal(group.x[fwd], story.rows)
            npt.assert_array_equal(group.fore[bwd], fwd)
            assert group.skips[0, fwd].tolist() == [fwd[a] if a >= 0 else 0 for a in sk.ancestors]
            assert group.skips[1, bwd].tolist() == [bwd[d] if d >= 0 else 0
                                                    for d in sk.descendants]
        assert StoryGroup.of(stories[:1], matrices[:1]).starts.tolist() == [1, 2, 3, 4]

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=9),
           skipped=st.lists(st.booleans(), min_size=9, max_size=9),
           seed=st.integers(0, 2**32 - 1))
    # 1-step stories among longer ones, with and without skips
    @example(lengths=[1, 5, 1, 3], skipped=[True, False] * 4 + [True], seed=0)
    def test_a_shuffled_group_has_one_slot_per_step_and_answers_in_input_order(
            self, lengths, skipped, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.permutation(lengths).tolist()
        p = init_bmrnn_params(3, 4, 2, SeededRng(seed))
        stories = [Sequence(story_id=f"s{b}", rows=rng.normal(size=(n, 3)))
                   for b, n in enumerate(lengths)]
        matrices = [random_skips(rng, n) if skip else SkipMatrix(n=n, pairs=())
                    for n, skip in zip(lengths, skipped)]
        group = StoryGroup.of(stories, matrices)
        trace = bmrnn_forward(p, group)
        dH = rng.normal(size=(len(lengths), max(lengths), 2))
        grads, dX = bmrnn_backward(p, group, trace, dH)
        assert trace.visits.shape == (5, 2, sum(lengths) + 1, 4)
        assert not trace.visits[:, :, 0].any()          # slot 0: the zero state
        for b, (story, sk, n) in enumerate(zip(stories, matrices, lengths)):
            alone = StoryGroup.of([story], [sk])
            want = bmrnn_forward(p, alone)
            want_grads, want_dX = bmrnn_backward(p, alone, want, dH[None, b, :n])
            npt.assert_array_equal(trace.merged[b, :n], want.merged[0])
            npt.assert_array_equal(grads.flat[b], want_grads.flat[0])
            npt.assert_array_equal(dX[b, :n], want_dX[0])
            assert not trace.merged[b, n:].any() and not dX[b, n:].any()

    def test_a_skip_matrix_of_another_length_is_rejected(self):
        stories = [Sequence(story_id=f"s{n}", rows=np.zeros((n, 2))) for n in (3, 4)]
        with pytest.raises(ShapeMismatchError, match="story group"):
            StoryGroup.of(stories, [SkipMatrix(n=n, pairs=()) for n in (3, 5)])
        with pytest.raises(ShapeMismatchError, match="story group"):
            StoryGroup.of(stories, [SkipMatrix(n=3, pairs=())])

    def test_an_empty_group_is_rejected(self):
        with pytest.raises(ShapeMismatchError, match="story group"):
            StoryGroup.of([], [])


class TestStoryGroups:
    """``story_groups`` cuts the stories of a whole split into groups of at
    most ``BUCKET_STEPS`` live steps for the sweeps over it: the h' refresh,
    validation and ``eval``."""

    @staticmethod
    def bucket(lengths):
        # story i's steps all hold i, so a group's slots name their stories
        stories = [Sequence(story_id=f"s{i}", rows=np.full((n, 1), float(i)))
                   for i, n in enumerate(lengths)]
        return story_groups(stories, [SkipMatrix(n=n, pairs=()) for n in lengths])

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=80))
    # 1-step stories among long ones
    @example(lengths=[1, 40, 1, 39, 1, 2, 40, 1])
    @example(lengths=[3, 4, 3, 4, 12, 11])
    # more 40-step stories than the cap holds in one group
    @example(lengths=[40] * (BUCKET_STEPS // 40 + 2) + [1])
    def test_each_story_once_longest_first_within_the_cap(self, lengths):
        groups = self.bucket(lengths)
        # each position exactly once, longest first, ties in input order
        order = [i for pos, _ in groups for i in pos]
        assert order == sorted(range(len(lengths)), key=lambda i: -lengths[i])
        for pos, group in groups:
            assert group.lengths.tolist() == [lengths[i] for i in pos]
            npt.assert_array_equal(group.x[group.slots[0, :, 0], 0], pos)
            steps = sum(lengths[i] for i in pos)
            assert len(group.x) == steps + 1
            assert steps <= BUCKET_STEPS or len(pos) == 1
        # a group closes only when the next story would take it past the cap
        for (pos, _), (after, _) in zip(groups, groups[1:]):
            assert sum(lengths[i] for i in pos) + lengths[after[0]] > BUCKET_STEPS

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), count=st.integers(1, 120))
    # the CLI defaults' splits: 200 training and 50 test stories of 5 photos
    @example(n=5, count=200)
    @example(n=5, count=50)
    def test_equal_lengths_fill_buckets_to_the_cap(self, n, count):
        groups = self.bucket([n] * count)
        per_bucket = max(1, BUCKET_STEPS // n)
        assert [pos for pos, _ in groups] == [list(range(k, min(k + per_bucket, count)))
                                              for k in range(0, count, per_bucket)]
        assert all(group.lengths.min() == group.N for _, group in groups)

    def test_the_cap_closes_a_group(self):
        # mixed lengths share a group however they differ
        assert [pos for pos, _ in self.bucket([2, 1, 40, 3])] == [[2, 3, 0, 1]]
        # the next story closes a group only by passing the cap
        assert [pos for pos, _ in self.bucket([BUCKET_STEPS - 1, 2, 1])] == [[0], [1, 2]]
        over = BUCKET_STEPS // 8 + 1
        assert [len(pos) for pos, _ in self.bucket([8] * over)] == [over - 1, 1]
        # stories longer than the cap sweep one to a group
        n = BUCKET_STEPS + 1
        assert [pos for pos, _ in self.bucket([n, n, 1])] == [[0], [1], [2]]


class TestTimeReversal:
    def test_swap_and_reverse_is_exact(self):
        rng = SeededRng(9)
        nrng = np.random.default_rng(9)
        p = init_bmrnn_params(3, 4, 2, rng)
        n = 5
        xs = [nrng.normal(size=3) for _ in range(n)]
        sk = SkipMatrix(n=n, pairs=((0, 2), (1, 4)))
        story = Sequence(story_id="s", rows=xs)
        merged = bmrnn_forward(p, StoryGroup.of([story], [sk])).merged[0]

        swapped = BMRNNParams.from_named({
            **{f"fwd.{n}": t for n, t in p.bwd.named_tensors()},
            **{f"bwd.{n}": t for n, t in p.fwd.named_tensors()},
            "merge_f": p.merge_b, "merge_b": p.merge_f, "b_merge": p.b_merge})
        rev_sk = SkipMatrix(
            n=n, pairs=tuple((n - 1 - t, n - 1 - q) for q, t in sk.pairs)
        )
        rev = bmrnn_forward(swapped, StoryGroup.of([Sequence(story_id="r", rows=xs[::-1])],
                                                   [rev_sk])).merged[0]
        for t in range(n):
            npt.assert_array_equal(rev[t], merged[n - 1 - t])


def fd_network_grads(p, group, eps=1e-5):
    """Central differences of sum_t ||h_t||^2 of a group of one story, for
    every parameter entry."""

    def loss(params):
        tr = bmrnn_forward(params, group)
        return float(sum(np.dot(m, m) for m in tr.merged[0]))

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
        story = Sequence(story_id="s", rows=[nrng.normal(size=2) for _ in range(4)])
        group = StoryGroup.of([story], [SkipMatrix(n=4, pairs=((0, 2),))])
        tr = bmrnn_forward(p, group)
        grads, dX = bmrnn_backward(p, group, tr, np.zeros((1, 4, 2)))
        for _, t in grads.named_tensors():
            npt.assert_array_equal(t, 0.0)
        for d in dX[0]:
            npt.assert_array_equal(d, 0.0)

    def test_upstream_length_mismatch(self):
        p = init_bmrnn_params(2, 3, 2, SeededRng(10))
        story = Sequence(story_id="s", rows=np.zeros((4, 2)))
        group = StoryGroup.of([story], [SkipMatrix(n=4, pairs=((0, 2),))])
        tr = bmrnn_forward(p, group)
        for rows in (3, 5):
            with pytest.raises(ShapeMismatchError, match="bmrnn_backward"):
                bmrnn_backward(p, group, tr, np.zeros((1, rows, 2)))

    def test_no_skip_zeroes_skip_tensors(self):
        rng = SeededRng(11)
        nrng = np.random.default_rng(11)
        p = init_bmrnn_params(2, 3, 2, rng)
        story = Sequence(story_id="s", rows=[nrng.normal(size=2) for _ in range(4)])
        group = StoryGroup.of([story], [SkipMatrix(n=4, pairs=())])
        tr = bmrnn_forward(p, group)
        grads, _ = bmrnn_backward(p, group, tr, nrng.normal(size=(1, 4, 2)))
        npt.assert_array_equal(grads.fwd.W_hp, 0.0)
        npt.assert_array_equal(grads.bwd.W_hp, 0.0)
        npt.assert_array_equal(grads.fwd.W_sx, 0.0)
        npt.assert_array_equal(grads.bwd.b_s, 0.0)

    def test_finite_differences_one_config(self):
        rng = SeededRng(12)
        nrng = np.random.default_rng(12)
        p = init_bmrnn_params(2, 3, 2, rng)
        story = Sequence(story_id="s", rows=[nrng.normal(size=2) for _ in range(4)])
        sk = SkipMatrix(n=4, pairs=((0, 3),))
        group = StoryGroup.of([story], [sk])
        tr = bmrnn_forward(p, group)
        grads, dX = bmrnn_backward(p, group, tr, 2.0 * tr.merged)
        fd = fd_network_grads(p, group)
        for name, t in grads.named_tensors():
            assert rel_err(t[0], fd[name]) < 1e-5, name

        # dX against central differences too
        eps = 1e-5
        for t in range(4):
            for i in range(2):
                xp = [x.copy() for x in story.rows]
                xm = [x.copy() for x in story.rows]
                xp[t][i] += eps
                xm[t][i] -= eps
                lp, lm = (float(sum(np.dot(m, m) for m in bmrnn_forward(
                    p, StoryGroup.of([Sequence(story_id="s", rows=xs)], [sk])).merged[0]))
                    for xs in (xp, xm))
                assert rel_err(dX[0][t][i], (lp - lm) / (2 * eps)) < 1e-5

    def test_finite_differences_many_configs(self):
        worst = 0.0
        for trial in range(20):
            rng = SeededRng(300 + trial)
            nrng = np.random.default_rng(300 + trial)
            n = int(nrng.integers(2, 7))
            hidden = int(nrng.integers(2, 6))
            p = init_bmrnn_params(2, hidden, 2, rng)
            story = Sequence(story_id="s", rows=[nrng.normal(size=2) for _ in range(n)])
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
            group = StoryGroup.of([story], [SkipMatrix(n=n, pairs=tuple(pairs))])
            tr = bmrnn_forward(p, group)
            grads, _ = bmrnn_backward(p, group, tr, 2.0 * tr.merged)
            fd = fd_network_grads(p, group)
            for name, t in grads.named_tensors():
                worst = max(worst, rel_err(t[0], fd[name]))
        assert worst < 1e-5, worst


def plain_bigru_grads(p, x, dH):
    """Gradients of sum(dH * merged) for ``plain_bigru``, by BPTT through
    per-step ``gru_backward`` calls: ({tensor name: gradient}, dL/dX)."""
    n, hidden = len(x), p.hidden_dim
    grads, dX, states = {}, np.zeros_like(x), {}
    for d, cell, merge, order in (("fwd", p.fwd.base, p.merge_f, list(range(n))),
                                  ("bwd", p.bwd.base, p.merge_b, list(range(n - 1, -1, -1)))):
        h, prev, traces = np.zeros(hidden), {}, {}
        for t in order:
            prev[t], traces[t] = h, gru_forward(cell, x[t], h)
            h = traces[t].h
        for name, t in cell.named_tensors():
            grads[f"{d}.{name}"] = np.zeros_like(t)
        carry = np.zeros(hidden)
        for t in reversed(order):
            g = gru_backward(cell, x[t], prev[t], traces[t], merge.T @ dH[t] + carry)
            for name, gt in g.params.named_tensors():
                grads[f"{d}.{name}"] += gt
            dX[t] += g.dx
            carry = g.dh_prev
        states[d] = np.stack([traces[t].h for t in range(n)])
    grads.update(merge_f=dH.T @ states["fwd"], merge_b=dH.T @ states["bwd"],
                 b_merge=dH.sum(axis=0))
    return grads, dX


class TestSequenceBackward:
    """``bmrnn_backward`` at blog-long shapes: lengths up to 40, dims up to 32."""

    @settings(max_examples=25, deadline=None)
    @given(story=skip_stories(max_n=40), in_dim=st.integers(1, 32), hidden=st.integers(1, 32),
           out_dim=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
    # a central difference at eps 1e-5 carried 1.2e-10 of rounding error here,
    # against an analytic entry of -4.97e-6
    @example(story=(13, [[5], [12], [10, 11], [1, 8], [6], [3, 4], [2, 7], [0, 9]]), in_dim=7,
             hidden=29, out_dim=18, seed=425653297)
    def test_matches_per_step_bptt_and_finite_differences(self, story, in_dim, hidden,
                                                          out_dim, seed):
        n, clusters = story
        p = init_bmrnn_params(in_dim, hidden, out_dim, SeededRng(seed))
        nrng = np.random.default_rng(seed)
        stream = Sequence(story_id="s", rows=nrng.normal(size=(n, in_dim)))
        dH = nrng.normal(size=(n, out_dim))

        # without skips: the per-step GRU oracle; the skip tensors get no gradient
        free = StoryGroup.of([stream], [SkipMatrix(n=n, pairs=())])
        grads, dX = bmrnn_backward(p, free, bmrnn_forward(p, free), dH[None])
        want, want_dX = plain_bigru_grads(p, stream.rows, dH)
        for name, g in [(k, t[0]) for k, t in grads.named_tensors()] + [("dX", dX[0])]:
            w = want_dX if name == "dX" else want.get(name, np.zeros_like(g))
            npt.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.max(np.abs(w)), err_msg=name)

        # with skips: finite differences on sampled parameter and input
        # entries, by the 4-point stencil, whose rounding error (|loss| 1e-16 /
        # eps) and truncation error (eps^4) both stay far below the bound
        sk = SkipMatrix(n=n, pairs=tuple(cluster_chains(clusters)))
        group = StoryGroup.of([stream], [sk])
        grads, dX = bmrnn_backward(p, group, bmrnn_forward(p, group), dH[None])
        eps = 1e-3

        def loss(x):
            return float(np.sum(dH * bmrnn_forward(
                p, StoryGroup.of([Sequence(story_id="s", rows=x)], [sk])).merged[0]))

        def stencil(f):
            return (8.0 * (f(eps) - f(-eps)) - (f(2 * eps) - f(-2 * eps))) / (12.0 * eps)

        def param_loss(i, d):
            orig = p.flat[i]
            p.flat[i] = orig + d
            try:
                return loss(stream.rows)
            finally:
                p.flat[i] = orig

        for i in nrng.choice(p.flat.size, size=20, replace=False):
            assert rel_err(grads.flat[0, i], stencil(lambda d: param_loss(i, d))) < 1e-5, i
        for _ in range(5):
            t, j = int(nrng.integers(n)), int(nrng.integers(in_dim))
            bump = np.zeros_like(stream.rows)
            bump[t, j] = 1.0
            fd = stencil(lambda d: loss(stream.rows + d * bump))
            assert rel_err(dX[0, t, j], fd) < 1e-5, (t, j)


class TestStoryStream:
    """A story's photo stream is a numeric.Sequence."""

    def test_empty_story_rejected(self):
        with pytest.raises(DataError, match=r"at least one step \(story: s\)"):
            Sequence(story_id="s", rows=[])


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

    def test_shorter_than_header(self, tmp_path):
        path = tmp_path / "m.bmrn"
        path.write_bytes(MODEL_MAGIC + struct.pack("<H", MODEL_VERSION))
        with pytest.raises(DataError, match="truncated model file header"):
            load_model(path)

    def test_duplicate_tensor(self, tmp_path):
        tensors = list(init_bmrnn_params(2, 2, 2, SeededRng(25)).named_tensors())
        tensors.insert(1, tensors[0])
        path = tmp_path / "m.bmrn"
        path.write_bytes(MODEL_MAGIC + struct.pack("<HI", MODEL_VERSION, len(tensors)) + b"".join(
            struct.pack("<H", len(name)) + name.encode() + encode_tensor(t) for name, t in tensors))
        with pytest.raises(DataError, match="duplicate tensor 'fwd.W_zx'"):
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

    def test_rank_1_recurrent_matrix_names_tensor_and_shapes(self, tmp_path):
        p = init_bmrnn_params(2, 4, 2, SeededRng(27))
        tensors = [(n, t[0] if n == "fwd.W_zh" else t) for n, t in p.named_tensors()]
        path = tmp_path / "m.bmrn"
        save_model(path, SimpleNamespace(named_tensors=lambda: tensors))
        with pytest.raises(DataError, match=r"'fwd\.W_zh' has shape \(4,\), expected \(4, 4\)"):
            load_model(path)

    @pytest.mark.parametrize("record, size, message", [
        (struct.pack("<3I", 2, 1 << 20, 1 << 20) + bytes(16), 48, "payload is 16 bytes"),
        (struct.pack("<I", 0xFFFFFFFF) + bytes(8), 32, "implausible rank 4294967295"),
    ], ids=["huge-dims", "huge-rank"])
    def test_oversized_header_is_a_data_error(self, tmp_path, record, size, message):
        # the header declares terabytes; the loader must not try to read them
        path = tmp_path / "m.bmrn"
        raw = MODEL_MAGIC + struct.pack("<HIH", MODEL_VERSION, 29, 8) + b"fwd.W_zx" + record
        assert len(raw) == size
        path.write_bytes(raw)
        with pytest.raises(DataError, match=message) as e:
            load_model(path)
        assert "'fwd.W_zx'" in str(e.value) and str(path) in str(e.value)

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
