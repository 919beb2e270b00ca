"""Optimizer updates, the training loop, checkpointing, and the gradient
checker."""

import dataclasses
import json

import numpy as np
import numpy.testing as npt
import pytest

import bmrnn.training
import network_oracle
from bmrnn.data import SynthConfig, generate_synthetic
from bmrnn.errors import ConfigError, DataError, DivergenceError
from bmrnn.network import init_bmrnn_params, load_model, save_model
from bmrnn.numeric import SeededRng
from bmrnn.objective import (
    CompatibilityConfig,
    SentenceSequence,
    SequenceStack,
    contrastive_loss,
    sample_negatives,
)
from bmrnn.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    SGD_MOMENTUM,
    Checkpoint,
    TrainConfig,
    clip_gradients,
    global_grad_norm,
    grad_check,
    init_optimizer_state,
    read_sidecar,
    save_checkpoint,
    story_loss_and_grads,
    train,
    update_step,
)
from mixed_corpus import mixed_corpus


def load_checkpoint(path) -> Checkpoint:
    """A model and the sidecar save_checkpoint wrote beside it."""
    return Checkpoint(params=load_model(path), **read_sidecar(path))


def tiny_params(seed=0, input_dim=3, hidden=4, out=3):
    return init_bmrnn_params(input_dim, hidden, out, SeededRng(seed))


def constant_grads(params, value):
    grads = params.zeros_like()
    for _, g in grads.named_tensors():
        g += value
    return grads


def small_corpus(n=96, seed=0, **kwargs):
    corpus = generate_synthetic(SynthConfig(num_stories=n, seed=seed, **kwargs))
    tr = [r for r in corpus.records if r.split == "train"]
    va = [r for r in corpus.records if r.split == "val"]
    return corpus, tr, va


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.optimizer == "adam"
        assert cfg.learning_rate == 1e-3
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert cfg.grad_clip_norm == 5.0
        assert cfg.early_stop_patience == 10

    def test_zero_learning_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": -0.1},
            {"batch_size": 0},
            {"epochs": 0},
            {"optimizer": "rmsprop"},
            {"grad_clip_norm": 0.0},
            {"checkpoint_every": -1},
            {"early_stop_patience": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


@pytest.mark.parametrize("field", ["learning_rate", "grad_clip_norm"])
def test_nan_train_config_rejected(field):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: float("nan")})


class TestClipGradients:
    def test_norm_50_clipped_to_5(self):
        params = tiny_params()
        grads = constant_grads(params, 1.0)
        target = 50.0 / global_grad_norm(grads)
        for _, g in grads.named_tensors():
            g *= target
        before = [g.copy() for _, g in grads.named_tensors()]
        returned = clip_gradients(grads, 5.0)
        assert returned == pytest.approx(50.0)
        assert global_grad_norm(grads) == pytest.approx(5.0)
        # direction preserved: a single positive scale relates old and new
        for (_, g), old in zip(grads.named_tensors(), before):
            npt.assert_allclose(g, old * (5.0 / 50.0), rtol=1e-12)

    def test_small_norm_untouched(self):
        params = tiny_params()
        grads = constant_grads(params, 1e-3)
        norm = global_grad_norm(grads)
        assert norm < 5.0
        before = [g.copy() for _, g in grads.named_tensors()]
        returned = clip_gradients(grads, 5.0)
        assert returned == pytest.approx(norm)
        for (_, g), old in zip(grads.named_tensors(), before):
            npt.assert_array_equal(g, old)


class TestUpdateStep:
    def test_sgd_zero_grads_no_move(self):
        params = tiny_params()
        snapshot = params.copy()
        cfg = TrainConfig(optimizer="sgd-momentum")
        state = init_optimizer_state(params, cfg)
        update_step(params, params.zeros_like(), state, cfg)
        for (_, p), (_, q) in zip(params.named_tensors(), snapshot.named_tensors()):
            npt.assert_array_equal(p, q)

    def test_adam_first_step_is_signed_lr(self):
        params = tiny_params()
        snapshot = params.copy()
        cfg = TrainConfig()
        state = init_optimizer_state(params, cfg)
        rng = np.random.default_rng(3)
        grads = params.zeros_like()
        for _, g in grads.named_tensors():
            g += np.where(rng.random(g.shape) < 0.5, -0.5, 0.5)
        signs = [np.sign(g) for _, g in grads.named_tensors()]
        update_step(params, grads, state, cfg)
        for (_, p), (_, q), s in zip(
            params.named_tensors(), snapshot.named_tensors(), signs
        ):
            npt.assert_allclose(p - q, -cfg.learning_rate * s, rtol=1e-6)

    def test_zero_learning_rate_no_move(self):
        params = tiny_params()
        snapshot = params.copy()
        cfg = TrainConfig(learning_rate=0.0)
        state = init_optimizer_state(params, cfg)
        update_step(params, constant_grads(params, 0.3), state, cfg)
        for (_, p), (_, q) in zip(params.named_tensors(), snapshot.named_tensors()):
            npt.assert_array_equal(p, q)

    def test_sgd_momentum_accumulates(self):
        params = tiny_params()
        snapshot = params.copy()
        cfg = TrainConfig(optimizer="sgd-momentum", learning_rate=0.1)
        state = init_optimizer_state(params, cfg)
        update_step(params, constant_grads(params, 0.01), state, cfg)
        first = [
            (p - q).copy()
            for (_, p), (_, q) in zip(params.named_tensors(), snapshot.named_tensors())
        ]
        mid = params.copy()
        update_step(params, constant_grads(params, 0.01), state, cfg)
        for (_, p), (_, q), d1 in zip(
            params.named_tensors(), mid.named_tensors(), first
        ):
            npt.assert_allclose(p - q, (1.0 + SGD_MOMENTUM) * d1, rtol=1e-10)

    def test_frozen_merge_bias(self):
        params = tiny_params()
        snapshot = params.copy()
        cfg = TrainConfig(update_merge_bias=False)
        state = init_optimizer_state(params, cfg)
        update_step(params, constant_grads(params, 0.5), state, cfg)
        npt.assert_array_equal(params.b_merge, snapshot.b_merge)
        # every other tensor moved
        for (name, p), (_, q) in zip(
            params.named_tensors(), snapshot.named_tensors()
        ):
            if name != "b_merge":
                assert not np.array_equal(p, q), name


class TestTrain:
    def test_zero_lr_leaves_params_unchanged(self):
        corpus, tr, va = small_corpus(n=12, seed=2)
        params = init_bmrnn_params(16, 6, 16, SeededRng(5))
        snapshot = params.copy()
        ccfg = CompatibilityConfig(negatives_per_positive=3)
        cfg = TrainConfig(epochs=3, learning_rate=0.0, seed=0)
        ckpt = train(tr, va, corpus.skips, cfg, ccfg, params=params)
        for (_, p), (_, q) in zip(
            ckpt.params.named_tensors(), snapshot.named_tensors()
        ):
            npt.assert_array_equal(p, q)

    @pytest.mark.filterwarnings("ignore:only 63 candidate negatives")
    def test_loss_decreases_first_three_epochs(self):
        # 64 training stories, 5 epochs, default optimizer and loss settings
        corpus, tr, va = small_corpus(n=96, seed=0)
        assert len(tr) == 64
        ckpt = train(tr, [], corpus.skips, TrainConfig(epochs=5, seed=1),
                     CompatibilityConfig())
        losses = [h["mean_loss"] for h in ckpt.history]
        assert losses[0] > losses[1] > losses[2]

    def test_same_seed_bitwise_identical(self):
        corpus, tr, va = small_corpus(n=24, seed=3)
        ccfg = CompatibilityConfig(negatives_per_positive=5)
        runs = []
        for _ in range(2):
            ckpt = train(tr, va, corpus.skips, TrainConfig(epochs=3, seed=7),
                         ccfg, hidden_dim=6)
            runs.append(ckpt)
        for (_, a), (_, b) in zip(
            runs[0].params.named_tensors(), runs[1].params.named_tensors()
        ):
            npt.assert_array_equal(a, b)
        # identical trajectories apart from wall-clock timing
        def drop_wall(history):
            return [{k: v for k, v in rec.items() if k != "wall_ms"} for rec in history]

        assert drop_wall(runs[0].history) == drop_wall(runs[1].history)

    def test_different_seed_differs(self):
        corpus, tr, va = small_corpus(n=24, seed=3)
        ccfg = CompatibilityConfig(negatives_per_positive=5)
        a = train(tr, va, corpus.skips, TrainConfig(epochs=2, seed=7), ccfg, hidden_dim=6)
        b = train(tr, va, corpus.skips, TrainConfig(epochs=2, seed=8), ccfg, hidden_dim=6)
        assert any(
            not np.array_equal(x, y)
            for (_, x), (_, y) in zip(a.params.named_tensors(), b.params.named_tensors())
        )

    def test_divergence_names_story_epoch_step(self):
        corpus, tr, va = small_corpus(n=12, seed=4)
        victim = tr[3]
        victim.story.x[0][:] = np.nan
        ccfg = CompatibilityConfig(negatives_per_positive=3)
        with pytest.raises(DivergenceError) as exc_info:
            train(tr, [], corpus.skips, TrainConfig(epochs=1, seed=0), ccfg, hidden_dim=4)
        err = exc_info.value
        assert err.story_id == victim.story_id
        assert err.epoch == 0
        assert victim.story_id in str(err)

    def test_early_stopping_by_patience(self):
        corpus, tr, va = small_corpus(n=18, seed=5)
        ccfg = CompatibilityConfig(negatives_per_positive=3)
        cfg = TrainConfig(epochs=10, learning_rate=0.0, seed=0, early_stop_patience=2)
        ckpt = train(tr, va, corpus.skips, cfg, ccfg, hidden_dim=4)
        # frozen params -> validation never improves -> stop after patience
        assert len(ckpt.history) == 3
        assert ckpt.epoch == 0

    def test_log_file_json_lines(self, tmp_path):
        corpus, tr, va = small_corpus(n=18, seed=6)
        ccfg = CompatibilityConfig(negatives_per_positive=3)
        log = tmp_path / "train.log"
        ckpt = train(tr, va, corpus.skips, TrainConfig(epochs=2, seed=0), ccfg,
                     hidden_dim=4, log_path=log)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(lines) == 2
        for i, rec in enumerate(lines):
            assert rec["epoch"] == i
            assert set(rec) == {"epoch", "mean_loss", "val_recall1", "val_medr", "wall_ms",
                                "grad_norm_p50", "clip_frac", "active_v_frac", "active_h_frac"}
            assert 0.0 <= rec["active_v_frac"] <= 1.0 and 0.0 <= rec["active_h_frac"] <= 1.0
            assert rec["wall_ms"] > 0
        assert lines == ckpt.history

    @pytest.mark.parametrize("clip, clip_frac", [(1e-12, 1.0), (1e12, 0.0)])
    def test_log_records_gradient_norm_and_clip_rate(self, monkeypatch, clip, clip_frac):
        corpus, tr, va = small_corpus(n=12, seed=6)
        norms = []

        def recording_clip(grads, max_norm):
            norms.append(clip_gradients(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr(bmrnn.training, "clip_gradients", recording_clip)
        cfg = TrainConfig(epochs=1, seed=0, batch_size=2, grad_clip_norm=clip)
        ckpt = train(tr, [], corpus.skips, cfg, CompatibilityConfig(negatives_per_positive=3),
                     hidden_dim=4)
        rec = ckpt.history[0]
        assert len(norms) == -(-len(tr) // 2) and min(norms) > 0
        assert rec["grad_norm_p50"] == float(np.median(norms))
        assert rec["clip_frac"] == clip_frac

    @pytest.mark.parametrize("gamma, frac", [(1e-9, 0.0), (20.0, 1.0)])
    def test_log_records_active_hinge_fractions(self, gamma, frac):
        # alpha 1 makes c(H, V) the plain inner product <H, V>; each story's
        # sentences are 10x the dual basis of the (frozen, lr 0) network's
        # outputs, so every true pair scores 10 and every negative pair 0:
        # no hinge is active as gamma -> 0, and all are once gamma > 10
        corpus, tr, _ = small_corpus(n=18, seed=6)
        params = init_bmrnn_params(16, 4, 16, SeededRng(0))
        from bmrnn.network import StoryGroup, bmrnn_forward

        H = np.stack([bmrnn_forward(params, StoryGroup.of(
            [rec.story], [corpus.skips[rec.story_id].matrix()])).merged[0].ravel() for rec in tr])
        dual = 10.0 * np.linalg.pinv(H).T
        for rec, v in zip(tr, dual):
            rec.sentences = SentenceSequence(rec.story_id, v.reshape(rec.story.N, 16))
        ccfg = CompatibilityConfig(alpha=1.0, gamma=gamma, negatives_per_positive=3)
        ckpt = train(tr, [], corpus.skips, TrainConfig(epochs=1, seed=0, learning_rate=0.0),
                     ccfg, params=params)
        rec = ckpt.history[0]
        assert rec["active_v_frac"] == frac and rec["active_h_frac"] == frac

    def test_log_without_validation_has_nulls(self, tmp_path):
        corpus, tr, va = small_corpus(n=12, seed=6)
        ccfg = CompatibilityConfig(negatives_per_positive=3)
        log = tmp_path / "train.log"
        train(tr, [], corpus.skips, TrainConfig(epochs=1, seed=0), ccfg,
              hidden_dim=4, log_path=log)
        rec = json.loads(log.read_text().splitlines()[0])
        assert rec["val_recall1"] is None and rec["val_medr"] is None

    def test_periodic_checkpoints(self, tmp_path):
        corpus, tr, va = small_corpus(n=12, seed=6)
        ccfg = CompatibilityConfig(negatives_per_positive=3)
        cfg = TrainConfig(epochs=4, seed=0, checkpoint_every=2)
        train(tr, va, corpus.skips, cfg, ccfg, hidden_dim=4, checkpoint_dir=tmp_path)
        assert (tmp_path / "epoch_0001.bin").exists()
        assert (tmp_path / "epoch_0003.bin").exists()
        assert not (tmp_path / "epoch_0000.bin").exists()
        loaded = load_checkpoint(tmp_path / "epoch_0001.bin")
        assert loaded.epoch == 1

    def test_missing_skip_record(self):
        corpus, tr, va = small_corpus(n=12, seed=6)
        skips = dict(corpus.skips)
        del skips[tr[0].story_id]
        with pytest.raises(DataError, match="skip record"):
            train(tr, va, skips, TrainConfig(epochs=1),
                  CompatibilityConfig(negatives_per_positive=3))

    def test_empty_training_set(self):
        corpus, tr, va = small_corpus(n=12, seed=6)
        with pytest.raises(DataError, match="empty"):
            train([], va, corpus.skips, TrainConfig(epochs=1),
                  CompatibilityConfig(negatives_per_positive=3))


def per_story_train(records, skips_by_id, cfg, ccfg, hidden_dim):
    """The final parameters of ``train`` without a validation set, by the
    loop that ran one story at a time: the network oracle's forward and
    backward per story, negatives gathered at their full width."""
    rng = SeededRng(cfg.seed)
    params = init_bmrnn_params(records[0].story.x.shape[1], hidden_dim,
                               records[0].sentences.v.shape[1], rng.spawn(0))
    order_rng, neg_rng = rng.spawn(1), rng.spawn(2)
    sentences = SequenceStack.of([rec.sentences for rec in records])
    state = init_optimizer_state(params, cfg)
    for _ in range(cfg.epochs):
        h_cache = SequenceStack.of([
            network_oracle.forward(params, rec.story, skips_by_id[rec.story_id].matrix()).merged
            for rec in records])
        order = order_rng.permutation(len(records))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            batch_grads = params.zeros_like()
            for row in batch:
                rec = records[row]
                skip = skips_by_id[rec.story_id]
                idx = sample_negatives(len(records), row, ccfg.negatives_per_positive, neg_rng)
                trace = network_oracle.forward(params, rec.story, skip.matrix())
                result = contrastive_loss(trace.merged, rec.sentences, sentences.take(idx),
                                          h_cache.take(idx), skip.partition(), ccfg)
                grads, _ = network_oracle.backward(params, rec.story, skip.matrix(), trace,
                                                   result.dH)
                batch_grads.flat += (1.0 / len(batch)) * grads.flat
            update_step(params, batch_grads, state, cfg)
    return params


class TestGroupedTraining:
    def test_mixed_lengths_write_the_per_story_loops_model(self, tmp_path):
        # lengths take turns, so each minibatch of 8 is one group padded to
        # its longest story, the h' refresh sweeps groups of several stories,
        # and the last batch is short
        corpus = mixed_corpus(lengths=(1, 3, 4, 7), per_length=7)
        cfg, ccfg = TrainConfig(epochs=2, seed=3), CompatibilityConfig(negatives_per_positive=5)
        ckpt = train(corpus.records, [], corpus.skips, cfg, ccfg, hidden_dim=6)
        want = per_story_train(corpus.records, corpus.skips, cfg, ccfg, hidden_dim=6)
        npt.assert_array_equal(ckpt.params.flat, want.flat)
        save_model(tmp_path / "grouped.bin", ckpt.params)
        save_model(tmp_path / "per_story.bin", want)
        assert (tmp_path / "grouped.bin").read_bytes() == (tmp_path / "per_story.bin").read_bytes()


class TestCheckpointIO:
    def roundtrip(self, tmp_path):
        params = tiny_params(seed=11)
        ckpt = Checkpoint(
            params=params,
            epoch=7,
            best_val_recall1=62.5,
            config={"train": dataclasses.asdict(TrainConfig())},
        )
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        return path, ckpt

    def test_round_trip_values(self, tmp_path):
        path, ckpt = self.roundtrip(tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == 7
        assert loaded.best_val_recall1 == 62.5
        assert loaded.config == ckpt.config
        for (_, a), (_, b) in zip(
            loaded.params.named_tensors(), ckpt.params.named_tensors()
        ):
            npt.assert_array_equal(a, b.astype(np.float32).astype(np.float64))

    def test_save_load_save_byte_identical(self, tmp_path):
        path, _ = self.roundtrip(tmp_path)
        first_model = path.read_bytes()
        first_sidecar = (tmp_path / "model.bin.json").read_bytes()
        loaded = load_checkpoint(path)
        path2 = tmp_path / "again.bin"
        save_checkpoint(path2, loaded)
        assert path2.read_bytes() == first_model
        assert (tmp_path / "again.bin.json").read_bytes() == first_sidecar

    def test_empty_sidecar_names_file(self, tmp_path):
        path, _ = self.roundtrip(tmp_path)
        (tmp_path / "model.bin.json").write_text("{}\n")
        with pytest.raises(DataError, match="malformed training sidecar") as err:
            load_checkpoint(path)
        assert str(tmp_path / "model.bin.json") in str(err.value)

    def test_config_not_an_object_names_file(self, tmp_path):
        path, _ = self.roundtrip(tmp_path)
        sidecar = tmp_path / "model.bin.json"
        snapshot = json.loads(sidecar.read_text())
        snapshot["config"] = [snapshot["config"]]
        sidecar.write_text(json.dumps(snapshot))
        with pytest.raises(DataError, match="malformed training sidecar") as err:
            load_checkpoint(path)
        assert str(sidecar) in str(err.value)

    def test_missing_sidecar(self, tmp_path):
        path, _ = self.roundtrip(tmp_path)
        (tmp_path / "model.bin.json").unlink()
        with pytest.raises(DataError, match="sidecar"):
            load_checkpoint(path)


class TestGradCheck:
    def test_analytic_matches_finite_differences(self):
        report = grad_check(seed=0, n_configs=6)
        assert report.passed, report.to_text_table()
        assert report.max_rel_err < 1e-5
        assert "inputs" in report.per_tensor
        assert len(report.per_tensor) == 30  # 29 parameter tensors + inputs

    def test_corrupted_gradient_detected(self, monkeypatch):
        exact = bmrnn.training.story_loss_and_grads

        def corrupted(params, *args, **kwargs):
            rows = exact(params, *args, **kwargs)
            params.with_flat(rows[0][1]).fwd.W_hp[...] += 1.0
            return rows

        monkeypatch.setattr(bmrnn.training, "story_loss_and_grads", corrupted)
        report = grad_check(seed=0, n_configs=2)
        assert report.per_tensor["fwd.W_hp"] > 1e-2
        assert not report.passed

    def test_report_table_mentions_verdict(self):
        report = grad_check(seed=1, n_configs=1)
        table = report.to_text_table()
        assert "max relative error" in table
        assert "PASS" in table

    def test_zero_loss_gives_zero_gradients(self):
        rng = SeededRng(0)
        params = init_bmrnn_params(3, 4, 3, rng)
        corpus = generate_synthetic(
            SynthConfig(num_stories=2, embed_dim=3, seed=0, scene_pool_size=3)
        )
        rec = corpus.records[0]
        skip = corpus.skips[rec.story_id]
        from bmrnn.network import StoryGroup, bmrnn_forward

        merged = bmrnn_forward(params, StoryGroup.of([rec.story], [skip.matrix()])).merged[0]
        # positive pair massively compatible, negatives anti-aligned:
        # every hinge is inactive, so loss and all gradients vanish
        sentences = SentenceSequence(rec.story_id, [10.0 * h for h in merged])
        neg_v = SequenceStack.of([SentenceSequence("neg", [-10.0 * h for h in merged])])
        neg_h = SequenceStack.of([[np.zeros(3) for _ in merged]])
        ccfg = CompatibilityConfig(negatives_per_positive=1)
        [(result, grad, d_inputs)] = story_loss_and_grads(
            params, [rec.story], [skip.matrix()], [(sentences, neg_v, neg_h, skip.partition())],
            ccfg,
        )
        assert result.loss == 0.0
        assert result.active_v_hinges == 0 and result.active_h_hinges == 0
        assert grad.shape == params.flat.shape
        for _, g in params.with_flat(grad).named_tensors():
            assert np.linalg.norm(g) == 0.0
        for dx in d_inputs:
            assert np.linalg.norm(dx) == 0.0
