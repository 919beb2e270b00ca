"""Command-line interface: argument handling, config files, exit codes, and
the end-to-end pipeline."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from bmrnn.cli import run
from bmrnn.data import load_skips, read_tensor, write_tensor
from bmrnn.network import init_bmrnn_params, save_model
from bmrnn.numeric import SeededRng


def make_corpus(tmp_path, stories=18, seed=5, extra=()):
    out = tmp_path / "corpus"
    code = run(["synth", "--out", str(out), "--stories", str(stories),
                "--seed", str(seed), *extra])
    assert code == 0
    return out


def detect(tmp_path, corpus, extra=()):
    skips = corpus / "skips.jsonl"
    code = run(["detect-skips", "--manifest", str(corpus / "manifest.jsonl"),
                "--out", str(skips), *extra])
    assert code == 0
    return skips


def train_model(tmp_path, corpus, skips, name="model.bin", extra=()):
    model = tmp_path / name
    code = run(["train", "--manifest", str(corpus / "manifest.jsonl"),
                "--skips", str(skips), "--out", str(model),
                "--epochs", "2", "--negatives", "7", "--hidden", "6", *extra])
    assert code == 0
    return model


class TestGradcheckCommand:
    def test_exit_zero_and_prints_error(self, capsys):
        assert run(["gradcheck", "--seed", "7", "--configs", "2"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "PASS" in out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run(["synth"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_bad_flag_value(self, capsys):
        assert run(["synth", "--out", "x", "--stories", "many"]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["gradcheck", "--bogus", "1"]) == 1

    def test_help_exits_zero_and_documents_defaults(self, capsys):
        with_help = run(["train", "--help"])
        assert with_help == 0
        out = capsys.readouterr().out
        assert "default: 0.5" in out     # alpha
        assert "default: 0.2" in out     # gamma
        assert "default: 127" in out     # negatives


class TestDataErrors:
    def test_train_missing_manifest_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope" / "manifest.jsonl"
        code = run(["train", "--manifest", str(missing),
                    "--skips", str(tmp_path / "s.jsonl"),
                    "--out", str(tmp_path / "m.bin")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_eval_missing_model(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, stories=6)
        skips = detect(tmp_path, corpus)
        code = run(["eval", "--manifest", str(corpus / "manifest.jsonl"),
                    "--skips", str(skips), "--model", str(tmp_path / "ghost.bin"),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_non_finite_embedding_names_file_and_story(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, stories=12)
        skips = detect(tmp_path, corpus)
        victim = corpus / "tensors" / "story_00002.emb.bmt"
        arr = read_tensor(victim)
        arr[0, :] = np.nan
        write_tensor(victim, arr)
        code = run(["train", "--manifest", str(corpus / "manifest.jsonl"),
                    "--skips", str(skips), "--out", str(tmp_path / "m.bin"),
                    "--epochs", "1", "--negatives", "3", "--hidden", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(victim) in err and "story_00002" in err and "non-finite" in err

    def test_eval_rejects_misshapen_model(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, stories=6)
        skips = detect(tmp_path, corpus)
        params = init_bmrnn_params(16, 6, 16, SeededRng(0))
        tensors = [(n, np.zeros(1) if n == "fwd.b_z" else t) for n, t in params.named_tensors()]
        model = tmp_path / "m.bin"
        save_model(model, SimpleNamespace(named_tensors=lambda: tensors))
        code = run(["eval", "--manifest", str(corpus / "manifest.jsonl"),
                    "--skips", str(skips), "--model", str(model),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "fwd.b_z" in err and "(1,)" in err and "(6,)" in err

    def test_skip_record_must_cover_its_story(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, stories=12)
        skips = detect(tmp_path, corpus)
        model = train_model(tmp_path, corpus, skips)
        lines = skips.read_text().splitlines()
        short = {"story_id": json.loads(lines[0])["story_id"], "clusters": [[0, 2], [1, 3]],
                 "skips": [[0, 2], [1, 3]], "converged": True}
        skips.write_text("\n".join([json.dumps(short)] + lines[1:]) + "\n")
        manifest = str(corpus / "manifest.jsonl")
        for argv in (["train", "--out", str(tmp_path / "m.bin"), "--epochs", "1",
                      "--negatives", "3", "--hidden", "4"],
                     ["eval", "--model", str(model), "--split", "train",
                      "--report", str(tmp_path / "r.json")]):
            assert run([*argv, "--manifest", manifest, "--skips", str(skips)]) == 2
            err = capsys.readouterr().err
            assert "covers 4 steps, the story has 5" in err and short["story_id"] in err

    def test_eval_rejects_non_finite_model(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, stories=6)
        skips = detect(tmp_path, corpus)
        params = init_bmrnn_params(16, 6, 16, SeededRng(0))
        params.merge_b[0, 0] = np.nan
        model = tmp_path / "m.bin"
        save_model(model, params)
        code = run(["eval", "--manifest", str(corpus / "manifest.jsonl"),
                    "--skips", str(skips), "--model", str(model),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "'merge_b' holds non-finite values" in capsys.readouterr().err

    def test_infeasible_synth_config(self, tmp_path, capsys):
        code = run(["synth", "--out", str(tmp_path / "c"), "--dim", "4",
                    "--pool", "9"])
        assert code == 2
        assert "embed_dim" in capsys.readouterr().err


class TestNumericalFailures:
    def test_divergent_training_exits_3(self, tmp_path, capsys):
        # one Adam step of size 1e308 overflows the next forward pass
        corpus = make_corpus(tmp_path, stories=12)
        skips = detect(tmp_path, corpus)
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train", "--manifest", str(corpus / "manifest.jsonl"),
                        "--skips", str(skips), "--out", str(tmp_path / "m.bin"),
                        "--epochs", "2", "--negatives", "3", "--hidden", "4",
                        "--lr", "1e308"])
        assert code == 3
        assert re.search(r"non-finite loss at epoch 1, step 0, story 'story_\d{5}'",
                         capsys.readouterr().err)

    def test_parameters_beyond_float32_exit_3_and_write_no_model(self, tmp_path, capsys):
        # the gates saturate, so the losses stay finite while the
        # parameters grow past what a float32 model file can hold
        corpus = make_corpus(tmp_path, stories=12)
        skips = detect(tmp_path, corpus)
        model = tmp_path / "m.bin"
        code = run(["train", "--manifest", str(corpus / "manifest.jsonl"),
                    "--skips", str(skips), "--out", str(model),
                    "--epochs", "2", "--negatives", "3", "--hidden", "4", "--lr", "1e300"])
        assert code == 3
        assert "parameters beyond float32 range at epoch 1" in capsys.readouterr().err
        assert not model.exists()


def resolved_config(err, command):
    return json.loads(err.split(f"resolved config [{command}]: ", 1)[1].splitlines()[0])


class TestEvalTrainingConfig:
    """eval scores with the compatibility config the model was trained with."""

    def eval_args(self, tmp_path, corpus, skips, model, extra=()):
        return ["eval", "--manifest", str(corpus / "manifest.jsonl"), "--skips", str(skips),
                "--model", str(model), "--report", str(tmp_path / "r.json"), *extra]

    def test_sidecar_default_flag_override_and_fallback(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        skips = detect(tmp_path, corpus)
        model = train_model(tmp_path, corpus, skips,
                            extra=["--alpha", "0.2", "--local-mode", "all-pairs"])
        capsys.readouterr()
        assert run(self.eval_args(tmp_path, corpus, skips, model)) == 0
        err = capsys.readouterr().err
        assert resolved_config(err, "eval")["alpha"] == 0.2
        assert resolved_config(err, "eval")["local_mode"] == "all-pairs"
        assert "overrides" not in err

        assert run(self.eval_args(tmp_path, corpus, skips, model, ["--alpha", "0.5"])) == 0
        err = capsys.readouterr().err
        assert resolved_config(err, "eval")["alpha"] == 0.5
        assert "alpha 0.5 overrides the model's training value 0.2" in err

        (tmp_path / "model.bin.json").unlink()
        assert run(self.eval_args(tmp_path, corpus, skips, model)) == 0
        resolved = resolved_config(capsys.readouterr().err, "eval")
        assert (resolved["alpha"], resolved["local_mode"]) == (0.5, "aligned")

    def test_malformed_sidecar(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, stories=6)
        skips = detect(tmp_path, corpus)
        model = train_model(tmp_path, corpus, skips)
        (tmp_path / "model.bin.json").write_text("{}\n")
        assert run(self.eval_args(tmp_path, corpus, skips, model)) == 2
        assert "sidecar" in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_applies_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nstories = 9\nseed = 3\n")
        out = tmp_path / "c"
        assert run(["synth", "--out", str(out), "--config", str(cfg),
                    "--seed", "4"]) == 0
        err = capsys.readouterr().err
        resolved = json.loads(err.split("resolved config [synth]: ", 1)[1])
        assert resolved["stories"] == 9     # from the file
        assert resolved["seed"] == 4        # flag wins
        manifest = (out / "manifest.jsonl").read_text().splitlines()
        assert len(manifest) == 9

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("swagger = 11\n")
        assert run(["synth", "--out", str(tmp_path / "c"),
                    "--config", str(cfg)]) == 1
        assert "swagger" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stories 9\n")
        assert run(["synth", "--out", str(tmp_path / "c"),
                    "--config", str(cfg)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert run(["synth", "--out", str(tmp_path / "c"),
                    "--config", str(tmp_path / "ghost.cfg")]) == 2

    def test_resolved_config_always_logged(self, tmp_path, capsys):
        assert run(["gradcheck", "--configs", "1"]) == 0
        assert "resolved config [gradcheck]" in capsys.readouterr().err


class TestPipeline:
    def test_end_to_end_report_has_all_metrics(self, tmp_path):
        corpus = make_corpus(tmp_path)
        skips = detect(tmp_path, corpus)
        model = train_model(tmp_path, corpus, skips)
        report_path = tmp_path / "report.json"
        code = run(["eval", "--manifest", str(corpus / "manifest.jsonl"),
                    "--skips", str(skips), "--model", str(model),
                    "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        for key in ("recall_at_1", "recall_at_5", "recall_at_10", "median_rank"):
            assert key in report
        assert report["pool_size"] == 3     # 18 stories -> 3 test
        assert (tmp_path / "model.bin.json").exists()

    def test_one_photo_stories(self, tmp_path):
        corpus = make_corpus(tmp_path, stories=12, extra=["--length", "1", "--scenes", "1"])
        skips = detect(tmp_path, corpus)
        for rec in load_skips(skips).values():
            assert rec.clusters == [[0]] and rec.pairs == []
        model = train_model(tmp_path, corpus, skips)
        assert run(["eval", "--manifest", str(corpus / "manifest.jsonl"),
                    "--skips", str(skips), "--model", str(model),
                    "--report", str(tmp_path / "r.json")]) == 0

    def test_detected_skips_match_planted_on_clean_corpus(self, tmp_path):
        corpus = make_corpus(tmp_path, stories=12)
        skips_path = detect(tmp_path, corpus)
        detected = load_skips(skips_path)
        planted = load_skips(corpus / "planted_skips.jsonl")
        assert set(detected) == set(planted)
        for sid in planted:
            assert detected[sid].pairs == planted[sid].pairs
            assert not detected[sid].planted

    def test_synth_reproducible(self, tmp_path):
        a = make_corpus(tmp_path / "a", stories=8, seed=11)
        b = make_corpus(tmp_path / "b", stories=8, seed=11)
        c = make_corpus(tmp_path / "c", stories=8, seed=12)
        assert (a / "manifest.jsonl").read_bytes() == (b / "manifest.jsonl").read_bytes()
        for f in sorted((a / "tensors").iterdir()):
            assert f.read_bytes() == (b / "tensors" / f.name).read_bytes()
        assert any(
            f.read_bytes() != (c / "tensors" / f.name).read_bytes()
            for f in sorted((a / "tensors").iterdir())
        )

    def test_train_reproducible(self, tmp_path):
        corpus = make_corpus(tmp_path)
        skips = detect(tmp_path, corpus)
        m1 = train_model(tmp_path, corpus, skips, "m1.bin", extra=["--seed", "3"])
        m2 = train_model(tmp_path, corpus, skips, "m2.bin", extra=["--seed", "3"])
        m3 = train_model(tmp_path, corpus, skips, "m3.bin", extra=["--seed", "4"])
        assert m1.read_bytes() == m2.read_bytes()
        assert m1.read_bytes() != m3.read_bytes()

    def test_training_log_written(self, tmp_path):
        corpus = make_corpus(tmp_path)
        skips = detect(tmp_path, corpus)
        log = tmp_path / "train.log"
        train_model(tmp_path, corpus, skips, extra=["--log", str(log)])
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(lines) == 2
        assert all("mean_loss" in rec for rec in lines)
