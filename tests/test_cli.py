"""Command-line interface: argument handling, config files, exit codes, and
the end-to-end pipeline."""

import json
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bmrnn.cli
from bmrnn.cli import _build_parser, _resolve, run
from bmrnn.data import (
    SkipRecord, StoryRecord, SynthCorpus, load_manifest, load_skips, read_tensor, write_corpus,
    write_skips, write_tensor,
)
from bmrnn.network import StoryStream, init_bmrnn_params, save_model
from bmrnn.numeric import SeededRng
from bmrnn.objective import SentenceSequence
from bmrnn.skips import affinity_propagation, build_skip_matrix, similarity
from mixed_corpus import write_mixed_corpus


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

    @pytest.mark.parametrize("argv", [
        ["train", "--gamma", "nan"],
        ["train", "--gamma", "inf"],
        ["train", "--lr", "nan"],
        ["train", "--clip", "nan"],
        ["detect-skips", "--preference", "nan"],
    ])
    def test_non_finite_floats(self, argv, capsys):
        paths = {"train": ["--manifest", "m", "--skips", "s", "--out", "o"],
                 "detect-skips": ["--manifest", "m", "--out", "o"]}[argv[0]]
        assert run([*argv, *paths]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_non_numeric_float(self, capsys):
        assert run(["train", "--lr", "abc", "--manifest", "m", "--skips", "s", "--out", "o"]) == 1
        assert "expected a finite number, got 'abc'" in capsys.readouterr().err

    def test_window_beyond_max_iter(self, capsys):
        assert run(["detect-skips", "--manifest", "m", "--out", "o", "--window", "300"]) == 1
        assert "--window 300 exceeds --max-iter 200" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["--damping", "2.0"], ["--max-iter", "0", "--window", "0"]])
    def test_clustering_settings_checked_before_loading(self, tmp_path, capsys, bad):
        # a corpus of 1-photo stories never reaches affinity_propagation
        corpus = make_corpus(tmp_path, stories=6, extra=["--length", "1", "--scenes", "1"])
        out = tmp_path / "s.jsonl"
        for manifest in (corpus / "manifest.jsonl", tmp_path / "missing.jsonl"):
            assert run(["detect-skips", "--manifest", str(manifest), "--out", str(out), *bad]) == 1
            assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_gradcheck_needs_a_configuration(self, capsys):
        assert run(["gradcheck", "--configs", "0"]) == 1
        assert "n_configs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("hidden", ["0", "-1"])
    def test_hidden_dim_must_be_positive(self, tmp_path, capsys, hidden):
        corpus = make_corpus(tmp_path, stories=6)
        skips = corpus / "planted_skips.jsonl"
        assert run(["train", "--manifest", str(corpus / "manifest.jsonl"), "--skips", str(skips),
                    "--out", str(tmp_path / "m.bin"), "--hidden", hidden]) == 1
        assert "hidden_dim must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--noise", "-1"], ["--separation", "-2", "--noise", "-3"]])
    def test_negative_noise_rejected(self, tmp_path, capsys, extra):
        code = run(["synth", "--out", str(tmp_path / "c"), "--stories", "6", *extra])
        assert code == 1
        assert "noise_sigma must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

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

    def test_tensor_of_wrong_rank_names_file_and_story(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, stories=6)
        victim = corpus / "tensors" / "story_00002.emb.bmt"
        write_tensor(victim, read_tensor(victim)[None])
        code = run(["detect-skips", "--manifest", str(corpus / "manifest.jsonl"),
                    "--out", str(tmp_path / "s.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(victim) in err and "story_00002" in err and "rank 3" in err

    def test_eval_of_an_empty_split_names_the_manifest(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, stories=6)
        manifest = corpus / "manifest.jsonl"
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        assert any(e["split"] == "val" for e in entries)
        manifest.write_text("".join(
            json.dumps({**e, "split": "train" if e["split"] == "val" else e["split"]}) + "\n"
            for e in entries))
        model = tmp_path / "m.bin"
        save_model(model, init_bmrnn_params(16, 6, 16, SeededRng(0)))
        code = run(["eval", "--manifest", str(manifest),
                    "--skips", str(corpus / "planted_skips.jsonl"), "--model", str(model),
                    "--split", "val", "--report", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "no stories in split 'val'" in err and str(manifest) in err

    @pytest.mark.parametrize("kept", [0, 1])
    def test_train_on_fewer_than_two_stories_names_the_manifest(self, tmp_path, capsys, kept):
        corpus = make_corpus(tmp_path, stories=6)
        manifest = corpus / "manifest.jsonl"
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        train_ids = [e["story_id"] for e in entries if e["split"] == "train"][:kept]
        manifest.write_text("".join(
            json.dumps({**e, "split": "train" if e["story_id"] in train_ids else "test"}) + "\n"
            for e in entries))
        code = run(["train", "--manifest", str(manifest),
                    "--skips", str(corpus / "planted_skips.jsonl"),
                    "--out", str(tmp_path / "m.bin")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"at least 2 stories in split 'train', found {kept}" in err
        assert str(manifest) in err
        assert not (tmp_path / "m.bin").exists()

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

    def test_eval_rejects_oversized_model_header(self, tmp_path, capsys):
        # 48 bytes that declare a (2^20, 2^20) float32 tensor
        corpus = make_corpus(tmp_path, stories=6)
        skips = detect(tmp_path, corpus)
        model = tmp_path / "m.bin"
        model.write_bytes(b"BMRN" + struct.pack("<HIH", 1, 29, 8) + b"fwd.W_zx"
                          + struct.pack("<3I", 2, 1 << 20, 1 << 20) + bytes(16))
        code = run(["eval", "--manifest", str(corpus / "manifest.jsonl"),
                    "--skips", str(skips), "--model", str(model),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(model) in err and "'fwd.W_zx'" in err

    @pytest.mark.parametrize("target, edit", [
        ("manifest.jsonl", lambda d: "5"),
        ("manifest.jsonl", lambda d: "[1]"),
        ("manifest.jsonl", lambda d: json.dumps({**d, "embedding_file": 5})),
        ("manifest.jsonl", lambda d: json.dumps({**d, "n": str(d["n"])})),
        ("manifest.jsonl", lambda d: json.dumps({**d, "n": 0})),
        ("manifest.jsonl", lambda d: json.dumps({**d, "n": -1})),
        ("skips.jsonl", lambda d: "5"),
        ("skips.jsonl", lambda d: "[1]"),
        ("skips.jsonl", lambda d: json.dumps({**d, "clusters": 5})),
        ("skips.jsonl", lambda d: json.dumps({**d, "clusters": [["x"]]})),
        ("skips.jsonl", lambda d: json.dumps({**d, "skips": [[0, 1, 2]]})),
        ("skips.jsonl", lambda d: json.dumps({**d, "clusters": d["clusters"] + [[]]})),
    ], ids=["manifest-int", "manifest-list", "manifest-embedding_file-int",
            "manifest-n-string", "manifest-n-zero", "manifest-n-negative", "skips-int",
            "skips-list", "skips-clusters-int", "skips-member-string", "skips-triple",
            "skips-empty-cluster"])
    def test_wrongly_typed_line_names_file_and_line(self, tmp_path, capsys, target, edit):
        corpus = make_corpus(tmp_path, stories=6)
        detect(tmp_path, corpus)
        victim = corpus / target
        lines = victim.read_text().splitlines()
        victim.write_text("\n".join([edit(json.loads(lines[0]))] + lines[1:]) + "\n")
        code = run(["train", "--manifest", str(corpus / "manifest.jsonl"),
                    "--skips", str(corpus / "skips.jsonl"), "--out", str(tmp_path / "m.bin"),
                    "--epochs", "1", "--negatives", "3", "--hidden", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(victim) in err and "line 1:" in err

    def test_infeasible_synth_config(self, tmp_path, capsys):
        code = run(["synth", "--out", str(tmp_path / "c"), "--dim", "4",
                    "--pool", "9"])
        assert code == 2
        assert "embed_dim" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small corpus, its detected skips and a model trained on them."""
    tmp = tmp_path_factory.mktemp("trained")
    corpus = make_corpus(tmp, stories=6)
    skips = detect(tmp, corpus)
    return SimpleNamespace(manifest=str(corpus / "manifest.jsonl"), skips=str(skips),
                           model=train_model(tmp, corpus, skips))


def eval_argv(t, model, report):
    return ["eval", "--manifest", t.manifest, "--skips", t.skips, "--model", str(model),
            "--report", str(report)]


def _not_utf8(path):
    path.write_bytes(b"\xff\xfe" + "k = v\n".encode("utf-16-le"))
    return path


def _sidecar_case(make):
    """eval with a copy of the trained model whose sidecar ``make`` creates."""
    def case(t, d):
        model = d / "model.bin"
        model.write_bytes(Path(t.model).read_bytes())
        return eval_argv(t, model, d / "r.json"), make(d / "model.bin.json")
    return case


def _directory(path):
    path.mkdir()
    return path


def _regular_file(path):
    path.write_text("")
    return path


# each case: (trained fixture, empty tmp_path) -> (argv, the path the error must name)
FILE_BOUNDARY_CASES = {
    "manifest-not-utf8": lambda t, d: (
        ["detect-skips", "--manifest", str(_not_utf8(d / "m.jsonl")), "--out", str(d / "s")],
        d / "m.jsonl"),
    "skips-not-utf8": lambda t, d: (
        ["train", "--manifest", t.manifest, "--skips", str(_not_utf8(d / "s.jsonl")),
         "--out", str(d / "m.bin")], d / "s.jsonl"),
    "config-not-utf8": lambda t, d: (
        ["synth", "--out", str(d / "c"), "--config", str(_not_utf8(d / "run.cfg"))],
        d / "run.cfg"),
    "sidecar-not-utf8": _sidecar_case(_not_utf8),
    "config-directory": lambda t, d: (
        ["synth", "--out", str(d / "c"), "--config", str(_directory(d / "cfg"))], d / "cfg"),
    "sidecar-directory": _sidecar_case(_directory),
    "detect-out-missing-dir": lambda t, d: (
        ["detect-skips", "--manifest", t.manifest, "--out", str(d / "no" / "s.jsonl")],
        d / "no" / "s.jsonl"),
    "detect-out-directory": lambda t, d: (
        ["detect-skips", "--manifest", t.manifest, "--out", str(d)], d),
    "eval-report-directory": lambda t, d: (eval_argv(t, t.model, d), d),
    "train-log-missing-dir": lambda t, d: (
        ["train", "--manifest", t.manifest, "--skips", t.skips, "--out", str(d / "m.bin"),
         "--log", str(d / "no" / "log.jsonl")], d / "no"),
    "synth-out-file": lambda t, d: (
        ["synth", "--out", str(_regular_file(d / "c")), "--stories", "6"], d / "c"),
}

# each case: (trained fixture, empty tmp_path) -> (argv with one output in a
# missing directory, the summary line a finished run prints)
MISSING_OUTPUT_DIR_CASES = {
    "detect-skips --out": lambda t, d: (
        ["detect-skips", "--manifest", t.manifest, "--out", str(d / "no" / "s.jsonl")],
        "detected skip structures"),
    "train --out": lambda t, d: (
        ["train", "--manifest", t.manifest, "--skips", t.skips,
         "--out", str(d / "no" / "m.bin"), "--epochs", "1"], "trained"),
    "train --log": lambda t, d: (
        ["train", "--manifest", t.manifest, "--skips", t.skips, "--out", str(d / "m.bin"),
         "--log", str(d / "no" / "log.jsonl"), "--epochs", "1"], "trained"),
    "eval --report": lambda t, d: (eval_argv(t, t.model, d / "no" / "r.json"), "report ->"),
}


class TestFileBoundary:
    @pytest.mark.parametrize("case", FILE_BOUNDARY_CASES)
    def test_unusable_path_exits_2_naming_it(self, trained, tmp_path, capsys, case):
        argv, path = FILE_BOUNDARY_CASES[case](trained, tmp_path)
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and str(path) in errors[0]
        assert "Traceback" not in err

    def test_train_checks_its_output_directory_first(self, trained, tmp_path, capsys):
        out = tmp_path / "nodir" / "m.bin"
        assert run(["train", "--manifest", trained.manifest, "--skips", trained.skips,
                    "--out", str(out), "--epochs", "1"]) == 2
        captured = capsys.readouterr()
        assert "trained" not in captured.out
        assert f"--out {out}" in captured.err and not out.parent.exists()

    @pytest.mark.parametrize("case", MISSING_OUTPUT_DIR_CASES)
    def test_output_directory_checked_before_loading(self, trained, tmp_path, capsys,
                                                      monkeypatch, case):
        argv, summary = MISSING_OUTPUT_DIR_CASES[case](trained, tmp_path)

        def no_loading(*args):
            raise AssertionError("the manifest was loaded before the output was checked")

        monkeypatch.setattr(bmrnn.cli, "load_manifest", no_loading)
        capsys.readouterr()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert summary not in captured.out
        assert f"{tmp_path / 'no'}" in captured.err and "no such directory" in captured.err

    def test_eval_names_a_model_of_other_dimensions(self, trained, tmp_path, capsys):
        model = tmp_path / "m.bin"
        save_model(model, init_bmrnn_params(8, 4, 16, SeededRng(0)))
        assert run(eval_argv(trained, model, tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert str(model) in err and "model is 8 -> 16 dims, the corpus 16 -> 16" in err
        assert not (tmp_path / "r.json").exists()


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


    @pytest.mark.parametrize("alpha, mode", [
        ([1], "aligned"), (7, "aligned"), ("x", "aligned"), (True, "aligned"), (0.5, "diagonal"),
    ], ids=["alpha-list", "alpha-7", "alpha-string", "alpha-bool", "mode-unknown"])
    def test_bad_sidecar_value_is_a_data_error(self, tmp_path, capsys, alpha, mode):
        corpus = make_corpus(tmp_path, stories=6)
        skips = detect(tmp_path, corpus)
        model = train_model(tmp_path, corpus, skips)
        sidecar = tmp_path / "model.bin.json"
        snapshot = json.loads(sidecar.read_text())
        snapshot["config"]["compatibility"].update(alpha=alpha, local_term_mode=mode)
        sidecar.write_text(json.dumps(snapshot))
        capsys.readouterr()
        assert run(self.eval_args(tmp_path, corpus, skips, model)) == 2
        err = capsys.readouterr().err
        assert str(sidecar) in err and "usage error" not in err


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

    @pytest.mark.parametrize("line, message", [
        ("max_iter = 2.5", "argument --max-iter: invalid int value: '2.5'"),
        ("damping = nan", "argument --damping: expected a finite number, got 'nan'"),
        ("normalize = yes", "normalize must be true or false"),
    ])
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"window = 10\n{line}\n")
        assert run(["detect-skips", "--manifest", "m", "--out", "o", "--config", str(cfg)]) == 1
        assert f"{cfg}:2: {message}" in capsys.readouterr().err

    def test_value_outside_choices(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("local_mode = fancy\n")
        assert run(["eval", "--manifest", "m", "--skips", "s", "--model", "m.bin",
                    "--report", "r", "--config", str(cfg)]) == 1
        assert f"{cfg}:1: argument --local-mode: invalid choice: 'fancy'" in \
            capsys.readouterr().err

    def test_value_parsed_by_the_flags_type(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preference = -3\n")
        _, opts = _resolve(["detect-skips", "--manifest", "m", "--out", "o", "--config", str(cfg)])
        assert opts["preference"] == -3.0 and isinstance(opts["preference"], float)

    def test_resolved_config_always_logged(self, tmp_path, capsys):
        assert run(["gradcheck", "--configs", "1"]) == 0
        assert "resolved config [gradcheck]" in capsys.readouterr().err


def optional_flags():
    """(argv of a subcommand with its required flags, action) for every
    optional flag of every subcommand."""
    _, commands = _build_parser()
    cases = []
    for name, sub in commands.items():
        base = [name, *(arg for a in sub._actions if a.required
                        for arg in (a.option_strings[0], "x"))]
        cases += [(base, a) for a in sub._actions if a.option_strings and not a.required
                  and a.dest not in ("help", "config")]
    return cases


@pytest.mark.parametrize("base, action", optional_flags(),
                         ids=lambda x: x[0] if isinstance(x, list) else x.option_strings[0])
def test_config_key_resolves_like_its_flag(tmp_path, base, action):
    """A config key reads its value as its flag does; the value is not the
    default, so the key demonstrably took effect."""
    if action.nargs == 0:
        value, flag = "true", [action.option_strings[0]]
    else:
        value = next(c for c in action.choices if c != action.default) if action.choices else "3"
        flag = [action.option_strings[0], value]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{action.dest} = {value}\n")
    _, by_flag = _resolve([*base, *flag])
    _, by_file = _resolve([*base, "--config", str(cfg)])
    assert by_file == by_flag and by_file != _resolve(base)[1]
    assert type(by_file[action.dest]) is type(by_flag[action.dest])


class TestDetectSkipsStacks:
    """``detect-skips`` clusters each story length as one stack, or as several
    when a group exceeds ``AP_STACK_ENTRIES``; neither changes a byte."""

    def test_records_in_manifest_order_as_if_clustered_one_by_one(self, tmp_path):
        manifest = write_mixed_corpus(tmp_path / "c", lengths=(1, 3, 5, 8), per_length=3)
        out = tmp_path / "skips.jsonl"
        assert run(["detect-skips", "--manifest", str(manifest), "--out", str(out)]) == 0
        records = load_manifest(manifest).records
        want = []
        for rec in records:
            if rec.N == 1:
                want.append(SkipRecord(rec.story_id, [[0]], [], True))
                continue
            a = affinity_propagation(similarity(rec.story.raw_fc))
            want.append(SkipRecord(rec.story_id, sorted(sorted(c) for c in a.clusters),
                                   list(build_skip_matrix(a).pairs), a.converged))
        write_skips(tmp_path / "want.jsonl", want)
        assert out.read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_group_split_into_bounded_stacks(self, tmp_path, monkeypatch):
        manifest = write_mixed_corpus(tmp_path / "c", lengths=(1, 3, 5, 8), per_length=4)
        one = tmp_path / "one.jsonl"
        assert run(["detect-skips", "--manifest", str(manifest), "--out", str(one)]) == 0
        stacks = []

        def recorded(sim, **kwargs):
            stacks.append(sim.s.shape)
            return affinity_propagation(sim, **kwargs)
        monkeypatch.setattr(bmrnn.cli, "affinity_propagation", recorded)
        monkeypatch.setattr(bmrnn.cli, "AP_STACK_ENTRIES", 64)
        split = tmp_path / "split.jsonl"
        assert run(["detect-skips", "--manifest", str(manifest), "--out", str(split)]) == 0
        # 64 entries hold 7 stories of length 3, 2 of length 5 and 1 of length 8
        assert sorted(stacks) == sorted([(4, 3, 3), (2, 5, 5), (2, 5, 5)] + [(1, 8, 8)] * 4)
        assert split.read_bytes() == one.read_bytes()

    def test_two_photo_stories_are_one_cluster_unless_a_preference_is_given(
            self, tmp_path, monkeypatch):
        manifest = write_mixed_corpus(tmp_path / "c", lengths=(2, 3), per_length=3)
        two = [rec for rec in load_manifest(manifest).records if rec.N == 2]
        for rec in two:
            # AP at the default preference ties the two points: one cluster, unconverged
            a = affinity_propagation(similarity(rec.story.raw_fc))
            assert (a.clusters, a.converged) == ([[0, 1]], False)
        stacks = []

        def recorded(sim, **kwargs):
            stacks.append(sim.s.shape)
            return affinity_propagation(sim, **kwargs)
        monkeypatch.setattr(bmrnn.cli, "affinity_propagation", recorded)
        out = tmp_path / "skips.jsonl"
        assert run(["detect-skips", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert stacks == [(3, 3, 3)]     # the 2-photo stories never reach AP
        for rec in two:
            r = load_skips(out)[rec.story_id]
            assert (r.clusters, r.pairs, r.converged) == ([[0, 1]], [(0, 1)], True)

        # an explicit preference clusters them; one this high makes singletons
        stacks.clear()
        assert run(["detect-skips", "--manifest", str(manifest), "--out", str(out),
                    "--preference", "1e6"]) == 0
        assert sorted(stacks) == [(3, 2, 2), (3, 3, 3)]
        for rec in two:
            r = load_skips(out)[rec.story_id]
            assert (r.clusters, r.pairs, r.converged) == ([[0], [1]], [], True)


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


@st.composite
def random_corpora(draw):
    """A small corpus: 2-11 stories of 1-9 steps, feature, embedding and
    sentence widths 1-5, one value scale in 1e-3..1e3, rows that repeat the
    one before or are all zero, and random splits."""
    lengths = draw(st.lists(st.integers(1, 9), min_size=2, max_size=11))
    splits = draw(st.lists(st.sampled_from(["train", "val", "test"]),
                           min_size=len(lengths), max_size=len(lengths)))
    dims = draw(st.tuples(*[st.integers(1, 5)] * 3))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records, skips = [], {}
    for i, (n, split) in enumerate(zip(lengths, splits)):
        sid = f"s{i:02d}"
        feat, emb, sent = (scale * rng.normal(size=(n, d)) for d in dims)
        for t in range(n):
            kind = draw(st.sampled_from(["random", "random", "repeat", "zero"]))
            for a in (feat, emb, sent):
                if kind == "zero":
                    a[t] = 0.0
                elif kind == "repeat" and t > 0:
                    a[t] = a[t - 1]
        records.append(StoryRecord(sid, split, StoryStream(sid, emb, feat),
                                   SentenceSequence(sid, sent)))
        skips[sid] = SkipRecord(sid, [[t] for t in range(n)], [], True, planted=True)
    return SynthCorpus(records=records, skips=skips, config=None)


class TestRandomCorpora:
    @staticmethod
    def check(argv, capsys, out_dir) -> int:
        """Run one stage: it succeeds, or it exits 2 naming a file of this run."""
        code = run(argv)
        err = capsys.readouterr().err
        if code != 0:
            assert code == 2, err
            assert re.search(rf"\(file: {re.escape(str(out_dir))}", err), err
        return code

    @pytest.mark.filterwarnings("ignore:only .* candidate negatives")
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(corpus=random_corpora())
    def test_every_stage_exits_0_or_2_naming_a_file(self, corpus, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("random_corpus")
        manifest, skips, model = write_corpus(corpus, out), out / "skips.jsonl", out / "m.bin"
        if self.check(["detect-skips", "--manifest", str(manifest), "--out", str(skips)],
                      capsys, out):
            return
        if self.check(["train", "--manifest", str(manifest), "--skips", str(skips),
                       "--out", str(model), "--epochs", "1"], capsys, out):
            return
        for split in ("train", "val", "test"):
            self.check(["eval", "--manifest", str(manifest), "--skips", str(skips),
                        "--model", str(model), "--split", split,
                        "--report", str(out / f"{split}.json")], capsys, out)
