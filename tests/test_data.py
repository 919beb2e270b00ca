"""Tensor file format, manifest loading, skip-record IO, and the synthetic
story generator."""

import json
import struct

import numpy as np
import numpy.testing as npt
import pytest

from bmrnn.data import (
    BMT1_MAGIC,
    SkipRecord,
    SynthConfig,
    generate_synthetic,
    load_manifest,
    load_skips,
    read_tensor,
    write_corpus,
    write_skips,
    write_tensor,
)
from bmrnn.errors import ConfigError, DataError
from bmrnn.network import StoryGroup, bmrnn_backward, bmrnn_forward, init_bmrnn_params
from bmrnn.numeric import SeededRng
from bmrnn.objective import CompatibilityConfig, SequenceStack, contrastive_loss
from bmrnn.skips import affinity_propagation, build_skip_matrix, similarity


class TestTensorFile:
    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 2)])
    def test_round_trip_is_float32_exact(self, tmp_path, shape):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=shape)
        path = tmp_path / "t.bmt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float64
        npt.assert_array_equal(back, arr.astype(np.float32).astype(np.float64))

    def test_byte_layout(self, tmp_path):
        path = tmp_path / "t.bmt"
        write_tensor(path, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        raw = path.read_bytes()
        assert raw[:4] == BMT1_MAGIC
        assert struct.unpack_from("<I", raw, 4) == (2,)
        assert struct.unpack_from("<II", raw, 8) == (2, 3)
        floats = struct.unpack_from("<6f", raw, 16)
        assert floats == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert len(raw) == 16 + 24

    def test_missing_file_names_path_and_story(self, tmp_path):
        missing = tmp_path / "nope.bmt"
        with pytest.raises(DataError, match="nope.bmt"):
            read_tensor(missing)
        with pytest.raises(DataError, match="story_42"):
            read_tensor(missing, story_id="story_42")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.bmt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.bmt"
        write_tensor(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(DataError, match="truncated"):
            read_tensor(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "t.bmt"
        write_tensor(path, np.ones((2, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-2])
        with pytest.raises(DataError, match="expected 16"):
            read_tensor(path)
        path.write_bytes(raw + b"\x00\x00")
        with pytest.raises(DataError, match="expected 16"):
            read_tensor(path)

    def test_implausible_rank(self, tmp_path):
        path = tmp_path / "t.bmt"
        path.write_bytes(BMT1_MAGIC + struct.pack("<I", 99) + b"\x00" * 400)
        with pytest.raises(DataError, match="rank"):
            read_tensor(path)


class TestSkipRecordIO:
    def records(self):
        return [
            SkipRecord("a", [[0, 2], [1]], [(0, 2)], converged=True, planted=True),
            SkipRecord("b", [[0], [1], [2]], [], converged=False),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "skips.jsonl"
        write_skips(path, self.records())
        back = load_skips(path)
        assert set(back) == {"a", "b"}
        assert back["a"].pairs == [(0, 2)]
        assert back["a"].planted is True
        assert back["a"].converged is True
        assert back["b"].pairs == []
        assert back["b"].converged is False
        assert back["b"].planted is False

    def test_matrix_and_partition(self):
        rec = self.records()[0]
        assert rec.n == 3
        m = rec.matrix()
        assert m.ancestors.tolist() == [-1, -1, 0]
        part = rec.partition()
        assert sorted(map(sorted, part.groups)) == [[0, 2], [1]]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "skips.jsonl"
        write_skips(path, self.records())
        path.write_text("\n" + path.read_text().replace("\n", "\n  \n"))
        back = load_skips(path)
        assert set(back) == {"a", "b"} and back["a"].pairs == [(0, 2)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="skips.jsonl"):
            load_skips(tmp_path / "skips.jsonl")

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "skips.jsonl"
        path.write_text('{"story_id": "a"\n')
        with pytest.raises(DataError, match="line 1"):
            load_skips(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "skips.jsonl"
        path.write_text('{"story_id": "a", "clusters": [[0]]}\n')
        with pytest.raises(DataError, match="missing key"):
            load_skips(path)

    def test_clusters_must_partition(self, tmp_path):
        path = tmp_path / "skips.jsonl"
        rec = {"story_id": "a", "clusters": [[0, 3]], "skips": [], "converged": True}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(DataError, match="partition"):
            load_skips(path)

    def test_skips_must_chain_clusters(self, tmp_path):
        path = tmp_path / "skips.jsonl"
        good = {"story_id": "a", "clusters": [[0, 3], [1, 2, 4]],
                "skips": [[0, 3], [1, 2], [2, 4]], "converged": True}
        bad = dict(good, story_id="b", skips=[[0, 4]])
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataError, match="chains") as exc_info:
            load_skips(path)
        assert "line 2" in str(exc_info.value)
        assert str(path) in str(exc_info.value) and "story: b" in str(exc_info.value)

    def test_duplicate_story(self, tmp_path):
        path = tmp_path / "skips.jsonl"
        rec = {"story_id": "a", "clusters": [[0]], "skips": [], "converged": True}
        path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(DataError, match="duplicate"):
            load_skips(path)

    def test_only_the_requested_records_are_checked(self, tmp_path):
        path = tmp_path / "skips.jsonl"
        write_skips(path, self.records())
        bad = {"story_id": "c", "clusters": [[0, 3]], "skips": "none", "converged": 1}
        path.write_text(path.read_text() + json.dumps(bad) + "\n")
        back = load_skips(path, {"b": 3, "a": 3})
        assert list(back) == ["a", "b"] and back["a"].pairs == [(0, 2)]
        assert load_skips(path, {}) == {}
        with pytest.raises(DataError) as exc_info:
            load_skips(path, {"c": 4})
        assert str(exc_info.value) == (f'line 3: skips must be integer pairs, got "none" '
                                       f"(file: {path}, story: c)")

    @pytest.mark.parametrize("line, message", [
        ({"clusters": [[0]], "converged": True}, "missing keys story_id, skips"),
        ({"story_id": 7, "converged": True}, "missing keys clusters, skips"),
        ({"story_id": 7, "clusters": [[0]], "skips": [], "converged": True},
         "story_id must be a string, got 7"),
    ])
    def test_a_line_without_a_story_id_fails_whatever_is_requested(self, tmp_path, line,
                                                                    message):
        path = tmp_path / "skips.jsonl"
        write_skips(path, self.records())
        path.write_text(path.read_text() + json.dumps(line) + "\n")
        with pytest.raises(DataError) as exc_info:
            load_skips(path, {})
        assert str(exc_info.value) == f"line 3: {message} (file: {path})"

    @pytest.mark.parametrize("lengths, message, story", [
        ({"a": 3, "z": 2}, "no skip record for story", "z"),
        ({"b": 3, "a": 4}, "skip record covers 3 steps, the story has 4", "a"),
    ])
    def test_a_requested_story_needs_a_record_of_its_length(self, tmp_path, lengths, message,
                                                            story):
        path = tmp_path / "skips.jsonl"
        write_skips(path, self.records())
        with pytest.raises(DataError) as exc_info:
            load_skips(path, lengths)
        assert str(exc_info.value) == f"{message} (file: {path}, story: {story})"


class TestSynthConfig:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.story_len == 5
        assert cfg.num_scenes <= cfg.story_len

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_stories": 0},
            {"story_len": 0},
            {"num_scenes": 0},
            {"num_scenes": 6, "story_len": 5},
            {"scene_separation": 0.2, "noise_sigma": 0.3},
            {"scene_pool_size": 1, "num_scenes": 2},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)


    @pytest.mark.parametrize("noise", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_noise(self, noise):
        with pytest.raises(ConfigError, match="noise_sigma must be >= 0"):
            SynthConfig(noise_sigma=noise)


class TestGenerator:
    def test_split_sizes_and_shapes(self):
        corpus = generate_synthetic(SynthConfig(num_stories=300, seed=1))
        assert len(corpus.records) == 300
        splits = [r.split for r in corpus.records]
        assert splits.count("train") == 200
        assert splits.count("val") == 50
        assert splits.count("test") == 50
        ids = {r.story_id for r in corpus.records}
        assert len(ids) == 300
        for rec in corpus.records[:10]:
            assert rec.N == 5
            assert rec.story.rows[0].shape == (16,)
            assert rec.raw_fc[0].shape == (16,)
            assert rec.sentences.rows[0].shape == (16,)

    def test_planted_structure(self):
        cfg = SynthConfig(num_stories=50, seed=3)
        corpus = generate_synthetic(cfg)
        for rec in corpus.records:
            skip = corpus.skips[rec.story_id]
            assert skip.planted and skip.converged
            covered = sorted(i for c in skip.clusters for i in c)
            assert covered == list(range(cfg.story_len))
            assert len(skip.clusters) == cfg.num_scenes
            # every scene recurs (length budget allows >= 2 occurrences each)
            assert all(len(c) >= 2 for c in skip.clusters)
            expected_pairs = sorted(
                (a, b)
                for c in skip.clusters
                for a, b in zip(sorted(c), sorted(c)[1:])
            )
            assert skip.pairs == expected_pairs
            # the defining feature: at least one non-contiguous recurrence
            assert any(t - p >= 2 for p, t in skip.pairs)

    def test_single_scene_gives_chain(self):
        corpus = generate_synthetic(SynthConfig(num_stories=4, num_scenes=1, seed=0))
        for rec in corpus.records:
            assert corpus.skips[rec.story_id].pairs == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_scene_per_step_gives_no_skips(self):
        corpus = generate_synthetic(
            SynthConfig(num_stories=4, num_scenes=5, story_len=5, scene_pool_size=6, seed=0)
        )
        for rec in corpus.records:
            skip = corpus.skips[rec.story_id]
            assert skip.pairs == []
            assert sorted(map(len, skip.clusters)) == [1, 1, 1, 1, 1]

    def test_deterministic(self):
        a = generate_synthetic(SynthConfig(num_stories=6, seed=9))
        b = generate_synthetic(SynthConfig(num_stories=6, seed=9))
        c = generate_synthetic(SynthConfig(num_stories=6, seed=10))
        for ra, rb in zip(a.records, b.records):
            npt.assert_array_equal(np.stack(ra.story.rows), np.stack(rb.story.rows))
            npt.assert_array_equal(np.stack(ra.raw_fc), np.stack(rb.raw_fc))
            npt.assert_array_equal(np.stack(ra.sentences.rows), np.stack(rb.sentences.rows))
            assert a.skips[ra.story_id] == b.skips[rb.story_id]
        assert not np.array_equal(
            np.stack(a.records[0].story.rows), np.stack(c.records[0].story.rows)
        )

    def test_scene_centers_separated(self):
        cfg = SynthConfig(num_stories=20, seed=5)
        corpus = generate_synthetic(cfg)
        for rec in corpus.records:
            skip = corpus.skips[rec.story_id]
            means = [
                np.mean([rec.raw_fc[t] for t in c], axis=0) for c in skip.clusters
            ]
            for i in range(len(means)):
                for j in range(i + 1, len(means)):
                    assert np.linalg.norm(means[i] - means[j]) >= 0.8 * cfg.scene_separation

    def test_descendants_occluded_in_embedding_only(self):
        cfg = SynthConfig(num_stories=30, seed=11)
        corpus = generate_synthetic(cfg)
        occluded_x, visible_pairs = [], []
        for rec in corpus.records:
            skip = corpus.skips[rec.story_id]
            occ = {t for p, t in skip.pairs if t - p >= 2}
            assert occ, "every default story has a cross-skip"
            for t in range(rec.N):
                if t in occ:
                    occluded_x.append(rec.story.rows[t])
                    # features stay scene-like even where the embedding is occluded
                    anc = next(p for p, q in skip.pairs if q == t)
                    assert (
                        rec.raw_fc[t] @ rec.raw_fc[anc]
                        > 0.5 * cfg.scene_separation**2
                    )
                else:
                    visible_pairs.append((rec.raw_fc[t], rec.story.rows[t]))
        # all occluded embeddings approximate one shared gap vector
        occluded_x = np.stack(occluded_x)
        spread = np.linalg.norm(occluded_x - occluded_x.mean(axis=0), axis=1)
        assert spread.max() < 6 * cfg.noise_sigma * np.sqrt(cfg.embed_dim)
        # visible embeddings track the scene feature instead
        for fc, x in visible_pairs[:50]:
            assert np.linalg.norm(x - fc) < 6 * cfg.noise_sigma * np.sqrt(cfg.embed_dim)

    def test_infeasible_separation_suggests_larger_dim(self):
        with pytest.raises(DataError, match="embed_dim"):
            generate_synthetic(
                SynthConfig(num_stories=2, embed_dim=4, scene_pool_size=6, seed=0)
            )

    def test_detector_recovers_planted_skips(self):
        corpus = generate_synthetic(SynthConfig(num_stories=100, seed=2))
        tp = fp = fn = 0
        for rec in corpus.records:
            sim = similarity(rec.raw_fc)
            detected = set(build_skip_matrix(affinity_propagation(sim)).pairs)
            truth = set(corpus.skips[rec.story_id].pairs)
            tp += len(detected & truth)
            fp += len(detected - truth)
            fn += len(truth - detected)
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        assert precision >= 0.9
        assert recall >= 0.9


class TestCorpusIO:
    def small_corpus(self, tmp_path, n=6, seed=4):
        corpus = generate_synthetic(SynthConfig(num_stories=n, seed=seed))
        manifest = write_corpus(corpus, tmp_path / "corpus")
        return corpus, manifest

    def test_round_trip(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        loaded = load_manifest(manifest)
        assert [r.story_id for r in loaded] == [r.story_id for r in corpus.records]
        for orig, back in zip(corpus.records, loaded):
            assert back.split == orig.split
            assert back.N == orig.N
            npt.assert_array_equal(
                np.stack(back.story.rows),
                np.stack(orig.story.rows).astype(np.float32).astype(np.float64),
            )
            npt.assert_array_equal(
                np.stack(back.raw_fc),
                np.stack(orig.raw_fc).astype(np.float32).astype(np.float64),
            )
            npt.assert_array_equal(
                np.stack(back.sentences.rows),
                np.stack(orig.sentences.rows).astype(np.float32).astype(np.float64),
            )

    def test_sequences_are_arrays_end_to_end(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        loaded = load_manifest(manifest)
        skips = load_skips(manifest.parent / "planted_skips.jsonl")
        rec, other = loaded[:2]

        def assert_rows(a, n, d):
            assert isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (n, d)

        for a in (rec.story.rows, rec.raw_fc, rec.sentences.rows):
            assert_rows(a, rec.N, 16)
        params = init_bmrnn_params(16, 6, 16, SeededRng(0))
        skip = skips[rec.story_id]
        group = StoryGroup.of([rec.story], [skip.matrix()])
        trace = bmrnn_forward(params, group)
        assert_rows(trace.merged[0], rec.N, 16)
        neg_h = bmrnn_forward(
            params, StoryGroup.of([other.story], [skips[other.story_id].matrix()])).merged[0]
        res = contrastive_loss(trace.merged[0], rec.sentences, SequenceStack.of([other.sentences]),
                               SequenceStack.of([neg_h]), skip.partition(),
                               CompatibilityConfig(negatives_per_positive=1))
        assert_rows(res.dH, rec.N, 16)
        _, dX = bmrnn_backward(params, group, trace, res.dH[None])
        assert_rows(dX[0], rec.N, 16)

    def test_planted_skips_written(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        skips = load_skips(manifest.parent / "planted_skips.jsonl")
        assert set(skips) == set(corpus.skips)
        for sid, rec in skips.items():
            assert rec.pairs == corpus.skips[sid].pairs
            assert rec.planted

    def test_blank_lines_skipped(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        manifest.write_text("\n" + manifest.read_text().replace("\n", "\n \t\n"))
        loaded = load_manifest(manifest)
        assert [r.story_id for r in loaded] == [r.story_id for r in corpus.records]

    @pytest.mark.parametrize("splits", [("train",), ("val",), ("test",), ("train", "val"),
                                        ("test", "train"), ()])
    def test_split_load_is_the_full_load_filtered(self, tmp_path, splits):
        _, manifest = self.small_corpus(tmp_path, n=12)
        want = [r for r in load_manifest(manifest) if r.split in splits]
        got = load_manifest(manifest, splits)
        assert [r.story_id for r in got] == [r.story_id for r in want]
        for a, b in zip(got, want):
            assert a.split == b.split and a.N == b.N
            for x, y in ((a.story.rows, b.story.rows), (a.raw_fc, b.raw_fc),
                         (a.sentences.rows, b.sentences.rows)):
                npt.assert_array_equal(x, y)

    @pytest.mark.parametrize("kinds", [("feature_file",), ("embedding_file", "sentence_file"),
                                       ("embedding_file",)])
    def test_kind_load_is_the_full_load_without_the_others(self, tmp_path, kinds):
        _, manifest = self.small_corpus(tmp_path, n=12)
        want = load_manifest(manifest, ("train", "test"))
        got = load_manifest(manifest, ("train", "test"), kinds=kinds)
        assert [(r.story_id, r.split, r.N) for r in got] == [
            (r.story_id, r.split, r.N) for r in want]
        for a, b in zip(got, want):
            for key, x, y in (("feature_file", a.raw_fc, b.raw_fc),
                              ("embedding_file", a.story and a.story.rows, b.story.rows),
                              ("sentence_file", a.sentences and a.sentences.rows, b.sentences.rows)):
                if key in kinds:
                    npt.assert_array_equal(x, y)
                else:
                    assert x is None

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest.jsonl"):
            load_manifest(tmp_path / "manifest.jsonl")

    def test_missing_tensor_names_path_and_story(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        victim = corpus.records[2].story_id
        (manifest.parent / "tensors" / f"{victim}.emb.bmt").unlink()
        with pytest.raises(DataError, match=victim):
            load_manifest(manifest)
        with pytest.raises(DataError, match=f"{victim}.emb.bmt"):
            load_manifest(manifest)

    def test_step_count_mismatch(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        lines = manifest.read_text().splitlines()
        entry = json.loads(lines[0])
        entry["n"] = 7
        lines[0] = json.dumps(entry)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="declares 7"):
            load_manifest(manifest)

    def test_bad_split(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        lines = manifest.read_text().splitlines()
        entry = json.loads(lines[0])
        entry["split"] = "dev"
        lines[0] = json.dumps(entry)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="split"):
            load_manifest(manifest)

    def test_missing_key(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        lines = manifest.read_text().splitlines()
        entry = json.loads(lines[0])
        del entry["sentence_file"]
        lines[0] = json.dumps(entry)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="sentence_file"):
            load_manifest(manifest)

    def test_invalid_json(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        manifest.write_text("not json\n")
        with pytest.raises(DataError, match="line 1"):
            load_manifest(manifest)

    def test_inconsistent_dims_across_stories(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        victim = corpus.records[3]
        write_tensor(
            manifest.parent / "tensors" / f"{victim.story_id}.sent.bmt",
            np.ones((victim.N, 9)),
        )
        with pytest.raises(DataError, match="differs"):
            load_manifest(manifest)

    def test_duplicate_story_id(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + [lines[0]]) + "\n")
        with pytest.raises(DataError, match="duplicate"):
            load_manifest(manifest)

    def test_duplicate_story_id_names_file_and_line(self, tmp_path):
        corpus, manifest = self.small_corpus(tmp_path)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + [lines[1]]) + "\n")
        dup = rf"line {len(lines) + 1}: duplicate story_id .* \(first on line 2\)"
        with pytest.raises(DataError, match=dup) as e:
            load_manifest(manifest)
        assert str(manifest) in str(e.value)
