"""Acceptance gate: eight end-to-end properties with pinned tolerances.

Each test is one criterion; its pytest pass/fail line is the verdict.  Every
test also prints the measured quantities so the numbers are visible in
verbose runs.
"""

import itertools
import json
import time

import numpy as np
import pytest

from test_cells import skip_sensitivity
from test_skipdetect import net_similarity, two_blob_instance

from bmrnn.cells import gru_forward
from bmrnn.cli import run
from bmrnn.data import SkipRecord, SynthConfig, generate_synthetic
from bmrnn.evaluation import evaluate, rank_of_truth, summarize_ranks
from bmrnn.network import (
    StoryGroup,
    bmrnn_forward,
    init_bmrnn_params,
    load_model,
    save_model,
)
from bmrnn.numeric import SeededRng, Sequence
from bmrnn.objective import CompatibilityConfig
from bmrnn.skips import SkipMatrix, affinity_propagation, build_skip_matrix, similarity
from bmrnn.training import TrainConfig, grad_check, train


def test_1_reduction_equivalence():
    """Empty skip structure reduces to a plain bidirectional GRU, exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 7))
        input_dim = int(rng.integers(1, 6))
        hidden = int(rng.integers(1, 7))
        out_dim = int(rng.integers(1, 6))
        params = init_bmrnn_params(input_dim, hidden, out_dim, SeededRng(trial))
        xs = [rng.normal(size=input_dim) for _ in range(n)]
        story = Sequence(story_id=f"s{trial}", rows=xs)

        merged = bmrnn_forward(
            params, StoryGroup.of([story], [SkipMatrix(n=n, pairs=())])).merged[0]

        # oracle: run the underlying gated cells directly, no skip wiring
        h = np.zeros(hidden)
        fwd = []
        for t in range(n):
            h = gru_forward(params.fwd.base, xs[t], h).h
            fwd.append(h)
        h = np.zeros(hidden)
        bwd = [None] * n
        for t in range(n - 1, -1, -1):
            h = gru_forward(params.bwd.base, xs[t], h).h
            bwd[t] = h
        plain = [
            params.merge_f @ fwd[t] + params.merge_b @ bwd[t] + params.b_merge
            for t in range(n)
        ]
        worst = max(
            worst,
            max(float(np.max(np.abs(a - b))) for a, b in zip(merged, plain)),
        )
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: max abs diff {worst} over 100 configs in {elapsed:.2f}s")
    assert worst == 0.0
    assert elapsed < 5.0


def test_2_gradient_correctness():
    """Analytic gradients of the full loss match central finite differences."""
    t0 = time.perf_counter()
    report = grad_check(seed=0, n_configs=20, eps=1e-5)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 2: max rel err {report.max_rel_err:.3e} over "
        f"{report.n_configs} networks in {elapsed:.1f}s"
    )
    assert report.max_rel_err < 1e-5, report.to_text_table()
    assert elapsed < 60.0


def test_3_skip_structure_recovery():
    """The detector recovers planted skip pairs on the default corpus."""
    t0 = time.perf_counter()
    corpus = generate_synthetic(SynthConfig(num_stories=200, seed=0))
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
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 3: precision {precision:.3f} recall {recall:.3f} "
        f"on 200 stories in {elapsed:.1f}s"
    )
    assert precision >= 0.90
    assert recall >= 0.90
    assert elapsed < 30.0


def test_4_ablation_direction():
    """Skip wiring earns >= 5 Recall@1 points over the same net without it."""
    t0 = time.perf_counter()
    corpus = generate_synthetic(SynthConfig(seed=0, scene_pool_size=4))
    tr = [r for r in corpus.records if r.split == "train"]
    va = [r for r in corpus.records if r.split == "val"]
    te = [r for r in corpus.records if r.split == "test"]
    no_skip = {
        sid: SkipRecord(sid, rec.clusters, [], rec.converged, rec.planted)
        for sid, rec in corpus.skips.items()
    }
    ccfg = CompatibilityConfig()
    margins = []
    for seed in (1, 2, 3):
        recall1 = {}
        for name, skips in (("with-skips", corpus.skips), ("no-skips", no_skip)):
            cfg = TrainConfig(epochs=25, seed=seed, update_merge_bias=False)
            ckpt = train(tr, va, skips, cfg, ccfg, hidden_dim=12)
            recall1[name] = evaluate(ckpt.params, te, skips, ccfg).recall_at[1]
        margins.append(recall1["with-skips"] - recall1["no-skips"])
    avg_margin = sum(margins) / len(margins)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 4: Recall@1 margins {margins}, average {avg_margin:.2f} "
        f"points in {elapsed:.0f}s"
    )
    assert avg_margin >= 5.0, margins
    assert elapsed < 600.0


def test_5_preservation_property():
    """Skip edge restores sensitivity erased by an adversarial reset."""
    wins = sum(
        1 for seed in range(50) if skip_sensitivity(seed)[0] > skip_sensitivity(seed)[1]
    )
    print(f"criterion 5: skip-enabled sensitivity larger in {wins}/50 seeds")
    assert wins >= 45


def test_6_clustering_sanity():
    """Two-blob instances: planted partition recovered, near-optimal net
    similarity."""
    t0 = time.perf_counter()
    matches = 0
    for seed in range(100):
        pts, order = two_blob_instance(seed, n=8)
        sim = similarity(pts)
        assignment = affinity_propagation(sim)
        found = {frozenset(c) for c in assignment.clusters}
        planted = {
            frozenset(i for i, b in enumerate(order) if b == 0),
            frozenset(i for i, b in enumerate(order) if b == 1),
        }
        matches += found == planted

        off = sim.s[~np.eye(sim.n, dtype=bool)]
        pref = float(np.median(off))
        mine = net_similarity(sim.s, pref, set(assignment.exemplars))
        best = max(
            net_similarity(sim.s, pref, set(combo))
            for k in range(1, 9)
            for combo in itertools.combinations(range(8), k)
        )
        assert mine >= best - 0.05 * abs(best), (seed, mine, best)
    elapsed = time.perf_counter() - t0
    print(f"criterion 6: partition match {matches}/100, all trials within 5% "
          f"of exhaustive optimum, in {elapsed:.1f}s")
    assert matches >= 95
    assert elapsed < 10.0


def test_7_metric_correctness():
    """Hand-computed rank fixture exact; random scorer matches uniform
    expectation."""
    report = summarize_ranks([("a", 1), ("b", 3), ("c", 11)], pool_size=11)
    assert round(report.recall_at[1], 2) == 33.33
    assert round(report.recall_at[5], 2) == 66.67
    assert round(report.recall_at[10], 2) == 66.67
    assert report.median_rank == 3.0

    pool_size = 21
    rng = np.random.default_rng(7)
    ids = [f"c{i:02d}" for i in range(pool_size)]
    ranks = [
        (f"t{trial}", rank_of_truth(dict(zip(ids, rng.normal(size=pool_size))), ids[0]))
        for trial in range(1000)
    ]
    medr = summarize_ranks(ranks, pool_size=pool_size).median_rank
    expected = (pool_size + 1) / 2
    print(f"criterion 7: fixture exact; Monte-Carlo Medr {medr} vs {expected}")
    assert abs(medr - expected) <= 0.1 * expected


def test_8_determinism_and_round_trip(tmp_path):
    """Same-seed pipeline twice: byte-identical models and reports;
    save/load/save byte-identical."""
    outputs = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        corpus = base / "corpus"
        assert run(["synth", "--out", str(corpus), "--stories", "24",
                    "--seed", "9"]) == 0
        skips = base / "skips.jsonl"
        assert run(["detect-skips", "--manifest", str(corpus / "manifest.jsonl"),
                    "--out", str(skips)]) == 0
        model = base / "model.bin"
        assert run(["train", "--manifest", str(corpus / "manifest.jsonl"),
                    "--skips", str(skips), "--out", str(model),
                    "--epochs", "3", "--negatives", "7", "--hidden", "6",
                    "--seed", "13"]) == 0
        report = base / "report.json"
        assert run(["eval", "--manifest", str(corpus / "manifest.jsonl"),
                    "--skips", str(skips), "--model", str(model),
                    "--report", str(report)]) == 0
        outputs.append((model.read_bytes(), report.read_bytes()))

    assert outputs[0][0] == outputs[1][0], "model files differ between runs"
    assert outputs[0][1] == outputs[1][1], "reports differ between runs"

    model_path = tmp_path / "one" / "model.bin"
    resaved = tmp_path / "resaved.bin"
    save_model(resaved, load_model(model_path))
    assert resaved.read_bytes() == model_path.read_bytes()
    print("criterion 8: byte-identical models, reports, and save/load/save")
