"""The benchmark's span tracer wraps program functions by module attribute
(``bench/spans.py`` ``TARGETS``), reads notes from their arguments and
results (``NOTES``) and divides per-layer times by their call counts.  These
checks catch a renamed target, a note that no longer applies, a divisor
that would be zero, a sweep that no longer calls the per-step cell
functions, a ``detect-skips`` that no longer clusters each story length in
one call, or scoring that no longer goes through the traced compatibility
functions, without running the traced benchmark."""

import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np

import bmrnn.cli
import bmrnn.evaluation
import bmrnn.network
import bmrnn.objective
import bmrnn.training
from bmrnn.data import SynthConfig, generate_synthetic
from bmrnn.network import (
    StoryGroup,
    bmrnn_backward,
    bmrnn_forward,
    init_bmrnn_params,
)
from bmrnn.numeric import SeededRng, Sequence
from bmrnn.objective import CompatibilityConfig
from bmrnn.skips import SkipMatrix
from bmrnn.training import TrainConfig, train
from mixed_corpus import mixed_corpus, write_mixed_corpus

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_attribute_exists():
    for module, attr, span in load_spans().TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_each_sweep_calls_the_cell_once_per_step(monkeypatch):
    calls = {"sgru_forward": 0, "sgru_backward": 0}
    for name in calls:
        fn = getattr(bmrnn.network, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bmrnn.network, name, counted)
    n = 7
    p = init_bmrnn_params(3, 4, 2, SeededRng(0))
    rng = np.random.default_rng(0)
    story = Sequence(story_id="s", rows=rng.normal(size=(n, 3)))
    sk = SkipMatrix(n=n, pairs=((0, 3), (1, 5), (3, 6)))
    group = StoryGroup.of([story], [sk])
    trace = bmrnn_forward(p, group)
    bmrnn_backward(p, group, trace, np.ones((1, n, 2)))
    # one call steps both directions
    assert calls == {"sgru_forward": n, "sgru_backward": n}

    # a group of B stories of length n steps them together: still n calls each way
    calls.update(sgru_forward=0, sgru_backward=0)
    stories = [Sequence(story_id=f"s{b}", rows=rng.normal(size=(n, 3))) for b in range(5)]
    group = StoryGroup.of(stories, [sk, SkipMatrix(n=n, pairs=())] * 2 + [sk])
    trace = bmrnn_forward(p, group)
    bmrnn_backward(p, group, trace, np.ones((5, n, 2)))
    assert calls == {"sgru_forward": n, "sgru_backward": n}

    # stories of lengths 2, 7 and 4 take the 7 visits of the longest: 7 calls each way
    calls.update(sgru_forward=0, sgru_backward=0)
    stories = [Sequence(story_id=f"p{m}", rows=rng.normal(size=(m, 3))) for m in (2, 7, 4)]
    group = StoryGroup.of(stories, [SkipMatrix(n=2, pairs=((0, 1),)), sk,
                                    SkipMatrix(n=4, pairs=())])
    trace = bmrnn_forward(p, group)
    bmrnn_backward(p, group, trace, np.ones((3, n, 2)))
    assert calls == {"sgru_forward": n, "sgru_backward": n}


def test_every_note_applies_and_every_divisor_is_counted(monkeypatch):
    spans = load_spans()
    calls = defaultdict(list)      # span name -> [(enclosing span name, note)]
    stack = []
    for module, attr, name in spans.TARGETS:
        def recorded(*args, _fn=getattr(module, attr), _name=name, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(_name)
            try:
                result = _fn(*args, **kwargs)
            finally:
                stack.pop()
            note = spans.NOTES.get(_name)
            calls[_name].append((parent, note(args, result) if note else None))
            return result
        monkeypatch.setattr(module, attr, recorded)

    # four lengths taking turns: minibatches and the h' refresh hold groups
    # of several stories, and 1-step stories sweep too
    corpus = mixed_corpus(lengths=(1, 3, 4, 7), per_length=8)
    split = {s: [r for r in corpus.records if r.split == s] for s in ("train", "val", "test")}
    assert all(split.values())
    cfg = TrainConfig(epochs=2, seed=0)
    ckpt = bmrnn.cli.train(split["train"], split["val"], corpus.skips, cfg,
                           CompatibilityConfig(negatives_per_positive=5), hidden_dim=4)
    bmrnn.cli.evaluate(ckpt.params, split["test"], corpus.skips, CompatibilityConfig())

    def under(name, parent):
        return [note for p, note in calls[name] if p == parent]

    # the notes the per-layer metrics read
    for name in ("network.bmrnn_forward", "network.bmrnn_backward"):
        assert all(type(n) is int and n > 0 for _, n in calls[name]), name
    assert all(k == 5 for _, (_, _, k) in calls["objective.contrastive_loss"])
    assert len(calls["objective.contrastive_loss"]) == 2 * len(split["train"])
    assert all(limit == 5.0 for _, (_, limit) in calls["training.clip_gradients"])
    # every count a per-layer metric divides by
    for name in ("cells.sgru_forward", "cells.sgru_backward", "network.bmrnn_forward",
                 "network.bmrnn_backward", "objective.contrastive_loss",
                 "objective.sample_negatives", "objective.compatibility",
                 "training.story_loss_and_grads", "training.update_step",
                 "training.clip_gradients", "training.train", "evaluation.evaluate"):
        assert calls[name], name
    assert under("network.bmrnn_forward", "training.train")        # the h' refresh
    # each minibatch, of several lengths, is one group: one forward and one
    # backward, whose note is the length of its longest story
    minibatches = cfg.epochs * -(-len(split["train"]) // cfg.batch_size)
    assert len(calls["training.story_loss_and_grads"]) == minibatches
    for name in ("network.bmrnn_forward", "network.bmrnn_backward"):
        assert len(under(name, "training.story_loss_and_grads")) == minibatches, name
    assert len(calls["network.bmrnn_backward"]) == minibatches
    assert max(under("network.bmrnn_backward", "training.story_loss_and_grads")) == 7
    assert under("evaluation.evaluate", "training.train")          # validation
    assert under("network.bmrnn_forward", "evaluation.evaluate")
    assert under("objective.compatibility", "evaluation.evaluate")


def test_a_split_under_the_cap_is_one_sweep_of_its_longest_story(monkeypatch):
    calls = []

    def counted(*args, _fn=bmrnn.network.sgru_forward):
        calls.append(len(args[2][0]))        # the rows the visit steps
        return _fn(*args)
    monkeypatch.setattr(bmrnn.network, "sgru_forward", counted)
    # 8 stories each of lengths 1, 3, 4 and 7, taking turns: 120 live steps,
    # under the cap, so one group steps them all in 7 visits
    corpus = mixed_corpus(lengths=(1, 3, 4, 7), per_length=8)
    assert sum(rec.story.N for rec in corpus.records) <= bmrnn.network.BUCKET_STEPS
    params = init_bmrnn_params(16, 4, 16, SeededRng(0))
    bmrnn.evaluation.evaluate(params, corpus.records, corpus.skips, CompatibilityConfig())
    # visit k steps only the stories longer than k
    assert calls == [32, 24, 24, 16, 8, 8, 8]


def test_detect_skips_clusters_each_multi_photo_length_once(tmp_path, monkeypatch):
    # three stories each of lengths 1, 4 and 6; 1-photo stories are never clustered
    manifest = write_mixed_corpus(tmp_path / "c", lengths=(1, 4, 6), per_length=3)
    results = {"similarity": [], "affinity_propagation": [], "build_skip_matrix": []}
    for name in results:
        def recorded(*args, _fn=getattr(bmrnn.cli, name), _name=name, **kwargs):
            results[_name].append(_fn(*args, **kwargs))
            return results[_name][-1]
        monkeypatch.setattr(bmrnn.cli, name, recorded)
    code = bmrnn.cli.run(["detect-skips", "--manifest", str(manifest),
                          "--out", str(tmp_path / "skips.jsonl")])
    assert code == 0
    # one stack per length, but similarity and the skip chains stay per story
    assert {name: len(r) for name, r in results.items()} == {
        "similarity": 6, "affinity_propagation": 2, "build_skip_matrix": 6}
    # the traced benchmark notes each call's convergence flag
    assert all(type(a.converged) is bool for a in results["affinity_propagation"])


def test_scoring_goes_through_the_traced_functions(monkeypatch):
    calls = {(bmrnn.evaluation, "compatibility"): 0, (bmrnn.objective, "compatibility"): 0,
             (bmrnn.objective, "compatibility_grad"): 0}
    for module, name in calls:
        def counted(*args, _fn=getattr(module, name), _key=(module, name), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    negatives = []

    def loss(*args, _fn=bmrnn.training.contrastive_loss):
        negatives.append(len(args[2]))      # the bench's hinge-fraction divisor
        return _fn(*args)
    monkeypatch.setattr(bmrnn.training, "contrastive_loss", loss)

    corpus = generate_synthetic(SynthConfig(num_stories=24, seed=4))
    split = {s: [r for r in corpus.records if r.split == s] for s in ("train", "val", "test")}
    ckpt = train(split["train"], split["val"], corpus.skips, TrainConfig(epochs=1, seed=0),
                 CompatibilityConfig(negatives_per_positive=5), hidden_dim=4)
    assert negatives == [5] * len(split["train"])
    assert calls[bmrnn.objective, "compatibility"] > 0
    assert calls[bmrnn.objective, "compatibility_grad"] > 0
    # validation during training, then one test-split evaluation: one call per query
    assert calls[bmrnn.evaluation, "compatibility"] == len(split["val"])
    bmrnn.evaluation.evaluate(ckpt.params, split["test"], corpus.skips, CompatibilityConfig())
    assert calls[bmrnn.evaluation, "compatibility"] == len(split["val"]) + len(split["test"])
