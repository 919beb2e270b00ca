"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics derived from its spans.

Tracing works from outside the program: ``Tracer.installed()`` replaces the
module attributes that bmrnn looks up at call time (``bmrnn.training.
contrastive_loss``, ``bmrnn.network.sgru_forward``, ...) with wrappers that
record a span per call, and restores the originals on exit.  Untraced runs
never enter it, so they execute the unmodified program.

A span is ``[name, parent, run, start_ns, end_ns, note]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``run`` names the pipeline
iteration the span belongs to, and ``note`` holds a value read from the
call's arguments or result (hinge counts, the pre-clip norm, ...).
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import bmrnn.cli
import bmrnn.data
import bmrnn.evaluation
import bmrnn.network
import bmrnn.objective
import bmrnn.training

# (module, attribute, span name).  The span name is "<layer>.<function>",
# where the layer is the module that defines the function.  The same
# function is wrapped in every module that imported its own binding.
TARGETS = [
    (bmrnn.cli, "generate_synthetic", "data.generate_synthetic"),
    (bmrnn.data, "generate_synthetic", "data.generate_synthetic"),
    (bmrnn.cli, "write_corpus", "data.write_corpus"),
    (bmrnn.data, "write_corpus", "data.write_corpus"),
    (bmrnn.cli, "load_manifest", "data.load_manifest"),
    (bmrnn.cli, "load_skips", "data.load_skips"),
    (bmrnn.cli, "write_skips", "data.write_skips"),
    (bmrnn.cli, "similarity", "skips.similarity"),
    (bmrnn.cli, "affinity_propagation", "skips.affinity_propagation"),
    (bmrnn.cli, "build_skip_matrix", "skips.build_skip_matrix"),
    (bmrnn.cli, "load_model", "network.load_model"),
    (bmrnn.cli, "train", "training.train"),
    (bmrnn.cli, "save_checkpoint", "training.save_checkpoint"),
    (bmrnn.cli, "evaluate", "evaluation.evaluate"),
    (bmrnn.training, "story_loss_and_grads", "training.story_loss_and_grads"),
    (bmrnn.training, "update_step", "training.update_step"),
    (bmrnn.training, "clip_gradients", "training.clip_gradients"),
    (bmrnn.training, "sample_negatives", "objective.sample_negatives"),
    (bmrnn.training, "contrastive_loss", "objective.contrastive_loss"),
    (bmrnn.training, "bmrnn_forward", "network.bmrnn_forward"),
    (bmrnn.training, "bmrnn_backward", "network.bmrnn_backward"),
    (bmrnn.training, "evaluate", "evaluation.evaluate"),
    (bmrnn.objective, "compatibility", "objective.compatibility"),
    (bmrnn.objective, "compatibility_grad", "objective.compatibility_grad"),
    (bmrnn.evaluation, "bmrnn_forward", "network.bmrnn_forward"),
    (bmrnn.evaluation, "compatibility", "objective.compatibility"),
    (bmrnn.network, "sgru_forward", "cells.sgru_forward"),
    (bmrnn.network, "sgru_backward", "cells.sgru_backward"),
]

# values kept from a call: f(args, result) -> note
NOTES = {
    "skips.affinity_propagation": lambda a, r: r.converged,
    "objective.contrastive_loss": lambda a, r: (r.active_v_hinges, r.active_h_hinges, len(a[2])),
    "training.clip_gradients": lambda a, r: (r, a[1]),
    "network.bmrnn_forward": lambda a, r: a[1].N,
    "network.bmrnn_backward": lambda a, r: a[1].N,
}

PROBE_SPAN = "bench.probe"     # the span of one pipeline.SpeedProbe sample
LAYERS = ("cli", "data", "skips", "cells", "network", "objective", "training", "evaluation")


class Tracer:
    """Collects spans in memory; nothing is written until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one CLI stage."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.run, time.perf_counter_ns(), 0, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][4] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        # the bookkeeping of span() without its generator: this runs on every
        # cell step and compatibility call, so it is most of the overhead
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, self.run, clock(), 0, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][4] = clock()
                stack.pop()
            if note is not None:
                spans[idx][5] = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every target attribute with a tracing wrapper."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for (mod, attr, name), (_, _, fn) in zip(TARGETS, originals):
                setattr(mod, attr, self._wrap(fn, name))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, run, t0, t1, note) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "run": run,
                    "start_ns": t0, "end_ns": t1,
                }) + "\n")


class SpanStats:
    """Durations, self-times and stage membership of a finished span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.dur = [s[4] - s[3] for s in spans]
        # the benchmark's speed probe runs inside program spans: take its
        # time out of every enclosing span, so durations are the program's
        for i, s in enumerate(spans):
            if s[0] == PROBE_SPAN:
                parent = s[1]
                while parent >= 0:
                    self.dur[parent] -= self.dur[i]
                    parent = spans[parent][1]
                self.dur[i] = 0
        child = [0] * n
        self.root = [0] * n
        for i, s in enumerate(spans):
            parent = s[1]
            if parent >= 0:
                child[parent] += self.dur[i]
                self.root[i] = self.root[parent]
            else:
                self.root[i] = i
        self.self_ns = [d - c for d, c in zip(self.dur, child)]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)

    def select(self, name: str, parent: str | None = None, stage: str | None = None):
        """Indices of spans called ``name``, optionally only those directly
        under a span called ``parent`` or inside a root called ``stage``."""
        out = []
        for i in self.by_name.get(name, ()):
            s = self.spans[i]
            if parent is not None and (s[1] < 0 or self.spans[s[1]][0] != parent):
                continue
            if stage is not None and self.spans[self.root[i]][0] != stage:
                continue
            out.append(i)
        return out

    def total_ms(self, idx) -> float:
        return sum(self.dur[i] for i in idx) / 1e6

    def self_ms(self, idx) -> float:
        return sum(self.self_ns[i] for i in idx) / 1e6

    def shares(self, stage: str) -> dict[str, float]:
        """Each layer's self-time as a share of the stage roots' wall time."""
        roots = [i for i in self.by_name.get(stage, ()) if self.spans[i][1] < 0]
        wall = sum(self.dur[i] for i in roots)
        by_layer: dict[str, int] = defaultdict(int)
        root_set = set(roots)
        for i, s in enumerate(self.spans):
            if self.root[i] in root_set:
                by_layer[s[0].split(".", 1)[0]] += self.self_ns[i]
        return {layer: by_layer[layer] / wall for layer in LAYERS if wall}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def layer_metrics(spans: list[list], *, epochs: int, iterations: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``iterations`` traced pipeline
    iterations, each training for ``epochs`` epochs.  Stage roots are the
    benchmark's own ``cli.<stage>`` and ``setup.build`` spans."""
    st = SpanStats(spans)
    m: dict[str, float] = {}

    def per_call_ms(name, **kw):
        idx = st.select(name, **kw)
        return st.total_ms(idx) / len(idx)

    builds = len(st.select("setup.build"))
    m["data.load_manifest_ms"] = per_call_ms("data.load_manifest")
    m["data.load_skips_ms"] = per_call_ms("data.load_skips")
    m["data.generate_synthetic_ms"] = st.total_ms(st.select("data.generate_synthetic")) / builds
    m["data.write_corpus_ms"] = st.total_ms(st.select("data.write_corpus")) / builds

    m["skips.similarity_us_per_story"] = per_call_ms("skips.similarity") * 1e3
    m["skips.affinity_propagation_ms_per_story"] = per_call_ms("skips.affinity_propagation")
    m["skips.build_skip_matrix_us_per_story"] = per_call_ms("skips.build_skip_matrix") * 1e3
    m["skips.ap_converged_frac"] = _mean(
        bool(spans[i][5]) for i in st.select("skips.affinity_propagation"))

    for kind in ("forward", "backward"):
        cells = st.select(f"cells.sgru_{kind}")
        m[f"cells.sgru_{kind}_calls"] = len(cells) / iterations
        m[f"cells.sgru_{kind}_us_per_call"] = st.total_ms(cells) * 1e3 / len(cells)
        net = st.select(f"network.bmrnn_{kind}")
        steps = sum(spans[i][5] for i in net)
        m[f"network.{kind}_us_per_step"] = st.total_ms(net) * 1e3 / steps
        m[f"network.{kind}_self_us_per_step"] = st.self_ms(net) * 1e3 / steps
        m[f"network.{kind}_calls"] = len(net) / iterations

    m["objective.loss_ms_per_story"] = per_call_ms("objective.contrastive_loss")
    m["objective.sample_negatives_us_per_story"] = per_call_ms("objective.sample_negatives") * 1e3
    compat = st.select("objective.compatibility")
    m["objective.compatibility_calls"] = len(compat) / iterations
    m["objective.compatibility_us_per_call"] = st.total_ms(compat) * 1e3 / len(compat)
    hinges = [spans[i][5] for i in st.select("objective.contrastive_loss")]
    n_hinges = sum(k for _, _, k in hinges)
    m["objective.active_v_hinge_frac"] = sum(v for v, _, _ in hinges) / n_hinges
    m["objective.active_h_hinge_frac"] = sum(h for _, h, _ in hinges) / n_hinges

    train_calls = st.select("training.train")
    n_epochs = len(train_calls) * epochs
    m["training.story_step_ms"] = (
        st.self_ms(st.select("training.story_loss_and_grads"))
        / len(st.select("training.story_loss_and_grads")))
    m["training.h_cache_ms_per_epoch"] = st.total_ms(
        st.select("network.bmrnn_forward", parent="training.train")) / n_epochs
    m["training.update_step_ms"] = per_call_ms("training.update_step")
    m["training.loop_self_ms_per_epoch"] = st.self_ms(train_calls) / n_epochs
    m["training.validation_ms_per_epoch"] = st.total_ms(
        st.select("evaluation.evaluate", parent="training.train")) / n_epochs
    clips = [spans[i][5] for i in st.select("training.clip_gradients")]
    m["training.clip_frac"] = _mean(norm > limit for norm, limit in clips)
    m["training.preclip_grad_norm_p50"] = statistics.median(norm for norm, _ in clips)

    evals = st.select("evaluation.evaluate", stage="cli.eval")
    pairs = st.select("objective.compatibility", parent="evaluation.evaluate", stage="cli.eval")
    m["evaluation.pairs_scored"] = len(pairs) / len(evals)
    m["evaluation.self_us_per_pair"] = st.self_ms(evals) * 1e3 / len(pairs)
    m["evaluation.forward_ms"] = st.total_ms(
        st.select("network.bmrnn_forward", parent="evaluation.evaluate", stage="cli.eval")
    ) / len(evals)

    for stage in ("train", "eval"):
        for layer, share in st.shares(f"cli.{stage}").items():
            m[f"{stage}_share.{layer}"] = share
    return m
