"""One benchmark run of one workload: set-up, timed pipeline iterations,
output checks, and the metrics computed from them.

The CLI stages run in-process through ``bmrnn.cli.run`` and are timed from
outside.  Every stage invocation and every output check is one operation;
an operation fails when a stage exits non-zero or a check does not hold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bmrnn.cli
import bmrnn.network
from spans import PROBE_SPAN, Tracer, layer_metrics
from workloads import Workload, build_blog_corpus

KS = (1, 5, 10)       # the Recall@K levels every report carries

# Stage times are reported in reference seconds.  A shared host's speed
# swings by up to 2x within seconds, and the swing slows a fixed
# calibration kernel as much as it slows the program.  So while a stage
# runs, a timer signal runs the kernel every PROBE_PERIOD_S (SpeedProbe),
# and once more before and after it.  The stage's wall time, less the
# probe's own time, is scaled by the host's mean speed over those samples:
# the result is the time the stage would take on a host where the kernel
# runs in CAL_REF_S.  The kernel mixes interpreter work with small numpy
# calls, as the program does, and touches no state of the program.
CAL_STEPS = 400
CAL_REF_S = 0.002
PROBE_PERIOD_S = 0.05
_CAL_W = np.random.default_rng(0).standard_normal((32, 32)) * 0.1


def calibrate() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    x, acc = np.ones(32), {}
    t0 = time.perf_counter()
    for i in range(CAL_STEPS):
        x = np.tanh(_CAL_W @ x + 0.1)
        acc[i % 97] = acc.get(i % 97, 0.0) + float(x[0])
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the host's speed while a stage runs, from a SIGALRM timer
    in the benchmark's own process."""

    def __init__(self, span):
        self.samples: list[float] = []     # calibration kernel times
        self.probe_s = 0.0                 # wall time spent in the timer handler
        self._span = span                  # () -> context around one sample
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        with self._span():
            self.samples.append(calibrate())

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            t0 = time.perf_counter()
            try:
                self.sample()
            finally:
                self.probe_s += time.perf_counter() - t0
                self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean host speed over the samples, relative to the reference."""
        return statistics.fmean(CAL_REF_S / c for c in self.samples)


class Ops:
    """Operations attempted and the descriptions of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"bench: FAILED {what}", file=sys.stderr)
        return ok

    def check(self, what: str, fn, *args):
        """Run one output check; an exception counts as a failed check."""
        try:
            ok, value = fn(*args)
        except Exception:
            traceback.print_exc()
            ok, value = False, None
        self.record(ok, what)
        return value


@dataclass
class StageTime:
    stage: str
    wall_s: float         # wall time less the probe's time
    speed: float          # mean host speed, relative to the reference host
    samples: int

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.speed


@dataclass
class Iteration:
    corpus: int
    traced: bool
    detect_s: float
    train_s: float
    eval_s: list[float]
    pipeline_s: float
    epoch_ms: list[float]
    stages: list[StageTime]


def _corpus_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _tree_digest(root: Path) -> str:
    return _digest(*sorted(p for p in root.rglob("*") if p.is_file()))


def _manifest(corpus_dir: Path) -> list[dict]:
    text = (corpus_dir / "manifest.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# output checks: each returns (ok, value)
# ---------------------------------------------------------------------------


def _read_skips(path: Path) -> list[dict]:
    text = path.read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_skips(path: Path, n_by_id: dict[str, int]):
    """Each story's clusters partition 0..n-1 and its pairs are the
    time-ordered chains of its clusters."""
    lines = _read_skips(path)
    ids = [d["story_id"] for d in lines]
    ok = len(set(ids)) == len(ids) and set(ids) == set(n_by_id)
    for d in lines:
        clusters = [sorted(c) for c in d["clusters"]]
        members = sorted(i for c in clusters for i in c)
        chains = sorted((a, b) for c in clusters for a, b in zip(c, c[1:]))
        ok = ok and members == list(range(n_by_id[d["story_id"]]))
        ok = ok and sorted(tuple(p) for p in d["skips"]) == chains
    return ok, {d["story_id"]: {tuple(p) for p in d["skips"]} for d in lines}


def check_model(path: Path):
    params = bmrnn.network.load_model(path)
    return all(bool(np.all(np.isfinite(t))) for _, t in params.named_tensors()), None


def check_log(path: Path, epochs: int):
    """Exactly `epochs` epochs, each with a finite mean loss."""
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    ok = [d["epoch"] for d in lines] == list(range(epochs))
    ok = ok and all(math.isfinite(d["mean_loss"]) for d in lines)
    return ok, [d["wall_ms"] for d in lines]


def check_report(path: Path, split_ids: list[str]):
    """Ranks cover exactly the split, lie in [1, pool], and re-summarise to
    the reported Recall@K and median rank."""
    d = json.loads(path.read_text(encoding="utf-8"))
    sids = [sid for sid, _ in d["per_story_ranks"]]
    ranks = [r for _, r in d["per_story_ranks"]]
    pool = len(split_ids)
    ok = len(set(sids)) == len(sids) and set(sids) == set(split_ids)
    ok = ok and d["pool_size"] == pool and all(1 <= r <= pool for r in ranks)
    for k in KS:
        expected = 100.0 * sum(r <= k for r in ranks) / len(ranks)
        ok = ok and abs(d[f"recall_at_{k}"] - expected) <= 1e-9
    ok = ok and d["median_rank"] == statistics.median(ranks)
    return ok, ranks


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool, work: Path):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.work = work
        self.ops = Ops()
        self.setup_s: list[float] = []
        self.iterations: list[Iteration] = []
        self.ranks: list[int] = []                 # pooled test ranks, one pass
        self.pairs = [0, 0, 0]                     # matched, detected, planted
        self._digests: dict[int, dict[str, str]] = {}
        self._corpus_digests: list[str] = []

    def _tracing(self, on: bool):
        return self.tracer.installed() if on else contextlib.nullcontext()

    def _span(self, name: str, on: bool):
        return self.tracer.span(name) if on else contextlib.nullcontext()

    def stage(self, argv: list, traced: bool, probe: SpeedProbe | None = None) -> float:
        """Run one CLI stage in-process and return its wall time, less the
        time spent in ``probe``, which samples the host's speed meanwhile."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with self._span(f"cli.{argv[0]}", traced), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    probe or contextlib.nullcontext():
                rc = bmrnn.cli.run(argv)
        except Exception:
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        self.ops.record(rc == 0, f"{argv[0]} exited {rc}: {err.getvalue()[-400:]}")
        return elapsed - (probe.probe_s if probe else 0.0)

    def timed_stage(self, argv: list, traced: bool) -> StageTime:
        """Run one CLI stage and sample the host's speed before, during and
        after it."""
        probe = SpeedProbe(lambda: self._span(PROBE_SPAN, traced))
        probe.sample()
        wall_s = self.stage(argv, traced, probe)
        probe.sample()
        return StageTime(str(argv[0]), wall_s, probe.speed(), len(probe.samples))

    # -- set-up -------------------------------------------------------------

    def build(self, corpus_seed: int, out_dir: Path, traced: bool) -> float:
        t0 = time.perf_counter()
        with self._span("setup.build", traced):
            if self.w.synth_args is not None:
                self.stage(["synth", "--out", out_dir, "--seed", corpus_seed]
                           + self.w.synth_args, traced)
            else:
                try:
                    build_blog_corpus(self.w, corpus_seed, out_dir)
                    ok = True
                except Exception:
                    traceback.print_exc()
                    ok = False
                self.ops.record(ok, "blog corpus build")
        return time.perf_counter() - t0

    def setup(self) -> list[Path]:
        traced = self.tracer is not None
        dirs = [self.work / f"corpus{k}" for k in range(self.w.corpora)]
        with self._tracing(traced):
            for k, d in enumerate(dirs):
                self.setup_s.append(self.build(_corpus_seed(self.seed, k), d, traced))
        self._corpus_digests = [_tree_digest(d) for d in dirs]
        return dirs

    def rebuild(self, k: int, traced: bool) -> None:
        """Build corpus k again; it must come out byte-identical.  Rebuilds
        are spread over the run, so that setup_s is a median over the disk's
        states during the whole run rather than over one burst of writes."""
        again = self.work / "rebuild"
        self.setup_s.append(self.build(_corpus_seed(self.seed, k), again, traced))
        self.ops.record(_tree_digest(again) == self._corpus_digests[k],
                        f"rebuild of corpus {k} is byte-identical")
        shutil.rmtree(again)

    # -- one pipeline iteration -----------------------------------------------

    def iteration(self, k: int, corpus: Path, traced: bool) -> Iteration:
        w, ops = self.w, self.ops
        out = self.work / f"it{len(self.iterations)}"
        out.mkdir()
        if traced:
            self.tracer.run = out.name
        entries = _manifest(corpus)
        manifest = corpus / "manifest.jsonl"
        model, log = out / "model.bin", out / "train_log.jsonl"
        reports = [out / f"report{r}.json" for r in range(w.eval_reps)]

        skips = out / "skips.jsonl"
        eval_argv = ["eval", "--manifest", manifest, "--skips", skips, "--model", model,
                     "--split", "test", "--report"]

        detect = self.timed_stage(
            ["detect-skips", "--manifest", manifest, "--out", skips], traced)
        train = self.timed_stage(
            ["train", "--manifest", manifest, "--skips", skips, "--out", model,
             "--log", log, "--seed", _corpus_seed(self.seed, k)] + w.train_flags(),
            traced)
        evals = [self.timed_stage(eval_argv + [report], traced) for report in reports]

        detected = ops.check("skips partition and chain", check_skips, skips,
                             {e["story_id"]: e["n"] for e in entries})
        ops.check("model loads with finite parameters", check_model, model)
        epoch_ms = ops.check("training log", check_log, log, w.epochs) or []
        test_ids = [e["story_id"] for e in entries if e["split"] == "test"]
        ranks = [ops.check(f"report {report.name}", check_report, report, test_ids)
                 for report in reports]
        for report in reports[1:]:
            ops.record(report.read_bytes() == reports[0].read_bytes(),
                       "repeated eval gives an identical report")

        digests = {name: _digest(*paths) for name, paths in {
            "skips": (skips,), "model": (model, Path(f"{model}.json")),
            "report": (reports[0],)}.items()}
        if k in self._digests:
            for name, d in digests.items():
                ops.record(d == self._digests[k][name],
                           f"rerun of corpus {k} gives an identical {name}")
        else:
            self._digests[k] = digests
            self.ranks.extend(ranks[0] or [])
            if detected is not None:
                self.count_pairs(detected, corpus)
        shutil.rmtree(out)
        return Iteration(
            k, traced, detect.ref_s, train.ref_s, [e.ref_s for e in evals],
            detect.ref_s + train.ref_s + evals[0].ref_s, epoch_ms, [detect, train, *evals])

    def count_pairs(self, detected: dict[str, set], corpus: Path) -> None:
        planted = {d["story_id"]: {tuple(p) for p in d["skips"]}
                   for d in _read_skips(corpus / "planted_skips.jsonl")}
        for sid, found in detected.items():
            self.pairs[0] += len(planted[sid] & found)
            self.pairs[1] += len(found)
            self.pairs[2] += len(planted[sid])

    def run(self) -> None:
        dirs = self.setup()
        n = len(dirs)
        t_begin = time.perf_counter()
        i = 0
        while True:
            # every corpus once, then reruns while they fit, at least one.  A
            # traced run reruns in pairs: untraced, then traced, on the same
            # corpus back to back, so that the pair measures the tracing
            # overhead rather than the machine's drift between them
            if self.tracer is None or i < n:
                k, traced = i % n, False
            else:
                k, traced = ((i - n) // 2) % n, (i - n) % 2 == 1
            t0 = time.perf_counter()
            with self._tracing(traced):
                self.iterations.append(self.iteration(k, dirs[k], traced))
                self.rebuild(k, traced)
            last = time.perf_counter() - t0
            i += 1
            pairs_done = self.tracer is None or (i - n) % 2 == 0
            if i > n and pairs_done and time.perf_counter() - t_begin + last > self.seconds:
                break

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, corpus: Path) -> dict[str, float]:
        entries = _manifest(corpus)
        n_split = {s: sum(e["split"] == s for e in entries) for s in ("train", "test")}
        its = [it for it in self.iterations if not it.traced]
        matched, found, planted = self.pairs
        return {
            "setup_s": statistics.median(self.setup_s),
            "detect_stories_per_s": statistics.median(
                len(entries) / it.detect_s for it in its),
            "train_stories_per_s": statistics.median(
                self.w.epochs * n_split["train"] / it.train_s for it in its),
            "eval_queries_per_s": statistics.median(
                len(it.eval_s) * n_split["test"] / sum(it.eval_s) for it in its),
            "pipeline_s": statistics.median(it.pipeline_s for it in its),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_recall1": 100.0 * sum(r == 1 for r in self.ranks) / len(self.ranks),
            # interpolated median of the pooled integer ranks: a plain median
            # jumps between 1, 1.5 and 2 when Recall@1 sits near 50%
            "test_medr": statistics.median_grouped(self.ranks),
            "detect_pair_f1": 2.0 * matched / (found + planted),
        }

    def per_layer(self) -> dict[str, float]:
        traced = [it for it in self.iterations if it.traced]
        pairs = [(u, t) for u, t in zip(self.iterations, self.iterations[1:])
                 if t.traced and not u.traced]
        m = layer_metrics(self.tracer.spans, epochs=self.w.epochs, iterations=len(traced))
        matched, found, planted = self.pairs
        m["skips.pair_precision"] = matched / found
        m["skips.pair_recall"] = matched / planted
        m["training.epoch_ms"] = statistics.mean(ms for it in traced for ms in it.epoch_ms)
        m["trace.overhead_frac"] = statistics.median(
            t.pipeline_s / u.pipeline_s for u, t in pairs) - 1.0
        return m


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, root: Path):
    """Run one workload; returns (runner, metrics)."""
    work = root / ".bench_work" / f"{w.name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(w, seed, seconds, trace, work)
    try:
        runner.run()
        corpus0 = work / "corpus0"
        metrics = runner.per_layer() if trace else runner.end_to_end(corpus0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return runner, metrics
