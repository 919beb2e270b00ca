"""Benchmark entry point.

    python3 bench/run.py --workload sind-short --seed 0 --seconds 45 --trace 0

Runs from the root of a checkout.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, where the
metrics are BENCHMARK.json's ``end_to_end`` list (``--trace 0``) or its
``per_layer`` list (``--trace 1``).  A table of every metric, the failed
share of operations and the machine facts goes to stderr; the full result,
and the spans of a traced run, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() else nproc)
    return int(os.environ[BLAS_THREAD_VARS[0]])


def git_commit(root: Path) -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes, for the benchmark's own self-test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bmrnn" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: no bmrnn sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from pipeline import run_workload
    from workloads import workloads

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    available = workloads(toy=args.toy)
    if args.workload not in available:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(available)}")

    runner, values = run_workload(
        available[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"bench: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    ops = runner.ops
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }

    facts = machine_facts(blas_threads)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "machine": facts,
         "failures": ops.failures, "setup_s": runner.setup_s,
         "iterations": [asdict(it) for it in runner.iterations]}, indent=2) + "\n",
        encoding="utf-8")
    if runner.tracer is not None:
        runner.tracer.dump(out_dir / f"spans-{args.workload}.jsonl")

    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{'failed_ops_frac':<{width}}  {len(ops.failures) / ops.attempted:.6g} "
          f"of {ops.attempted} operations", file=sys.stderr)
    speeds = [st.speed for it in runner.iterations for st in it.stages]
    print(f"host speed: median {statistics.median(speeds):.3f} of the reference host "
          f"over {len(speeds)} stage runs", file=sys.stderr)
    print("machine: " + json.dumps(facts), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
