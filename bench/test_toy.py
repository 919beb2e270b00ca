"""Self-test of the benchmark at toy sizes.

    python3 -m pytest bench/test_toy.py

Runs every workload once, untraced and traced, at tiny sizes, and checks
that each declared metric appears with its unit and that no operation
failed.  Also checks the span arithmetic and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert "failed_ops_frac" in proc.stderr and " 0 of " in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sind-short", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_children():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    from spans import SpanStats

    # root [0, 100) with children [10, 40) and [50, 60); grandchild [20, 30)
    spans = [
        ["cli.train", -1, "r", 0, 100, None],
        ["training.train", 0, "r", 10, 40, None],
        ["network.bmrnn_forward", 1, "r", 20, 30, None],
        ["objective.compatibility", 0, "r", 50, 60, None],
    ]
    st = SpanStats(spans)
    assert st.self_ns == [60, 20, 10, 10]
    assert st.root == [0, 0, 0, 0]
    assert st.select("network.bmrnn_forward", parent="training.train") == [2]
    shares = st.shares("cli.train")
    assert shares["cli"] == 0.6 and shares["training"] == 0.2
    assert math.isclose(sum(shares.values()), 1.0)


def test_probe_time_is_taken_out_of_enclosing_spans():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    from spans import PROBE_SPAN, SpanStats

    # root [0, 100) with child [10, 40); a probe sample [20, 25) inside the child
    spans = [
        ["cli.train", -1, "r", 0, 100, None],
        ["training.train", 0, "r", 10, 40, None],
        [PROBE_SPAN, 1, "r", 20, 25, None],
    ]
    st = SpanStats(spans)
    assert st.dur == [95, 25, 0]
    assert st.self_ns == [70, 25, 0]
    assert math.isclose(sum(st.shares("cli.train").values()), 1.0)
