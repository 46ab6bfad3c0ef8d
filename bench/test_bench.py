"""Smoke tests for the benchmark itself, on the tiny size of each workload.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from passes import oracle_tally, orbit_label_count  # noqa: E402
from run import check_determinism  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_and_passes_the_gate(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = run_bench(tmp_path, "fiber-deep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wrong_count_is_a_failure_and_skips_are_not():
    t = oracle_tally([
        {"count": 4, "expected": 4, "nodes": 10},
        {"count": 5, "expected": 4, "nodes": 12},
        {"count": None, "expected": None, "nodes": 7},
        {"count": 1, "expected": 1, "nodes": 1, "cli_fail": True},
    ])
    assert t == {"attempted": 4, "done": 3, "skipped": 1, "failed": 2,
                 "nodes": 30, "nodes_on_skipped": 7}


def test_orbit_label_count_counts_very_even_d_twice():
    assert orbit_label_count(7, "B") == 7
    # D, n = 4: [3,1], [2,2] twice, [1,1,1,1]
    assert orbit_label_count(4, "D") == 4
    # C, n = 4: [4], [2,2], [2,1,1], [1,1,1,1]
    assert orbit_label_count(4, "C") == 4


def test_determinism_record_catches_drift(tmp_path):
    def pass_(done, digest="x"):
        return {"oracle": {"done": done, "skipped": 1, "nodes": 9},
                "fingerprint": {"B3": digest}}

    state = tmp_path / "state.json"
    assert check_determinism([pass_(3), pass_(3)], "w/tiny", state) == []
    assert check_determinism([pass_(3)], "w/tiny", state) == []
    assert len(check_determinism([pass_(3), pass_(4)], "w/tiny", state)) == 1
    assert len(check_determinism([pass_(3, "y")], "w/tiny", state)) == 1


def test_span_self_busy_and_probe_ticks():
    tracer, ticks = Tracer(), []

    def tick():
        t0 = time.perf_counter()
        time.sleep(0.05)
        ticks.append((t0, time.perf_counter() - t0))

    h = tracer.wrap(lambda: time.sleep(0.01), "x.h")
    g = tracer.wrap(lambda: (time.sleep(0.02), tick(), h()), "y.g")
    f = tracer.wrap(lambda: (time.sleep(0.01), g()), "x.f")
    f()
    s = tracer.summary(ticks)
    x, y = s["layers"]["x"], s["layers"]["y"]
    assert (x["calls"], y["calls"], s["spans"]) == (2, 1, 3)
    # x re-enters itself through y: busy counts the outer span only
    assert x["busy_s"] == pytest.approx(0.04, abs=0.015)
    assert x["self_s"] == pytest.approx(0.02, abs=0.015)
    assert y["busy_s"] == pytest.approx(0.03, abs=0.015)
    assert y["self_s"] == pytest.approx(0.02, abs=0.015)
