"""nilorbit benchmark harness.

    python3 bench/run.py --workload atlas-oracle --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Workloads are defined in ``workloads.py``.  Each timed
pass runs in a fresh child interpreter (``child.py``), one at a time, with
``NILORBIT_ORACLE_BUDGET`` removed and BLAS/OpenMP pinned to one thread.
Passes repeat, closed-loop, until ``--seconds`` have elapsed (at least one
pass); import-only children before and after them give set-up samples.
The seed only permutes the order of a workload's sweep units, so every
total is independent of it.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the time from
spawning an import-only child to having imported nilorbit, divided by the
time a reference child takes to start and import numpy just before it, as
a median over ``SETUP_PAIRS`` pairs and scaled by ``REFERENCE_START_S``
(contention on a shared machine slows both children of a pair alike, and
the raw time swings by half from minute to minute); ``wall_norm``, a pass's
wall time divided by the mean time of a fixed reference job timed all
through the pass (``passes.SpeedProbe``); and ``peak_rss_mb``.  Raw
``wall_s`` and the check counts (``checks_done``, ``checks_skipped``,
``checks_done_per_s``, ``skip_ratio``) are printed as well but reported
only with the per-layer metrics: raw wall time swings by 20% from minute to
minute on a shared machine, and some counts are 0 on some workloads, so
neither can carry a regression bound.

``--trace 1`` adds one traced pass (``tracer.py``) and the oracle anchor
probe, and reports the per-layer metrics.  Human-
readable lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--size tiny`` runs
a seconds-long version of each workload for the smoke tests.

Counts, JSONL digests and node totals of every pass are compared with each
other and with those recorded in ``bench/.state`` by earlier runs of the same
code; any disagreement makes the run incorrect.  Full results, including
the machine description, go to ``bench/.out``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import LAYERS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PAIRS = 16
# Set-up time is reported in seconds of a machine on which the reference
# start (``child.py --reference``: interpreter plus numpy) takes this long,
# about its uncontended time on the 2-core Xeon the benchmark was written on.
REFERENCE_START_S = 0.1
# Time a run may take beyond --seconds: the last pass started before
# --seconds ran out, the traced pass, the anchor probe and set-up children.
RUN_ALLOWANCE_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NILORBIT_ORACLE_BUDGET"}
    env.update({k: "1" for k in THREAD_VARS})
    return env


def spawn(args: list[str], env: dict, deadline: float, what: str) -> str:
    """Run ``child.py`` with ``args`` and return its last line of stdout."""
    cmd = [sys.executable, "-E", str(BENCH / "child.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{what} child timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{what} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def run_child(spec: dict, env: dict, deadline: float) -> dict:
    spec = {**spec, "t_spawn": time.monotonic()}
    return json.loads(spawn([str(ROOT), json.dumps(spec)], env, deadline, spec["mode"]))


def reference_start(env: dict, deadline: float) -> float:
    return float(spawn(["--reference", repr(time.monotonic())], env, deadline, "reference"))


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(p: dict) -> dict:
    o = p["oracle"]
    return {"digests": p["fingerprint"], "checks_done": o["done"],
            "checks_skipped": o["skipped"], "ff_oracle.nodes": o["nodes"]}


def check_determinism(passes: list[dict], key: str, state_file: Path) -> list[str]:
    """Every pass must agree with the first, and the first with what earlier
    runs of the same code recorded under ``key``."""
    first = fingerprint(passes[0])
    errors = [f"pass {i} disagrees with pass 0: {fingerprint(p)} vs {first}"
              for i, p in enumerate(passes[1:], 1) if fingerprint(p) != first]
    state = json.loads(state_file.read_text()) if state_file.exists() else {}
    if key not in state:
        state[key] = first
        state_file.parent.mkdir(parents=True, exist_ok=True)
        tmp = state_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        os.replace(tmp, state_file)
    elif state[key] != first:
        errors.append(f"this run disagrees with an earlier run of the same code: "
                      f"{first} vs {state[key]}")
    return errors


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def wall_norm(passes: list[dict]) -> float:
    return statistics.median(p["wall_s"] / p["probe_s"] for p in passes)


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups) * REFERENCE_START_S, "s"),
        "wall_norm": (wall_norm(passes), "probe"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def pass_counts(passes: list[dict]) -> dict:
    """Raw wall time and check counts: too noisy, or 0 on some workload,
    for a regression bound, so reported but not bounded."""
    o = passes[0]["oracle"]
    wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "wall_s": (wall, "s"),
        "probe_s": (statistics.median(p["probe_s"] for p in passes), "s"),
        "checks_done": (o["done"], "count"),
        "checks_skipped": (o["skipped"], "count"),
        "checks_done_per_s": (o["done"] / wall, "1/s"),
        "skip_ratio": (o["skipped"] / o["attempted"], "ratio"),
    }


def per_layer(passes: list[dict], traced: dict, anchor: dict) -> dict:
    names, layers = traced["trace"]["names"], traced["trace"]["layers"]
    o = traced["oracle"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in LAYERS:
        agg = layers.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[f"{layer}.calls"] = (agg["calls"], "count")
        out[f"{layer}.busy_s"] = (agg["busy_s"], "s")
        out[f"{layer}.self_s"] = (agg["self_s"], "s")
    pol, ror = calls("levi.polarizations"), calls("levi.richardson_orbit_of")
    count = names.get("ff_oracle.fiber_point_count", {"time_s": 0.0, "self_s": 0.0})
    realize = names.get("ff_oracle.realize", {"calls": 0, "self_s": 0.0})
    out.update({
        "levi.polarizations.calls": (pol, "count"),
        "levi.richardson_orbit_of.calls": (ror, "count"),
        "levi.induced_per_polarization": (ratio(ror, pol), "ratio"),
        "minimal.calls_per_orbit": (ratio(out["minimal.calls"][0], traced["orbits"]), "ratio"),
        "spaltenstein.descriptor_per_triple":
            (ratio(calls("spaltenstein.descriptor"), traced["triples"]), "ratio"),
        "ff_oracle.nodes": (o["nodes"], "count"),
        "ff_oracle.nodes_per_s": (ratio(o["nodes"], count["time_s"]), "1/s"),
        "ff_oracle.nodes_on_skipped": (o["nodes_on_skipped"], "count"),
        "ff_oracle.useful_node_ratio": (ratio(o["nodes"] - o["nodes_on_skipped"], o["nodes"]), "ratio"),
        "ff_oracle.count.self_s": (count["self_s"], "s"),
        "ff_oracle.realize.calls": (realize["calls"], "count"),
        "ff_oracle.realize_per_check": (ratio(realize["calls"], o["attempted"]), "ratio"),
        "ff_oracle.realize.self_s": (realize["self_s"], "s"),
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "trace_overhead": (wall_norm([traced]) / wall_norm(passes), "ratio"),
        "anchor.count": (anchor["count"], "count"),
        "anchor.nodes": (anchor["nodes"], "count"),
        "anchor.s": (anchor["s"], "s"),
        "anchor.nodes_per_s": (ratio(anchor["nodes"], anchor["s"]), "1/s"),
    })
    out.update(pass_counts(passes))
    return out


def measure(args) -> dict:
    deadline = time.monotonic() + args.seconds + RUN_ALLOWANCE_S
    env = child_env()
    base = {"workload": args.workload, "size": args.size, "seed": args.seed}

    def setup_samples():
        """Set-up times, each over the reference start just before it."""
        out = []
        for _ in range(SETUP_PAIRS // 2):
            ref = reference_start(env, deadline)
            out.append(run_child({**base, "mode": "setup"}, env, deadline)["setup_s"] / ref)
        return out

    # Set-up is sampled before and after the passes, so that its samples
    # span the run rather than one moment of a shared machine.
    setups = setup_samples()
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        passes.append(run_child({**base, "mode": "pass", "trace": False}, env, deadline))
    setups += setup_samples()
    traced = anchor = None
    if args.trace:
        traced = run_child({**base, "mode": "pass", "trace": True}, env, deadline)
        anchor = run_child({**base, "mode": "anchor"}, env, deadline)

    everything = passes + ([traced] if traced else [])
    errors = [e for p in everything for e in p["errors"]] + (anchor["errors"] if anchor else [])
    errors += check_determinism(everything, f"{args.workload}/{args.size}",
                                BENCH / ".state" / f"determinism-{code_hash()[:16]}.json")
    attempted = sum(p["oracle"]["attempted"] + p["other"]["attempted"] for p in everything)
    failed = sum(p["oracle"]["failed"] + p["other"]["failed"] for p in everything)
    metrics = per_layer(passes, traced, anchor) if args.trace else end_to_end(passes, setups)
    return {
        "workload": args.workload, "size": args.size, "seed": args.seed, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version(), "numpy": passes[0]["numpy"]},
        "passes": len(passes), "setup_samples": len(setups),
        "orders": [p["order"] for p in passes],
        "e2e": end_to_end(passes, setups) | pass_counts(passes),
        "metrics": metrics,
        "errors": errors, "attempted": attempted, "failed": failed,
    }


def report(res: dict) -> None:
    m = res["machine"]
    print(f"workload {res['workload']} ({res['size']}), seed {res['seed']}, trace {res['trace']}:"
          f" {res['passes']} pass(es), {res['setup_samples']} set-up samples")
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, Python {m['python']}, numpy {m['numpy']}")
    shown = res["e2e"] | (res["metrics"] if res["trace"] else {})
    for name, (value, unit) in shown.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    share = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"failed {res['failed']} of {res['attempted']} attempted checks ({share:.2%})")
    for err in res["errors"]:
        print(f"INCORRECT: {err}")
    print(json.dumps({
        "correct": not res["errors"] and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nilorbit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nilorbit" / "__init__.py").is_file():
        print(f"error: no nilorbit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res = measure(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = BENCH / ".out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1))
    report(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
