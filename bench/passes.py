"""One benchmark pass, run by ``child.py`` in a fresh interpreter once
nilorbit is imported.

The spec names the mode (``setup``: import only;
``pass``: one timed pass of a workload; ``anchor``: the oracle anchor
probe), the workload, size, seed and whether to trace.  A fresh interpreter
per pass means every ``lru_cache`` starts cold, as in a user's run.  The
last line of stdout is one JSON object with the measurements and the
outcome of the correctness gate, which runs after the timed region.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import itertools
import json
import random
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import numpy

from tracer import Tracer
from workloads import ANCHOR, ANCHOR_BUDGET, MODULES, WORKLOADS

# Module-internal calls that per-layer metrics need: rank and nullspace
# reach rref, and polarizations reaches richardson_orbit_of, through their
# own module's globals.
TRACED_INTERNAL = {
    "nilorbit._linalg": {"rref"},
    "nilorbit.levi": {"richardson_orbit_of"},
}


def oracle_tally(entries) -> dict:
    """Fold oracle checks ``{"count", "expected", "nodes"[, "cli_fail"]}``
    into done/skipped/failed counts and node totals.  A completed count that
    differs from its expected E-polynomial value is a failure."""
    t = {"attempted": 0, "done": 0, "skipped": 0, "failed": 0,
         "nodes": 0, "nodes_on_skipped": 0}
    for e in entries:
        t["attempted"] += 1
        t["nodes"] += e["nodes"]
        if e["count"] is None:
            t["skipped"] += 1
            t["nodes_on_skipped"] += e["nodes"]
        else:
            t["done"] += 1
            if e["count"] != e["expected"] or e.get("cli_fail"):
                t["failed"] += 1
    return t


def _partitions(total: int, top: int):
    """Partitions of ``total`` into parts at most ``top``, as tuples."""
    if total == 0:
        yield ()
        return
    for k in range(min(total, top), 0, -1):
        for rest in _partitions(total - k, k):
            yield (k,) + rest


def orbit_label_count(n: int, family: str) -> int:
    """Number of atlas records at size ``n``, counted without nilorbit:
    valid partitions, with very even type-D partitions counted twice."""

    count = 0
    for lam in _partitions(n, n):
        if any(lam.count(v) % 2 for v in set(lam) if (v % 2 == 0) != (family == "C")):
            continue
        very_even = family == "D" and lam and all(v % 2 == 0 for v in lam)
        count += 2 if very_even else 1
    return count


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpeedProbe:
    """Samples the machine's current speed during a pass.

    On a shared machine the same pass can take 30% longer from one minute
    to the next.  A SIGALRM handler (in the main thread, so no extra thread
    runs) times a fixed reference job every ``INTERVAL_S`` seconds.  The job
    does the same kind of work as nilorbit, tuple handling in pure Python,
    row-by-row elimination and candidate-subspace products on small int64
    numpy arrays, and runs no nilorbit code, so the pass's wall time divided by the mean job time tracks the
    program's cost and not the machine's momentary speed.  Probe time is
    subtracted from the pass's wall time, and from the spans of a traced
    pass.
    """

    INTERVAL_S = 0.1

    def __init__(self) -> None:
        import numpy

        self.ticks: list[tuple[float, float]] = []
        self._np = numpy
        self._matrix = (numpy.arange(80, dtype=numpy.int64) * 7 % 5).reshape(8, 10)
        self._gram = numpy.fliplr(numpy.eye(10, dtype=numpy.int64))

    def _job(self) -> int:
        np = self._np
        s = sum(len(set(lam)) for lam in _partitions(17, 17))
        for _ in range(2):  # Gauss-Jordan elimination mod 5, row by row
            m, r = self._matrix.copy(), 0
            for c in range(m.shape[1]):
                sel = next((i for i in range(r, m.shape[0]) if m[i, c] % 5), None)
                if sel is None:
                    continue
                m[[r, sel]] = m[[sel, r]]
                m[r] = (m[r] * pow(int(m[r, c]), 3, 5)) % 5
                for i in range(m.shape[0]):
                    if i != r and m[i, c]:
                        m[i] = (m[i] - m[i, c] * m[r]) % 5
                r += 1
            s += int((m @ m.T % 5).sum())
        head, basis = self._matrix[:2], self._matrix[2:6]
        for values in itertools.product(range(5), repeat=3):  # candidate subspaces
            coeff = np.zeros((2, 4), dtype=np.int64)
            coeff[0, 0] = coeff[1, 1] = 1
            coeff[0, 2], coeff[0, 3], coeff[1, 2] = values
            F = np.vstack([head, (coeff @ basis) % 5])
            s += int(np.any((F @ self._gram @ F.T) % 5))
        return s

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._job()
        self.ticks.append((t0, time.perf_counter() - t0))

    def run(self, work) -> tuple[float, float]:
        """Run ``work()`` under the probe.  Returns its wall time without
        the probe's own time, and the mean probe time."""
        self._tick()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            t0 = time.perf_counter()
            work()
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._tick()
        inside = sum(d for t, d in self.ticks if t0 <= t < t1)
        return t1 - t0 - inside, sum(d for _, d in self.ticks) / len(self.ticks)


def atlas_pass(spec, wl, nilorbit, call, probe, tmp: Path):
    from nilorbit import cli

    size = spec["size"]
    rank = wl["rank"][size]
    families = list(wl["families"])
    random.Random(spec["seed"]).shuffle(families)
    argv = ["--rank", str(rank), "--oracle-primes", wl["primes"],
            "--oracle-budget", str(wl["budget"]), "--out", str(tmp)]
    if wl["ceiling"] is not None:
        argv += ["--ceiling", str(wl["ceiling"])]
    main = call(cli.main, "cli.main")

    rcs = {}

    def work():
        with contextlib.redirect_stdout(io.StringIO()):
            for fam in families:
                rcs[fam] = main(["atlas", "--family", fam, *argv])

    wall, probe_s = probe.run(work)
    out = {"wall_s": wall, "probe_s": probe_s, "peak_rss_mb": _peak_rss_mb(), "order": families}
    return out, lambda: verify_atlas(nilorbit, wl, rank, rcs, tmp)


def verify_atlas(nilorbit, wl, rank: int, rcs: dict, tmp: Path) -> dict:
    """Correctness gate for one atlas pass, read back from its files."""
    primes = [int(x) for x in wl["primes"].split(",")]
    errors, entries, sha = [], [], {}
    other = {"attempted": 0, "failed": 0}
    orbits = triples = 0
    for fam in sorted(rcs):
        F = nilorbit.Family.from_letter(fam)
        tag = f"{fam}{rank}"
        n = 2 * rank + F.size_parity
        data = (tmp / f"atlas-{tag}.jsonl").read_bytes()
        sha[tag] = hashlib.sha256(data).hexdigest()
        with open(tmp / f"atlas-{tag}-summary.csv", newline="") as fh:
            summary = {k: int(v) if v.isdigit() else v for k, v in next(csv.DictReader(fh)).items()}
        records = [json.loads(line) for line in data.splitlines()]
        if rcs[fam] != 0:
            errors.append(f"{tag}: atlas exited {rcs[fam]}")
        if summary["failures"] != 0:
            errors.append(f"{tag}: summary shows failures = {summary['failures']}")
        want = orbit_label_count(n, fam)
        if len(records) != want:
            errors.append(f"{tag}: {len(records)} records, expected {want} orbit labels")
        fam_entries = []
        for rec in records:
            orbits += 1
            triples += len(rec["pseudo_polarizations"])
            if len(rec["fibers"]) != len(rec["pseudo_polarizations"]):
                errors.append(f"{tag} {rec['orbit']}: fibers do not match pseudo-polarizations")
            p = nilorbit.Partition(rec["orbit"])
            for fib in rec["fibers"]:
                if [o["p"] for o in fib["oracle"]] != primes:
                    errors.append(f"{tag} {rec['orbit']}: oracle primes {fib['oracle']}")
                poly = None
                for o in fib["oracle"]:
                    expected = None
                    if o["count"] is not None:
                        if poly is None:
                            d = nilorbit.descriptor(
                                p, F, nilorbit.Partition(fib["min_richardson"]),
                                nilorbit.LeviType.from_text(fib["levi"], F))
                            poly = nilorbit.e_polynomial(d)
                        expected = poly(o["p"])
                    elif not o["verdict"].startswith("skipped"):
                        errors.append(f"{tag} {rec['orbit']}: no count but verdict {o['verdict']}")
                    fam_entries.append({"count": o["count"], "expected": expected,
                                        "nodes": o["nodes"], "cli_fail": o["verdict"] == "fail"})
        t = oracle_tally(fam_entries)
        if (t["done"], t["skipped"]) != (summary["oracle_pass"] + summary["oracle_fail"],
                                         summary["oracle_skipped"]):
            errors.append(f"{tag}: summary oracle counts disagree with the records")
        if t["attempted"] != len(primes) * sum(len(r["pseudo_polarizations"]) for r in records):
            errors.append(f"{tag}: attempted checks do not match pseudo-polarizations x primes")
        entries += fam_entries
        other["attempted"] += sum(summary[k] for k in ("seesaw_pass", "seesaw_fail",
                                                       "epoly_pass", "epoly_fail"))
        other["failed"] += summary["seesaw_fail"] + summary["epoly_fail"]
    return {"oracle": oracle_tally(entries), "other": other, "orbits": orbits,
            "triples": triples, "fingerprint": sha, "errors": errors}


def fiber_pass(spec, wl, nilorbit, call, probe):
    F_of = nilorbit.Family.from_letter
    enumerate_valid = call(nilorbit.enumerate_valid, "partitions.enumerate_valid")
    pseudo = call(nilorbit.pseudo_polarizations, "minimal.pseudo_polarizations")
    descriptor = call(nilorbit.descriptor, "spaltenstein.descriptor")
    e_polynomial = call(nilorbit.e_polynomial, "spaltenstein.e_polynomial")
    realize = call(nilorbit.realize, "ff_oracle.realize")
    count = call(nilorbit.fiber_point_count, "ff_oracle.fiber_point_count")
    top, budget = wl["top"][spec["size"]], wl["budget"]

    checks, entries, tally = [], [], {"orbits": 0, "triples": 0}

    def work():
        for fam in "BCD":
            F = F_of(fam)
            for n in range(2 - F.size_parity, top[fam] + 1, 2):
                for p in enumerate_valid(n, F):
                    tally["orbits"] += 1
                    for r, levi in pseudo(p, F):
                        tally["triples"] += 1
                        poly = e_polynomial(descriptor(p, F, r, levi))
                        checks.extend((F, p, levi, q, poly(q)) for q in wl["primes"])
        random.Random(spec["seed"]).shuffle(checks)
        for F, p, levi, q, expected in checks:
            fc = count(realize(p, F, q), levi, budget)
            entries.append({"count": fc.count, "expected": expected, "nodes": fc.nodes,
                            "key": (F.value, p.literal(), levi.literal(), q)})

    wall, probe_s = probe.run(work)
    out = {"wall_s": wall, "probe_s": probe_s, "peak_rss_mb": _peak_rss_mb(), "order": None}
    return out, lambda: verify_fiber(entries, tally["orbits"], tally["triples"])


def verify_fiber(entries, orbits: int, triples: int) -> dict:
    canonical = sorted((e["key"], e["count"], e["nodes"]) for e in entries)
    digest = hashlib.sha256(json.dumps(canonical).encode()).hexdigest()
    return {"oracle": oracle_tally(entries), "other": {"attempted": 0, "failed": 0},
            "orbits": orbits, "triples": triples, "fingerprint": {"counts": digest},
            "errors": []}


def run_pass(spec, root: Path, nilorbit) -> dict:
    wl = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        modules = [importlib.import_module(f"nilorbit.{m}") for m in MODULES]
        tracer.install(modules, TRACED_INTERNAL)
        call = tracer.wrap
    else:
        call = lambda fn, name: fn  # noqa: E731
    probe = SpeedProbe()
    scratch = root / "bench" / ".tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if wl["kind"] == "atlas":
            out, verify = atlas_pass(spec, wl, nilorbit, call, probe, tmp)
        else:
            out, verify = fiber_pass(spec, wl, nilorbit, call, probe)
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.summary(probe.ticks)
            spans = root / "bench" / ".out"
            spans.mkdir(parents=True, exist_ok=True)
            tracer.save(spans / f"spans-{spec['workload']}-{spec['size']}.npz", probe.ticks)
        out.update(verify())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def run_anchor(spec, nilorbit) -> dict:
    fam, orbit, levi_text, q = ANCHOR[spec["size"]]
    F = nilorbit.Family.from_letter(fam)
    p = nilorbit.parse_partition(orbit)
    levi = nilorbit.LeviType.from_text(levi_text, F)
    r = next(r for r, L in nilorbit.pseudo_polarizations(p, F) if L.literal() == levi.literal())
    expected = nilorbit.e_polynomial(nilorbit.descriptor(p, F, r, levi))(q)
    t0 = time.perf_counter()
    fc = nilorbit.fiber_point_count(nilorbit.realize(p, F, q), levi, ANCHOR_BUDGET)
    seconds = time.perf_counter() - t0
    errors = [] if fc.count == expected else [f"anchor count {fc.count}, expected {expected}"]
    return {"count": fc.count, "nodes": fc.nodes, "s": seconds, "errors": errors}


def main(root_text: str, spec_text: str, ready: float, nilorbit) -> int:
    spec = json.loads(spec_text)
    root = Path(root_text)
    home = Path(nilorbit.__file__).resolve().parent
    if home != (root / "src" / "nilorbit").resolve():
        print(f"nilorbit imported from {home}, not from the checkout", file=sys.stderr)
        return 2
    out = {"setup_s": ready - spec["t_spawn"], "numpy": numpy.__version__}
    if spec["mode"] == "pass":
        out.update(run_pass(spec, root, nilorbit))
    elif spec["mode"] == "anchor":
        out.update(run_anchor(spec, nilorbit))
    print(json.dumps(out))
    return 0
