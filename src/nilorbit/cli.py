"""Command-line surface: one subcommand per operation plus the ``atlas``
batch verifier, which sweeps every orbit at a given rank, re-runs all the
identity checks, and persists one JSON-Lines record per orbit label.

Exit codes: 0 on success, 1 when a verification fails (or a yes/no check
answers "no" for ``validate``), 2 on usage or input errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .blocks import decompose, is_richardson, is_special
from .duality import dual_pair, pairing_records, springer_dual, springer_dual_inverse
from .errors import InvariantError
from .ff_oracle import (
    _BUDGET_ENV,
    DEFAULT_BUDGET,
    check_modulus,
    fiber_point_count,
    first_row_nodes,
    precharged_skip,
    realize,
    resolve_budget,
)
from .levi import polarizations
from .minimal import minimal_richardson_witnessed
from .partitions import (
    Family,
    Partition,
    enumerate_valid,
    is_valid,
    parse_partition,
)
from .partitions import collapse as collapse_partition
from .spaltenstein import OrbitAnalysis, e_polynomial, orbit_analysis

_ATLAS_DEFAULT_BUDGET = 5000


class UsageError(Exception):
    """Bad input on the command line; reported on stderr with exit code 2."""


def _family(args) -> Family:
    return Family.from_letter(args.family)


def _partition(args) -> Partition:
    try:
        return parse_partition(args.partition)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _valid_partition(args) -> tuple[Partition, Family]:
    fam = _family(args)
    p = _partition(args)
    if not is_valid(p, fam):
        raise UsageError(f"{p} is not a valid family-{fam.value} partition")
    return p, fam


def _primes(args, n: int) -> list[int]:
    """The --oracle-primes list: distinct odd primes, each small enough for
    int64 products at dimension n."""
    try:
        primes = [int(t) for t in args.oracle_primes.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"malformed prime list {args.oracle_primes!r}") from None
    if not primes:
        raise UsageError("at least one oracle prime is required")
    if len(set(primes)) < len(primes):
        raise UsageError(f"--oracle-primes repeats a prime: {args.oracle_primes!r}")
    for q in primes:
        try:
            check_modulus(q, n)
        except ValueError as exc:
            raise UsageError(f"--oracle-primes: {exc}") from None
    return primes


def _budget(args, default: int) -> int:
    """--oracle-budget, else the environment variable, else ``default``."""
    if args.oracle_budget is None and not os.environ.get(_BUDGET_ENV):
        return default
    try:
        return resolve_budget(args.oracle_budget)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in human:
            print(line)


def _invalid_reason(p: Partition, fam: Family) -> str:
    if p.n % 2 != fam.size_parity:
        return f"total {p.n} has the wrong parity for family {fam.value}"
    for v in sorted(set(p.parts), reverse=True):
        if fam.needs_even_multiplicity(v) and p.parts.count(v) % 2 != 0:
            return f"part {v} must occur an even number of times in family {fam.value}"
    raise InvariantError(f"{p} is valid")


def cmd_validate(args) -> int:
    fam = _family(args)
    p = _partition(args)
    ok = is_valid(p, fam)
    reason = None if ok else _invalid_reason(p, fam)
    payload = {
        "schema": 1,
        "family": fam.value,
        "partition": list(p.parts),
        "valid": ok,
        "reason": reason,
    }
    _emit(args, payload, ["valid"] if ok else [f"invalid: {reason}"])
    return 0 if ok else 1


def cmd_collapse(args) -> int:
    fam = _family(args)
    p = _partition(args)
    try:
        out = collapse_partition(p, fam)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload = {
        "schema": 1,
        "family": fam.value,
        "input": list(p.parts),
        "result": list(out.parts),
    }
    _emit(args, payload, [out.literal()])
    return 0


def cmd_blocks(args) -> int:
    p, fam = _valid_partition(args)
    d = decompose(p, fam)
    payload = {
        "schema": 1,
        "family": fam.value,
        "partition": list(p.parts),
        "blocks": [{"kind": blk.kind, "parts": list(blk.parts())} for blk in d.blocks],
        "rendered": d.render(),
    }
    _emit(args, payload, [d.render()])
    return 0


def cmd_special(args) -> int:
    p, fam = _valid_partition(args)
    ok = is_special(p, fam)
    payload = {"schema": 1, "family": fam.value, "partition": list(p.parts), "special": ok}
    _emit(args, payload, ["special" if ok else "not special"])
    return 0


def cmd_richardson(args) -> int:
    p, fam = _valid_partition(args)
    ok = is_richardson(p, fam)
    payload = {"schema": 1, "family": fam.value, "partition": list(p.parts), "richardson": ok}
    _emit(args, payload, ["Richardson" if ok else "not Richardson"])
    return 0


def cmd_min_richardson(args) -> int:
    p, fam = _valid_partition(args)
    witnessed = minimal_richardson_witnessed(p, fam)
    payload = {
        "schema": 1,
        "family": fam.value,
        "partition": list(p.parts),
        "orbits": [
            {"partition": list(r.parts), "block": e.block, "witness": e.witness}
            for r, e in witnessed
        ],
    }
    human = [f"{r} (from block {e.block}, witness l={e.witness})" for r, e in witnessed]
    _emit(args, payload, human)
    return 0


def cmd_polarizations(args) -> int:
    p, fam = _valid_partition(args)
    try:
        levis = polarizations(p, fam)
    except ValueError:
        _emit(
            args,
            {
                "schema": 1,
                "family": fam.value,
                "partition": list(p.parts),
                "polarizations": None,
            },
            ["not a Richardson orbit"],
        )
        return 1
    payload = {
        "schema": 1,
        "family": fam.value,
        "partition": list(p.parts),
        "polarizations": [L.literal() for L in levis],
    }
    _emit(args, payload, [str(L) for L in levis])
    return 0


def _fiber_records(analysis: OrbitAnalysis, primes: list[int], budget: int):
    """One record per pseudo-polarization of the analysed orbit, with its
    oracle checks.  A prime's realization is built the first time a check
    at that prime is not already a skip by its first row alone."""
    p, fam = analysis.partition, analysis.family
    records = []
    failed = False
    reals = {}
    for d in analysis.descriptors:
        poly = e_polynomial(d)
        oracle = []
        for q in primes:
            fc = precharged_skip(p, d.levi, q, budget)
            if fc is None:
                if q not in reals:
                    reals[q] = realize(p, fam, q)
                fc = fiber_point_count(reals[q], d.levi, budget)
            if fc.count is None:
                oracle.append(
                    {"p": q, "count": None, "expected": poly(q), "nodes": fc.nodes,
                     "verdict": f"skipped: {fc.skipped}"}
                )
            else:
                ok = fc.count == poly(q)
                failed = failed or not ok
                oracle.append(
                    {"p": q, "count": fc.count, "expected": poly(q), "nodes": fc.nodes,
                     "verdict": "pass" if ok else "fail"}
                )
        records.append(
            {
                "min_richardson": list(d.min_richardson.parts),
                "levi": d.levi.literal(),
                "descriptor": d.as_dict(),
                "oracle": oracle,
            }
        )
    return records, failed


def cmd_fiber(args) -> int:
    p, fam = _valid_partition(args)
    primes = _primes(args, p.n)
    budget = _budget(args, DEFAULT_BUDGET)
    analysis = orbit_analysis(p, fam)
    records, failed = _fiber_records(analysis, primes, budget)
    payload = {
        "schema": 1,
        "family": fam.value,
        "orbit": list(p.parts),
        "fibers": records,
    }
    human = []
    for rec, levi in zip(records, (d.levi for d in analysis.descriptors)):
        d = rec["descriptor"]
        tower = " * ".join(
            [f"OG({s['m']},{s['N']})" for s in d["og_tower"]]
            + [f"IG({s['m']},{s['N']})" for s in d["ig_factors"]]
        ) or "point"
        human.append(
            f"minimal [{','.join(str(x) for x in rec['min_richardson'])}] via "
            f"({rec['levi']}): {tower}, dim {d['dim']}, components {d['components']}"
        )
        for o in rec["oracle"]:
            first = first_row_nodes(p, levi, o["p"])
            if o["count"] is not None:
                human.append(
                    f"  p={o['p']}: count {o['count']}, expected {o['expected']}: {o['verdict']}"
                )
            elif first > budget:
                human.append(
                    f"  p={o['p']}: {o['verdict']}: its {first} first-row candidates exceed"
                    f" the {budget}-node cap, so no row was tested"
                )
            else:
                human.append(f"  p={o['p']}: {o['verdict']} after {o['nodes']} nodes")
    _emit(args, payload, human)
    return 1 if failed else 0


def cmd_dual(args) -> int:
    fam = _family(args)
    p = _partition(args)
    if fam is Family.D:
        raise UsageError("duality relates families B and C only")
    try:
        out = springer_dual(p) if fam is Family.B else springer_dual_inverse(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    payload = {
        "schema": 1,
        "family": fam.value,
        "partition": list(p.parts),
        "dual": list(out.parts),
    }
    _emit(args, payload, [out.literal()])
    return 0


def cmd_seesaw(args) -> int:
    fam = _family(args)
    if fam is not Family.B:
        raise UsageError("seesaw starts from a special orbit of family B")
    p = _partition(args)
    try:
        dp = dual_pair(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    records = pairing_records(dp)
    ok = all(rec["verdict"] == rec["e_equal"] == "pass" for rec in records)
    payload = {"schema": 1, "records": records}
    human = [f"dual pair {dp.b_orbit} <-> {dp.c_orbit}"]
    for rec in records:
        min_b, min_c = rec["min_pair"]
        levi_b, levi_c = rec["levi_pair"]
        cb, cc = rec["components"]
        human.append(
            f"  minimal [{','.join(map(str, min_b))}] -> [{','.join(map(str, min_c))}]"
            f" levis ({levi_b})|({levi_c}): components {cb} x {cc} = {rec['product']}"
            f" vs #A-bar {rec['a_bar']}: {rec['verdict']};"
            f" E per component {'equal' if rec['e_equal'] == 'pass' else 'UNEQUAL'}"
        )
    _emit(args, payload, human)
    return 0 if ok else 1


def _orbit_labels(n: int, fam: Family):
    for p in enumerate_valid(n, fam):
        if fam is Family.D and p.parts and all(x % 2 == 0 for x in p.parts):
            yield p, "I"
            yield p, "II"
        else:
            yield p, None


def _atlas_record(p: Partition, fam: Family, rank: int, label: str | None,
                  primes: list[int], budget: int) -> dict:
    analysis = orbit_analysis(p, fam)
    rec: dict = {
        "schema": 1,
        "family": fam.value,
        "rank": rank,
        "n": p.n,
        "orbit": list(p.parts),
        "very_even_label": label,
        "special": analysis.special,
        "richardson": analysis.richardson,
    }
    rec["min_richardson"] = [
        {"partition": list(r.parts), "block": e.block, "witness": e.witness}
        for r, e in analysis.witnessed
    ]
    rec["fibers"], _ = _fiber_records(analysis, primes, budget)
    rec["pseudo_polarizations"] = [
        {"min_richardson": fib["min_richardson"], "levi": fib["levi"]} for fib in rec["fibers"]
    ]

    rec["dual_pair"] = rec["seesaw"] = rec["e_equality"] = None
    if fam is Family.D or not rec["special"]:
        return rec
    try:
        dp = dual_pair(p if fam is Family.B else springer_dual_inverse(p))
    except RuntimeError as exc:
        rec.update(dual_pair={"error": str(exc)}, seesaw="fail", e_equality="fail")
        return rec
    pairs = pairing_records(dp)
    rec["dual_pair"] = {
        "b_orbit": list(dp.b_orbit.parts),
        "c_orbit": list(dp.c_orbit.parts),
        "a_bar": dp.a_bar,
        "pairings": pairs,
    }
    rec["seesaw"] = "pass" if all(x["verdict"] == "pass" for x in pairs) else "fail"
    rec["e_equality"] = "pass" if all(x["e_equal"] == "pass" for x in pairs) else "fail"
    return rec


def cmd_atlas(args) -> int:
    fam = _family(args)
    if args.rank < 1:
        raise UsageError("rank must be at least 1")
    if args.rank > args.ceiling:
        raise UsageError(f"rank {args.rank} exceeds the ceiling {args.ceiling}")
    n = 2 * args.rank + fam.size_parity
    primes = _primes(args, n)
    budget = _budget(args, _ATLAS_DEFAULT_BUDGET)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {args.out}: {exc.strerror}") from None

    records = [
        _atlas_record(p, fam, args.rank, label, primes, budget)
        for p, label in _orbit_labels(n, fam)
    ]

    jsonl = out_dir / f"atlas-{fam.value}{args.rank}.jsonl"
    summary = out_dir / f"atlas-{fam.value}{args.rank}-summary.csv"
    oracle = [o for rec in records for fib in rec["fibers"] for o in fib["oracle"]]
    counts = {
        "orbits": len(records),
        "richardson_orbits": sum(1 for r in records if r["richardson"]),
        "special_orbits": sum(1 for r in records if r["special"]),
        "oracle_pass": sum(1 for o in oracle if o["verdict"] == "pass"),
        "oracle_fail": sum(1 for o in oracle if o["verdict"] == "fail"),
        "oracle_skipped": sum(1 for o in oracle if o["verdict"].startswith("skipped")),
        "seesaw_pass": sum(1 for r in records if r["seesaw"] == "pass"),
        "seesaw_fail": sum(1 for r in records if r["seesaw"] == "fail"),
        "epoly_pass": sum(1 for r in records if r["e_equality"] == "pass"),
        "epoly_fail": sum(1 for r in records if r["e_equality"] == "fail"),
    }
    failures = counts["oracle_fail"] + counts["seesaw_fail"] + counts["epoly_fail"]

    try:
        with open(jsonl, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        with open(summary, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["family", "rank"] + list(counts) + ["failures"])
            writer.writerow([fam.value, args.rank] + list(counts.values()) + [failures])
    except OSError as exc:
        raise UsageError(f"cannot write {exc.filename}: {exc.strerror}") from None

    if failures:
        for rec in records:
            if rec["seesaw"] == "fail" or rec["e_equality"] == "fail" or any(
                o["verdict"] == "fail" for fib in rec["fibers"] for o in fib["oracle"]
            ):
                print(f"FAIL: orbit {rec['orbit']}", file=sys.stderr)

    payload = {"schema": 1, "files": [str(jsonl), str(summary)], **counts,
               "failures": failures}
    human = [
        f"atlas {fam.value} rank {args.rank}: wrote {jsonl} ({len(records)} records)",
        f"orbits {counts['orbits']} | richardson {counts['richardson_orbits']}"
        f" | special {counts['special_orbits']}",
        f"oracle checks: {counts['oracle_pass']} pass, {counts['oracle_fail']} fail,"
        f" {counts['oracle_skipped']} skipped",
        f"seesaw: {counts['seesaw_pass']} pass, {counts['seesaw_fail']} fail;"
        f" E-equality: {counts['epoly_pass']} pass, {counts['epoly_fail']} fail",
        f"failures: {failures}",
    ]
    _emit(args, payload, human)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilorbit",
        description="Nilpotent-orbit combinatorics for the classical families B, C, D.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", required=True, choices=["B", "C", "D"],
                        help="classical family of the ambient Lie algebra")
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--oracle-primes", default="3,5",
                        help="comma-separated odd primes for finite-field checks")
    common.add_argument("--oracle-budget", type=int, default=None,
                        help="node cap for the flag enumeration (default: "
                             f"${_BUDGET_ENV} or built-in)")

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, partition: bool = True):
        sp = sub.add_parser(name, parents=[common], help=help_)
        if partition:
            sp.add_argument("partition", help="comma-separated parts, e.g. 4,3,3,1")
        sp.set_defaults(func=func)
        return sp

    add("validate", cmd_validate, "check a partition against the family's parity rules")
    add("collapse", cmd_collapse, "largest valid partition dominated by the input")
    add("blocks", cmd_blocks, "segment a valid partition into boundary/pair blocks")
    add("special", cmd_special, "test whether the orbit is special")
    add("richardson", cmd_richardson, "test whether the orbit is Richardson")
    add("min-richardson", cmd_min_richardson,
        "minimal Richardson orbits dominating the input, with witnesses")
    add("polarizations", cmd_polarizations, "Levi types inducing exactly this orbit")
    add("fiber", cmd_fiber,
        "fiber descriptors for every pseudo-polarization, checked over finite fields")
    add("dual", cmd_dual, "partner special orbit in the other family (B <-> C)")
    add("seesaw", cmd_seesaw,
        "component-count seesaw and E-polynomial equality across a dual pair")
    atlas = add("atlas", cmd_atlas, "batch-verify every orbit at a rank", partition=False)
    atlas.add_argument("--rank", type=int, default=6, help="rank of the ambient algebra")
    atlas.add_argument("--ceiling", type=int, default=6,
                       help="largest rank the atlas will attempt")
    atlas.add_argument("--out", default=".", help="directory for the atlas files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
