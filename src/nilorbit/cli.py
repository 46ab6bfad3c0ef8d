"""Command-line surface: one subcommand per operation plus the ``atlas``
batch verifier, which sweeps every orbit at a given rank, re-runs all the
identity checks, and persists one JSON-Lines record per orbit label.

Each ``cmd_*`` handler returns (payload, exit code) and prints nothing to
stdout; ``main`` prints the payload as JSON under ``--json``, and otherwise
the lines of the renderer registered with the subcommand, which reads only
the payload.  Exit codes: 0 on success, 1 when a verification fails (a
failed check, a ``VerificationError``, or "invalid" from ``validate``), 2 on
usage or input errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .blocks import decompose
from .duality import dual_pair, pairing_records, springer_dual, springer_dual_inverse
from .errors import InvariantError, VerificationError
from .ff_oracle import (
    DEFAULT_BUDGET,
    check_modulus,
    fiber_point_count,
    first_row_nodes,
    precharged_skip,
    realize,
    resolve_budget,
)
from .levi import LeviType, polarizations
from .partitions import (
    Family,
    Partition,
    enumerate_valid,
    is_valid,
    parse_partition,
)
from .partitions import collapse as collapse_partition
from .spaltenstein import (
    OrbitAnalysis,
    e_polynomial,
    is_richardson,
    is_special,
    minimal_richardson_witnessed,
    orbit_analysis,
)

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
        primes = [int(t) for t in args.oracle_primes.split(",")]
    except ValueError:  # an empty item, as in "3,,5", is malformed too
        raise UsageError(f"malformed prime list {args.oracle_primes!r}") from None
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
    try:
        return resolve_budget(args.oracle_budget, default)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _head(fam: Family, key: str, p: Partition) -> dict:
    """The fields every single-orbit payload opens with."""
    return {"schema": 1, "family": fam.value, key: list(p.parts)}


def _literal(parts: list[int]) -> str:
    return ",".join(map(str, parts))


def _invalid_reason(p: Partition, fam: Family) -> str:
    if p.n % 2 != fam.size_parity:
        return f"total {p.n} has the wrong parity for family {fam.value}"
    for v in sorted(set(p.parts), reverse=True):
        if fam.needs_even_multiplicity(v) and p.parts.count(v) % 2 != 0:
            return f"part {v} must occur an even number of times in family {fam.value}"
    raise InvariantError(f"{p} is valid")


def cmd_validate(args) -> tuple[dict, int]:
    fam = _family(args)
    p = _partition(args)
    ok = is_valid(p, fam)
    reason = None if ok else _invalid_reason(p, fam)
    return {**_head(fam, "partition", p), "valid": ok, "reason": reason}, 0 if ok else 1


def cmd_collapse(args) -> tuple[dict, int]:
    fam = _family(args)
    p = _partition(args)
    try:
        out = collapse_partition(p, fam)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return {**_head(fam, "input", p), "result": list(out.parts)}, 0


def cmd_blocks(args) -> tuple[dict, int]:
    p, fam = _valid_partition(args)
    d = decompose(p, fam)
    blocks = [{"kind": blk.kind, "parts": list(blk.parts())} for blk in d.blocks]
    return {**_head(fam, "partition", p), "blocks": blocks, "rendered": d.render()}, 0


def cmd_special(args) -> tuple[dict, int]:
    p, fam = _valid_partition(args)
    return {**_head(fam, "partition", p), "special": is_special(p, fam)}, 0


def cmd_richardson(args) -> tuple[dict, int]:
    p, fam = _valid_partition(args)
    return {**_head(fam, "partition", p), "richardson": is_richardson(p, fam)}, 0


def cmd_min_richardson(args) -> tuple[dict, int]:
    p, fam = _valid_partition(args)
    orbits = [
        {"partition": list(r.parts), "block": e.block, "witness": e.witness}
        for r, e in minimal_richardson_witnessed(p, fam)
    ]
    return {**_head(fam, "partition", p), "orbits": orbits}, 0


def cmd_polarizations(args) -> tuple[dict, int]:
    p, fam = _valid_partition(args)
    try:
        levis = [L.literal() for L in polarizations(p, fam)]
    except ValueError:
        levis = None
    return {**_head(fam, "partition", p), "polarizations": levis}, 0 if levis is not None else 1


def _fiber_records(analysis: OrbitAnalysis, primes: list[int], budget: int) -> list[dict]:
    """One record per pseudo-polarization of the analysed orbit, with its
    oracle checks.  A prime's realization is built the first time a check
    at that prime is not already a skip by its first row alone."""
    p, fam = analysis.partition, analysis.family
    records = []
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
                verdict = f"skipped: {fc.skipped}"
            else:
                verdict = "pass" if fc.count == poly(q) else "fail"
            oracle.append({"p": q, "count": fc.count, "expected": poly(q), "nodes": fc.nodes,
                           "verdict": verdict})
        records.append(
            {
                "min_richardson": list(d.min_richardson.parts),
                "levi": d.levi.literal(),
                "descriptor": d.as_dict(),
                "oracle": oracle,
            }
        )
    return records


def _failed(fibers: list[dict]) -> bool:
    return any(o["verdict"] == "fail" for fib in fibers for o in fib["oracle"])


def cmd_fiber(args) -> tuple[dict, int]:
    p, fam = _valid_partition(args)
    primes = _primes(args, p.n)
    budget = _budget(args, DEFAULT_BUDGET)
    records = _fiber_records(orbit_analysis(p, fam), primes, budget)
    return {**_head(fam, "orbit", p), "fibers": records}, 1 if _failed(records) else 0


def show_fiber(args, payload: dict) -> list[str]:
    """A skipped check always reports cap + 1 nodes; when its first row
    alone has more candidates than that cap, say so instead."""
    p, fam = Partition(tuple(payload["orbit"])), Family(payload["family"])
    lines = []
    for rec in payload["fibers"]:
        d = rec["descriptor"]
        tower = " * ".join(
            [f"OG({s['m']},{s['N']})" for s in d["og_tower"]]
            + [f"IG({s['m']},{s['N']})" for s in d["ig_factors"]]
        ) or "point"
        lines.append(
            f"minimal [{_literal(rec['min_richardson'])}] via ({rec['levi']}): {tower},"
            f" dim {d['dim']}, components {d['components']}"
        )
        levi = LeviType.from_text(rec["levi"], fam)
        for o in rec["oracle"]:
            if o["count"] is not None:
                lines.append(
                    f"  p={o['p']}: count {o['count']}, expected {o['expected']}: {o['verdict']}"
                )
                continue
            first, cap = first_row_nodes(p, levi, o["p"]), o["nodes"] - 1
            if first > cap:
                lines.append(
                    f"  p={o['p']}: {o['verdict']}: its {first} first-row candidates exceed"
                    f" the {cap}-node cap, so no row was tested"
                )
            else:
                lines.append(f"  p={o['p']}: {o['verdict']} after {o['nodes']} nodes")
    return lines


def cmd_dual(args) -> tuple[dict, int]:
    fam = _family(args)
    p = _partition(args)
    if fam is Family.D:
        raise UsageError("duality relates families B and C only")
    try:
        out = springer_dual(p) if fam is Family.B else springer_dual_inverse(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return {**_head(fam, "partition", p), "dual": list(out.parts)}, 0


def cmd_seesaw(args) -> tuple[dict, int]:
    fam = _family(args)
    if fam is not Family.B:
        raise UsageError("seesaw starts from a special orbit of family B")
    try:
        dp = dual_pair(_partition(args))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    records = pairing_records(dp)
    ok = all(rec["verdict"] == rec["e_equal"] == "pass" for rec in records)
    return {"schema": 1, "records": records}, 0 if ok else 1


def show_seesaw(args, payload: dict) -> list[str]:
    """Every orbit has a minimal Richardson orbit with a polarization, so a
    dual pair has at least one pairing record to name the pair from."""
    first = payload["records"][0]
    lines = [f"dual pair [{_literal(first['b_orbit'])}] <-> [{_literal(first['c_orbit'])}]"]
    for rec in payload["records"]:
        min_b, min_c = rec["min_pair"]
        levi_b, levi_c = rec["levi_pair"]
        cb, cc = rec["components"]
        lines.append(
            f"  minimal [{_literal(min_b)}] -> [{_literal(min_c)}]"
            f" levis ({levi_b})|({levi_c}): components {cb} x {cc} = {rec['product']}"
            f" vs #A-bar {rec['a_bar']}: {rec['verdict']};"
            f" E per component {'equal' if rec['e_equal'] == 'pass' else 'UNEQUAL'}"
        )
    return lines


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
    rec["fibers"] = _fiber_records(analysis, primes, budget)
    rec["pseudo_polarizations"] = [
        {"min_richardson": fib["min_richardson"], "levi": fib["levi"]} for fib in rec["fibers"]
    ]

    rec["dual_pair"] = rec["seesaw"] = rec["e_equality"] = None
    if fam is Family.D or not rec["special"]:
        return rec
    try:
        dp = dual_pair(p if fam is Family.B else springer_dual_inverse(p))
    except VerificationError as exc:
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


def cmd_atlas(args) -> tuple[dict, int]:
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

    for rec in records:
        if rec["seesaw"] == "fail" or rec["e_equality"] == "fail" or _failed(rec["fibers"]):
            print(f"FAIL: orbit {rec['orbit']}", file=sys.stderr)
    payload = {"schema": 1, "files": [str(jsonl), str(summary)], **counts,
               "failures": failures}
    return payload, 1 if failures else 0


def show_atlas(args, payload: dict) -> list[str]:
    return [
        f"atlas {args.family} rank {args.rank}: wrote {payload['files'][0]}"
        f" ({payload['orbits']} records)",
        f"orbits {payload['orbits']} | richardson {payload['richardson_orbits']}"
        f" | special {payload['special_orbits']}",
        f"oracle checks: {payload['oracle_pass']} pass, {payload['oracle_fail']} fail,"
        f" {payload['oracle_skipped']} skipped",
        f"seesaw: {payload['seesaw_pass']} pass, {payload['seesaw_fail']} fail;"
        f" E-equality: {payload['epoly_pass']} pass, {payload['epoly_fail']} fail",
        f"failures: {payload['failures']}",
    ]


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
                             "$NILORBIT_ORACLE_BUDGET or built-in)")

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, show, help_: str, partition: bool = True):
        """Register a subcommand: ``func(args)`` returns (payload, exit code)
        and ``show(args, payload)`` the lines printed without --json."""
        sp = sub.add_parser(name, parents=[common], help=help_)
        if partition:
            sp.add_argument("partition", help="comma-separated parts, e.g. 4,3,3,1")
        sp.set_defaults(func=func, show=show)
        return sp

    add("validate", cmd_validate,
        lambda args, pl: ["valid" if pl["valid"] else f"invalid: {pl['reason']}"],
        "check a partition against the family's parity rules")
    add("collapse", cmd_collapse, lambda args, pl: [_literal(pl["result"])],
        "largest valid partition dominated by the input")
    add("blocks", cmd_blocks, lambda args, pl: [pl["rendered"]],
        "segment a valid partition into boundary/pair blocks")
    add("special", cmd_special,
        lambda args, pl: ["special" if pl["special"] else "not special"],
        "test whether the orbit is special")
    add("richardson", cmd_richardson,
        lambda args, pl: ["Richardson" if pl["richardson"] else "not Richardson"],
        "test whether the orbit is Richardson")
    add("min-richardson", cmd_min_richardson,
        lambda args, pl: [
            f"[{_literal(o['partition'])}] ("
            + (f"from block {o['block']}, " if o["block"] is not None else "")
            + f"witness l={o['witness']})"
            for o in pl["orbits"]
        ],
        "minimal Richardson orbits dominating the input, with witnesses")
    add("polarizations", cmd_polarizations,
        lambda args, pl: (["not a Richardson orbit"] if pl["polarizations"] is None
                          else [f"({lit})" for lit in pl["polarizations"]]),
        "Levi types inducing exactly this orbit")
    add("fiber", cmd_fiber, show_fiber,
        "fiber descriptors for every pseudo-polarization, checked over finite fields")
    add("dual", cmd_dual, lambda args, pl: [_literal(pl["dual"])],
        "partner special orbit in the other family (B <-> C)")
    add("seesaw", cmd_seesaw, show_seesaw,
        "component-count seesaw and E-polynomial equality across a dual pair")
    atlas = add("atlas", cmd_atlas, show_atlas, "batch-verify every orbit at a rank",
                partition=False)
    atlas.add_argument("--rank", type=int, default=6, help="rank of the ambient algebra")
    atlas.add_argument("--ceiling", type=int, default=6,
                       help="largest rank the atlas will attempt")
    atlas.add_argument("--out", default=".", help="directory for the atlas files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in args.show(args, payload):
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
