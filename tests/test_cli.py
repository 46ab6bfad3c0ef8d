import json
import shlex
from pathlib import Path

import pytest

import nilorbit.duality as duality
import nilorbit.levi as levi
from nilorbit import EPolynomial, Family, LeviType, Partition, VerificationError, cli, dual_pair
from nilorbit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestScalarCommands:
    def test_collapse_bare_output(self, capsys):
        code, out, _ = run(capsys, "collapse", "--family", "B", "4,3,3,1")
        assert code == 0
        assert out == "3,3,3,1,1\n"

    def test_collapse_json(self, capsys):
        code, out, _ = run(capsys, "collapse", "--family", "C", "--json", "6,5,1")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "schema": 1,
            "family": "C",
            "input": [6, 5, 1],
            "result": [6, 4, 2],
        }

    def test_validate_exit_codes(self, capsys):
        assert run(capsys, "validate", "--family", "B", "3,1,1")[0] == 0
        code, out, _ = run(capsys, "validate", "--family", "B", "2,2,2,1")
        assert code == 1
        assert out.startswith("invalid:")
        code, _, err = run(capsys, "validate", "--family", "B", "3,x")
        assert code == 2
        assert err.startswith("error:")

    def test_wrong_parity_reported(self, capsys):
        code, out, _ = run(capsys, "validate", "--family", "B", "2,2")
        assert code == 1
        assert "parity" in out

    def test_blocks(self, capsys):
        code, out, _ = run(capsys, "blocks", "--family", "B", "3,3,1")
        assert code == 0
        assert out == "B1[3,3] B3[1]\n"

    def test_special_and_richardson(self, capsys):
        assert run(capsys, "special", "--family", "B", "3,1,1") == (0, "special\n", "")
        assert run(capsys, "special", "--family", "B", "2,2,1") == (0, "not special\n", "")
        assert run(capsys, "richardson", "--family", "B", "2,2,1") == (
            0,
            "not Richardson\n",
            "",
        )

    def test_min_richardson(self, capsys):
        code, out, _ = run(capsys, "min-richardson", "--family", "B", "2,2,1")
        assert code == 0
        assert out == "[3,1,1] (from block 2, witness l=2)\n"

    @pytest.mark.parametrize("fam", ["C", "D"])
    def test_min_richardson_of_the_zero_orbit_names_no_block(self, capsys, fam):
        assert run(capsys, "min-richardson", "--family", fam, "") == (0, "[] (witness l=1)\n", "")
        code, out, _ = run(capsys, "min-richardson", "--family", fam, "", "--json")
        assert code == 0
        assert json.loads(out)["orbits"] == [{"block": None, "partition": [], "witness": 1}]

    def test_polarizations(self, capsys):
        code, out, _ = run(capsys, "polarizations", "--family", "B", "3,1,1")
        assert code == 0
        assert out == "(2;1)\n(1;3)\n"
        code, out, _ = run(capsys, "polarizations", "--family", "B", "2,2,1")
        assert code == 1
        assert out == "not a Richardson orbit\n"

    def test_invalid_partition_is_usage_error(self, capsys):
        code, _, err = run(capsys, "blocks", "--family", "C", "3,1,1")
        assert code == 2
        assert "not a valid family-C partition" in err


class TestDualAndSeesaw:
    def test_dual_both_directions(self, capsys):
        assert run(capsys, "dual", "--family", "B", "3,1,1") == (0, "2,2\n", "")
        assert run(capsys, "dual", "--family", "C", "2,2") == (0, "3,1,1\n", "")

    def test_dual_rejects_family_d(self, capsys):
        code, _, err = run(capsys, "dual", "--family", "D", "3,1")
        assert code == 2
        assert "families B and C" in err

    def test_dual_rejects_non_special(self, capsys):
        code, _, err = run(capsys, "dual", "--family", "B", "2,2,1")
        assert code == 2
        assert "not special" in err

    def test_broken_round_trip_is_a_verification_failure(self, capsys, monkeypatch):
        # Raising 2,2 to 3,2 and "collapsing" it to the regular orbit 5 gives
        # a special B orbit whose dual is 4, not 2,2.
        real = duality.collapse
        monkeypatch.setattr(
            duality, "collapse",
            lambda p, family: real(p, family) if family is Family.C else Partition((p.n,)),
        )
        code, out, err = run(capsys, "dual", "--family", "C", "2,2")
        assert (code, out) == (1, "")
        assert err.startswith("verification failure: ") and err.count("\n") == 1

    def test_seesaw_json(self, capsys):
        code, out, _ = run(capsys, "seesaw", "--family", "B", "--json", "3,1,1")
        assert code == 0
        payload = json.loads(out)
        records = payload["records"]
        assert len(records) == 2
        for rec in records:
            assert rec["product"] == 2
            assert rec["a_bar"] == 2
            assert rec["verdict"] == "pass"
            assert rec["e_equal"] == "pass"
        assert records[0]["levi_pair"] == ["2;1", "2;0"]

    def test_seesaw_needs_family_b(self, capsys):
        code, _, err = run(capsys, "seesaw", "--family", "C", "2,2")
        assert code == 2
        assert "family B" in err


class TestFiber:
    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "fiber", "--family", "B", "--json", "2,2,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["orbit"] == [2, 2, 1]
        by_levi = {rec["levi"]: rec for rec in payload["fibers"]}
        assert set(by_levi) == {"2;1", "1;3"}
        oracle = by_levi["1;3"]["oracle"]
        assert [(o["p"], o["count"], o["expected"], o["verdict"]) for o in oracle] == [
            (3, 4, 4, "pass"),
            (5, 6, 6, "pass"),
        ]
        assert by_levi["1;3"]["descriptor"]["e_poly"] == [1, 1]

    def test_oracle_primes_flag(self, capsys):
        code, out, _ = run(
            capsys, "fiber", "--family", "B", "--json", "--oracle-primes", "7", "2,2,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert [o["p"] for o in payload["fibers"][0]["oracle"]] == [7]
        code, _, err = run(
            capsys, "fiber", "--family", "B", "--oracle-primes", "3;5", "2,2,1"
        )
        assert code == 2

    def test_budget_skip_reported(self, capsys):
        code, out, _ = run(
            capsys, "fiber", "--family", "B", "--json", "--oracle-budget", "1", "2,2,1"
        )
        assert code == 0  # a skip is not a failure
        payload = json.loads(out)
        verdicts = {
            o["verdict"] for rec in payload["fibers"] for o in rec["oracle"]
        }
        assert verdicts == {"skipped: budget"}

    def test_first_row_skip_names_its_cause(self, capsys):
        # At p = 1000003 the first row of (2;1) alone has more candidates
        # than the default cap, so its skip is decided before any row is
        # tested; (1;3) is filled by its forced subspace im e^2 in one node.
        argv = ["fiber", "--family", "B", "--oracle-primes", "1000003", "3,1,1"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("  p=")]
        assert lines == [
            "  p=1000003: skipped: budget: its 1000004 first-row candidates exceed"
            " the 1000000-node cap, so no row was tested",
            "  p=1000003: count 1, expected 1: pass",
        ]
        code, out, _ = run(capsys, *argv, "--json")
        oracle = [o for rec in json.loads(out)["fibers"] for o in rec["oracle"]]
        assert [(o["count"], o["nodes"], o["verdict"]) for o in oracle] == [
            (None, 1000001, "skipped: budget"), (1, 1, "pass")
        ]

    def test_skip_after_rows_keeps_its_node_count(self, capsys):
        # (2,4;1) tests its one first-row candidate, then skips at 11 nodes.
        code, out, _ = run(capsys, "fiber", "--family", "B", "--oracle-primes", "3",
                           "--oracle-budget", "10", "4,4,2,2,1")
        assert code == 0
        assert "  p=3: skipped: budget after 11 nodes" in out.splitlines()


class TestAtlas:
    def test_rank_two_run(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "atlas", "--family", "B", "--rank", "2", "--out", str(tmp_path)
        )
        assert code == 0
        assert "atlas B rank 2" in out
        jsonl = tmp_path / "atlas-B2.jsonl"
        summary = tmp_path / "atlas-B2-summary.csv"
        assert jsonl.exists() and summary.exists()

        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert [rec["orbit"] for rec in records] == [
            [5],
            [3, 1, 1],
            [2, 2, 1],
            [1, 1, 1, 1, 1],
        ]
        assert all(rec["schema"] == 1 for rec in records)
        by_orbit = {tuple(rec["orbit"]): rec for rec in records}
        assert by_orbit[(2, 2, 1)]["richardson"] is False
        assert by_orbit[(2, 2, 1)]["min_richardson"] == [
            {"partition": [3, 1, 1], "block": 2, "witness": 2}
        ]
        assert by_orbit[(3, 1, 1)]["seesaw"] == "pass"
        assert by_orbit[(2, 2, 1)]["dual_pair"] is None  # not special

        lines = summary.read_text().splitlines()
        assert lines[0] == (
            "family,rank,orbits,richardson_orbits,special_orbits,oracle_pass,"
            "oracle_fail,oracle_skipped,seesaw_pass,seesaw_fail,epoly_pass,"
            "epoly_fail,failures"
        )
        assert lines[1] == "B,2,4,3,3,12,0,0,3,0,3,0,0"

    def test_byte_stability(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "atlas", "--family", "C", "--rank", "2", "--out", str(a))
        run(capsys, "atlas", "--family", "C", "--rank", "2", "--out", str(b))
        assert (a / "atlas-C2.jsonl").read_bytes() == (b / "atlas-C2.jsonl").read_bytes()
        assert (
            a / "atlas-C2-summary.csv"
        ).read_bytes() == (b / "atlas-C2-summary.csv").read_bytes()

    def test_very_even_labels(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "atlas", "--family", "D", "--rank", "2", "--out", str(tmp_path)
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "atlas-D2.jsonl").read_text().splitlines()
        ]
        labels = [(tuple(r["orbit"]), r["very_even_label"]) for r in records]
        assert ((2, 2), "I") in labels
        assert ((2, 2), "II") in labels
        assert ((3, 1), None) in labels

    def test_rank_over_ceiling(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "atlas", "--family", "B", "--rank", "7", "--out", str(tmp_path)
        )
        assert code == 2
        assert "ceiling" in err
        code, _, _ = run(
            capsys,
            "atlas", "--family", "B", "--rank", "7", "--ceiling", "7",
            "--oracle-budget", "1", "--oracle-primes", "3",
            "--out", str(tmp_path),
        )
        assert code == 0

    def test_out_naming_a_file_is_usage_error(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run(
            capsys, "atlas", "--family", "B", "--rank", "1", "--out", str(taken)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --out ") and err.count("\n") == 1

    def test_unwritable_atlas_file_is_usage_error(self, capsys, tmp_path):
        (tmp_path / "atlas-B1.jsonl").mkdir()
        code, out, err = run(
            capsys, "atlas", "--family", "B", "--rank", "1", "--out", str(tmp_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write ") and err.count("\n") == 1

    def test_env_budget_respected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NILORBIT_ORACLE_BUDGET", "1")
        code, out, _ = run(
            capsys, "atlas", "--family", "B", "--rank", "2", "--json",
            "--out", str(tmp_path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_skipped"] > 0


class TestNoPolarizationTable:
    """Commands that read no descriptor never build a polarization table;
    at B 81 that table would enumerate 215,308 Levis."""

    @pytest.fixture
    def no_table(self, monkeypatch):
        def refuse(n, family):
            raise AssertionError(f"polarization table built for ({n}, {family.value})")

        monkeypatch.setattr(levi, "_polarization_table", refuse)

    @pytest.mark.parametrize("command, out", [
        ("special", "special\n"),
        ("richardson", "Richardson\n"),
        ("min-richardson", "[81] (from block 1, witness l=1)\n"),
        ("dual", "80\n"),
    ])
    def test_b81(self, capsys, no_table, command, out):
        assert run(capsys, command, "--family", "B", "81") == (0, out, "")

    def test_the_patch_takes_effect(self, capsys, no_table):
        with pytest.raises(AssertionError, match="polarization table"):
            run(capsys, "polarizations", "--family", "B", "3,1,1")


class TestRealizeOnDemand:
    def test_budget_zero_realizes_only_levis_without_gl_blocks(
        self, capsys, tmp_path, monkeypatch
    ):
        # At budget 0 every check with a general-linear block is a skip by
        # its first row alone; only the zero orbit's Levi (;n), which tests
        # e = 0, needs a realization: one per prime per family.
        calls = []
        build = cli.realize

        def counting(p, fam, q):
            calls.append((fam.value, p.parts, q))
            return build(p, fam, q)

        monkeypatch.setattr(cli, "realize", counting)
        needed = []
        for fam in "BCD":
            code, _, _ = run(capsys, "atlas", "--family", fam, "--rank", "4",
                             "--oracle-budget", "0", "--out", str(tmp_path))
            assert code == 0
            with open(tmp_path / f"atlas-{fam}4.jsonl") as fh:
                for rec in map(json.loads, fh):
                    for fib in rec["fibers"]:
                        if fib["levi"].startswith(";"):
                            needed += [(fam, tuple(rec["orbit"]), q) for q in (3, 5)]
        assert calls == needed
        n = {"B": 9, "C": 8, "D": 8}
        assert calls == [(fam, (1,) * n[fam], q) for fam in "BCD" for q in (3, 5)]


class TestOracleInputs:
    """Bad oracle inputs exit 2 with one line on stderr, for fiber and atlas."""

    COMMANDS = {
        "fiber": ["fiber", "--family", "B", "3,1,1"],
        "atlas": ["atlas", "--family", "B", "--rank", "2"],
    }

    def _run(self, capsys, tmp_path, command, *extra):
        argv = self.COMMANDS[command] + list(extra)
        if command == "atlas":
            argv += ["--out", str(tmp_path)]
        return run(capsys, *argv)

    @pytest.mark.parametrize("command", ["fiber", "atlas"])
    @pytest.mark.parametrize(
        "extra",
        [
            ["--oracle-primes", "4"],
            ["--oracle-primes", "2"],
            ["--oracle-primes", "3,9"],
            ["--oracle-primes", "3,3"],
            ["--oracle-primes", "5,3,5"],
            ["--oracle-primes", "3,,5"],
            ["--oracle-primes", "2147483647"],  # prime 2^31-1, but n*(p-1)^2 >= 2^63
            ["--oracle-budget", "-1"],
        ],
        ids=lambda x: " ".join(x),
    )
    def test_bad_flag(self, capsys, tmp_path, command, extra):
        code, out, err = self._run(capsys, tmp_path, command, *extra)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["fiber", "atlas"])
    @pytest.mark.parametrize("primes", ["3,,5", "3,5,", ""])
    def test_empty_prime_is_malformed(self, capsys, tmp_path, command, primes):
        code, out, err = self._run(capsys, tmp_path, command, "--oracle-primes", primes)
        assert (code, out, err) == (2, "", f"error: malformed prime list {primes!r}\n")

    @pytest.mark.parametrize("command", ["fiber", "atlas"])
    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_environment_budget(self, capsys, tmp_path, monkeypatch, command, value):
        monkeypatch.setenv("NILORBIT_ORACLE_BUDGET", value)
        code, _, err = self._run(capsys, tmp_path, command)
        assert code == 2
        assert len(err.splitlines()) == 1 and "NILORBIT_ORACLE_BUDGET" in err

    def test_explicit_budget_overrides_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NILORBIT_ORACLE_BUDGET", "abc")
        code, _, _ = self._run(capsys, tmp_path, "fiber", "--oracle-budget", "0")
        assert code == 0


class TestArgparse:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_family_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["collapse", "4,3,3,1"])
        assert exc.value.code == 2


# --- every command's exact output ---------------------------------------------


def _scale_c_side(monkeypatch):
    """Multiply every C-side E-polynomial by 1 + q, so each pairing's
    per-component E-polynomials differ while the seesaw still holds."""
    real = duality.e_polynomial
    monkeypatch.setattr(
        duality, "e_polynomial",
        lambda d: real(d) * EPolynomial((1, 1)) if d.family is Family.C else real(d),
    )


def _shift_expected_counts(monkeypatch):
    """Add 1 to every E-polynomial the fiber checks compare against."""
    real = cli.e_polynomial

    def shifted(d):
        poly = real(d)
        return EPolynomial((poly.coeffs[0] + 1,) + poly.coeffs[1:])

    monkeypatch.setattr(cli, "e_polynomial", shifted)


def _break_round_trip(monkeypatch):
    real = duality.collapse
    monkeypatch.setattr(
        duality, "collapse",
        lambda p, family: real(p, family) if family is Family.C else Partition((p.n,)),
    )


def _unpolarizing_dual_levi(monkeypatch):
    monkeypatch.setattr(duality, "langlands_dual_levi", lambda L: LeviType((), 4, Family.C))


PATCHES = {
    "unequal-e": _scale_c_side,
    "oracle-fail": _shift_expected_counts,
    "broken-round-trip": _break_round_trip,
    "unpolarizing-levi": _unpolarizing_dual_levi,
}

# (patch, command line without --json); each runs in human and JSON mode.
PINNED = [
    (None, "validate --family B 3,1,1"),
    (None, "validate --family B 2,2,2,1"),
    (None, "validate --family D 2,2,1"),
    (None, "validate --family B 3,x"),
    (None, "collapse --family B 4,3,3,1"),
    (None, "collapse --family C 6,5,1"),
    (None, "collapse --family B 2,2"),
    (None, "blocks --family B 5,4,4,3,2,2,1"),
    (None, "blocks --family C 3,1,1"),
    (None, "special --family B 3,1,1"),
    (None, "special --family D 5,2,2,1"),
    (None, "richardson --family C 2,2"),
    (None, "richardson --family B 2,2,1"),
    (None, "min-richardson --family B 4,4,4,4,3,3,1"),
    (None, "min-richardson --family C ''"),
    (None, "polarizations --family B 3,1,1"),
    (None, "polarizations --family B 2,2,1"),
    (None, "fiber --family B 2,2,1"),
    (None, "fiber --family C 2,2,1,1"),
    (None, "fiber --family D 3,3,1,1"),
    (None, "fiber --family B --oracle-budget 1 2,2,1"),
    (None, "fiber --family B --oracle-primes 1000003 3,1,1"),
    (None, "fiber --family B --oracle-primes 3 --oracle-budget 100 4,4,2,2,1"),
    (None, "fiber --family B --oracle-primes 3;5 2,2,1"),
    ("oracle-fail", "fiber --family B 2,2,1"),
    (None, "dual --family B 3,3,1,1,1"),
    (None, "dual --family C 2,2"),
    (None, "dual --family D 3,1"),
    (None, "dual --family B 2,2,1"),
    ("broken-round-trip", "dual --family C 2,2"),
    (None, "seesaw --family B 3,1,1"),
    (None, "seesaw --family C 2,2"),
    (None, "seesaw --family B 2,2,1"),
    ("unequal-e", "seesaw --family B 3,1,1"),
    ("unpolarizing-levi", "seesaw --family B 3,1,1"),
    (None, "atlas --family B --rank 3 --out out"),
    (None, "atlas --family C --rank 3 --oracle-budget 0 --out out"),
    (None, "atlas --family D --rank 4 --out out"),
    (None, "atlas --family D --rank 4 --oracle-budget 0 --out out"),
    (None, "atlas --family B --rank 7 --out out"),
    ("unequal-e", "atlas --family B --rank 2 --out out"),
    ("oracle-fail", "atlas --family C --rank 2 --out out"),
]
GOLDEN = Path(__file__).with_name("cli_golden.json")


def pinned_run(capsys, monkeypatch, tmp_path, patch, command, mode):
    """Exit code, stdout and stderr of one pinned command, run from
    ``tmp_path`` so atlas paths are relative, with the budget variable unset
    and the dual-pair cache cleared around it."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NILORBIT_ORACLE_BUDGET", raising=False)
    if patch:
        PATCHES[patch](monkeypatch)
    argv = shlex.split(command) + (["--json"] if mode == "json" else [])
    dual_pair.cache_clear()
    try:
        code, out, err = run(capsys, *argv)
    finally:
        dual_pair.cache_clear()
    return {"code": code, "stdout": out, "stderr": err}


def pinned_key(patch, command, mode="human"):
    return command + (" --json" if mode == "json" else "") + (f" [{patch}]" if patch else "")


@pytest.mark.parametrize("mode", ["human", "json"])
@pytest.mark.parametrize("patch, command", PINNED, ids=[pinned_key(*c) for c in PINNED])
def test_pinned_output(capsys, monkeypatch, tmp_path, patch, command, mode):
    """Every subcommand in both modes, with the success, skip, usage-error and
    verification-failure paths, prints exactly the bytes recorded in
    cli_golden.json."""
    expected = json.loads(GOLDEN.read_text())[pinned_key(patch, command, mode)]
    assert pinned_run(capsys, monkeypatch, tmp_path, patch, command, mode) == expected


@pytest.mark.parametrize("patch, command", PINNED, ids=[pinned_key(*c) for c in PINNED])
def test_handlers_print_nothing_to_stdout(capsys, monkeypatch, tmp_path, patch, command):
    """A handler returns its payload; only ``main`` prints it."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NILORBIT_ORACLE_BUDGET", raising=False)
    if patch:
        PATCHES[patch](monkeypatch)
    args = cli.build_parser().parse_args(shlex.split(command))
    dual_pair.cache_clear()
    try:
        args.func(args)
    except (cli.UsageError, VerificationError):
        pass
    finally:
        dual_pair.cache_clear()
    assert capsys.readouterr().out == ""


class TestInternalErrors:
    """Only a VerificationError is reported as a verification failure; any
    other exception, RuntimeError subclasses included, is an internal bug
    and propagates as a traceback."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        dual_pair.cache_clear()
        yield
        dual_pair.cache_clear()

    @pytest.mark.parametrize("exc", [RecursionError, NotImplementedError, RuntimeError])
    def test_dual(self, capsys, monkeypatch, exc):
        def broken(p, family):
            raise exc("internal")

        monkeypatch.setattr(duality, "collapse", broken)
        with pytest.raises(exc):
            main(["dual", "--family", "C", "2,2"])
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("exc", [RecursionError, NotImplementedError, RuntimeError])
    def test_seesaw(self, capsys, monkeypatch, exc):
        def broken(levi):
            raise exc("internal")

        monkeypatch.setattr(duality, "langlands_dual_levi", broken)
        with pytest.raises(exc):
            main(["seesaw", "--family", "B", "3,1,1"])
        assert capsys.readouterr() == ("", "")

    def test_verification_error_is_a_runtime_error(self):
        assert issubclass(VerificationError, RuntimeError)
