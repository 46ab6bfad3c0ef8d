import json
import shlex
from pathlib import Path

import pytest

import nilorbit.duality as duality
import nilorbit.levi as levi
from nilorbit import EPolynomial, Family, LeviType, Partition, VerificationError, _linalg, cli, dual_pair, ff_oracle
from nilorbit.cli import main
from nilorbit.partitions import parse_partition


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


class TestNumberTokens:
    """A number in a literal is ASCII digits with an optional leading minus
    and blanks around them.  What only Python's int() takes besides (an
    underscore, a plus, a non-ASCII digit) is malformed: the command exits
    2 with one line on stderr, and the library raises ValueError."""

    @pytest.mark.parametrize("literal", ["3_1,1", "\uff13,1,1", "+3,1,1"])
    def test_partition(self, capsys, literal):
        code, out, err = run(capsys, "validate", "--family", "B", literal)
        assert (code, out, err) == (2, "", f"error: malformed partition literal {literal!r}\n")
        with pytest.raises(ValueError, match="^malformed partition literal"):
            parse_partition(literal)

    @pytest.mark.parametrize("primes", ["1_1", "+3,5", "3,\uff15"])
    def test_prime_list(self, capsys, primes):
        code, out, err = run(capsys, "fiber", "--family", "B", "3,1,1", "--oracle-primes", primes)
        assert (code, out, err) == (2, "", f"error: malformed prime list {primes!r}\n")

    @pytest.mark.parametrize("option", ["--rank", "--ceiling", "--oracle-budget"])
    @pytest.mark.parametrize("value", ["0_1", " +1", "+1", "\uff11"])
    def test_atlas_integer_options(self, capsys, tmp_path, option, value):
        argv = {"--rank": "1", "--ceiling": "1", "--oracle-budget": "0"} | {option: value}
        code, out, err = run(capsys, "atlas", "--family", "B", "--out", str(tmp_path),
                             *(x for item in argv.items() for x in item))
        assert (code, out, err) == (2, "", f"error: argument {option}: invalid int value: {value!r}\n")
        assert not any(tmp_path.iterdir())

    def test_fiber_budget(self, capsys):
        code, out, err = run(capsys, "fiber", "--family", "B", "--oracle-budget", "1_0", "3,1,1")
        assert (code, out, err) == (2, "", "error: argument --oracle-budget: invalid int value: '1_0'\n")

    def test_levi(self):
        for literal in ("1_0;1", "1;+1", "\uff11;1"):
            with pytest.raises(ValueError, match="^malformed Levi literal"):
                LeviType.from_text(literal, Family.B)

    def test_blanks_and_a_minus_stay_tokens(self):
        assert parse_partition(" 3 ,1,\t1 ") == Partition((3, 1, 1))
        assert LeviType.from_text("1 , 2; 1", Family.B) == LeviType((1, 2), 1, Family.B)
        with pytest.raises(ValueError, match="^parts must be positive"):
            parse_partition("-3")


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
        # Both Levis of B 4,4,1 have two levels, so they are enumerated,
        # and each needs more than one node.
        code, out, _ = run(
            capsys, "fiber", "--family", "B", "--json", "--oracle-budget", "1", "4,4,1"
        )
        assert code == 0  # a skip is not a failure
        payload = json.loads(out)
        verdicts = {
            o["verdict"] for rec in payload["fibers"] for o in rec["oracle"]
        }
        assert verdicts == {"skipped: budget"}

    def test_first_row_skip_names_its_cause(self, capsys):
        # B 4,4,3 via (2,3;1) and (1,3;3), two-level Levis that the peel
        # leaves to the enumeration, as no part equals s = 5.  At p = 1000003
        # the first pivot column of each alone has more candidates than the
        # default cap, so each skip is decided before any row is tested.
        # The line names the budget and the cap + 1 nodes, as every skip
        # does.
        argv = ["fiber", "--family", "B", "--oracle-primes", "1000003", "4,4,3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("  p=")]
        assert lines == ["  p=1000003: skipped: budget after 1000001 nodes"] * 2
        code, out, _ = run(capsys, *argv, "--json")
        oracle = [o for rec in json.loads(out)["fibers"] for o in rec["oracle"]]
        assert [(o["count"], o["nodes"], o["verdict"]) for o in oracle] == [
            (None, 1000001, "skipped: budget")
        ] * 2

    def test_peeled_check_is_not_precharged(self, capsys):
        # B 3,1,1 via (2;1) would test 1000004 first-row candidates at p =
        # 1000003, but the peel takes off the part 3 and counts the two
        # isotropic lines of the split plane left, in one node; (1;3)
        # merges its one level away.
        argv = ["fiber", "--family", "B", "--oracle-primes", "1000003", "3,1,1", "--json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        oracle = [o for rec in json.loads(out)["fibers"] for o in rec["oracle"]]
        assert [(o["count"], o["nodes"], o["verdict"]) for o in oracle] == [
            (2, 1, "pass"), (1, 1, "pass")
        ]

    def test_peeled_skip_reports_its_one_node(self, capsys):
        # The peel would decide both checks in one node, over the 0-node cap.
        code, out, _ = run(capsys, "fiber", "--family", "B", "--oracle-primes", "3",
                           "--oracle-budget", "0", "3,1,1")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("  p=")]
        assert lines == ["  p=3: skipped: budget after 1 nodes"] * 2

    def test_skip_after_rows_keeps_its_node_count(self, capsys):
        # (1,4;3) tests its six first-row candidates and counts the last
        # level of one child (a node for a count that is not 0), then skips
        # at 8 nodes on the next child.
        code, out, _ = run(capsys, "fiber", "--family", "B", "--oracle-primes", "3",
                           "--oracle-budget", "7", "4,4,2,2,1")
        assert code == 0
        assert "  p=3: skipped: budget after 8 nodes" in out.splitlines()


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
    def test_budget_zero_builds_no_model_and_no_array(self, capsys, tmp_path, monkeypatch):
        # At budget 0 every check with a general-linear block skips before
        # its root, and the zero orbit's Levi (;n), which has none, is
        # decided at its root from the partition: each check gets its own
        # realization, and none builds a model, an array or an elimination.
        calls = []
        build = cli.realize

        def counting(p, fam, q):
            calls.append((fam.value, p.parts, q))
            return build(p, fam, q)

        def refuse(*args):
            raise AssertionError(f"built at budget 0: {args}")

        monkeypatch.setattr(cli, "realize", counting)
        monkeypatch.setattr(ff_oracle, "_model", refuse)
        monkeypatch.setattr(_linalg, "_reduce", refuse)
        checks = []
        for fam in "BCD":
            code, _, _ = run(capsys, "atlas", "--family", fam, "--rank", "4",
                             "--oracle-budget", "0", "--out", str(tmp_path))
            assert code == 0
            with open(tmp_path / f"atlas-{fam}4.jsonl") as fh:
                for rec in map(json.loads, fh):
                    for fib in rec["fibers"]:
                        checks += [(fam, tuple(rec["orbit"]), o["p"]) for o in fib["oracle"]]
        assert calls == checks
        assert len(calls) == 96

    def test_one_model_per_orbit(self, capsys, tmp_path, monkeypatch):
        # At the default budget the rank-5 atlas makes 162 checks over its
        # 61 orbits at primes 3 and 5, each on its own realization; only
        # the 20 orbits with a check that the root leaves to the
        # enumeration build a model, one each.
        calls = []
        build = cli.realize
        monkeypatch.setattr(cli, "realize", lambda p, fam, q: calls.append(q) or build(p, fam, q))
        ff_oracle._model.cache_clear()
        for fam in "BCD":
            code, _, _ = run(capsys, "atlas", "--family", fam, "--rank", "5", "--out", str(tmp_path))
            assert code == 0
        assert (len(calls), ff_oracle._model.cache_info().misses) == (162, 20)


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


class TestOracleFlags:
    """Only fiber and atlas run the oracle, so only they take its flags,
    each with its own default node cap; every other command rejects them
    as unknown options, valid values included."""

    OTHERS = ["validate", "collapse", "blocks", "special", "richardson", "min-richardson",
              "polarizations", "dual", "seesaw"]

    def test_others_are_every_other_command(self, capsys):
        code, _, err = run(capsys, "no-such-command")
        choices = err.split("choose from ")[1].rstrip(")\n").split(", ")
        assert code == 2
        assert sorted(c.strip("'") for c in choices) == sorted(self.OTHERS + ["fiber", "atlas"])

    @pytest.mark.parametrize("command", OTHERS)
    @pytest.mark.parametrize("flag", [["--oracle-primes", "3"], ["--oracle-budget", "0"]],
                             ids=lambda x: x[0])
    def test_other_commands_reject_the_flags(self, capsys, command, flag):
        code, out, err = run(capsys, command, "--family", "B", "3,1,1", *flag)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: unrecognized arguments: ")

    @pytest.mark.parametrize("command", OTHERS)
    @pytest.mark.parametrize("flag", [["--oracle-primes", "3"], ["--oracle-budget", "0"],
                                      ["--oracle-budget=0"]], ids=lambda x: x[0])
    def test_a_flag_before_the_partition_is_named_alone(self, capsys, command, flag):
        # argparse takes the flag's value as the partition and leaves the
        # partition over; the message names only the option.
        code, out, err = run(capsys, command, "--family", "B", *flag, "3,1,1")
        option = flag[0].split("=")[0]
        assert (code, out, err) == (2, "", f"error: unrecognized arguments: {option}\n")

    @pytest.mark.parametrize("command, argv, budget", [
        ("fiber", ["3,1,1"], 1_000_000),
        ("atlas", [], 5000),
    ])
    def test_defaults(self, capsys, command, argv, budget):
        args = cli.build_parser().parse_args([command, "--family", "B", *argv])
        assert (args.oracle_primes, args.oracle_budget) == ("3,5", budget)
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert exc.value.code == 0
        assert "(default: 3,5)" in out and f"(default: {budget})" in out


class TestArgparse:
    """argparse's own errors print one stderr line, ``error: <message>``,
    and nothing on stdout, with exit code 2, like every other bad input."""

    def test_no_arguments(self, capsys):
        assert run(capsys) == (2, "", "error: the following arguments are required: command\n")

    def test_family_required(self, capsys):
        assert run(capsys, "collapse", "4,3,3,1") == (
            2, "", "error: the following arguments are required: --family\n"
        )

    @pytest.mark.parametrize("argv, message", [
        ("collapse --family X 4,3,3,1", "argument --family: invalid choice: "),
        ("atlas --family B --rank x", "argument --rank: invalid int value: 'x'"),
        ("fiber --family B --oracle-budget x 2,2,1",
         "argument --oracle-budget: invalid int value: 'x'"),
        ("blocks --family B", "the following arguments are required: partition"),
        ("blocks --family B 5,3,1 7", "unrecognized arguments: 7"),
    ], ids=["family", "rank", "oracle-budget", "partition", "extra"])
    def test_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["blocks", "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: nilorbit blocks [-h] --family {B,C,D}")
        assert err == ""


# --- every command's exact output ---------------------------------------------


def _scale_c_side(monkeypatch):
    """Multiply every C-side E-polynomial, and so its per-component
    E-polynomial, by 1 + q, so each pairing's per-component E-polynomials
    differ while the seesaw still holds."""
    for name in ("e_polynomial", "per_component"):
        real = getattr(duality, name)
        monkeypatch.setattr(
            duality, name,
            lambda d, real=real: real(d) * EPolynomial((1, 1)) if d.family is Family.C else real(d),
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
    (None, "fiber --family B --oracle-budget 0 3,1,1"),
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
    ``tmp_path`` so atlas paths are relative, with the dual-pair cache
    cleared around it."""
    monkeypatch.chdir(tmp_path)
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


def test_parser_is_built_once(capsys):
    """``main`` reuses one parser: a usage error, help and a run after them
    leave it as it was."""
    parser = cli.build_parser()
    assert run(capsys, "collapse", "--family", "B", "4,3,3,1")[:2] == (0, "3,3,3,1,1\n")
    assert run(capsys, "collapse", "--family", "E", "4,3,3,1")[:2] == (2, "")
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    assert run(capsys, "special", "--family", "C", "2,2")[:2] == (0, "special\n")
    assert run(capsys, "collapse", "--family", "B", "4,3,3,1")[:2] == (0, "3,3,3,1,1\n")
    assert cli.build_parser() is parser
