"""Command surface: exit codes, report wiring, and output documents."""

import argparse
import contextlib
import functools
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supertrial
from supertrial import cli
from supertrial.cli import _violations_json, build_parser, main
from supertrial.constructions import direct_sum, sum_product_construct, yau_twist
from supertrial.core import LinearMap
from supertrial.fixtures import FIXTURE_NAMES, builtin, inject_violation
from supertrial.linalg import Matrix
from supertrial.serialize import (
    emit_algebra,
    emit_map,
    parse_algebra,
    parse_superalgebra,
    rational_str,
)
from supertrial.core import SuperalgebraSpec


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def fixture_file(tmp_path, name):
    return write(tmp_path, f"{name}.json", emit_algebra(builtin(name)))


def map_file(tmp_path, rows):
    return write(tmp_path, "map.json", emit_map(Matrix.from_rows(rows)))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestFixturesCommand:
    def test_lists_names(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(FIXTURE_NAMES)

    def test_json_listing(self, capsys):
        code, doc = run_json(capsys, ["fixtures", "--json"])
        assert code == 0
        assert doc["details"]["fixtures"] == list(FIXTURE_NAMES)

    def test_exports_algebra_document(self, capsys):
        assert main(["fixtures", "dual2"]) == 0
        assert parse_algebra(capsys.readouterr().out) == builtin("dual2")

    def test_export_to_file(self, tmp_path, capsys):
        target = str(tmp_path / "out.json")
        assert main(["fixtures", "grassmann2", "-o", target]) == 0
        capsys.readouterr()
        assert parse_algebra((tmp_path / "out.json").read_text()) == builtin("grassmann2")

    def test_unknown_fixture(self, capsys):
        assert main(["fixtures", "nope"]) == 2
        assert "unknown fixture" in capsys.readouterr().err


class TestCheckCommand:
    def test_passing_report_shape(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2")
        code, doc = run_json(capsys, ["check", path, "--json"])
        assert code == 0
        assert list(doc) == ["tool_version", "command", "inputs", "passed", "violations", "details"]
        assert doc["tool_version"] == "0.1.0"
        assert doc["command"] == "check"
        assert doc["passed"] is True
        assert doc["violations"] == []
        assert doc["details"]["checks"] == ["bihom"]
        assert doc["inputs"]["algebra"].startswith("sha256:")
        assert len(doc["inputs"]["algebra"]) == len("sha256:") + 64

    def test_json_output_is_byte_identical(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dsum-zero2-idem1")
        main(["check", path, "--json"])
        first = capsys.readouterr().out
        main(["check", path, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_violations_reported_as_strings(self, tmp_path, capsys):
        spec = inject_violation(builtin("dual2"), "left", (0, 0, 0), "1/2")
        path = write(tmp_path, "bad.json", emit_algebra(spec))
        code, doc = run_json(capsys, ["check", path, "--json"])
        assert code == 1
        assert doc["passed"] is False
        first = doc["violations"][0]
        assert set(first) == {"axiom_id", "indices", "lhs", "rhs"}
        assert all(isinstance(x, str) for x in first["lhs"] + first["rhs"])

    def test_hom_flag_switches_system(self, tmp_path, capsys):
        spec = builtin("dual2")
        doc = json.loads(emit_algebra(spec))
        del doc["xi"]
        path = write(tmp_path, "hom.json", json.dumps(doc))
        assert main(["check", path]) == 2
        capsys.readouterr()
        code, out = run_json(capsys, ["check", path, "--hom", "--json"])
        assert code == 0
        assert out["details"]["checks"] == ["hom"]

    def test_combined_flags_merge_reports(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2")
        code, doc = run_json(capsys, ["check", path, "--hom", "--multiplicative", "--json"])
        assert code == 0
        assert doc["details"]["checks"] == ["hom", "multiplicative"]

    def test_combined_flags_list_each_violation_once(self, tmp_path, capsys):
        """--hom and --multiplicative both sweep gamma's multiplicativity;
        on dual2 with gamma = diag(2, 1) each of its violations is listed once."""
        doc = json.loads(emit_algebra(builtin("dual2")))
        doc["gamma"] = [["2", "0"], ["0", "1"]]
        path = write(tmp_path, "gamma2.json", json.dumps(doc))
        code, out = run_json(capsys, ["check", path, "--hom", "--multiplicative", "--json"])
        assert code == 1
        keys = [(v["axiom_id"], tuple(v["indices"])) for v in out["violations"]]
        assert len(keys) == len(set(keys)) == 31
        assert ("gamma-left", (0, 0)) in keys
        assert main(["check", path, "--hom", "--multiplicative"]) == 1
        assert "violations: 31\n" in capsys.readouterr().out

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_algebra(builtin("idem1"))))
        assert main(["check", "-"]) == 0

    def test_unparseable_input(self, tmp_path, capsys):
        path = write(tmp_path, "junk.json", "not json")
        assert main(["check", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/definitely/not/here.json"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_non_utf8_stdin(self, capsys, monkeypatch, errors):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["check", "-"]) == 2
        assert capsys.readouterr().err == "error: stdin: input is not valid UTF-8\n"

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: input is not valid UTF-8\n"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_deeply_nested_document(self, tmp_path, capsys, monkeypatch, source):
        text = "[" * 100000
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            path = "-"
        else:
            path = write(tmp_path, "deep.json", text)
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == "error: parse error: the document nests too deeply\n"


    @pytest.mark.parametrize(
        "field, message",
        [
            ("dim", "parse error: a number has too many digits"),
            ("v", "algebra.left[0].v: rational literal has too many digits"),
        ],
        ids=["dim", "v"],
    )
    def test_number_past_the_digit_limit(self, tmp_path, capsys, field, message):
        """5,000 digits is past CPython's default int-string limit of 4,300."""
        big = "7" * 5000
        doc = json.loads(emit_algebra(builtin("idem1")))
        if field == "dim":
            text = json.dumps(doc).replace('"dim": 1', f'"dim": {big}')
        else:
            doc["left"][0]["v"] = big
            text = json.dumps(doc)
        assert main(["check", write(tmp_path, "big.json", text)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["check", "--json"], ["dsum", "IDEM", "-o", "OUT"]],
        ids=["check", "check-json", "dsum-o"],
    )
    def test_value_past_the_digit_limit_in_the_report(self, tmp_path, capsys, argv):
        """A 4,000-digit constant parses, but idem1's violation sides hold its
        8,000-digit square: the run exits 2 before printing or writing -o."""
        doc = json.loads(emit_algebra(builtin("idem1")))
        doc["left"][0]["v"] = "7" * 4000
        out = tmp_path / "out.json"
        paths = {"IDEM": fixture_file(tmp_path, "idem1"), "OUT": str(out)}
        argv = [argv[0], write(tmp_path, "big.json", json.dumps(doc))] + [paths.get(a, a) for a in argv[1:]]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: a value has too many digits to print\n")
        assert not out.exists()


class TestSpacesCommand:
    def test_derivations_of_dual2(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2")
        code, doc = run_json(capsys, ["spaces", path, "--space", "D", "--s", "0", "--r", "0", "--json"])
        assert code == 0
        entry = doc["spaces"][0]
        assert (entry["kind"], entry["s"], entry["r"]) == ("D", 0, 0)
        assert (entry["dimension"], entry["even_dimension"], entry["odd_dimension"]) == (1, 1, 0)
        assert entry["basis"] == [[["0", "0"], ["0", "1"]]]

    def test_grade_filter_changes_basis_only(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "grassmann2")
        code, doc = run_json(
            capsys,
            ["spaces", path, "--space", "D", "--s", "0", "--r", "0", "--koszul", "--grade", "odd", "--json"],
        )
        assert code == 0
        entry = doc["spaces"][0]
        assert entry["dimension"] == 2
        assert entry["basis"] == [[["0", "1"], ["0", "0"]]]

    def test_negative_power_is_input_error(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2")
        assert main(["spaces", path, "--space", "D", "--s", "-1", "--r", "0"]) == 2

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2")
        assert main(["spaces", path, "--space", "XX", "--s", "0", "--r", "0"]) == 2

    @pytest.mark.parametrize("kind", ["QD", "GD", "ZD", "C", "QC"])
    def test_koszul_only_for_derivations(self, tmp_path, capsys, kind):
        path = fixture_file(tmp_path, "dual2")
        assert main(["spaces", path, "--space", kind, "--s", "0", "--r", "0", "--koszul"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--koszul applies only to --space D" in captured.err


class TestVerifyCommand:
    def test_green_battery(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "idem1")
        code, doc = run_json(capsys, ["verify", path, "--json"])
        assert code == 0
        assert doc["passed"] is True
        assert len(doc["battery"]) == 120
        line = doc["battery"][0]
        assert set(line) == {"claim_id", "s", "r", "s2", "r2", "passed", "witness"}
        per_power = [ln for ln in doc["battery"] if ln["claim_id"] == "c-in-qd"]
        assert all(ln["s2"] is None and ln["r2"] is None for ln in per_power)

    def test_bad_algebra_skips_battery(self, tmp_path, capsys):
        spec = inject_violation(builtin("dual2"), "left", (0, 0, 0), 1)
        path = write(tmp_path, "bad.json", emit_algebra(spec))
        code, doc = run_json(capsys, ["verify", path, "--json"])
        assert code == 1
        assert "battery" not in doc
        assert doc["details"]["battery_skipped"] is True

    def test_max_power_zero(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "idem1")
        code, doc = run_json(capsys, ["verify", path, "--max-power", "0", "--json"])
        assert code == 0
        assert len(doc["battery"]) == 12

    @pytest.mark.parametrize("delta", [0, 4], ids=["passing", "failing"])
    def test_negative_max_power_is_usage_error(self, tmp_path, capsys, delta):
        """The flag is rejected before the document is read, so an algebra
        that fails its axioms (dual2 with left (0, 0, 0) set to 5) exits 2
        too, not 1 with a skipped battery."""
        spec = builtin("dual2")
        if delta:
            spec = inject_violation(spec, "left", (0, 0, 0), delta)
            assert spec.left.constants[(0, 0, 0)] == 5
        path = write(tmp_path, "alg.json", emit_algebra(spec))
        for argv in (["--json"], []):
            assert main(["verify", path, "--max-power", "-1", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: max_power must be non-negative\n"

    def test_out_of_memory_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        """A battery that runs out of memory (its grid at --max-power 40 holds
        millions of lines) exits 2 with one error line, no traceback and
        nothing on stdout; a construction that runs out writes no -o file."""
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "proposition_battery", exhausted)
        monkeypatch.setattr(cli, "yau_twist", exhausted)
        path = fixture_file(tmp_path, "dual2")
        out_path = tmp_path / "out.json"
        runs = [["verify", path, "--max-power", "40"], ["verify", path, "--max-power", "40", "--json"],
                ["twist", path, "--map", map_file(tmp_path, [[1, 0], [0, 1]]), "-o", str(out_path)]]
        for argv in runs:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: out of memory\n"
            assert not out_path.exists()


class TestConstructiveCommands:
    def test_twist_writes_library_result(self, tmp_path, capsys):
        spec = builtin("dual2-twisted")
        path = fixture_file(tmp_path, "dual2-twisted")
        mpath = map_file(tmp_path, [[1, 1], [0, 1]])
        out = str(tmp_path / "twisted.json")
        code, doc = run_json(capsys, ["twist", path, "--map", mpath, "--json", "-o", out])
        assert code == 0
        assert doc["details"]["constants_match"] is True
        l = LinearMap.square(spec.basis, Matrix.from_rows([[1, 1], [0, 1]]))
        expected = yau_twist(spec, l).twisted
        assert parse_algebra((tmp_path / "twisted.json").read_text()) == expected

    def test_twist_singular_map(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2")
        mpath = map_file(tmp_path, [[1, 1], [2, 2]])
        assert main(["twist", path, "--map", mpath]) == 2

    def test_dsum_output(self, tmp_path, capsys):
        a = fixture_file(tmp_path, "zero2")
        b = fixture_file(tmp_path, "idem1")
        out = str(tmp_path / "sum.json")
        code, doc = run_json(capsys, ["dsum", a, b, "--json", "-o", out])
        assert code == 0
        assert doc["details"]["dimension"] == 3
        assert parse_algebra((tmp_path / "sum.json").read_text()) == direct_sum(
            builtin("zero2"), builtin("idem1")
        )

    def test_graph_verdicts(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2")
        good = map_file(tmp_path, [[1, 0], [0, 1]])
        code, doc = run_json(capsys, ["graph", path, path, "--map", good, "--json"])
        assert code == 0
        assert doc["details"] == {"is_subalgebra": True, "is_morphism": True}
        bad = write(tmp_path, "bad-map.json", emit_map(Matrix.diagonal([2, 2])))
        code, doc = run_json(capsys, ["graph", path, path, "--map", bad, "--json"])
        assert code == 1
        assert doc["details"] == {"is_subalgebra": False, "is_morphism": False}

    def test_morphism_violations(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2")
        bad = map_file(tmp_path, [[2, 0], [0, 2]])
        code, doc = run_json(capsys, ["morphism", path, path, "--map", bad, "--json"])
        assert code == 1
        assert doc["violations"]

    def test_rb_check_modes(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "idem1")
        zero = write(tmp_path, "zero.json", emit_map(Matrix.from_rows([[0]])))
        code, doc = run_json(capsys, ["rb", path, "--map", zero, "--weight", "2/3", "--json"])
        assert code == 0
        assert doc["details"] == {"weight": "2/3", "literal": False}
        ident = write(tmp_path, "one.json", emit_map(Matrix.identity(1)))
        code, doc = run_json(capsys, ["rb", path, "--map", ident, "--weight", "1", "--literal", "--json"])
        assert code == 1
        assert doc["details"]["literal"] is True

    def test_rb_weight_must_be_rational(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "idem1")
        zero = write(tmp_path, "zero.json", emit_map(Matrix.from_rows([[0]])))
        assert main(["rb", path, "--map", zero, "--weight", "x"]) == 2

    @pytest.mark.parametrize("weight, code", [("-1", 0), ("-1/2", 1), ("-3/4", 1)])
    def test_negative_weight_reads_as_a_separate_argument(self, tmp_path, capsys, weight, code):
        """A negative weight, integer or rational, runs as it does in the --weight=... form:
        the identity on idem1 is a Rota-Baxter operator of weight -1 only."""
        path = fixture_file(tmp_path, "idem1")
        ident = write(tmp_path, "one.json", emit_map(Matrix.identity(1)))
        runs = []
        for argv in (["--weight", weight], [f"--weight={weight}"]):
            runs.append((main(["rb", path, "--map", ident, *argv, "--json"]), *capsys.readouterr()))
        assert runs[0] == runs[1]
        exit_code, out, err = runs[0]
        assert exit_code == code and err == ""
        assert json.loads(out)["details"] == {"weight": weight, "literal": False}

    def test_non_ascii_digits_are_not_rational(self, tmp_path, capsys):
        """Arabic-Indic and fullwidth digits would pass ``\\d`` and ``int``;
        each run exits 2 naming the field that holds one."""
        path = fixture_file(tmp_path, "dual2")
        bad = write(tmp_path, "bad.json", json.dumps({"rows": 2, "cols": 2, "entries": ["٣", 0, 0, "１"]}))
        assert main(["avg", path, "--map", bad]) == 2
        assert capsys.readouterr().err == "error: map.entries[0]: '٣' is not a rational literal (use 'p' or 'p/q')\n"
        ident = map_file(tmp_path, [[1, 0], [0, 1]])
        assert main(["rb", path, "--map", ident, "--weight", "٢"]) == 2
        assert capsys.readouterr().err == "error: weight: '٢' is not a rational literal (use 'p' or 'p/q')\n"

    def test_rb_induce_reads_superalgebra(self, tmp_path, capsys):
        alg = SuperalgebraSpec.build("idem1", [0], {(0, 0, 0): 1}, [[1]], [[1]])
        path = write(tmp_path, "super.json", emit_algebra(alg))
        neg = write(tmp_path, "neg.json", emit_map(Matrix.from_rows([[-1]])))
        out = str(tmp_path / "induced.json")
        code, doc = run_json(capsys, ["rb", path, "--map", neg, "--weight", "1", "--induce", "--json", "-o", out])
        assert code == 1
        assert doc["details"]["induced"] is True
        assert [v["axiom_id"] for v in doc["violations"]] == ["ii-b", "iv-b"]
        induced = parse_algebra((tmp_path / "induced.json").read_text())
        assert induced.name == "rb(idem1)"

    def test_avg_exit_codes(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2")
        ident = map_file(tmp_path, [[1, 0], [0, 1]])
        assert main(["avg", path, "--map", ident]) == 0
        capsys.readouterr()
        proj = write(tmp_path, "proj.json", emit_map(Matrix.diagonal([0, 1])))
        assert main(["avg", path, "--map", proj]) == 1

    def test_sum_product_reports_failure(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "idem1")
        out = str(tmp_path / "sum.json")
        code, doc = run_json(capsys, ["sum-product", path, "--json", "-o", out])
        assert code == 1
        assert parse_algebra((tmp_path / "sum.json").read_text()).name == "sum(idem1)"

    @pytest.mark.parametrize("command", ["sum-product", "swap", "total-product", "commutator"])
    def test_document_without_xi_names_the_input(self, tmp_path, capsys, command):
        """A construction that needs xi refuses a document without it before
        building anything, so the message names the input, not sum(<name>)."""
        doc = json.loads(emit_algebra(builtin("dual2")))
        del doc["xi"]
        out = str(tmp_path / "out.json")
        assert main([command, write(tmp_path, "hom.json", json.dumps(doc)), "-o", out]) == 2
        assert capsys.readouterr().err == "error: dual2: this operation needs the second structure map xi\n"
        assert not (tmp_path / "out.json").exists()

    def test_commutator_writes_bracket_pair(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "grassmann2")
        out = str(tmp_path / "pair.json")
        assert main(["commutator", path, "-o", out]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "pair.json").read_text())
        assert list(doc) == ["name", "dim", "parity", "star", "bracket", "gamma", "xi"]

    def test_total_product_writes_superalgebra(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2")
        out = str(tmp_path / "total.json")
        assert main(["total-product", path, "-o", out]) == 0
        capsys.readouterr()
        alg = parse_superalgebra((tmp_path / "total.json").read_text())
        assert alg.star.constants.get((0, 0, 0), 0) == 3

    def test_swap_details(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2-twisted")
        code, doc = run_json(capsys, ["swap", path, "--json"])
        assert code == 0
        assert doc["details"] == {"hypothesis_holds": False, "swapped_passes": True}


class TestIgnoredFlagCombinations:
    """Flag combinations that would otherwise be silently ignored exit 2,
    print nothing on stdout and write no file."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["rb", "{super}", "--map", "{neg}", "--weight", "1", "--induce", "--literal"],
                "--literal applies only without --induce",
            ),
            (["rb", "{trial}", "--map", "{neg}", "--weight", "1"], "-o applies only with --induce"),
            (["fixtures"], "-o applies only with a fixture name"),
            (["fixtures", "idem1", "--json"], "--json applies only without a fixture name"),
        ],
        ids=[
            "rb-induce-literal",
            "rb-output-without-induce",
            "fixtures-output-without-name",
            "fixtures-json-with-name",
        ],
    )
    def test_usage_error(self, tmp_path, capsys, argv, message):
        alg = SuperalgebraSpec.build("idem1", [0], {(0, 0, 0): 1}, [[1]], [[1]])
        paths = {
            "super": write(tmp_path, "super.json", emit_algebra(alg)),
            "trial": fixture_file(tmp_path, "idem1"),
            "neg": write(tmp_path, "neg.json", emit_map(Matrix.from_rows([[-1]]))),
        }
        out = tmp_path / "out.json"
        assert main([a.format(**paths) for a in argv] + ["-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()


# One case per usage rule of the command table, in table order (the twist rule has two):
# the argv, with {doc} for a document path and {out} for an -o file, and the rule's message.
RULE_CASES = [
    (["spaces", "{doc}", "--space", "C", "--s", "0", "--r", "0", "--koszul"],
     "--koszul applies only to --space D, not {space}"),
    (["spaces", "{doc}", "--space", "D", "--s", "-1", "--r", "0"], "twist exponents must be non-negative"),
    (["spaces", "{doc}", "--space", "D", "--s", "0", "--r", "-2"], "twist exponents must be non-negative"),
    (["verify", "{doc}", "--max-power", "-1"], "max_power must be non-negative"),
    (["rb", "{doc}", "--map", "{doc}", "--weight", "1", "--induce", "--literal", "-o", "{out}"],
     "--literal applies only without --induce"),
    (["rb", "{doc}", "--map", "{doc}", "--weight", "1", "-o", "{out}"], "-o applies only with --induce"),
    (["fixtures", "-o", "{out}"], "-o applies only with a fixture name"),
    (["fixtures", "{doc}", "--json"], "--json applies only without a fixture name"),
]


class TestUsageRules:
    """Every usage rule of the command table exits 2 with its message before any
    document is read: a missing file and standard input are never opened."""

    def test_every_rule_has_a_case(self):
        table = [message for command in cli._COMMANDS for _, message in command.rules]
        assert table == list(dict.fromkeys(message for _, message in RULE_CASES))

    @pytest.mark.parametrize("argv, message", RULE_CASES, ids=[" ".join(argv) for argv, _ in RULE_CASES])
    def test_rule_fires_before_any_document_is_read(self, tmp_path, capsys, monkeypatch, argv, message):
        class Unread(io.StringIO):
            def read(self, *args):
                raise AssertionError("stdin was read")

        monkeypatch.setattr(sys, "stdin", Unread())
        out = tmp_path / "out.json"
        for doc in (str(tmp_path / "missing.json"), "-"):
            assert main([word.format(doc=doc, out=out) for word in argv]) == 2
            assert capsys.readouterr() == ("", f"error: {message.format(space='C')}\n")
            assert not out.exists()


class TestArgumentHandling:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_module_runs_as_script(self):
        src = str(Path(supertrial.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "supertrial.cli", "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout.strip() == "0.1.0"

    def test_repeated_calls_in_one_process(self, tmp_path, capsys, monkeypatch):
        """main keeps one parser for the process: a good command, a usage
        error and the good command again each print and exit as they do
        when made first, in a fresh interpreter."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
        src = str(Path(supertrial.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        path = fixture_file(tmp_path, "dual2-twisted")
        good = ["spaces", path, "--space", "QD", "--s", "1", "--r", "0", "--json"]
        usage = ["spaces", path, "--space", "XX", "--s", "0", "--r", "0"]
        first = {}
        for argv in (good, usage):
            done = subprocess.run(
                [sys.executable, "-m", "supertrial.cli", *argv], capture_output=True, text=True, env=env, timeout=60
            )
            first[tuple(argv)] = (done.returncode, done.stdout, done.stderr)
        assert first[tuple(good)][0] == 0 and first[tuple(usage)][0] == 2
        for argv in (good, usage, good):
            code = main(argv)
            assert (code, *capsys.readouterr()) == first[tuple(argv)]

    def test_runtime_imports_only_the_standard_library(self):
        """Importing the package and its CLI in an isolated interpreter loads
        no top-level module outside the standard library but supertrial."""
        src = str(Path(supertrial.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules)\n"
            "import supertrial, supertrial.cli\n"
            "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(loaded - set(sys.stdlib_module_names)))"
        )
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "['supertrial']\n"

    def test_human_output_mentions_failures(self, tmp_path, capsys):
        spec = inject_violation(builtin("dual2"), "left", (0, 0, 0), 1)
        path = write(tmp_path, "bad.json", emit_algebra(spec))
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "passed: false" in out
        assert "ii-a" in out


def _surface(parser):
    """Each subcommand's help text and, per argument, its name, dest, nargs,
    required flag, default, choices and type, in declaration order."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        name: (
            helps[name],
            [
                (
                    "/".join(a.option_strings) or a.dest,
                    a.dest,
                    a.nargs,
                    a.required,
                    a.default,
                    a.choices,
                    getattr(a.type, "__name__", None),
                )
                for a in subparser._actions
                if not isinstance(a, argparse._HelpAction)
            ],
        )
        for name, subparser in sub.choices.items()
    }


def _positional(dest, nargs=None, required=True):
    return (dest, dest, nargs, required, None, None, None)


def _flag(name):
    return (f"--{name}", name.replace("-", "_"), 0, False, False, None, None)


def _required(name, type_name=None, choices=None):
    return (f"--{name}", name, None, True, None, choices, type_name)


ALGEBRA = _positional("algebra")
ALGEBRA_B = _positional("algebra_b")
MAP = _required("map")
JSON = _flag("json")
OUTPUT = ("-o/--output", "output", None, False, None, None, None)

SURFACE = {
    "check": (
        "run an axiom system on an algebra document",
        [ALGEBRA, _flag("hom"), _flag("multiplicative"), JSON],
    ),
    "spaces": (
        "compute one operator space",
        [
            ALGEBRA,
            _required("space", choices=("D", "QD", "GD", "ZD", "C", "QC")),
            _required("s", "int"),
            _required("r", "int"),
            _flag("koszul"),
            ("--grade", "grade", None, False, "all", ("even", "odd", "all"), None),
            JSON,
        ],
    ),
    "verify": (
        "run the proposition battery",
        [ALGEBRA, ("--max-power", "max_power", None, False, 1, None, "int"), JSON],
    ),
    "twist": ("conjugate by an invertible even map", [ALGEBRA, MAP, JSON, OUTPUT]),
    "dsum": ("direct sum of two algebras", [ALGEBRA, ALGEBRA_B, JSON, OUTPUT]),
    "graph": (
        "graph closure in the direct sum versus morphism",
        [ALGEBRA, ALGEBRA_B, MAP, JSON],
    ),
    "morphism": ("check a map between two algebras", [ALGEBRA, ALGEBRA_B, MAP, JSON]),
    "rb": (
        "Rota-Baxter check, or induce a trialgebra with --induce",
        [ALGEBRA, MAP, _required("weight"), _flag("literal"), _flag("induce"), JSON, OUTPUT],
    ),
    "avg": ("averaging-operator check", [ALGEBRA, MAP, JSON]),
    "sum-product": ("replace right with right + perp", [ALGEBRA, JSON, OUTPUT]),
    "commutator": ("skew star and bracket with Leibniz check", [ALGEBRA, JSON, OUTPUT]),
    "total-product": ("sum all three products into one", [ALGEBRA, JSON, OUTPUT]),
    "swap": ("exchange the two structure maps", [ALGEBRA, JSON, OUTPUT]),
    "fixtures": (
        "list fixtures or export one",
        [_positional("name", nargs="?", required=False), JSON, OUTPUT],
    ),
}


class TestSurface:
    def test_subcommands_and_arguments(self):
        assert _surface(build_parser()) == SURFACE

    def test_subcommand_order(self):
        assert list(_surface(build_parser())) == list(SURFACE)

    def test_every_subcommand_drives_its_table_entry(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in cli._COMMANDS:
            func = sub.choices[command.name].get_default("func")
            assert (func.func, func.args) == (cli._drive, (command,))

    def test_plain_argv_builds_no_parser(self, tmp_path, capsys, monkeypatch):
        """main reads plain argv straight from the command table and builds no
        argparse parser; any other argv builds the one parser, once."""
        made = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                made.append(kwargs["prog"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        monkeypatch.setattr(cli, "_parser", functools.cache(build_parser))
        path = fixture_file(tmp_path, "dual2")
        for argv in (["check", path, "--json"], ["verify", path, "--max-power", "0"],
                     ["spaces", path, "--space", "QD", "--s", "1", "--r", "0", "--grade", "even"],
                     ["fixtures"], ["fixtures", "--json"], ["fixtures", "idem1"]):
            assert main(argv) == 0
        assert made == []
        assert main(["verify", path, "--max-power=0"]) == 0
        assert main(["verify", path, "--max-p", "0"]) == 0
        assert made[0] == "supertrial" and made.count("supertrial") == 1

    def test_a_dash_led_rational_is_read_by_argparse(self):
        argv = ["rb", "a.json", "--map", "m.json", "--weight", "-1/2"]
        assert cli._read_plain(argv) is None
        args = build_parser().parse_args(argv)
        assert (args.subcommand, args.weight, args.induce, args.json) == ("rb", "-1/2", False, False)


def _readme_argv():
    """The argv of each ``supertrial ...`` line of the README's CLI section."""
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split("\n## CLI\n")[1]
    lines = [line.split("#")[0] for line in section.split("\n## ")[0].splitlines() if line.startswith("supertrial ")]
    return [shlex.split(line)[1:] for line in lines]


# The job shapes of the benchmark's three workloads, written out.
PERFBENCH_ARGV = [
    ["verify", "idem1.json", "--json", "--max-power", "1"],
    ["verify", "dual2-twisted.json", "--json", "--max-power", "2"],
    ["spaces", "tw3-0.json", "--space", "GD", "--s", "1", "--r", "1", "--json"],
    ["spaces", "tw3-2.json", "--space", "D", "--s", "1", "--r", "0", "--koszul", "--json"],
    ["check", "tw3.json", "--json"],
    ["check", "tw3.json", "--hom", "--json"],
    ["check", "tw4-0.json", "--multiplicative", "--json"],
    ["twist", "ds3.json", "--map", "l3.json", "--json", "-o", "out-twist.json"],
    ["dsum", "tw3.json", "idem1.json", "--json", "-o", "out-dsum.json"],
    ["morphism", "ds3.json", "tw3.json", "--map", "l3.json", "--json"],
    ["graph", "ds3.json", "tw3.json", "--map", "l3.json", "--json"],
    *([command, "tw3.json", "--json", "-o", f"out-{command}.json"]
      for command in ("sum-product", "total-product", "commutator", "swap")),
    ["rb", "tw3.json", "--map", "negid3.json", "--weight", "1", "--json"],
    ["avg", "tw3.json", "--map", "twoid3.json", "--json"],
]


def _argparse_reads(argv):
    """What argparse makes of argv: its namespace without func, or None for a usage exit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = cli._parser().parse_args(argv)
        except SystemExit:
            return None
    return {key: value for key, value in vars(args).items() if key != "func"}


def _table_reads(argv):
    args = cli._read_plain(argv)
    return None if args is None else {key: value for key, value in vars(args).items() if key != "func"}


_FLAGS = sorted({flag for command in cli._COMMANDS for flags, _ in cli._arguments(command) for flag in flags})
_WORDS = ["a.json", "b.json", "idem1", "-", "", "0", "1", "2", "-1", "-1/2", "1/2", "x", "D", "QD", "XX", "odd", "all",
          "--", "-h", "--help", "--version", "--max-p", "--max-power=2", "--json=1", "-oout.json", "--nope"]


class TestTablePath:
    """The table path reads an argv as argparse does, or leaves it to argparse."""

    def check(self, argv):
        table = _table_reads(argv)
        if table is not None:
            assert table == _argparse_reads(argv), argv
            assert cli._read_plain(argv).func.args == (cli._COMMAND_NAMED[argv[0]],)
        return table

    @pytest.mark.parametrize("argv", _readme_argv(), ids=" ".join)
    def test_readme_examples(self, argv):
        assert self.check(argv) is not None

    @pytest.mark.parametrize("argv", PERFBENCH_ARGV, ids=" ".join)
    def test_benchmark_job_shapes(self, argv):
        assert self.check(argv) is not None

    @pytest.mark.parametrize("argv", [
        ["verify", "a.json", "--max-power=2"], ["verify", "a.json", "--max-p", "2"],
        ["check", "a.json", "--json", "--json"], ["check", "--json", "a.json"],
        ["dsum", "a.json", "--json", "b.json"], ["spaces", "a.json", "--space=D", "--s", "0", "--r", "0"],
        ["check", "--", "a.json"], ["spaces", "a.json", "--space", "D", "--s", "-1", "--r", "0"],
        ["twist", "a.json", "--map", "m.json", "-o", "x.json", "--output", "y.json"],
        ["spaces", "a.json", "--space", "XX", "--s", "0", "--r", "0"], ["verify", "a.json", "--max-power", "1.5"],
        ["verify", "a.json", "--max-power"], ["check"], [], ["--version"], ["check", "a.json", "-h"],
        ["fixtures", "idem1", "extra"], ["fixtures", "--json", "idem1"], ["fixtures", "--", "idem1"],
        ["fixtures", "-h"], ["spaces", "a.json", "--space", "D", "--s", "0"],
    ], ids=" ".join)
    def test_boundary_forms_go_to_argparse(self, argv):
        assert cli._read_plain(argv) is None

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from([command.name for command in cli._COMMANDS] + ["--json"]),
        st.lists(st.sampled_from(_FLAGS + _WORDS), max_size=12),
    )
    def test_generated_argv(self, command, words):
        self.check([command, *words])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_generated_plain_argv(self, data):
        """Argv built the plain way, from one command's own arguments in any order,
        each given at most once, reads as argparse reads it."""
        command = data.draw(st.sampled_from(cli._COMMANDS))
        arguments = cli._arguments(command)
        argv = [command.name] + [data.draw(st.sampled_from(["a.json", "b.json", "-"]))
                                 for flags, kwargs in arguments if not flags[0].startswith("-")
                                 and ("nargs" not in kwargs or data.draw(st.booleans()))]
        options = [a for a in arguments if a[0][0].startswith("-")]
        for flags, kwargs in data.draw(st.permutations(options)):
            if kwargs.get("required") or data.draw(st.booleans()):
                argv.append(data.draw(st.sampled_from(flags)))
                if kwargs.get("action") != "store_true":
                    argv.append(data.draw(st.sampled_from([*kwargs.get("choices", ()), "0", "3", "x", "1/2"])))
        self.check(argv)


class TestHumanOutput:
    """Exact stdout of runs without --json."""

    @pytest.fixture
    def twelve_violations(self, tmp_path):
        spec = inject_violation(builtin("dual2"), "right", (0, 0, 0), 1)
        return write(tmp_path, "bad.json", emit_algebra(spec))

    FIRST_TEN = [
        "violations: 12",
        "  ii-a at (0,0,0): lhs=['1', '0'] rhs=['2', '0']",
        "  ii-a at (1,0,0): lhs=['0', '1'] rhs=['0', '2']",
        "  ii-b at (0,0,0): lhs=['2', '0'] rhs=['1', '0']",
        "  ii-b at (1,0,0): lhs=['0', '2'] rhs=['0', '1']",
        "  iii at (0,0,0): lhs=['1', '0'] rhs=['2', '0']",
        "  iv-a at (0,0,0): lhs=['2', '0'] rhs=['4', '0']",
        "  iv-a at (1,0,0): lhs=['0', '1'] rhs=['0', '2']",
        "  iv-b at (0,0,0): lhs=['4', '0'] rhs=['2', '0']",
        "  iv-b at (1,0,0): lhs=['0', '2'] rhs=['0', '1']",
        "  vi at (0,0,0): lhs=['1', '0'] rhs=['2', '0']",
        "  ... and 2 more",
    ]

    def test_check_truncates_violations(self, twelve_violations, capsys):
        assert main(["check", twelve_violations]) == 1
        expected = ["command: check", "passed: false", *self.FIRST_TEN, "checks: ['bihom']"]
        assert capsys.readouterr().out.splitlines() == expected

    def test_verify_skipping_battery(self, twelve_violations, capsys):
        assert main(["verify", twelve_violations]) == 1
        expected = ["command: verify", "passed: false", *self.FIRST_TEN, "battery_skipped: True"]
        assert capsys.readouterr().out.splitlines() == expected

    def test_verify_battery_summary(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "idem1")
        assert main(["verify", path, "--max-power", "0"]) == 0
        expected = ["command: verify", "passed: true", "battery: 12 lines, 0 failed"]
        assert capsys.readouterr().out.splitlines() == expected

    def test_space_line(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "grassmann2")
        argv = ["spaces", path, "--space", "D", "--s", "0", "--r", "0", "--koszul", "--grade", "odd"]
        assert main(argv) == 0
        expected = [
            "command: spaces",
            "passed: true",
            "space D (s=0, r=0): dimension 2 (even 1, odd 1)",
        ]
        assert capsys.readouterr().out.splitlines() == expected

    def test_details_lines(self, tmp_path, capsys):
        path = fixture_file(tmp_path, "dual2-twisted")
        assert main(["swap", path]) == 0
        expected = [
            "command: swap",
            "passed: true",
            "hypothesis_holds: False",
            "swapped_passes: True",
        ]
        assert capsys.readouterr().out.splitlines() == expected


def _layout_inputs(tmp_path):
    """The documents the layout cases read, by short name."""
    alg = SuperalgebraSpec.build("idem1", [0], {(0, 0, 0): 1}, [[1]], [[1]])
    return {
        "dual2": fixture_file(tmp_path, "dual2"),
        "twisted": fixture_file(tmp_path, "dual2-twisted"),
        "idem1": fixture_file(tmp_path, "idem1"),
        "zero2": fixture_file(tmp_path, "zero2"),
        "grassmann2": fixture_file(tmp_path, "grassmann2"),
        "bad": write(tmp_path, "bad.json", emit_algebra(inject_violation(builtin("dual2"), "right", (0, 0, 0), 1))),
        "super": write(tmp_path, "super.json", emit_algebra(alg)),
        "ident2": write(tmp_path, "ident2.json", emit_map(Matrix.identity(2))),
        "shear2": write(tmp_path, "shear2.json", emit_map(Matrix.from_rows([[1, 1], [0, 1]]))),
        "double2": write(tmp_path, "double2.json", emit_map(Matrix.diagonal([2, 2]))),
        "zero1": write(tmp_path, "zero1.json", emit_map(Matrix.from_rows([[0]]))),
        "neg1": write(tmp_path, "neg1.json", emit_map(Matrix.from_rows([[-1]]))),
    }


class TestJsonLayout:
    """Every report on stdout and every -o document is laid out exactly as
    the standard library's encoder with ``indent=2`` lays out its own value."""

    REPORTS = {
        "check-clean": ["check", "dual2", "--json"],
        "check-violating": ["check", "bad", "--json"],
        "check-hom": ["check", "twisted", "--hom", "--multiplicative", "--json"],
        "spaces": ["spaces", "grassmann2", "--space", "D", "--s", "0", "--r", "0", "--koszul", "--json"],
        "verify": ["verify", "idem1", "--max-power", "1", "--json"],
        "verify-violating": ["verify", "bad", "--json"],
        "graph": ["graph", "dual2", "dual2", "--map", "double2", "--json"],
        "morphism": ["morphism", "dual2", "dual2", "--map", "double2", "--json"],
        "rb": ["rb", "idem1", "--map", "zero1", "--weight", "2/3", "--json"],
        "avg": ["avg", "dual2", "--map", "ident2", "--json"],
        "fixtures": ["fixtures", "--json"],
        "fixtures-export": ["fixtures", "dsum-zero2-idem1"],
    }
    DOCUMENTS = {
        "twist": ["twist", "twisted", "--map", "shear2", "--json"],
        "dsum": ["dsum", "zero2", "idem1", "--json"],
        "rb-induce": ["rb", "super", "--map", "neg1", "--weight", "1", "--induce", "--json"],
        "sum-product": ["sum-product", "idem1", "--json"],
        "commutator": ["commutator", "grassmann2", "--json"],
        "total-product": ["total-product", "dual2", "--json"],
        "swap": ["swap", "twisted", "--json"],
        "fixtures-o": ["fixtures", "dsum-zero2-idem1"],
    }

    @staticmethod
    def assert_layout(text):
        assert text.endswith("\n")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def run(self, tmp_path, capsys, argv):
        paths = _layout_inputs(tmp_path)
        code = main([paths.get(arg, arg) for arg in argv])
        assert code in (0, 1)
        return capsys.readouterr().out

    @pytest.mark.parametrize("case", sorted(REPORTS))
    def test_report(self, tmp_path, capsys, case):
        self.assert_layout(self.run(tmp_path, capsys, self.REPORTS[case]))

    @pytest.mark.parametrize("case", sorted(DOCUMENTS))
    def test_output_document(self, tmp_path, capsys, case):
        target = tmp_path / "out.json"
        argv = self.DOCUMENTS[case]
        out = self.run(tmp_path, capsys, [*argv, "-o", str(target)])
        if argv[0] == "fixtures":
            assert out == ""
        else:
            self.assert_layout(out)
        self.assert_layout(target.read_text(encoding="utf-8"))

    def test_reports_are_not_trivial(self, tmp_path, capsys):
        doc = json.loads(self.run(tmp_path, capsys, self.REPORTS["check-violating"]))
        assert len(doc["violations"]) == 12 and doc["violations"][0]["lhs"] == ["1", "0"]
        doc = json.loads(self.run(tmp_path, capsys, self.REPORTS["verify"]))
        assert doc["battery"] and doc["passed"] is True


def test_violation_records_equal_a_plain_conversion():
    """Records that share a side share its list of strings, and each equals
    the side converted on its own."""
    report = sum_product_construct(builtin("dual2")).report
    records = _violations_json(report)
    assert records == [
        {"axiom_id": v.axiom_id, "indices": v.indices, "lhs": [rational_str(x) for x in v.lhs],
         "rhs": [rational_str(x) for x in v.rhs]}
        for v in report.violations
    ]
    assert len({id(record[side]) for record in records for side in ("lhs", "rhs")}) == 6
