"""Run hand-written one-line mutants of ``src/`` against the tests that should kill them.

    python3 tools/mutants.py --out MUTANTS_<n>.json

Run from the root of a checkout.  ``ROWS`` is the reviewed list of
mutants, each ``(file, old text, new text, reason, first killing test)``.
The script first refuses the whole run unless every row's old text occurs
exactly once in its file at HEAD.  Then, for each row, one at a time, it
exports ``git archive HEAD`` into a new temporary directory, replaces the
row's old text with its new text there, and runs the row's recorded
killing test and, if that test passes, tier-1 with ``-x``, less
``tests/test_mutants.py``, which fails on every mutant.  A run with a
FAILED or ERROR line kills the mutant whatever pytest's exit code, so a
mutant that breaks an import is killed by the collection ERROR it causes.
Each child runs under ``TIMEOUT_S`` (its whole process group is killed)
and an address-space cap of ``MEMORY_MB`` set with ``resource.setrlimit``
in the child, since a mutant may loop or grow memory without end.

The output file holds, per row, whether the mutant was killed, the first
failing test, which run failed it (``recorded`` or ``tier-1``) and the
seconds taken, plus the kill count.  A run that times out counts as
killed, with ``timeout`` as its test.  The script exits 0 when every row
was killed, 1 when one survived and 2 when it refuses; a refusal after
some rows ran still writes their records.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from bench_pairs import export, git

# tests/test_mutants.py checks that each row's old text is present, so every mutant fails it.
TIER1 = ("--continue-on-collection-errors", "--ignore=tests/test_mutants.py")
TIMEOUT_S = 900.0
MEMORY_MB = 2048
# A summary line's node id; a parametrized id may hold blanks and " - ".
_FAILED = re.compile(r"^(?:FAILED|ERROR) ([^\s\[]+\[.*?\](?= - |$)|\S+)", re.MULTILINE)


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str
    test: str


ROWS = (
    Mutant(
        "src/supertrial/linalg.py",
        "    if matrix.rows != rows or matrix.cols != cols:\n",
        "    if matrix.cols != rows or matrix.rows != cols:\n",
        "the one shape check compares the transposed shape",
        "tests/test_constructions.py::TestGraphCheck::test_rectangular_graph",
    ),
    Mutant(
        "src/supertrial/core.py",
        '        _require_shape(self.matrix, len(self.row_parities), len(self.col_parities), "map")\n',
        "        pass\n",
        "LinearMap skips its shape check",
        "tests/test_core.py::test_each_shape_check_names_its_label_and_both_sizes[square]",
    ),
    Mutant(
        "src/supertrial/cli.py",
        "        **sections,\n",
        "",
        "_assemble drops the report's extra section",
        "tests/test_cli.py::TestFixturesCommand::test_json_listing",
    ),
    Mutant(
        "src/supertrial/core.py",
        "            for idx in (i, j, k):\n"
        "                if not 0 <= idx < dim:\n"
        '                    raise InputError(f"structure constant index {(i, j, k)} out of range for dim {dim}")\n',
        "",
        "StructureTensor.build drops its range check",
        "tests/test_core.py::TestStructureTensor::test_range_check",
    ),
    Mutant(
        "src/supertrial/cli.py",
        "        return _drive(_COMMAND_NAMED[args.subcommand], args)\n",
        "        return _drive(_COMMANDS[0], args)\n",
        "main drives the first table entry for every argv",
        "tests/test_acceptance.py::test_8_determinism_roundtrip",
    ),
    Mutant(
        "src/supertrial/cli.py",
        "            first.setdefault((v.axiom_id, v.indices), v)\n",
        "            first.setdefault((name, v.axiom_id, v.indices), v)\n",
        "_check lists a violation once per system that finds it",
        "tests/test_cli.py::TestCheckCommand::test_combined_flags_list_each_violation_once",
    ),
    Mutant(
        "src/supertrial/cli.py",
        'if getattr(args, name)] or ["bihom"]\n',
        'if getattr(args, name)] + ["bihom"]\n',
        "_check runs check_bihom beside a --hom or --multiplicative flag",
        "tests/test_cli.py::TestCheckCommand::test_hom_flag_switches_system",
    ),
    Mutant(
        "src/supertrial/core.py",
        "        for (i, j, k), c in sorted(zip(self.constants, nums)):\n",
        "        for (i, j, k), c in zip(self.constants, nums):\n",
        "StructureTensor.by_pair is built in insertion order",
        "tests/test_core.py::TestStructureTensor::test_insertion_order_does_not_matter",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        '    "D": (((1, 0, 1), (2, 0, -1), (3, 0, None)),),\n'
        '    "QD": (((1, 1, 1), (2, 0, -1), (3, 0, -1)),),\n'
        '    "GD": (((1, 2, 1), (2, 0, -1), (3, 1, -1)),),\n'
        '    "ZD": (((1, 0, 1),), ((0, 0, 1),)),\n'
        '    "C": (((1, 0, 1), (2, 0, -1)), ((1, 0, 1), (3, 0, -1))),\n'
        '    "QC": (((2, 0, 1), (3, 0, -1)),),\n',
        '    "D": (((1, 0, 1), (2, 0, -1), (3, 0, None)),),\n'
        '    "C": (((1, 0, 1), (2, 0, -1)), ((1, 0, 1), (3, 0, -1))),\n'
        '    "QC": (((2, 0, 1), (3, 0, -1)),),\n'
        '    "ZD": (((1, 0, 1),), ((0, 0, 1),)),\n'
        '    "QD": (((1, 1, 1), (2, 0, -1), (3, 0, -1)),),\n'
        '    "GD": (((1, 2, 1), (2, 0, -1), (3, 1, -1)),),\n',
        "_KIND_ROWS is listed in the order D, C, QC, ZD, QD, GD",
        "tests/test_cli.py::TestSurface::test_subcommands_and_arguments",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        '    ("chain-d-in-qd", "contain", ("QD", "D"), "base", "default"),\n',
        '    ("chain-d-in-qd", "contain", ("QD", "D"), "base", "always"),\n',
        "the battery takes chain-d-in-qd as a theorem in the Koszul mode too",
        "tests/test_acceptance.py::test_6_proposition_battery",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        '        "onto": lambda s, r: _once(verdicts, ("onto", s, r), lambda: _invertible(power(s, r)[1])),\n',
        '        "onto": lambda s, r: True,\n',
        "the battery takes bracket-d-zd-in-zd as a theorem at a singular T1",
        "tests/test_spaces.py::TestBatterySharing::test_battery_equals_reference_without_sharing"
        "[dsum-zero2-idem1-singular-False]",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        '    "QD": (((1, 1, 1), (2, 0, -1), (3, 0, -1)),),\n',
        '    "QD": (((1, 1, 1), (2, 0, -1), (3, 0, 1)),),\n',
        "QD's T(e_a) o X(e_b) term flips its sign",
        "tests/test_acceptance.py::test_7_oracle_equivalence",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        '    "GD": (((1, 2, 1), (2, 0, -1), (3, 1, -1)),),\n',
        '    "GD": (((1, 2, 1), (2, 0, -1), (3, 0, -1)),),\n',
        "GD's T(e_a) o X'(e_b) term reads the map itself, not its partner",
        "tests/test_generators.py::test_solver_matches_oracle[5-power0]",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        '    "QC": (((2, 0, 1), (3, 0, -1)),),\n',
        '    "QC": (((2, 0, 1), (3, 0, 1)),),\n',
        "QC's T(e_a) o X(e_b) term flips its sign",
        "tests/test_acceptance.py::test_5_operator_space_regression",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        "contain(cap(d, c), zd) or contain(zd, cap(d, c)),",
        "contain(cap(d, c), zd),",
        "eq-dc tests only ZD inside D cap C",
        "tests/test_spaces.py::TestBatteryPlan::test_eq_dc_fails_when_d_cap_c_exceeds_zd",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        "(s + s2, r + r2)]\n",
        "(s + s2, r + s2)]\n",
        "a summed claim reads its target at (s + s2, r + s2)",
        "tests/test_spaces.py::TestBatteryPlan::test_each_distinct_space_solved_once[two-step-0-n4-bumped-1-37-4]",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        "    return gamma @ xi == xi @ gamma and _invertible(gamma) and _invertible(xi) and "
        "check_multiplicative(spec).passed\n",
        "    return gamma @ xi == xi @ gamma and _invertible(gamma) and _invertible(xi) and "
        "(check_multiplicative(spec).passed or True)\n",
        "_is_regular drops its multiplicativity guard",
        "tests/test_spaces.py::TestBatteryPlan::test_each_distinct_space_solved_once[two-step-0-n4-bumped-1-37-4]",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        "    return gamma @ xi == xi @ gamma and _invertible(gamma) and _invertible(xi) and "
        "check_multiplicative(spec).passed\n",
        "    return gamma @ xi == xi @ gamma and check_multiplicative(spec).passed\n",
        "_is_regular drops its invertibility guard",
        "tests/test_spaces.py::TestBatterySharing::test_battery_equals_reference_without_sharing"
        "[dsum-zero2-idem1-singular-False]",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        "    return gamma @ xi == xi @ gamma and _invertible(gamma) and _invertible(xi) and "
        "check_multiplicative(spec).passed\n",
        "    return _invertible(gamma) and _invertible(xi) and check_multiplicative(spec).passed\n",
        "_is_regular drops its commutation guard",
        "tests/test_spaces.py::TestRegularity::test_each_guard_refuses_an_input_the_transport_gets_wrong"
        "[not-commuting]",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        "_once(regular, 0, lambda: _is_regular(spec))",
        "(_once(regular, 0, lambda: _is_regular(spec)) or True)",
        "the battery carries a claim that held at (0, 0) without asking _is_regular",
        "tests/test_spaces.py::TestBatteryPlan::test_each_distinct_space_solved_once[two-step-0-n4-bumped-1-37-4]",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        "    if gamma.is_identity and xi.is_identity:\n",
        "    if gamma.is_identity:\n",
        "_is_regular holds when gamma alone is the identity",
        "tests/test_spaces.py::TestInputsWithIdentityMaps::test_one_identity_map_is_decided_line_by_line"
        "[_two_step_xi_singular]",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        "for term, _, _ in terms) for kind, rows in _KIND_ROWS.items()}\n",
        'for term, _, _ in terms) and kind != "QC" for kind, rows in _KIND_ROWS.items()}\n',
        "_READS_TWIST drops QC, so QC is built once",
        "tests/test_spaces.py::TestBatteryPlan::test_each_distinct_space_solved_once[two-step-0-n4-bumped-1-37-4]",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        'cap(d, c).basis[0] if cap(d, c).basis and not _once(verdicts, "center", lambda: center(spec)) else None),',
        'cap(d, c).basis[0] if not _once(verdicts, "center", lambda: center(spec)) and cap(d, c).basis else None),',
        "the battery computes the center eagerly",
        "tests/test_spaces.py::TestInputsWithIdentityMaps::"
        "test_the_center_is_read_once_and_only_when_d_cap_c_is_nonzero[dual2-1-0]",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        "    commuting = lambda s, r: not koszul and _once(",
        "    commuting = lambda s, r: _once(",
        "the commuting lemma holds in the Koszul mode too",
        "tests/test_spaces.py::TestBatteryPlan::test_bracket_and_compose_witnesses_are_exact",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        '_once(verdicts, "commuting", lambda: gamma @ xi == xi @ gamma)',
        '_once(verdicts, "commuting", lambda: True)',
        "the commuting lemma skips its gamma xi = xi gamma test",
        "tests/test_spaces.py::TestLemmas::test_maps_that_do_not_commute_decide_compose_in_full",
    ),
    Mutant(
        "src/supertrial/spaces.py",
        "space.graded_elements)[space.even_dimension if odd else 0:]",
        "space.graded_elements)[:space.even_dimension if odd else None]",
        "odd-pairs brackets test the even maps in place of the odd ones",
        "tests/test_census.py::test_failing_claims_per_mode[False]",
    ),
)


def refuse(message: str) -> None:
    print(f"refused: {message}", file=sys.stderr)
    raise SystemExit(2)


def apply(text: str, row: Mutant) -> str:
    """``text`` with the row's old text replaced; refuse unless it occurs exactly once."""
    count = text.count(row.old)
    if count != 1:
        refuse(f"the old text of {row.reason!r} occurs {count} times in {row.file}")
    return text.replace(row.old, row.new)


def pytest(tree: Path, args: tuple[str, ...]) -> tuple[int | None, str]:
    """Run pytest in ``tree``: its exit code (None on timeout) and stdout."""

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_MB << 20, MEMORY_MB << 20))

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *args]
    child = subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, preexec_fn=limit, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return None, ""
    return child.returncode, out


def judge(tree: Path, row: Mutant) -> dict:
    """Run the row's recorded test, then tier-1, in a mutated ``tree``: the verdict."""
    for stage, args in (("recorded", (row.test,)), ("tier-1", TIER1)):
        code, out = pytest(tree, args)
        if code != 0:
            break
    failed = _FAILED.search(out)
    if code is None:
        first = "timeout"
    elif code == 0 or failed:  # a collection ERROR exits 2, or 4 under a node id: still a kill
        first = failed and failed.group(1)
    else:  # no test failed: internal or usage error, nothing collected, no interpreter
        refuse(f"pytest exited {code} on {row.reason!r} at the {stage} run:\n{out[-2000:]}")
    return {"killed": code != 0, "stage": stage if code != 0 else None, "first_failing": first}


def run(row: Mutant) -> dict:
    """Apply one mutant to a fresh export and run its tests: the row's record."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        export("HEAD", tree)
        path = tree / row.file
        path.write_text(apply(path.read_text(), row))
        verdict = judge(tree, row)
    return {
        "file": row.file,
        "reason": row.reason,
        "recorded_test": row.test,
        **verdict,
        "seconds": round(time.perf_counter() - start, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    for row in ROWS:
        apply(git("show", f"HEAD:{row.file}").decode(), row)
    records = []
    try:
        for index, row in enumerate(ROWS):
            record = {"row": index, **run(row)}
            print(json.dumps(record), flush=True)
            records.append(record)
    finally:
        killed = sum(r["killed"] for r in records)
        doc = {
            "commit": git("rev-parse", "HEAD").decode().strip(),
            "python": platform.python_version(),
            "timeout_s": TIMEOUT_S,
            "memory_mb": MEMORY_MB,
            "killed": killed,
            "run": len(records),
            "rows": records,
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{killed} of {len(records)} mutants killed")
    return 0 if killed == len(records) else 1


if __name__ == "__main__":
    sys.exit(main())
