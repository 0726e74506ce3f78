"""Command-line surface: JSON documents in, machine-readable reports out.

Every subcommand reads algebra or map documents (``-`` means standard
input), runs the corresponding library operation, and prints either a
short human summary or, with ``--json``, a deterministic report document.
Exit codes: 0 all checks passed, 1 the run completed but found violations
or failed battery lines, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .constructions import (
    averaging_check,
    commutator_construct,
    direct_sum,
    graph_subalgebra_check,
    rota_baxter_check,
    rota_baxter_induce,
    sum_product_construct,
    swap_construct,
    total_product_construct,
    yau_twist,
)
from .core import (
    CheckReport,
    LinearMap,
    check_bihom,
    check_hom,
    check_morphism,
    check_multiplicative,
)
from .errors import AlgebraError, InputError
from .fixtures import FIXTURE_NAMES, builtin
from .linalg import Matrix
from .serialize import (
    emit_algebra,
    emit_bracket_pair,
    emit_map,
    emit_superalgebra,
    parse_algebra,
    parse_map,
    parse_rational,
    parse_superalgebra,
    rational_str,
)
from .spaces import (
    SPACE_KINDS,
    BatteryReport,
    OperatorSpace,
    TwistPower,
    central_derivation_space,
    centroid,
    derivation_space,
    generalized_derivation_space,
    proposition_battery,
    quasicentroid,
    quasiderivation_space,
)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _matrix_json(matrix: Matrix) -> list[list[str]]:
    return [[rational_str(v) for v in matrix.row(i)] for i in range(matrix.rows)]


def _violations_json(report: CheckReport) -> list[dict[str, Any]]:
    return [
        {
            "axiom_id": v.axiom_id,
            "indices": list(v.indices),
            "lhs": [rational_str(x) for x in v.lhs],
            "rhs": [rational_str(x) for x in v.rhs],
        }
        for v in report.violations
    ]


def _space_json(space: OperatorSpace, grade: str) -> dict[str, Any]:
    if grade == "even":
        listed = space.even_basis
    elif grade == "odd":
        listed = space.odd_basis
    else:
        listed = space.basis
    return {
        "kind": space.kind,
        "s": space.twist.s,
        "r": space.twist.r,
        "dimension": space.dimension,
        "even_dimension": space.even_dimension,
        "odd_dimension": space.odd_dimension,
        "basis": [_matrix_json(m.matrix) for m in listed],
    }


def _battery_json(report: BatteryReport) -> list[dict[str, Any]]:
    return [
        {
            "claim_id": line.claim_id,
            "s": line.s,
            "r": line.r,
            "s2": line.s2,
            "r2": line.r2,
            "passed": line.passed,
            "witness": None if line.witness is None else _matrix_json(line.witness.matrix),
        }
        for line in report.lines
    ]


def _assemble(
    command: str,
    inputs: dict[str, str],
    violations: list[dict[str, Any]],
    spaces: list[dict[str, Any]] | None = None,
    battery: list[dict[str, Any]] | None = None,
    details: dict[str, Any] | None = None,
) -> dict[str, Any]:
    battery_ok = battery is None or all(line["passed"] for line in battery)
    doc: dict[str, Any] = {
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "passed": not violations and battery_ok,
        "violations": violations,
    }
    if spaces is not None:
        doc["spaces"] = spaces
    if battery is not None:
        doc["battery"] = battery
    if details is not None:
        doc["details"] = details
    return doc


def _emit_report(doc: dict[str, Any], as_json: bool) -> int:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"command: {doc['command']}")
        print(f"passed: {str(doc['passed']).lower()}")
        if doc["violations"]:
            print(f"violations: {len(doc['violations'])}")
            for v in doc["violations"][:10]:
                idx = ",".join(str(i) for i in v["indices"])
                print(f"  {v['axiom_id']} at ({idx}): lhs={v['lhs']} rhs={v['rhs']}")
            if len(doc["violations"]) > 10:
                print(f"  ... and {len(doc['violations']) - 10} more")
        for space in doc.get("spaces", []):
            print(
                f"space {space['kind']} (s={space['s']}, r={space['r']}): "
                f"dimension {space['dimension']} "
                f"(even {space['even_dimension']}, odd {space['odd_dimension']})"
            )
        if "battery" in doc:
            failed = [line for line in doc["battery"] if not line["passed"]]
            print(f"battery: {len(doc['battery'])} lines, {len(failed)} failed")
            for line in failed[:10]:
                cross = "" if line["s2"] is None else f" x (s2={line['s2']}, r2={line['r2']})"
                print(f"  FAIL {line['claim_id']} (s={line['s']}, r={line['r']}){cross}")
        for key, value in doc.get("details", {}).items():
            print(f"{key}: {value}")
    battery_ok = all(line["passed"] for line in doc.get("battery", []))
    return 0 if not doc["violations"] and battery_ok else 1


def _write_output(path: str | None, text: str) -> None:
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_check(args: argparse.Namespace) -> int:
    text = _read_input(args.algebra)
    spec = parse_algebra(text)
    checks: list[str] = []
    report = CheckReport()
    if args.hom:
        checks.append("hom")
        report = report.merge(check_hom(spec))
    if args.multiplicative:
        checks.append("multiplicative")
        report = report.merge(check_multiplicative(spec))
    if not checks:
        checks.append("bihom")
        report = check_bihom(spec)
    doc = _assemble(
        "check",
        {"algebra": _digest(text)},
        _violations_json(report),
        details={"checks": checks},
    )
    return _emit_report(doc, args.json)


_SPACE_BUILDERS = {
    "D": lambda spec, t, koszul: derivation_space(spec, t, koszul),
    "QD": lambda spec, t, koszul: quasiderivation_space(spec, t),
    "GD": lambda spec, t, koszul: generalized_derivation_space(spec, t),
    "ZD": lambda spec, t, koszul: central_derivation_space(spec, t),
    "C": lambda spec, t, koszul: centroid(spec, t),
    "QC": lambda spec, t, koszul: quasicentroid(spec, t),
}


def _cmd_spaces(args: argparse.Namespace) -> int:
    if args.koszul and args.space != "D":
        raise InputError(f"--koszul applies only to --space D, not {args.space}")
    text = _read_input(args.algebra)
    spec = parse_algebra(text)
    space = _SPACE_BUILDERS[args.space](spec, TwistPower(args.s, args.r), args.koszul)
    doc = _assemble(
        "spaces",
        {"algebra": _digest(text)},
        [],
        spaces=[_space_json(space, args.grade)],
    )
    return _emit_report(doc, args.json)


def _cmd_verify(args: argparse.Namespace) -> int:
    text = _read_input(args.algebra)
    spec = parse_algebra(text)
    base = check_bihom(spec)
    battery_json = None
    details = None
    if base.passed:
        battery_json = _battery_json(proposition_battery(spec, args.max_power))
    else:
        details = {"battery_skipped": True}
    doc = _assemble(
        "verify",
        {"algebra": _digest(text)},
        _violations_json(base),
        battery=battery_json,
        details=details,
    )
    return _emit_report(doc, args.json)


def _cmd_twist(args: argparse.Namespace) -> int:
    text = _read_input(args.algebra)
    map_text = _read_input(args.map)
    spec = parse_algebra(text)
    l = LinearMap.square(spec.basis, parse_map(map_text))
    result = yau_twist(spec, l)
    _write_output(args.output, emit_algebra(result.twisted))
    doc = _assemble(
        "twist",
        {"algebra": _digest(text), "map": _digest(map_text)},
        _violations_json(result.report),
        details={"constants_match": result.constants_match},
    )
    return _emit_report(doc, args.json)


def _cmd_dsum(args: argparse.Namespace) -> int:
    text_a = _read_input(args.algebra)
    text_b = _read_input(args.algebra_b)
    out = direct_sum(parse_algebra(text_a), parse_algebra(text_b))
    report = check_bihom(out) if out.xi is not None else check_hom(out)
    _write_output(args.output, emit_algebra(out))
    doc = _assemble(
        "dsum",
        {"algebra": _digest(text_a), "algebra_b": _digest(text_b)},
        _violations_json(report),
        details={"dimension": out.dimension},
    )
    return _emit_report(doc, args.json)


def _cmd_graph(args: argparse.Namespace) -> int:
    text_a = _read_input(args.algebra)
    text_b = _read_input(args.algebra_b)
    map_text = _read_input(args.map)
    a = parse_algebra(text_a)
    b = parse_algebra(text_b)
    pi = LinearMap.between(a.basis, b.basis, parse_map(map_text))
    result = graph_subalgebra_check(a, b, pi)
    doc = _assemble(
        "graph",
        {"algebra": _digest(text_a), "algebra_b": _digest(text_b), "map": _digest(map_text)},
        _violations_json(result.morphism_report),
        details={
            "is_subalgebra": result.is_subalgebra,
            "is_morphism": result.is_morphism,
        },
    )
    return _emit_report(doc, args.json)


def _cmd_morphism(args: argparse.Namespace) -> int:
    text_a = _read_input(args.algebra)
    text_b = _read_input(args.algebra_b)
    map_text = _read_input(args.map)
    src = parse_algebra(text_a)
    dst = parse_algebra(text_b)
    pi = LinearMap.between(src.basis, dst.basis, parse_map(map_text))
    report = check_morphism(src, dst, pi)
    doc = _assemble(
        "morphism",
        {"algebra": _digest(text_a), "algebra_b": _digest(text_b), "map": _digest(map_text)},
        _violations_json(report),
    )
    return _emit_report(doc, args.json)


def _cmd_rb(args: argparse.Namespace) -> int:
    text = _read_input(args.algebra)
    map_text = _read_input(args.map)
    weight = parse_rational(args.weight, "weight")
    matrix = parse_map(map_text)
    inputs = {"algebra": _digest(text), "map": _digest(map_text)}
    if args.induce:
        alg = parse_superalgebra(text)
        result = rota_baxter_induce(alg, LinearMap.square(alg.basis, matrix), weight)
        _write_output(args.output, emit_algebra(result.spec))
        doc = _assemble(
            "rb",
            inputs,
            _violations_json(result.report),
            details={"weight": rational_str(weight), "induced": True},
        )
    else:
        spec = parse_algebra(text)
        report = rota_baxter_check(spec, LinearMap.square(spec.basis, matrix), weight, args.literal)
        doc = _assemble(
            "rb",
            inputs,
            _violations_json(report),
            details={"weight": rational_str(weight), "literal": args.literal},
        )
    return _emit_report(doc, args.json)


def _cmd_avg(args: argparse.Namespace) -> int:
    text = _read_input(args.algebra)
    map_text = _read_input(args.map)
    spec = parse_algebra(text)
    report = averaging_check(spec, LinearMap.square(spec.basis, parse_map(map_text)))
    doc = _assemble(
        "avg",
        {"algebra": _digest(text), "map": _digest(map_text)},
        _violations_json(report),
    )
    return _emit_report(doc, args.json)


def _cmd_sum_product(args: argparse.Namespace) -> int:
    text = _read_input(args.algebra)
    result = sum_product_construct(parse_algebra(text))
    _write_output(args.output, emit_algebra(result.spec))
    doc = _assemble(
        "sum-product",
        {"algebra": _digest(text)},
        _violations_json(result.report),
    )
    return _emit_report(doc, args.json)


def _cmd_commutator(args: argparse.Namespace) -> int:
    text = _read_input(args.algebra)
    result = commutator_construct(parse_algebra(text))
    _write_output(args.output, emit_bracket_pair(result.pair))
    doc = _assemble(
        "commutator",
        {"algebra": _digest(text)},
        _violations_json(result.leibniz),
    )
    return _emit_report(doc, args.json)


def _cmd_total_product(args: argparse.Namespace) -> int:
    text = _read_input(args.algebra)
    result = total_product_construct(parse_algebra(text))
    _write_output(args.output, emit_superalgebra(result.alg))
    doc = _assemble(
        "total-product",
        {"algebra": _digest(text)},
        _violations_json(result.report),
    )
    return _emit_report(doc, args.json)


def _cmd_swap(args: argparse.Namespace) -> int:
    text = _read_input(args.algebra)
    result = swap_construct(parse_algebra(text))
    _write_output(args.output, emit_algebra(result.swapped))
    doc = _assemble(
        "swap",
        {"algebra": _digest(text)},
        _violations_json(result.report),
        details={
            "hypothesis_holds": result.hypothesis_holds,
            "swapped_passes": result.swapped_passes,
        },
    )
    return _emit_report(doc, args.json)


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if args.name is None:
        if args.json:
            doc = _assemble("fixtures", {}, [], details={"fixtures": list(FIXTURE_NAMES)})
            print(json.dumps(doc, indent=2))
        else:
            for name in FIXTURE_NAMES:
                print(name)
        return 0
    document = emit_algebra(builtin(args.name))
    if args.output is not None:
        _write_output(args.output, document)
    else:
        sys.stdout.write(document)
    return 0


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit a JSON report on stdout")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", metavar="FILE", help="write the constructed algebra here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supertrial",
        description="Exact workbench for BiHom-associative supertrialgebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="run an axiom system on an algebra document")
    p.add_argument("algebra", help="algebra document, or - for stdin")
    p.add_argument("--hom", action="store_true", help="check the single-twist axiom system")
    p.add_argument("--multiplicative", action="store_true", help="check endomorphism identities")
    _add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("spaces", help="compute one operator space")
    p.add_argument("algebra")
    p.add_argument("--space", required=True, choices=SPACE_KINDS)
    p.add_argument("--s", required=True, type=int)
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--koszul", action="store_true", help="signed Leibniz rule for odd maps")
    p.add_argument("--grade", choices=("even", "odd", "all"), default="all")
    _add_json(p)
    p.set_defaults(func=_cmd_spaces)

    p = sub.add_parser("verify", help="run the proposition battery")
    p.add_argument("algebra")
    p.add_argument("--max-power", type=int, default=1, dest="max_power")
    _add_json(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("twist", help="conjugate by an invertible even map")
    p.add_argument("algebra")
    p.add_argument("--map", required=True)
    _add_json(p)
    _add_output(p)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("dsum", help="direct sum of two algebras")
    p.add_argument("algebra")
    p.add_argument("algebra_b")
    _add_json(p)
    _add_output(p)
    p.set_defaults(func=_cmd_dsum)

    p = sub.add_parser("graph", help="graph closure in the direct sum versus morphism")
    p.add_argument("algebra")
    p.add_argument("algebra_b")
    p.add_argument("--map", required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("morphism", help="check a map between two algebras")
    p.add_argument("algebra")
    p.add_argument("algebra_b")
    p.add_argument("--map", required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_morphism)

    p = sub.add_parser("rb", help="Rota-Baxter check, or induce a trialgebra with --induce")
    p.add_argument("algebra")
    p.add_argument("--map", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--literal", action="store_true", help="use the crossed identities")
    p.add_argument("--induce", action="store_true", help="treat input as a superalgebra and induce")
    _add_json(p)
    _add_output(p)
    p.set_defaults(func=_cmd_rb)

    p = sub.add_parser("avg", help="averaging-operator check")
    p.add_argument("algebra")
    p.add_argument("--map", required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_avg)

    p = sub.add_parser("sum-product", help="replace right with right + perp")
    p.add_argument("algebra")
    _add_json(p)
    _add_output(p)
    p.set_defaults(func=_cmd_sum_product)

    p = sub.add_parser("commutator", help="skew star and bracket with Leibniz check")
    p.add_argument("algebra")
    _add_json(p)
    _add_output(p)
    p.set_defaults(func=_cmd_commutator)

    p = sub.add_parser("total-product", help="sum all three products into one")
    p.add_argument("algebra")
    _add_json(p)
    _add_output(p)
    p.set_defaults(func=_cmd_total_product)

    p = sub.add_parser("swap", help="exchange the two structure maps")
    p.add_argument("algebra")
    _add_json(p)
    _add_output(p)
    p.set_defaults(func=_cmd_swap)

    p = sub.add_parser("fixtures", help="list fixtures or export one")
    p.add_argument("name", nargs="?", default=None)
    _add_json(p)
    _add_output(p)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
