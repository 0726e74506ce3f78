"""Command-line surface: JSON documents in, machine-readable reports out.

Every subcommand reads algebra or map documents (``-`` means standard
input), runs the corresponding library operation, and prints either a
short human summary or, with ``--json``, a deterministic report document.
Exit codes: 0 all checks passed, 1 the run completed but found violations
or failed battery lines, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence

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
    LinearMap,
    TrialgebraSpec,
    check_bihom,
    check_hom,
    check_morphism,
    check_multiplicative,
)
from .errors import AlgebraError, InputError
from .fixtures import FIXTURE_NAMES, builtin
from .serialize import (
    _matrix_rows,
    emit_algebra,
    parse_algebra,
    parse_map,
    parse_rational,
    parse_superalgebra,
    rational_str,
    to_json,
)
from .spaces import (
    SPACE_KINDS,
    BatteryReport,
    OperatorSpace,
    TwistPower,
    _build_space,
    proposition_battery,
)
from .sweep import CheckReport


def _read_input(path: str) -> str:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        # stdin may decode with surrogateescape, passing bad bytes through.
        text.encode("utf-8")
    except UnicodeError as exc:
        raise InputError(f"{'stdin' if path == '-' else path}: input is not valid UTF-8") from exc
    return text


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _violations_json(report: CheckReport) -> list[dict[str, Any]]:
    # The rows failing on one tuple share the sweep's side tuples: write each once.
    written: dict[int, list[str]] = {}

    def strings(side: tuple) -> list[str]:
        key = id(side)
        if key not in written:
            written[key] = [rational_str(x) for x in side]
        return written[key]

    return [
        {
            "axiom_id": v.axiom_id,
            "indices": v.indices,
            "lhs": strings(v.lhs),
            "rhs": strings(v.rhs),
        }
        for v in report.violations
    ]


def _space_json(space: OperatorSpace, grade: str) -> dict[str, Any]:
    listed = {"even": space.even_basis, "odd": space.odd_basis, "all": space.basis}[grade]
    return {
        "kind": space.kind,
        "s": space.twist.s,
        "r": space.twist.r,
        "dimension": space.dimension,
        "even_dimension": space.even_dimension,
        "odd_dimension": space.odd_dimension,
        "basis": [_matrix_rows(m.matrix) for m in listed],
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
            "witness": None if line.witness is None else _matrix_rows(line.witness.matrix),
        }
        for line in report.lines
    ]


def _assemble(
    command: str,
    inputs: dict[str, str],
    violations: list[dict[str, Any]],
    sections: Mapping[str, Any],
) -> dict[str, Any]:
    battery_ok = all(line["passed"] for line in sections.get("battery", []))
    doc: dict[str, Any] = {
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "passed": not violations and battery_ok,
        "violations": violations,
    }
    for key in ("spaces", "battery", "details"):
        if key in sections:
            doc[key] = sections[key]
    return doc


def _emit_report(doc: dict[str, Any], as_json: bool) -> int:
    if as_json:
        print(to_json(doc))
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
    return 0 if doc["passed"] else 1


class _Result(NamedTuple):
    """What a subcommand found: the report whose violations are listed, the
    extra report sections (``spaces``, ``battery``, ``details``) and the
    document ``-o`` writes, if the subcommand builds one."""

    report: CheckReport
    sections: Mapping[str, Any] = MappingProxyType({})
    document: str | None = None


def _check(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    spec = parse_algebra(texts["algebra"])
    checks: list[str] = []
    report = CheckReport()
    if args.hom:
        checks.append("hom")
        report = report.merge(check_hom(spec))
    if args.multiplicative:
        checks.append("multiplicative")
        # check_hom sweeps gamma's multiplicativity too: list each violation once.
        first: dict = {}
        for v in report.merge(check_multiplicative(spec)).violations:
            first.setdefault((v.axiom_id, v.indices), v)
        report = CheckReport(tuple(first.values()))
    if not checks:
        checks.append("bihom")
        report = check_bihom(spec)
    return _Result(report, {"details": {"checks": checks}})


def _spaces_usage(args: argparse.Namespace) -> None:
    if args.koszul and args.space != "D":
        raise InputError(f"--koszul applies only to --space D, not {args.space}")


def _spaces(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    spec = parse_algebra(texts["algebra"])
    space = _build_space(args.space, spec, TwistPower(args.s, args.r), args.koszul)
    return _Result(CheckReport(), {"spaces": [_space_json(space, args.grade)]})


def _verify_usage(args: argparse.Namespace) -> None:
    if args.max_power < 0:
        raise InputError("max_power must be non-negative")


def _verify(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    spec = parse_algebra(texts["algebra"])
    base = check_bihom(spec)
    if not base.passed:
        return _Result(base, {"details": {"battery_skipped": True}})
    return _Result(base, {"battery": _battery_json(proposition_battery(spec, args.max_power))})


def _twist(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    spec = parse_algebra(texts["algebra"])
    result = yau_twist(spec, LinearMap.square(spec.basis, parse_map(texts["map"])))
    details = {"constants_match": result.constants_match}
    return _Result(result.report, {"details": details}, emit_algebra(result.twisted))


def _dsum(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    out = direct_sum(parse_algebra(texts["algebra"]), parse_algebra(texts["algebra_b"]))
    report = check_bihom(out) if out.xi is not None else check_hom(out)
    return _Result(report, {"details": {"dimension": out.dimension}}, emit_algebra(out))


def _algebras_and_map(texts: dict[str, str]) -> tuple[TrialgebraSpec, TrialgebraSpec, LinearMap]:
    a = parse_algebra(texts["algebra"])
    b = parse_algebra(texts["algebra_b"])
    return a, b, LinearMap.between(a.basis, b.basis, parse_map(texts["map"]))


def _graph(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    result = graph_subalgebra_check(*_algebras_and_map(texts))
    details = {"is_subalgebra": result.is_subalgebra, "is_morphism": result.morphism_report.passed}
    return _Result(result.morphism_report, {"details": details})


def _morphism(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    return _Result(check_morphism(*_algebras_and_map(texts)))


def _rb_usage(args: argparse.Namespace) -> None:
    if args.induce and args.literal:
        raise InputError("--literal applies only without --induce")
    if args.output is not None and not args.induce:
        raise InputError("-o applies only with --induce")


def _rb(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    weight = parse_rational(args.weight, "weight")
    matrix = parse_map(texts["map"])
    if args.induce:
        alg = parse_superalgebra(texts["algebra"])
        result = rota_baxter_induce(alg, LinearMap.square(alg.basis, matrix), weight)
        details = {"weight": rational_str(weight), "induced": True}
        return _Result(result.report, {"details": details}, emit_algebra(result.spec))
    spec = parse_algebra(texts["algebra"])
    report = rota_baxter_check(spec, LinearMap.square(spec.basis, matrix), weight, args.literal)
    return _Result(report, {"details": {"weight": rational_str(weight), "literal": args.literal}})


def _avg(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    spec = parse_algebra(texts["algebra"])
    return _Result(averaging_check(spec, LinearMap.square(spec.basis, parse_map(texts["map"]))))


def _construct(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    """sum-product, commutator and total-product: the constructed spec's report and document."""
    # Looked up per call, so a rebinding of this module's names (perfbench's tracer) is seen.
    construct = {
        "sum-product": sum_product_construct,
        "commutator": commutator_construct,
        "total-product": total_product_construct,
    }[args.subcommand]
    result = construct(parse_algebra(texts["algebra"]))
    return _Result(result.report, document=emit_algebra(result.spec))


def _swap(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    result = swap_construct(parse_algebra(texts["algebra"]))
    details = {"hypothesis_holds": result.hypothesis_holds, "swapped_passes": result.report.passed}
    return _Result(result.report, {"details": details}, emit_algebra(result.swapped))


_Argument = tuple[tuple[str, ...], dict[str, Any]]


def _arg(*flags: str, **kwargs: Any) -> _Argument:
    return flags, kwargs


_ALGEBRA = _arg("algebra")
_ALGEBRA_B = _arg("algebra_b")
_MAP = _arg("--map", required=True)
_ALGEBRAS_AND_MAP = (_ALGEBRA, _ALGEBRA_B, _MAP)
_JSON = _arg("--json", action="store_true", help="emit a JSON report on stdout")
_OUTPUT = _arg("-o", "--output", metavar="FILE", help="write the constructed algebra here")


class _Command(NamedTuple):
    """One subcommand: the run function, the documents it reads (in reading
    order), its other arguments, whether it takes ``-o``, and a check that
    rejects flag values and combinations before any document is read."""

    name: str
    help: str
    run: Callable[[argparse.Namespace, dict[str, str]], _Result]
    documents: tuple[_Argument, ...] = (_ALGEBRA,)
    arguments: tuple[_Argument, ...] = ()
    output: bool = False
    usage: Callable[[argparse.Namespace], None] | None = None


_COMMANDS = (
    _Command(
        "check",
        "run an axiom system on an algebra document",
        _check,
        (_arg("algebra", help="algebra document, or - for stdin"),),
        (
            _arg("--hom", action="store_true", help="check the single-twist axiom system"),
            _arg("--multiplicative", action="store_true", help="check endomorphism identities"),
        ),
    ),
    _Command(
        "spaces",
        "compute one operator space",
        _spaces,
        arguments=(
            _arg("--space", required=True, choices=SPACE_KINDS),
            _arg("--s", required=True, type=int),
            _arg("--r", required=True, type=int),
            _arg("--koszul", action="store_true", help="signed Leibniz rule for odd maps"),
            _arg("--grade", choices=("even", "odd", "all"), default="all"),
        ),
        usage=_spaces_usage,
    ),
    _Command(
        "verify",
        "run the proposition battery",
        _verify,
        arguments=(_arg("--max-power", type=int, default=1, dest="max_power"),),
        usage=_verify_usage,
    ),
    _Command("twist", "conjugate by an invertible even map", _twist, (_ALGEBRA, _MAP), output=True),
    _Command("dsum", "direct sum of two algebras", _dsum, (_ALGEBRA, _ALGEBRA_B), output=True),
    _Command("graph", "graph closure in the direct sum versus morphism", _graph, _ALGEBRAS_AND_MAP),
    _Command("morphism", "check a map between two algebras", _morphism, _ALGEBRAS_AND_MAP),
    _Command(
        "rb",
        "Rota-Baxter check, or induce a trialgebra with --induce",
        _rb,
        (_ALGEBRA, _MAP),
        (
            _arg("--weight", required=True),
            _arg("--literal", action="store_true", help="use the crossed identities"),
            _arg("--induce", action="store_true", help="treat input as a superalgebra and induce"),
        ),
        output=True,
        usage=_rb_usage,
    ),
    _Command("avg", "averaging-operator check", _avg, (_ALGEBRA, _MAP)),
    _Command("sum-product", "replace right with right + perp", _construct, output=True),
    _Command("commutator", "skew star and bracket with Leibniz check", _construct, output=True),
    _Command("total-product", "sum all three products into one", _construct, output=True),
    _Command("swap", "exchange the two structure maps", _swap, output=True),
)


def _drive(command: _Command, args: argparse.Namespace) -> int:
    """Read the documents, run the subcommand, build the report, write ``-o`` and print."""
    if command.usage is not None:
        command.usage(args)
    names = [flags[0].lstrip("-") for flags, _ in command.documents]
    texts = {name: _read_input(getattr(args, name)) for name in names}
    result = command.run(args, texts)
    inputs = {name: _digest(text) for name, text in texts.items()}
    doc = _assemble(command.name, inputs, _violations_json(result.report), result.sections)
    if result.document is not None and args.output is not None:
        Path(args.output).write_text(result.document, encoding="utf-8")
    return _emit_report(doc, args.json)


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if args.name is None:
        if args.output is not None:
            raise InputError("-o applies only with a fixture name")
        if args.json:
            doc = _assemble("fixtures", {}, [], {"details": {"fixtures": list(FIXTURE_NAMES)}})
            print(to_json(doc))
        else:
            for name in FIXTURE_NAMES:
                print(name)
        return 0
    if args.json:
        raise InputError("--json applies only without a fixture name")
    document = emit_algebra(builtin(args.name))
    if args.output is not None:
        Path(args.output).write_text(document, encoding="utf-8")
    else:
        sys.stdout.write(document)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supertrial",
        description="Exact workbench for BiHom-associative supertrialgebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for command in _COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        common = (_JSON, _OUTPUT) if command.output else (_JSON,)
        for flags, kwargs in command.documents + command.arguments + common:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=functools.partial(_drive, command))

    p = sub.add_parser("fixtures", help="list fixtures or export one")
    for flags, kwargs in (_arg("name", nargs="?", default=None), _JSON, _OUTPUT):
        p.add_argument(*flags, **kwargs)
    p.set_defaults(func=_cmd_fixtures)

    return parser


# main keeps one parser per process: building one costs milliseconds and leaves cycles for the collector.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
