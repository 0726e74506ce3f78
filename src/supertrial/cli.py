"""Command-line surface: JSON documents in, machine-readable reports out.

Every subcommand reads algebra or map documents (``-`` means standard
input), runs the corresponding library operation, and prints either a
short human summary or, with ``--json``, a deterministic report document.
Exit codes: 0 all checks passed, 1 the run completed but found violations
or failed battery lines, 2 usage or input errors.

Every subcommand is one entry of ``_COMMANDS``.  ``main`` reads a plain argv
(a subcommand, its positionals, then exact option strings with plain values;
see ``_read_plain``) straight from that table; argparse, built from the same
table, reads every other argv and writes all help and usage text.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import re
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
    # The sweep hands out one tuple per distinct side value: convert each once, and let the
    # records that share a side share its list, which the writer then renders once.
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
    # Looked up per call, so a rebinding of this module's names (perfbench's tracer) is seen.
    systems = {"hom": check_hom, "multiplicative": check_multiplicative, "bihom": check_bihom}
    checks = [name for name in ("hom", "multiplicative") if getattr(args, name)] or ["bihom"]
    # check_hom sweeps gamma's multiplicativity too: list each violation once.
    first: dict = {}
    for name in checks:
        for v in systems[name](spec).violations:
            first.setdefault((v.axiom_id, v.indices), v)
    return _Result(CheckReport.collect(first.values()), {"details": {"checks": checks}})


def _spaces(args: argparse.Namespace, texts: dict[str, str]) -> _Result:
    spec = parse_algebra(texts["algebra"])
    space = _build_space(args.space, spec, TwistPower(args.s, args.r), args.koszul)
    return _Result(CheckReport(), {"spaces": [_space_json(space, args.grade)]})


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


def _fixtures(args: argparse.Namespace, texts: dict[str, str]) -> int:
    """List the fixture names, or write one fixture's raw document to stdout or ``-o``."""
    if args.name is None and args.json:
        print(to_json(_assemble("fixtures", {}, [], {"details": {"fixtures": list(FIXTURE_NAMES)}})))
    elif args.name is None:
        print(*FIXTURE_NAMES, sep="\n")
    elif args.output is None:
        sys.stdout.write(emit_algebra(builtin(args.name)))
    else:
        Path(args.output).write_text(emit_algebra(builtin(args.name)), encoding="utf-8")
    return 0


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
    order), its other arguments, whether it takes ``-o``, and its usage rules:
    ``(broken, message)`` pairs, each message formatted with the arguments.
    The run function returns a ``_Result``, or the exit code once it has
    written its own output."""

    name: str
    help: str
    run: Callable[[argparse.Namespace, dict[str, str]], _Result | int]
    documents: tuple[_Argument, ...] = (_ALGEBRA,)
    arguments: tuple[_Argument, ...] = ()
    output: bool = False
    rules: tuple[tuple[Callable[[argparse.Namespace], bool], str], ...] = ()


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
        rules=(
            (lambda args: args.koszul and args.space != "D", "--koszul applies only to --space D, not {space}"),
            (lambda args: args.s < 0 or args.r < 0, "twist exponents must be non-negative"),
        ),
    ),
    _Command(
        "verify",
        "run the proposition battery",
        _verify,
        arguments=(_arg("--max-power", type=int, default=1, dest="max_power"),),
        rules=((lambda args: args.max_power < 0, "max_power must be non-negative"),),
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
        rules=(
            (lambda args: args.induce and args.literal, "--literal applies only without --induce"),
            (lambda args: args.output is not None and not args.induce, "-o applies only with --induce"),
        ),
    ),
    _Command("avg", "averaging-operator check", _avg, (_ALGEBRA, _MAP)),
    _Command("sum-product", "replace right with right + perp", _construct, output=True),
    _Command("commutator", "skew star and bracket with Leibniz check", _construct, output=True),
    _Command("total-product", "sum all three products into one", _construct, output=True),
    _Command("swap", "exchange the two structure maps", _swap, output=True),
    _Command(
        "fixtures", "list fixtures or export one", _fixtures, (), (_arg("name", nargs="?", default=None),),
        output=True,
        rules=(
            (lambda args: args.name is None and args.output is not None, "-o applies only with a fixture name"),
            (lambda args: args.name is not None and args.json, "--json applies only without a fixture name"),
        ),
    ),
)


def _arguments(command: _Command) -> tuple[_Argument, ...]:
    """The command's arguments in declaration order: documents, its own, ``--json``, then ``-o``."""
    return command.documents + command.arguments + ((_JSON, _OUTPUT) if command.output else (_JSON,))


def _dest(flags: tuple[str, ...], kwargs: dict[str, Any]) -> str:
    """The attribute argparse stores an argument under: ``dest``, else its first long flag or its name."""
    return kwargs.get("dest") or next((f for f in flags if f.startswith("--")), flags[0]).lstrip("-").replace("-", "_")


def _drive(command: _Command, args: argparse.Namespace) -> int:
    """Check the usage rules, read the documents, run the subcommand, then pass on
    its exit code or build the report, write ``-o`` and print."""
    for broken, message in command.rules:
        if broken(args):
            raise InputError(message.format_map(vars(args)))
    names = [_dest(*document) for document in command.documents]
    texts = {name: _read_input(getattr(args, name)) for name in names}
    result = command.run(args, texts)
    if isinstance(result, int):
        return result
    inputs = {name: _digest(text) for name, text in texts.items()}
    doc = _assemble(command.name, inputs, _violations_json(result.report), result.sections)
    if result.document is not None and args.output is not None:
        Path(args.output).write_text(result.document, encoding="utf-8")
    return _emit_report(doc, args.json)


_COMMAND_NAMED = {command.name: command for command in _COMMANDS}


def _read_plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, read straight from
    ``_COMMANDS`` when argv is plain: a subcommand of the table, its positionals in order
    (each a word that is ``-`` or does not start with ``-``; one with ``nargs`` may be left
    out), then exact option strings, each at most once, with values that do not start with
    ``-``.  Each value goes through its argument's ``type`` and ``choices``.  None for any
    other argv: help, version, abbreviations, ``--x=v``, ``--``, repeats, dash-led values
    and the usage errors argparse finds are argparse's to read and report."""
    command = _COMMAND_NAMED.get(argv[0]) if argv else None
    if command is None:
        return None
    arguments = _arguments(command)
    positionals = [argument for argument in arguments if not argument[0][0].startswith("-")]
    options = {flag: argument for argument in arguments for flag in argument[0] if flag.startswith("-")}
    leading = list(itertools.takewhile(lambda w: w == "-" or not w.startswith("-"), argv[1 : 1 + len(positionals)]))
    given = {_dest(*positional): word for positional, word in zip(positionals, leading)}
    words = iter(argv[1 + len(leading) :])
    for word in words:
        if word not in options or _dest(*options[word]) in given:
            return None
        flags, kwargs = options[word]
        value: Any = True
        if kwargs.get("action") != "store_true":
            value = next(words, "-")  # a missing value reads as a dash-led one
            if value.startswith("-"):
                return None
            try:
                value = kwargs.get("type", str)(value)
            except (TypeError, ValueError):
                return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        given[_dest(flags, kwargs)] = value
    values: dict[str, Any] = {"subcommand": command.name}
    for flags, kwargs in arguments:
        dest = _dest(flags, kwargs)
        if dest not in given and kwargs.get("required", not flags[0].startswith("-") and "nargs" not in kwargs):
            return None
        values[dest] = given.get(dest, kwargs.get("default", False if kwargs.get("action") == "store_true" else None))
    return argparse.Namespace(**values)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative rational such as ``-1/2`` as a value, as it
    reads ``-1``; argparse takes any other dash-led word for a flag.  Its subparsers are
    of this class too."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(rf"{self._negative_number_matcher.pattern}|^-[0-9]+/[0-9]+$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="supertrial",
        description="Exact workbench for BiHom-associative supertrialgebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for command in _COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flags, kwargs in _arguments(command):
            p.add_argument(*flags, **kwargs)

    return parser


# main keeps one parser per process: building one costs milliseconds and leaves cycles for the collector.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    try:
        return _drive(_COMMAND_NAMED[args.subcommand], args)
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
