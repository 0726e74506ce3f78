"""Run one fixed list of CLI invocations on two source trees and compare them.

    python3 tools/cli_equivalence.py --against DIR [--tree DIR]

``--tree`` defaults to the checkout this script is in; ``--against`` is the
other tree, for example a ``git archive`` of the parent commit.  Both must
hold ``src/supertrial``.

The script writes one set of test inputs into a temporary directory: the
fixtures as the ``--against`` tree exports them, their Hom forms (no xi),
one injected violation each, superalgebra documents read off their left
products, identity, negated, diagonal and zero maps of every size, and a
handful of malformed documents.  It then runs every subcommand on them,
with and without ``--json`` and with ``-o`` where the subcommand takes it,
``spaces`` for every kind at (0, 0), (1, 0) and (0, 1) and ``--koszul`` on
D, ``verify`` at ``--max-power`` 0, 1 and 2 (at 2 the battery reads
twists up to gamma^4 xi^4), ``--help`` and an unknown flag on every
subcommand, each usage rule of the command table against a missing
document (the rules fire before any document is read), and the argv forms
next to the plain ones the CLI reads from its command table, which argparse
reads: ``--max-power=2``, ``--max-p 2``, a repeated ``--json``, an option
before a document, ``--space=D``, a ``--`` separator, a negative ``--s`` or
``--r``, and ``fixtures`` with ``--json`` before its name, an extra word or
a ``--`` before its name.  Among
the malformed documents, two have a ``right`` list equal to ``left`` by
value but not by type (``true`` for a ``1``, ``false`` for an index ``0``).
Two more documents are written from literals, and ``verify`` runs decide a
failing claim of each line by line: ``nil3-odd`` with gamma = xi =
diag(1, 2, 2) is regular and fails ``zd-eq-d-cap-c`` at every power, and
``census-001-001-221`` with gamma = xi = id fails ``bracket-d-d-in-d`` at
every power, where every twist is the identity.  A third,
``dsum-zero2-idem1-singular`` with gamma = xi = diag(1, 0, 0), is not
regular, so ``verify`` decides its lines at distinct twists: it passes at
power 0 and fails 15 lines at power 1.

Each tree runs the whole list once, in one fresh interpreter whose path
holds only that tree's ``src`` and with ``PYTHONDONTWRITEBYTECODE`` set;
the two interpreters run side by side.  Each run's exit code, stdout,
stderr and ``-o`` bytes are compared.  The script prints the run count and
the first differences, and exits 0 when there are none, 1 when some run
differs and 2 when a tree cannot be run.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("D", "QD", "GD", "ZD", "C", "QC")
SUBCOMMANDS = ("check", "spaces", "verify", "twist", "dsum", "graph", "morphism", "rb", "avg",
               "sum-product", "commutator", "total-product", "swap", "fixtures")
SHOWN = 10

# e0 o e1 = e2 in all three products on parities (0, 1, 1), gamma = xi = diag(1, 2, 2).
_NIL3_ONE = {"i": 0, "j": 1, "k": 2, "v": "1"}
_NIL3_PRODUCT = [_NIL3_ONE]
_NIL3_MAP = [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]]
NIL3_ODD = {"name": "nil3-odd", "dim": 3, "parity": [0, 1, 1], "left": _NIL3_PRODUCT, "right": _NIL3_PRODUCT,
            "perp": _NIL3_PRODUCT, "gamma": _NIL3_MAP, "xi": _NIL3_MAP}

# e0 o e0 = e2 o e2 = e1 in all three products on parities (0, 0, 1), gamma = xi = id.
_CENSUS_PRODUCT = [{"i": 0, "j": 0, "k": 1, "v": "1"}, {"i": 2, "j": 2, "k": 1, "v": "1"}]
_IDENTITY3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
CENSUS_001_001_221 = {"name": "census-001-001-221", "dim": 3, "parity": [0, 0, 1], "left": _CENSUS_PRODUCT,
                      "right": _CENSUS_PRODUCT, "perp": _CENSUS_PRODUCT, "gamma": _IDENTITY3, "xi": _IDENTITY3}

# e2 o e2 = e2 in all three products on parities (0, 1, 0), gamma = xi = diag(1, 0, 0): valid but singular.
_SINGULAR_PRODUCT = [{"i": 2, "j": 2, "k": 2, "v": "1"}]
_SINGULAR_MAP = [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
DSUM_SINGULAR = {"name": "dsum-zero2-idem1-singular", "dim": 3, "parity": [0, 1, 0], "left": _SINGULAR_PRODUCT,
                 "right": _SINGULAR_PRODUCT, "perp": _SINGULAR_PRODUCT, "gamma": _SINGULAR_MAP, "xi": _SINGULAR_MAP}

# Runs inside each tree's interpreter: reads the runs as JSON on stdin and
# writes one result per run as JSON on stdout.
_RUNNER = r"""
import contextlib, io, json, os, sys, traceback
import supertrial, supertrial.cli
runs = json.load(sys.stdin)
results = []
for run in runs:
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(run.get("stdin", ""))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = supertrial.cli.main(run["argv"])
        except BaseException:
            code = "raised " + traceback.format_exc().strip().splitlines()[-1]
    written = None
    if os.path.exists("out.json"):
        with open("out.json", "rb") as f:
            written = f.read().decode("latin-1")
        os.remove("out.json")
    results.append([code, out.getvalue(), err.getvalue(), written])
sys.stdout.write(json.dumps({"module": supertrial.__file__, "results": results}))
"""


def _run_tree(tree: Path, runs: list[dict], workdir: Path) -> subprocess.Popen:
    """Start the runner on tree in workdir; the caller reads its output."""
    workdir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-c", _RUNNER], cwd=workdir, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdin.write(json.dumps(runs))
    proc.stdin.close()
    return proc


def _fail(message: str) -> None:
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _collect(tree: Path, proc: subprocess.Popen) -> list:
    """The runner's results; exits 2 if it failed or imported another tree."""
    stdout, stderr = proc.stdout.read(), proc.stderr.read()
    if proc.wait() != 0:
        _fail(f"{tree}: the runner failed:\n{stderr}")
    data = json.loads(stdout)
    if not Path(data["module"]).resolve().is_relative_to((tree / "src").resolve()):
        _fail(f"{tree}: imported supertrial from {data['module']}")
    return data["results"]


def _export_fixtures(tree: Path, scratch: Path) -> dict[str, dict]:
    """The fixture documents as tree's CLI exports them, by name."""
    listed = _collect(tree, _run_tree(tree, [{"argv": ["fixtures"]}], scratch / "list"))
    names = listed[0][1].split()
    exported = _collect(tree, _run_tree(tree, [{"argv": ["fixtures", n]} for n in names], scratch / "export"))
    return {name: json.loads(result[1]) for name, result in zip(names, exported)}


def _map(rows: int, cols: int, entry) -> dict:
    return {"rows": rows, "cols": cols, "entries": [str(entry(i, j)) for i in range(rows) for j in range(cols)]}


def _violated(doc: dict) -> dict:
    """doc with 1 added to the left product at its first parity-even triple."""
    p, n = doc["parity"], doc["dim"]
    i, j, k = next((i, j, k) for i in range(n) for j in range(n) for k in range(n) if p[k] == (p[i] + p[j]) % 2)
    left = [dict(e) for e in doc["left"]]
    hit = next((e for e in left if (e["i"], e["j"], e["k"]) == (i, j, k)), None)
    if hit is None:
        left.append({"i": i, "j": j, "k": k, "v": "1"})
    else:
        hit["v"] = str(Fraction(hit["v"]) + 1)
    return {**doc, "name": doc["name"] + "-bad", "left": left}


def write_inputs(fixtures: dict[str, dict], inputs: Path) -> dict:
    """Write every input document under inputs; return their paths by role."""
    def put(name: str, content) -> str:
        path = inputs / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content, indent=1), encoding="utf-8")
        return str(path)

    roles: dict = {"fixtures": [], "hom": [], "bad": [], "star": [], "dims": {}}
    for name, doc in fixtures.items():
        hom = {key: value for key, value in doc.items() if key != "xi"}
        star = {"name": name + "-star", "dim": doc["dim"], "parity": doc["parity"], "star": doc["left"],
                "gamma": doc["gamma"], "xi": doc["xi"]}
        for role, content in (("fixtures", doc), ("hom", hom), ("bad", _violated(doc)), ("star", star)):
            path = put(f"{name}-{role}.json", content)
            roles[role].append(path)
            roles["dims"][path] = doc["dim"]
    dims = sorted(set(roles["dims"].values()))
    roles["maps"] = {
        d: [
            put(f"id{d}.json", _map(d, d, lambda i, j: int(i == j))),
            put(f"neg{d}.json", _map(d, d, lambda i, j: -int(i == j))),
            put(f"diag{d}.json", _map(d, d, lambda i, j: Fraction(i + 1, 2) if i == j else 0)),
            put(f"zero{d}.json", _map(d, d, lambda i, j: 0)),
        ]
        for d in dims
    }
    roles["rect"] = {(r, c): put(f"zero{r}x{c}.json", _map(r, c, lambda i, j: 0)) for r in dims for c in dims}
    roles["nil3"] = put("nil3-odd.json", NIL3_ODD)
    roles["census"] = put("census-001-001-221.json", CENSUS_001_001_221)
    roles["singular"] = put("dsum-zero2-idem1-singular.json", DSUM_SINGULAR)
    grassmann = fixtures.get("grassmann2") or next(iter(fixtures.values()))
    roles["malformed"] = [
        put("not-json.json", "{"),
        put("array.json", "[]"),
        put("no-name.json", {k: v for k, v in grassmann.items() if k != "name"}),
        put("zero-dim.json", {**grassmann, "dim": 0}),
        put("bad-parity.json", {**grassmann, "parity": [0, 2]}),
        put("float.json", {**grassmann, "left": [{"i": 0, "j": 0, "k": 0, "v": 1.5}]}),
        put("bool.json", {**grassmann, "left": [{"i": 0, "j": 0, "k": 0, "v": True}]}),
        put("unicode-digit.json", {**grassmann, "left": [{"i": 0, "j": 0, "k": 0, "v": "٣/4"}]}),
        put("index.json", {**grassmann, "left": [{"i": 0, "j": 0, "k": 9, "v": "1"}]}),
        put("duplicate.json", {**grassmann, "left": [{"i": 0, "j": 0, "k": 0, "v": "1"}] * 2}),
        put("odd-constant.json", {**grassmann, "left": [{"i": 0, "j": 0, "k": 1, "v": "1"}]}),
        put("odd-gamma.json", {**grassmann, "gamma": [["0", "1"], ["1", "0"]]}),
        put("short-gamma.json", {**grassmann, "gamma": [["1", "0"]]}),
        put("zero-denominator.json", {**grassmann, "left": [{"i": 0, "j": 0, "k": 0, "v": "1/0"}]}),
        put("true-for-one.json", {**NIL3_ODD, "left": [{**_NIL3_ONE, "v": 1}], "right": [{**_NIL3_ONE, "v": True}]}),
        put("false-for-zero.json", {**NIL3_ODD, "right": [{**_NIL3_ONE, "i": False}]}),
        put("not-utf8.json", b"\xff\xfe{}"),
        put("deep.json", "[" * 100000 + "]" * 100000),
        str(inputs / "missing.json"),
    ]
    roles["bad_maps"] = [
        put("map-count.json", {"rows": 2, "cols": 2, "entries": ["1"]}),
        put("map-float.json", {"rows": 2, "cols": 2, "entries": [1.0, 0, 0, 1]}),
        put("map-odd.json", _map(2, 2, lambda i, j: int(i != j))),
        put("map-singular.json", _map(2, 2, lambda i, j: int(i == 0))),
    ]
    return roles


def invocations(roles: dict) -> list[dict]:
    """The fixed list of runs, each ``{"argv": [...]}`` with optional ``stdin``."""
    runs: list[dict] = []
    dims, maps = roles["dims"], roles["maps"]
    algebras = roles["fixtures"] + roles["hom"] + roles["bad"]

    def add(*argv: str, output: bool = False) -> None:
        variants = ([], ["--json"], ["-o", "out.json"], ["--json", "-o", "out.json"]) if output else ([], ["--json"])
        runs.extend({"argv": [*argv, *extra]} for extra in variants)

    for alg in algebras:
        for flags in ([], ["--hom"], ["--multiplicative"], ["--hom", "--multiplicative"]):
            add("check", alg, *flags)
        for kind in KINDS:
            for s, r in ((0, 0), (1, 0), (0, 1)):
                add("spaces", alg, "--space", kind, "--s", str(s), "--r", str(r))
        for s, r in ((0, 0), (1, 0), (0, 1)):
            add("spaces", alg, "--space", "D", "--s", str(s), "--r", str(r), "--koszul")
        for grade in ("even", "odd"):
            add("spaces", alg, "--space", "QD", "--s", "1", "--r", "1", "--grade", grade)
        for power in ("0", "1", "2"):
            add("verify", alg, "--max-power", power)
        for m in maps[dims[alg]]:
            add("twist", alg, "--map", m, output=True)
            add("avg", alg, "--map", m)
        for command in ("sum-product", "commutator", "total-product", "swap"):
            add(command, alg, output=True)
    for group in (roles["fixtures"], roles["hom"]):
        for a in group:
            for b in group:
                add("dsum", a, b, output=True)
                for command in ("graph", "morphism"):
                    add(command, a, b, "--map", roles["rect"][(dims[b], dims[a])])
                    if dims[a] == dims[b]:
                        for m in maps[dims[a]][:3]:
                            add(command, a, b, "--map", m)
    add("dsum", roles["fixtures"][0], roles["hom"][0])
    for power in ("0", "1", "2"):
        add("verify", roles["nil3"], "--max-power", power)
        add("verify", roles["census"], "--max-power", power)
        add("verify", roles["singular"], "--max-power", power)
    for kind in ("ZD", "D", "C"):
        for s, r in ((0, 0), (1, 0)):
            add("spaces", roles["nil3"], "--space", kind, "--s", str(s), "--r", str(r))
    for alg in roles["fixtures"] + roles["hom"]:
        for m in maps[dims[alg]][1:]:
            for weight in ("--weight=1", "--weight=-1/2"):
                add("rb", alg, "--map", m, weight)
                add("rb", alg, "--map", m, weight, "--literal")
    for alg in roles["star"] + roles["fixtures"][:1] + roles["hom"][:1]:
        for m in maps[dims[alg]]:
            for weight in ("0", "1", "-1"):
                add("rb", alg, "--map", m, "--weight", weight, "--induce", output=True)
    for bad in roles["malformed"]:
        add("check", bad)
        add("verify", bad)
        add("dsum", bad, roles["fixtures"][0], output=True)
    two = next(a for a in roles["fixtures"] if dims[a] == 2)
    for bad in roles["bad_maps"]:
        for command in ("twist", "avg", "graph", "morphism", "rb"):
            pair = [two, two] if command in ("graph", "morphism") else [two]
            extra = ["--weight", "1"] if command == "rb" else []
            add(command, *pair, "--map", bad, *extra)
    first, missing = roles["fixtures"][0], roles["malformed"][-1]
    names = [Path(p).name.removesuffix("-fixtures.json") for p in roles["fixtures"]]
    runs.extend({"argv": argv} for argv in (
        [], ["--version"], ["--help"], ["nonsense"], ["check"],
        *([name, extra] for name in SUBCOMMANDS for extra in ("--help", "--no-such-flag")),
        ["fixtures"], ["fixtures", "--json"], ["fixtures", "unknown"], ["fixtures", "-o", "out.json"],
        ["fixtures", "--json", "idem1"], ["fixtures", "idem1", "extra"], ["fixtures", "-"],
        ["fixtures", "--output", "out.json"], ["fixtures", "idem1", "-o", "out.json", "--json"], ["fixtures", "--", "idem1"],
        *(["fixtures", name, *extra] for name in names for extra in ([], ["-o", "out.json"], ["--json"])),
        ["spaces", first, "--space", "C", "--s", "0", "--r", "0", "--koszul"],
        ["spaces", first, "--space", "X", "--s", "0", "--r", "0"],
        ["spaces", first, "--space", "D", "--s", "-1", "--r", "0"],
        ["verify", first, "--max-power", "-1"],
        # Forms at the edge of the plain argv the command table reads; argparse reads these.
        ["verify", first, "--max-power=2"], ["verify", first, "--max-p", "2"],
        ["check", first, "--json", "--json"], ["check", "--json", first],
        ["dsum", first, "--json", roles["hom"][0]], ["spaces", first, "--space=D", "--s", "0", "--r", "0"],
        ["check", "--", first], ["spaces", first, "--space", "D", "--s", "0", "--r", "-1"],
        *(["spaces", bad, "--space", "D", "--s", "-1", "--r", "0"] for bad in roles["malformed"][:1] + roles["malformed"][-1:]),
        ["rb", first, "--map", maps[dims[first]][0], "--weight", "1", "--induce", "--literal"],
        ["rb", first, "--map", maps[dims[first]][0], "--weight", "1", "-o", "out.json"],
        ["rb", first, "--map", maps[dims[first]][0], "--weight", "1.5"],
        ["twist", first, "--map", maps[dims[first]][0], "-o", str(Path(first).parent / "no-such-dir" / "out.json")],
        # Each usage rule against a missing document.
        ["spaces", missing, "--space", "C", "--koszul", "--s", "0", "--r", "0"],
        ["spaces", missing, "--space", "D", "--s", "0", "--r", "-1"],
        ["verify", missing, "--max-power", "-1"],
        ["rb", missing, "--map", missing, "--weight", "1", "--induce", "--literal"],
        ["rb", missing, "--map", missing, "--weight", "1", "-o", "out.json"],
        ["fixtures", missing, "-o", "out.json", "--json"],
        ["fixtures", "--json", "-o", "out.json"],
    ))
    for text in (Path(first).read_text(encoding="utf-8"), "{", ""):
        runs.extend({"argv": argv, "stdin": text} for argv in (["check", "-"], ["check", "-", "--json"],
                                                               ["spaces", "-", "--space", "D", "--s", "-1", "--r", "0"]))
    return runs


def compare(runs: list[dict], ours: list, theirs: list) -> list[str]:
    """One line per differing field of each run, in run order, quoting the
    first line where the two sides part."""
    diffs = []
    for run, a, b in zip(runs, ours, theirs):
        for field, x, y in zip(("exit code", "stdout", "stderr", "-o bytes"), a, b):
            if x != y:
                parted = [(p, q) for p, q in zip(str(x).splitlines() + [""], str(y).splitlines() + [""]) if p != q]
                p, q = parted[0] if parted else (repr(x)[-80:], repr(y)[-80:])  # they differ in line ends
                diffs.append(f"{' '.join(run['argv'])}: {field}: {p[:160]!r} vs {q[:160]!r}")
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, type=Path, help="the tree to compare with")
    parser.add_argument("--tree", default=ROOT, type=Path, help="the tree under test (default: this checkout)")
    args = parser.parse_args(argv)
    for tree in (args.tree, args.against):
        if not (tree / "src" / "supertrial").is_dir():
            _fail(f"{tree}: no src/supertrial here")
    with tempfile.TemporaryDirectory(prefix="cli-equivalence-") as tmp:
        scratch = Path(tmp)
        inputs = scratch / "inputs"
        inputs.mkdir()
        runs = invocations(write_inputs(_export_fixtures(args.against, scratch), inputs))
        procs = [(tree, _run_tree(tree, runs, scratch / label)) for tree, label in ((args.tree, "tree"), (args.against, "against"))]
        ours, theirs = (_collect(tree, proc) for tree, proc in procs)
    diffs = compare(runs, ours, theirs)
    differing = sum(a != b for a, b in zip(ours, theirs))
    print(f"{len(runs)} runs, {differing} differing")
    for line in diffs[:SHOWN]:
        print("  " + line.replace(str(inputs) + os.sep, ""))
    if len(diffs) > SHOWN:
        print(f"  ... and {len(diffs) - SHOWN} more differing fields")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
