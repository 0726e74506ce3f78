"""Run the benchmark on two commits in alternating pairs and record the runs.

    python3 tools/bench_pairs.py --parent REV --change REV --workload check-io \
        [--workload battery ...] --seed 1 --pairs 10 [--trace 1] --out BENCH_<n>.json

Run from the root of a checkout.  Each ``--workload`` (the option may be
given more than once) runs its pairs in turn, all into the one output
file.  Each commit is exported with ``git archive`` into a new directory,
so both sides run their committed files only, with no ``__pycache__``:
the runs set ``PYTHONDONTWRITEBYTECODE`` and any cache found in an export
is removed before each run.  A stale cache on one side only makes
``setup_s`` and ``peak_rss_mb`` read lower there.

Pair i runs the parent first when i is even and the change first when it
is odd.  Each run is ``perfbench/run.py`` for the ``run_seconds`` of
``BENCHMARK.json``.  The output file keeps every run's last stdout line
(the result object) and last stderr line, and a summary per workload and
seed: for each end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles (``statistics.quantiles(n=4, method="inclusive")``), the
change over the parent median, and the pairs the change won (ties win
for neither).  Traced runs are summarised under
``traced_seed_<seed>`` as per-side medians of each per-layer metric.  An
existing output file for the same two commits is extended: its runs are
kept, new pairs are numbered after them, and keys this script does not
write (a claim, a note) are left as they are.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST = (f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
        f"{platform.python_implementation()} {platform.python_version()}")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, written under dest."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def open_record(parent: str, change: str, out: Path) -> tuple[dict[str, str], dict] | None:
    """The short hashes of parent and change by role, and the record in out (empty if
    there is none) with both commits set; None, after a message, if out is not empty
    and records other commits."""
    commits = {role: git("rev-parse", "--short", rev).decode().strip()
               for role, rev in (("parent", parent), ("change", change))}
    doc = json.loads(out.read_text()) if out.exists() else {}
    if doc and (doc.get("parent_commit"), doc.get("change_commit")) != (commits["parent"], commits["change"]):
        print(f"{out} records other commits; use another file", file=sys.stderr)
        return None
    doc.update(parent_commit=commits["parent"], change_commit=commits["change"])
    return commits, doc


@contextmanager
def exported(commits: dict[str, str], prefix: str) -> Iterator[dict[str, Path]]:
    """Each role's commit exported into a temporary directory, by role; removed on exit."""
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        trees = {role: Path(tmp) / role for role in commits}
        for role, tree in trees.items():
            export(commits[role], tree)
        yield trees


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    errors = proc.stderr.strip().splitlines()
    return {
        "exit": proc.returncode,
        "result": result,
        "stderr_summary": errors[-1] if errors else "",
        "elapsed_s": round(time.monotonic() - start, 1),
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(values[0], 4)] * 2
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def median_of(values: list) -> float | None:
    """The median of the values that are not None (a traced metric the
    program no longer has reads None), or None if there are none."""
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def summarise(doc: dict, metrics: dict[str, str]) -> None:
    """Recompute the summary and traced medians from all runs of doc."""
    summary: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    groups: dict[tuple, list[dict]] = {}
    for run in doc["runs"]:
        groups.setdefault((run["workload"], run["seed"], run["trace"]), []).append(run)
    for (workload, seed, trace), runs in sorted(groups.items()):
        ok = all(r["exit"] == 0 and r["result"] and r["result"]["correct"] for r in runs)
        sides = {role: {r["pair"]: r["result"]["metrics"] for r in runs if r["role"] == role and r["result"]}
                 for role in ("parent", "change")}
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        if trace:
            names = sorted({name for m in sides["parent"].values() for name in m})
            traced.setdefault(f"traced_seed_{seed}", {})[workload] = {
                name: {role: median_of([m[name]["value"] for m in sides[role].values() if name in m])
                       for role in ("parent", "change")}
                for name in names
            }
            continue
        entry: dict = {}
        for name, better in metrics.items() if pairs else ():
            parent = [sides["parent"][p][name]["value"] for p in pairs]
            change = [sides["change"][p][name]["value"] for p in pairs]
            sign = 1 if better == "lower" else -1
            pm, cm = statistics.median(parent), statistics.median(change)
            entry[name] = {
                "parent_median": round(pm, 4),
                "parent_q1_q3": quartiles(parent),
                "change_median": round(cm, 4),
                "change_q1_q3": quartiles(change),
                "ratio": round(cm / pm, 4) if pm else None,
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "pairs": len(pairs),
            }
        entry["correct"] = ok
        summary[f"{workload} seed {seed}"] = entry
    doc["summary"] = summary
    for key in [k for k in doc if k.startswith("traced_seed_")]:
        del doc[key]
    doc.update(traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    opened = open_record(args.parent, args.change, args.out)
    if opened is None:
        return 2
    commits, doc = opened
    doc.update(
        command="python3 perfbench/run.py --workload <workload> --seed <seed> --seconds <seconds> --trace <trace>",
        host=HOST,
    )
    runs = doc.setdefault("runs", [])
    with exported(commits, "bench-pairs-") as trees:
        for workload in args.workload:
            done = [r["pair"] for r in runs if (r["workload"], r["seed"], r["trace"]) == (workload, args.seed, args.trace)]
            first = max(done, default=-1) + 1
            for pair in range(first, first + args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for n, role in enumerate(order):
                    record = run_once(trees[role], workload, args.seed, seconds, args.trace)
                    runs.append({"commit": commits[role], "role": role, "workload": workload,
                                 "seed": args.seed, "pair": pair, "ran": ("first", "second")[n],
                                 "trace": args.trace, **record})
                    value = (record["result"] or {}).get("metrics", {}).get("wall_ref", {}).get("value")
                    print(f"{workload} pair {pair} {role}: exit {record['exit']}, wall_ref {value}", flush=True)
                summarise(doc, metrics)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
