"""Print which kind of job of a workload is slowest on one tree.

    python3 tools/job_kinds.py [--tree DIR] --workload spaces-dense --seed 1 --passes 3
    python3 tools/job_kinds.py [--tree DIR] --against PARENT --workload battery --seed 1 --passes 5

Run from anywhere; ``--tree`` (default: this checkout) is the root of the
checkout to measure, and its own ``perfbench`` runs it.  The tool writes
the seed's input documents as ``perfbench/run.py`` does, then runs
``--passes`` passes of the workload's job list, each in a fresh
interpreter through ``perfbench.run.spawn``.  Each job's time is
``run.calibrated``, in reference-kernel units.  As in ``run.slowest_kind``,
a pass gives each job kind the median over its instances; the tool prints
one JSON object, slowest kind first, with each kind's median over the
passes and the number of jobs whose exit code or digests differ from the
pins.

With ``--against PARENT`` (the root of another checkout, typically the
parent commit exported with ``git archive``), the tool runs one pass of
each tree in turn, ``--passes`` times per tree, parent first on even
rounds and ``--tree`` first on odd ones, each through this script on that
tree alone.  It prints each kind's parent and change medians over the
passes and their ratio, slowest parent kind first, so a ``slowest_job_ref``
claim can name the kind that moved.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args)

    sys.path.insert(0, str(args.tree.resolve()))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    from perfbench import harness, jobs, run

    pins = json.loads(run.PINS.read_text())
    variant = str(harness.ladder_seed(args.seed))
    expected = pins["jobs"][args.workload][variant]
    kinds = {job.id: job.kind for job in jobs.jobs(args.workload)}
    inputs = run.WORK / f"inputs-{args.workload}-{args.seed}-{os.getpid()}-kinds"
    per_pass: dict[str, list[float]] = {}
    failed = 0
    try:
        harness.write_inputs(args.workload, args.seed, inputs, pins["inputs"][args.workload][variant])
        for n in range(args.passes):
            result = run.spawn("pass", args.workload, args.seed, inputs, f"kinds{n}")
            failed += run.failures(result, expected, f"pass {n}")
            if result is None:
                continue
            times: dict[str, list[float]] = {}
            for job, t in zip(result["jobs"], run.calibrated(result)):
                times.setdefault(kinds[job["id"]], []).append(t)
            for kind, ts in times.items():
                per_pass.setdefault(kind, []).append(statistics.median(ts))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    medians = {kind: round(statistics.median(ts), 4) for kind, ts in per_pass.items()}
    ranked = dict(sorted(medians.items(), key=lambda item: -item[1]))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": args.passes,
                      "failed_jobs": failed, "kind_medians_ref": ranked}))
    return 1 if failed else 0


def against(args: argparse.Namespace) -> int:
    """Alternate single passes of the parent tree and of ``--tree``; print
    each kind's median per side and the change over the parent."""
    trees = {"parent": args.against, "change": args.tree}
    per_pass: dict[str, dict[str, list[float]]] = {role: {} for role in trees}
    failed = dict.fromkeys(trees, 0)
    for n in range(args.passes):
        for role in ("parent", "change") if n % 2 == 0 else ("change", "parent"):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--tree", str(trees[role].resolve()),
                   "--workload", args.workload, "--seed", str(args.seed), "--passes", "1"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"job_kinds: {role} pass {n} printed nothing: {proc.stderr.strip()[-800:]}", file=sys.stderr)
                failed[role] += 1
                continue
            result = json.loads(lines[-1])
            failed[role] += result["failed_jobs"]
            for kind, t in result["kind_medians_ref"].items():
                per_pass[role].setdefault(kind, []).append(t)
    medians = {role: {kind: statistics.median(ts) for kind, ts in kinds.items()} for role, kinds in per_pass.items()}
    table = {}
    for kind in sorted(medians["parent"], key=lambda k: -medians["parent"][k]):
        parent, change = medians["parent"][kind], medians["change"].get(kind)
        table[kind] = {"parent": round(parent, 4), "change": None if change is None else round(change, 4),
                       "ratio": None if change is None else round(change / parent, 4)}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": args.passes,
                      "failed_jobs": failed, "kind_medians_ref": table}))
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
