"""Print which kind of job of a workload is slowest on one tree.

    python3 tools/job_kinds.py [--tree DIR] --workload spaces-dense --seed 1 --passes 3

Run from anywhere; ``--tree`` (default: this checkout) is the root of the
checkout to measure, and its own ``perfbench`` runs it.  The tool writes
the seed's input documents as ``perfbench/run.py`` does, then runs
``--passes`` passes of the workload's job list, each in a fresh
interpreter through ``perfbench.run.spawn``.  Each job's time is
``run.calibrated``, in reference-kernel units.  As in ``run.slowest_kind``,
a pass gives each job kind the median over its instances; the tool prints
one JSON object, slowest kind first, with each kind's median over the
passes and the number of jobs whose exit code or digests differ from the
pins.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)

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


if __name__ == "__main__":
    sys.exit(main())
