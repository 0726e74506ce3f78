"""Time the proposition battery at scale on two commits, alternating, with a digest per job.

    python3 tools/scale.py --parent REV --change REV --out BENCH_<n>.json

Run from the root of a checkout.  Each job is ``proposition_battery(spec,
1)`` on one input of ``JOBS``: ``tw(k, 1, 0)`` from ``perfbench/ladder.py``,
or from ``tests/generators.py`` ``two_step(seed, n)`` or
``direct_sum(two_step(seed, n), dsum_singular())``.  Both commits are
exported with ``git archive``.  Each run is a fresh interpreter on one
tree that builds the input, times the battery in process time, and prints
the seconds and a sha256 of the report's lines with their witnesses.  Per
job, the ``RUNS`` runs alternate: run i runs the parent first when i is
even and the change first when it is odd.  Each child runs under
``TIMEOUT_S`` and an address-space cap of ``MEMORY_MB``.

The script writes a ``scale`` key into the output file, and the two
commits at its top level as ``tools/bench_pairs.py`` does, keeping every
other key, so either script may write the file first; it refuses (exit 2)
a non-empty file that does not record these two commits.  The key holds, per job and side, the
seconds of every run and their median, the one digest, and the parent
median over the change median.  It exits 1 when a job's digests differ
between runs or sides, and writes nothing then.  A battery whose lines
all pass has the digest of its claims and powers alone, so only the
``dsum_singular`` job, whose battery fails 15 lines, checks output: its
witnesses come from the spaces and products the battery computes.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import HOST, exported, open_record

# Each job is a family and its arguments, named by joining them with "-".
JOBS = ("tw-4", "tw-5", "two_step-2-12", "two_step-2-14", "dsum_singular-2-9")
RUNS = 5
TIMEOUT_S = 600
MEMORY_MB = 2048


def child(job: str) -> None:
    """Build the job's input on the tree that sys.path points at, run its battery, print the record."""
    import hashlib
    import time

    from generators import dsum_singular, two_step
    from perfbench import ladder
    from supertrial.constructions import direct_sum
    from supertrial.serialize import parse_algebra
    from supertrial.spaces import proposition_battery

    family, *numbers = job.split("-")
    if family == "tw":
        spec = parse_algebra(ladder.render(ladder.tw(*map(int, numbers), 1, 0)))
    elif family == "two_step":
        spec = two_step(*map(int, numbers))
    else:
        spec = direct_sum(two_step(*map(int, numbers)), dsum_singular())
    start = time.process_time()
    report = proposition_battery(spec, 1)
    seconds = time.process_time() - start
    lines = [[*line[:6], line.witness and [str(v) for v in line.witness.matrix.entries]] for line in report.lines]
    digest = hashlib.sha256(json.dumps(lines).encode()).hexdigest()
    print(json.dumps({"seconds": round(seconds, 4), "sha256": digest}))


def run_once(tree: Path, job: str) -> dict:
    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_MB << 20, MEMORY_MB << 20))

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(str(tree / part) for part in ("src", "tests", "."))}
    proc = subprocess.run([sys.executable, __file__, "--child", job], cwd=tree, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S, preexec_fn=limit, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:  # one run of run_once, on the tree that sys.path points at
        child(argv[1])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    opened = open_record(args.parent, args.change, args.out)
    if opened is None:
        return 2
    commits, doc = opened
    record: dict = {"command": "proposition_battery(spec, 1), process time, one fresh interpreter per run",
                    "host": HOST, "jobs": {}}
    with exported(commits, "scale-") as trees:
        for job in JOBS:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(RUNS):
                for role in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[role].append(run_once(trees[role], job))
                    print(f"{job} run {i} {role}: {runs[role][-1]}", flush=True)
            digests = {r["sha256"] for side in runs.values() for r in side}
            if len(digests) != 1:
                print(f"{job}: digests differ: {sorted(digests)}", file=sys.stderr)
                return 1
            sides = {role: {"seconds": [r["seconds"] for r in side],
                            "median": statistics.median(r["seconds"] for r in side)} for role, side in runs.items()}
            record["jobs"][job] = {**sides, "sha256": digests.pop(),
                                   "speedup": round(sides["parent"]["median"] / sides["change"]["median"], 3)}
    doc["scale"] = record
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
