"""Write pins.json: the sha256 of every ladder document, and the exit code
and output digests of every job, for each of the ladder's input variants.

    python3 perfbench/pin.py

Run it on a commit whose outputs are known to be right; the benchmark then
fails any job that differs from what this recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, jobs, run  # noqa: E402

# Passes run at once; the digests do not depend on it.
WORKERS = 2


def pin_pass(workload: str, variant: int) -> dict | None:
    inputs = run.WORK / f"inputs-{workload}-{variant}-pin"
    harness.write_inputs(workload, variant, inputs, None)
    try:
        return run.spawn("pass", workload, variant, inputs, "pin")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def main() -> int:
    variants = range(harness.VARIANTS)
    pins: dict = {"inputs": {}, "jobs": {}}
    for workload in jobs.WORKLOADS:
        pins["inputs"][workload] = {
            str(v): {name: harness.sha256(text) for name, text in jobs.inputs(workload, v).items()}
            for v in variants
        }
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    tasks = [(w, v) for w in jobs.WORKLOADS for v in variants]
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(lambda t: pin_pass(*t), tasks))
    for (workload, variant), result in zip(tasks, results):
        if result is None:
            print(f"pin: {workload} variant {variant} did not finish", file=sys.stderr)
            return 1
        pins["jobs"].setdefault(workload, {})[str(variant)] = {
            job["id"]: {"exit": job["exit"], "stdout": job["stdout"], "outputs": job["outputs"]}
            for job in result["jobs"]
            if job["error"] is None
        }
        if any(job["error"] for job in result["jobs"]):
            print(f"pin: {workload} variant {variant}: a job raised", file=sys.stderr)
            return 1
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
