"""Benchmark of the supertrial CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run writes the seed's input
documents once, then runs each pass of the workload's job list in a fresh
interpreter (``harness.run_pass``), one job after another: a closed loop
with one client.  Passes repeat until ``--seconds`` have gone by, at least
one.  Every job's exit code and output digests are checked against
``pins.json``; a mismatch fails the job and the run exits 1.  A run that
would go past ``RUN_BUDGET_S`` stops its pass, prints no result and exits 3:
the program is too slow there, which says nothing of its outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (medians over the passes):

  setup_s          interpreter start, import and input loading, in seconds
                   at the reference kernel's nominal time (REF_NOMINAL_S)
  wall_ref         time of the job list, in reference-kernel units
  slowest_job_ref  slowest kind of job, in reference-kernel units
  peak_rss_mb      peak resident memory of the pass's process
  pass_ratio       jobs with the pinned exit code and digests, over attempted

A job's time in reference-kernel units is its wall time over the mean time
of ``harness.reference_kernel``, sampled just before, during and just
after the job in the same process; this cancels most of the drift of a
shared host's speed.  Set-up time is scaled the same way, by the kernel's
time sampled just after each set-up, but back into seconds.

With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer ones from the traced passes (``trace.py``) plus those in
``BENCH_METRICS``: the traced over the untraced ``wall_ref``, the untraced
job lists' wall time in seconds and the reference kernel's time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import harness, jobs, trace  # noqa: E402

PINS = Path(__file__).resolve().with_name("pins.json")
WORK = ROOT / ".perfbench_work"
SETUP_ONLY_PASSES = 12
# Set-up seconds are reported as on a host where the reference kernel takes
# this long: about its median on the 2-vCPU host the benchmark was built on.
REF_NOMINAL_S = 0.02
# Reported by a traced run beside the per-layer metrics of trace.py.
BENCH_METRICS = {"bench.trace_overhead_ratio": "ratio", "bench.wall_s": "s", "bench.ref_s": "s"}
# A run must end within 180 s; the parent's own work takes a few seconds.
RUN_BUDGET_S = 170
TIMED_OUT = 3


def spawn(mode: str, workload: str, seed: int, inputs: Path, tag: str,
          deadline: float | None = None) -> dict | None:
    """Run one pass in a fresh interpreter; None if it did not finish cleanly.

    Raises ``subprocess.TimeoutExpired``, with the pass stopped, if it is
    still running at ``deadline`` (a ``time.monotonic()`` reading).
    """
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}-{tag}"
    spans = WORK / "traces" / f"{workload}-{seed}-{tag}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = None if deadline is None else max(deadline - time.monotonic(), 0)
    t0 = time.monotonic_ns()
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", workload, "--seed", str(seed), "--t0", str(t0),
        "--inputs", str(inputs), "--workdir", str(workdir), "--spans", str(spans),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: {mode} pass {tag} exited {proc.returncode}: {proc.stderr.strip()[-800:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wall(r: dict) -> float:
    """Seconds the pass's job list took."""
    return sum(job["seconds"] for job in r["jobs"])


def calibrated(r: dict, during: bool = True) -> list[float]:
    """Each job's time over the mean time of the reference kernel sampled
    just before, during (unless ``during`` is false) and just after it
    (``harness.Sampler``).  Traced passes take no samples during a job."""
    out = []
    for i, job in enumerate(r["jobs"]):
        samples = r["between"][i] + (job["samples"] if during else []) + r["between"][i + 1]
        out.append(job["seconds"] / statistics.fmean(samples))
    return out


def slowest_kind(r: dict, kinds: dict[str, str]) -> float:
    """The calibrated time of the slowest kind of job: the largest, over job
    kinds, of the median over the kind's instances.  One instance with
    outsized coefficients then does not decide the pass's slowest job."""
    times: dict[str, list[float]] = {}
    for job, t in zip(r["jobs"], calibrated(r)):
        times.setdefault(kinds[job["id"]], []).append(t)
    return max(statistics.median(ts) for ts in times.values())


def failures(result: dict | None, expected: dict[str, dict], label: str) -> int:
    """Jobs of one pass whose exit code or digests differ from the pins."""
    if result is None:
        return len(expected)
    got = {job["id"]: job for job in result["jobs"]}
    failed = 0
    for job_id, want in expected.items():
        job = got.get(job_id)
        if job is None:
            problem = "did not run"
        elif job["error"] is not None:
            problem = job["error"]
        elif job["exit"] != want["exit"]:
            problem = f"exit {job['exit']}, pinned {want['exit']}"
        elif job["stdout"] != want["stdout"]:
            problem = "stdout report differs from its pinned sha256"
        elif job["outputs"] != want["outputs"]:
            problem = "-o document differs from its pinned sha256"
        else:
            continue
        failed += 1
        print(f"perfbench: {label}: job {job_id}: {problem}", file=sys.stderr)
    return failed


def run(workload: str, seed: int, seconds: float, traced: bool, pins: dict) -> tuple[dict, int]:
    """Measure one workload; returns the result object and the exit code."""
    variant = str(harness.ladder_seed(seed))
    expected = pins["jobs"][workload][variant]
    kinds = {job.id: job.kind for job in jobs.jobs(workload)}
    deadline = time.monotonic() + RUN_BUDGET_S
    inputs = WORK / f"inputs-{workload}-{seed}-{os.getpid()}"
    try:
        harness.write_inputs(workload, seed, inputs, pins["inputs"][workload][variant])
        setups = []
        for n in range(SETUP_ONLY_PASSES):
            result = spawn("setup", workload, seed, inputs, f"setup{n}", deadline)
            if result is not None:
                setups.append(result)
        modes = ("pass", "traced") if traced else ("pass",)
        passes: list[tuple[str, dict | None]] = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            for mode in modes:
                passes.append((mode, spawn(mode, workload, seed, inputs, f"{mode}{len(passes)}", deadline)))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    attempted = len(expected) * len(passes)
    failed = sum(failures(r, expected, f"{mode} {n}") for n, (mode, r) in enumerate(passes))
    setups_ok = len(setups) == SETUP_ONLY_PASSES
    plain = [r for mode, r in passes if mode == "pass" and r is not None]
    layered = [r for mode, r in passes if mode == "traced" and r is not None]
    setups += [r for _, r in passes if r is not None]
    # With no interpreter set up (say, the program fails to import) there is
    # nothing to time; the jobs then count as failed and no metric is given.
    setup_raw = statistics.median(r["setup_s"] for r in setups) if setups else math.nan
    setup_ref = statistics.median(x for r in setups for x in r["setup_ref"]) if setups else math.nan

    metrics: dict[str, dict] = {}
    if not traced and plain:
        values = {
            "setup_s": (setup_raw * REF_NOMINAL_S / setup_ref, "s"),
            "wall_ref": (statistics.median(sum(calibrated(r)) for r in plain), "ref"),
            "slowest_job_ref": (statistics.median(slowest_kind(r, kinds) for r in plain), "ref"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain), "MB"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    elif traced and plain and layered:
        for name, unit in trace.metric_units().items():
            found = [r["layers"][name] for r in layered if r["layers"][name] is not None]
            # A traced name the program no longer has is reported as absent.
            metrics[name] = {"value": statistics.median(found) if found else None, "unit": unit}
        overhead = (statistics.median(sum(calibrated(r, during=False)) for r in layered)
                    / statistics.median(sum(calibrated(r, during=False)) for r in plain))
        values = {
            "bench.trace_overhead_ratio": overhead,
            "bench.wall_s": statistics.median(wall(r) for r in plain),
            "bench.ref_s": statistics.median(x for r in plain for xs in r["between"] for x in xs),
        }
        metrics.update({name: {"value": v, "unit": BENCH_METRICS[name]} for name, v in values.items()})
    correct = failed == 0 and setups_ok and bool(metrics)
    walls = ", ".join(f"{wall(r):.3f} s = {sum(calibrated(r)):.1f} ref" for r in plain)
    print(f"perfbench: {workload} seed {seed}: {len(passes)} passes; untraced job lists took [{walls}]; "
          f"set-up took {setup_raw:.4f} s with the kernel at {setup_ref * 1e3:.2f} ms; "
          f"{failed} of {attempted} jobs failed", file=sys.stderr)
    report = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, 0 if correct else 1


def child(args: argparse.Namespace) -> int:
    result = harness.run_pass(
        args.workload,
        Path(args.inputs),
        Path(args.workdir),
        args.t0,
        setup_only=args.child == "setup",
        traced=args.child == "traced",
        spans_path=Path(args.spans),
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the mode of a pass started by the parent.
    parser.add_argument("--child", choices=("setup", "pass", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    if not (harness.SRC / "supertrial" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {harness.SRC}; nothing to measure", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    try:
        report, code = run(args.workload, args.seed, args.seconds, bool(args.trace), pins)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} seed {args.seed}: a pass ran past the run's budget of "
              f"{RUN_BUDGET_S} s and was stopped; the program is too slow, its outputs were not "
              "checked", file=sys.stderr)
        return TIMED_OUT
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
