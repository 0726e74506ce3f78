"""One pass of a workload, run in a fresh interpreter.

A pass imports ``supertrial`` from the checkout's ``src``, copies the
ladder documents that the parent wrote once for the run (``write_inputs``)
into a directory of its own, and then runs the job list in order through
``supertrial.cli.main`` in this process, with its standard streams
captured.  For every job it records the wall time, the exit code and the
sha256 of the stdout report and of each ``-o`` document.  The checking
against the pinned digests happens in the parent (``run.py``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import resource
import shutil
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import jobs, trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
VARIANTS = 16


SAMPLE_INTERVAL_S = 0.25
SAMPLES_BETWEEN_JOBS = 4


def reference_kernel() -> float:
    """Seconds taken by a fixed loop of stdlib ``Fraction`` arithmetic with
    the collector off: the speed of the host at this moment.

    The host this was tuned on is shared; its speed drifts by a fifth within
    minutes, and its two CPUs drift apart.  So a job's time is divided by
    this loop's mean time, sampled around and during the job in the same
    process (``Sampler``).  The collector is off so that the size of the
    program's heap does not change the loop's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        acc = Fraction(0)
        for i in range(1, 2500):
            acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        return (time.perf_counter_ns() - start) / 1e9
    finally:
        if was_enabled:
            gc.enable()


class Sampler:
    """Runs the reference kernel every SAMPLE_INTERVAL_S while a job runs,
    from a SIGALRM handler, and keeps the time it took from the job.

    Inactive in traced passes, where its time would land in the self time
    of whichever layer it interrupted.
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.samples: list[float] = []
        self.stolen_ns = 0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.samples.append(reference_kernel())
        self.stolen_ns += time.perf_counter_ns() - start

    def __enter__(self) -> "Sampler":
        if self.active:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def ladder_seed(seed: int) -> int:
    """The ladder has VARIANTS pinned input sets; the seed picks one."""
    return seed % VARIANTS


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def import_program():
    """Import ``supertrial.cli`` from this checkout's sources, nowhere else."""
    if not (SRC / "supertrial" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from supertrial import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: supertrial was imported from {cli.__file__}, not {SRC}")
    return cli


def write_inputs(workload: str, seed: int, directory: Path, pinned: dict[str, str] | None) -> None:
    """Write the ladder documents; with pins given, refuse any that differ.

    The parent calls this once per run, outside every pass's ``setup_s``:
    generating the dense documents takes longer than importing the program,
    and no change to the program touches it.
    """
    docs = jobs.inputs(workload, ladder_seed(seed))
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in docs.items():
        if pinned is not None and pinned.get(name) != sha256(text):
            raise SystemExit(f"perfbench: generated input {name} does not match its pinned sha256")
        (directory / name).write_text(text, encoding="utf-8")


def run_job(cli, job: jobs.Job, sampled: bool = True) -> dict:
    """Run one job; an exception is recorded and fails the job, not the pass."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with Sampler(sampled) as sampler:
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(job.argv))
        except Exception as exc:  # a crash is a failed job; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed_ns = time.perf_counter_ns() - start
    seconds = (elapsed_ns - sampler.stolen_ns) / 1e9
    outputs = {}
    for name in job.outputs:
        path = Path(name)
        outputs[name] = sha256(path.read_text(encoding="utf-8")) if path.is_file() else None
    return {
        "id": job.id,
        "seconds": seconds,
        "samples": sampler.samples,
        "exit": code,
        "stdout": sha256(out.getvalue()),
        "outputs": outputs,
        "error": error,
    }


def run_pass(
    workload: str,
    inputs: Path,
    workdir: Path,
    t0_ns: int,
    *,
    setup_only: bool = False,
    traced: bool = False,
    only: tuple[str, ...] = (),
    spans_path: Path | None = None,
) -> dict:
    """Set up, sample the reference kernel, then run the workload's jobs (or
    those named in ``only``), sampling the reference kernel before, during
    and after each job.

    ``t0_ns`` is the ``time.monotonic_ns()`` reading taken by the parent just
    before it started this interpreter, so ``setup_s`` covers interpreter
    start, the import and loading the input documents from ``inputs``.
    """
    cli = import_program()
    # Each pass gets its own copy: jobs write their -o documents beside it.
    shutil.copytree(inputs, workdir)
    result: dict = {"setup_s": (time.monotonic_ns() - t0_ns) / 1e9, "jobs": []}
    result["setup_ref"] = [reference_kernel() for _ in range(SAMPLES_BETWEEN_JOBS)]
    if setup_only:
        return result
    tracer = None
    if traced:
        tracer = trace.Tracer()
        tracer.install()
    os.chdir(workdir)
    gc.collect()
    between = [[reference_kernel() for _ in range(SAMPLES_BETWEEN_JOBS)]]
    for job in jobs.jobs(workload):
        if only and job.id not in only:
            continue
        if tracer is not None:
            tracer.job = job.id
        result["jobs"].append(run_job(cli, job, sampled=tracer is None))
        between.append([reference_kernel() for _ in range(SAMPLES_BETWEEN_JOBS)])
    result["between"] = between
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        spans = tracer.finished()
        result["layers"] = trace.layer_metrics(spans, tracer.counters, tracer.present)
        if spans_path is not None:
            tracer.write(str(spans_path))
    return result
