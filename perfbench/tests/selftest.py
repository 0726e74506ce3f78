"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests/selftest.py -q

The file name keeps these out of the program's own test run: they start
interpreters and run real passes, under a minute in all.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import harness, jobs, run, trace  # noqa: E402
from perfbench.trace import Span  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINS = json.loads(run.PINS.read_text(encoding="utf-8"))


def test_self_time_on_nested_and_overlapping_children():
    spans = [
        Span("root", 0, 100, -1, "j"),
        Span("a", 10, 40, 0, "j"),   # overlaps b
        Span("b", 30, 60, 0, "j"),
        Span("c", 90, 120, 0, "j"),  # runs past its parent: clipped to 100
        Span("d", 15, 20, 1, "j"),   # grandchild, inside a
    ]
    # root: 100 - |[10, 60] u [90, 100]| = 40; a: 30 - 5 = 25.
    assert trace.self_times(spans) == [40, 25, 30, 30, 5]


def test_nested_build_span_counts_one_call():
    spans = [
        Span("spaces.build", 0, 100, -1, "j"),
        Span("spaces.build", 10, 90, 0, "j"),
        Span("linalg.rref", 20, 50, 1, "j"),
    ]
    present = {"spaces.build", "linalg.rref"}
    values = trace.layer_metrics(spans, {}, present)
    assert values["spaces.build.calls"] == 1
    assert values["spaces.build.self_s"] == pytest.approx(70e-9)
    assert values["linalg.rref.calls"] == 1
    assert values["core.check_bihom.calls"] is None  # never installed: absent


def test_absent_program_name_is_skipped():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT)!r}); from perfbench import harness, trace; "
        "harness.import_program(); import supertrial.linalg as la; del la.canonical_span; "
        "t = trace.Tracer(); t.install(); "
        "print('linalg.canonical_span' in t.present, 'linalg.rref' in t.present)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


def test_benchmark_names_and_units():
    units = {**trace.metric_units(), **run.BENCH_METRICS}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == units
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS)


@pytest.mark.parametrize(
    "workload, job_id",
    [("battery", "verify-idem1-p1"), ("spaces-dense", "spaces-2-QC-12"), ("check-io", "check-mult-tw4")],
)
def test_smoke_pass_of_each_workload(workload, job_id, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    variant = str(harness.ladder_seed(1))
    want = PINS["jobs"][workload][variant][job_id]
    harness.write_inputs(workload, 1, tmp_path / "inputs", PINS["inputs"][workload][variant])
    result = harness.run_pass(workload, tmp_path / "inputs", tmp_path / "work", 0, only=(job_id,))
    (job,) = result["jobs"]
    assert (job["exit"], job["stdout"], job["outputs"]) == (want["exit"], want["stdout"], want["outputs"])


def test_traced_pass_matches_the_pins(tmp_path):
    harness.write_inputs("check-io", 1, tmp_path, None)
    # In a fresh interpreter, since tracing patches the program's modules.
    result = run.spawn("traced", "check-io", 1, tmp_path, "selftest")
    assert result is not None
    assert run.failures(result, PINS["jobs"]["check-io"][str(harness.ladder_seed(1))], "traced") == 0
    assert result["layers"]["cli.main.calls"] == len(jobs.jobs("check-io"))
    assert result["layers"]["core.bilinear.calls"] > 0


def test_run_emits_every_end_to_end_metric():
    report, code = run.run("check-io", 1, 0, False, PINS)
    assert code == 0 and report["correct"] and report["failed"] == 0
    assert list(report) == ["correct", "attempted", "failed", "metrics"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in report["metrics"].values())


def test_corrupted_pin_fails_the_run():
    pins = copy.deepcopy(PINS)
    variant = str(harness.ladder_seed(1))
    pins["jobs"]["check-io"][variant]["graph"]["stdout"] = "0" * 64
    report, code = run.run("check-io", 1, 0, False, pins)
    assert code != 0 and not report["correct"]
    assert report["failed"] == 1
    assert report["metrics"]["pass_ratio"]["value"] < 1


def test_slow_run_is_reported_as_timed_out_not_as_wrong(monkeypatch, capsys):
    monkeypatch.setattr(run, "RUN_BUDGET_S", 0)
    code = run.main(["--workload", "check-io", "--seed", "1", "--seconds", "0"])
    out, err = capsys.readouterr()
    assert code == run.TIMED_OUT
    assert out == ""  # no result line
    assert "too slow" in err
