"""The scale tool: a child run prints its battery's digest, a file of other commits is refused, and
leaving out a commit or the output file is a usage error."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from generators import dsum_singular, two_step

from supertrial.constructions import direct_sum
from supertrial.spaces import proposition_battery

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "scale.py"
sys.path.insert(0, str(TOOL.parent))  # the tool imports its record and export helpers from bench_pairs
spec = importlib.util.spec_from_file_location("scale", TOOL)
scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale)
bench_pairs = sys.modules["bench_pairs"]


@pytest.mark.parametrize("job, build, failing", [
    ("two_step-2-3", lambda: two_step(2, 3), 0),
    ("dsum_singular-2-3", lambda: direct_sum(two_step(2, 3), dsum_singular()), 15),
])
def test_a_child_run_prints_the_digest_of_its_battery(job, build, failing):
    """The child builds the job's input on the tree, in a fresh interpreter, and hashes the
    report's lines with their witnesses as JSON; the dsum_singular family's lines carry
    witnesses."""
    record = scale.run_once(ROOT, job)
    report = proposition_battery(build(), 1)
    lines = [[ln.claim_id, ln.s, ln.r, ln.s2, ln.r2, ln.passed, ln.witness and [str(v) for v in ln.witness.matrix.entries]]
             for ln in report.lines]
    assert record["sha256"] == hashlib.sha256(json.dumps(lines).encode()).hexdigest()
    assert sum(ln.witness is not None for ln in report.lines) == failing
    assert record["seconds"] >= 0


def test_a_file_of_other_commits_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "git", lambda *args: b"2222222\n")  # no checkout needed
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"parent_commit": "0000000", "change_commit": "1111111", "note": "kept"}))
    assert scale.main(["--parent", "HEAD", "--change", "HEAD", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["note"] == "kept"


@pytest.mark.parametrize("left_out", ["--parent", "--change", "--out"])
def test_each_of_the_three_options_is_required(left_out, tmp_path):
    given = {"--parent": "HEAD", "--change": "HEAD", "--out": str(tmp_path / "BENCH.json")}
    with pytest.raises(SystemExit) as exit_:
        scale.main([word for name, value in given.items() if name != left_out for word in (name, value)])
    assert exit_.value.code == 2
    assert not (tmp_path / "BENCH.json").exists()
