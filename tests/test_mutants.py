"""The mutant list of ``tools/mutants.py`` still applies to ``src/``: a
refactor that moves a row's line must update the row."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"
sys.path.insert(0, str(TOOL.parent))  # the tool imports its git export from bench_pairs
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("row", mutants.ROWS, ids=[row.reason for row in mutants.ROWS])
def test_each_old_text_occurs_once_in_src(row):
    counts = {str(path.relative_to(ROOT)): path.read_text().count(row.old) for path in (ROOT / "src").rglob("*.py")}
    assert {path: n for path, n in counts.items() if n} == {row.file: 1}
    assert row.new != row.old
    assert (ROOT / row.test.split("::")[0]).is_file()


def test_first_failing_node_id_is_read_whole():
    out = (
        "F\n=== short test summary info ===\n"
        "FAILED tests/test_cli.py::T::t[spaces - --space D] - assert [1] == [2]\n"
    )
    assert mutants._FAILED.search(out).group(1) == "tests/test_cli.py::T::t[spaces - --space D]"
    assert mutants._FAILED.search("ERROR tests/test_core.py - ImportError\n").group(1) == "tests/test_core.py"


def test_a_mutant_that_breaks_an_import_is_killed_by_its_collection_error(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "m.py").write_text("def f():\n    return 1\n")
    (tmp_path / "tests" / "test_m.py").write_text("from m import f\n\n\ndef test_f():\n    assert f() == 1\n")
    row = mutants.Mutant("src/m.py", "    return 1\n", "", "f loses its body", "tests/test_m.py::test_f")
    path = tmp_path / row.file
    path.write_text(mutants.apply(path.read_text(), row))
    verdict = mutants.judge(tmp_path, row)
    assert verdict == {"killed": True, "stage": "recorded", "first_failing": "tests/test_m.py"}
