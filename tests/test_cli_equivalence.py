"""The CLI comparison tool: a tree matches itself, and a changed message shows."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_equivalence.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300)


def test_the_tree_matches_itself():
    result = run_tool("--against", str(ROOT))
    assert result.returncode == 0, result.stdout + result.stderr
    runs, differing = result.stdout.splitlines()[0].split(" runs, ")
    assert int(runs) > 3000 and differing == "0 differing"


def test_a_changed_error_message_is_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "supertrial" / "cli.py"
    cli.write_text(cli.read_text(encoding="utf-8").replace('f"error: {exc}"', 'f"Error: {exc}"'), encoding="utf-8")
    result = run_tool("--against", str(ROOT), "--tree", str(tmp_path))
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert int(lines[0].split(" runs, ")[1].split()[0]) > 100
    assert ": stderr: 'Error: " in lines[1]
