"""The line counter behind the source-size figures: totals and code-only lines."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

# 16 lines; code lines are import, def, the two lines of the expression,
# the two lines of the non-docstring string and the return: 7.
MODULE = textwrap.dedent('''\
    """Module docstring
    on two lines."""

    # a comment line

    import os


    def f(x):
        """Function docstring."""
        # an indented comment
        y = (x +
             1)
        s = """a string
    that is not a docstring"""
        return os.sep + s * y
    ''')

# 4 lines; code lines are the class line and the assignment: 2.
CLASS = textwrap.dedent('''\
    class C:
        """Class docstring."""

        value = 1  # a trailing comment is on a code line
    ''')


def test_counts_on_a_small_tree(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "pkg" / "sub" / "cls.py").write_text(CLASS, encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert src_lines.count(tmp_path / "pkg" / "mod.py") == (16, 7)
    assert src_lines.count(tmp_path / "pkg" / "sub" / "cls.py") == (4, 2)
    assert src_lines.main(["src_lines.py", str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{'module':<40} {'total':>6} {'code':>6}",
        f"{'mod.py':<40} {16:>6} {7:>6}",
        f"{'sub/cls.py':<40} {4:>6} {2:>6}",
        f"{'all':<40} {20:>6} {9:>6}",
    ]
