"""Count the lines of each module under a source tree.

    python3 tools/src_lines.py [ROOT]

ROOT defaults to ``src``.  For every ``.py`` file below it, in path order,
prints the total line count and the code-only count, then the sums.  A
line is code when some token on it other than a comment or a docstring
starts, ends or continues there; blank lines, comment lines and the lines
of module, class and function docstrings are not code.  Standard library
only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of the module starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(path: Path) -> tuple[int, int]:
    """``(total, code)`` lines of one Python file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(ast.parse(text))
    code: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    totals = [0, 0]
    print(f"{'module':<40} {'total':>6} {'code':>6}")
    for path in sorted(root.rglob("*.py")):
        total, code = count(path)
        totals[0] += total
        totals[1] += code
        print(f"{str(path.relative_to(root)):<40} {total:>6} {code:>6}")
    print(f"{'all':<40} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
