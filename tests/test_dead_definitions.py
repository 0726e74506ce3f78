"""No module-level function or class of the package is left without a caller.

A definition counts as used when its name is read (as a name or as an
attribute) somewhere in ``src/supertrial`` outside its own body, or when
the package exports it in ``supertrial.__all__``.
"""

import ast
from collections import Counter
from pathlib import Path

import supertrial

PACKAGE = Path(supertrial.__file__).resolve().parent


def names_read(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    read = sum((names_read(tree) for tree in trees.values()), Counter())
    dead = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and read[node.name] == names_read(node)[node.name]
        and node.name not in supertrial.__all__
    ]
    assert dead == []
