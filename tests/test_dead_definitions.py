"""No definition or import of the package is left without a reader.

A module-level function or class counts as used when its name is read (as
a name or as an attribute) somewhere in ``src/supertrial`` outside its own
body, or when the package exports it in ``supertrial.__all__``.  A method
counts as used only when its name is read as an attribute (``x.name``)
outside the bodies of all the methods of that name, so neither a variable
of that name nor a method that forwards to a same-named one keeps it; the
language calls the dunder methods.  The benchmark's tracer
(``perfbench/trace.py``) looks program names up by string and calls some
itself, so every name it reads and every string it holds counts as used
too.  An imported name counts as used when its own module reads it;
``__init__.py`` imports to export.  The modules also form layers
(``LAYERS``): each imports only the ones below it.
"""

import ast
from collections import Counter
from pathlib import Path

import supertrial

PACKAGE = Path(supertrial.__file__).resolve().parent
TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _traced() -> set[str]:
    tree = ast.parse(TRACE.read_text(encoding="utf-8"))
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return set(names_read(tree)) | strings


def attributes_read(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


READ = sum((names_read(tree) for tree in TREES.values()), Counter())
TRACED = _traced()
METHODS = [
    (module, cls, node)
    for module, tree in TREES.items()
    for cls in tree.body
    if isinstance(cls, ast.ClassDef)
    for node in cls.body
    if isinstance(node, DEFINITIONS)
]


def _unread(node: ast.AST) -> bool:
    """No module reads the definition's name outside its own body, and the tracer does not read it."""
    return READ[node.name] == names_read(node)[node.name] and node.name not in TRACED


def test_every_definition_is_used_or_exported():
    dead = [
        f"{module}:{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS) and _unread(node) and node.name not in supertrial.__all__
    ]
    assert dead == []


def test_every_method_is_used():
    attributes = sum((attributes_read(tree) for tree in TREES.values()), Counter())
    for _, _, node in METHODS:
        attributes[node.name] -= attributes_read(node)[node.name]
    dead = [
        f"{module}:{cls.name}.{node.name}"
        for module, cls, node in METHODS
        if not node.name.startswith("__") and attributes[node.name] <= 0 and node.name not in TRACED
    ]
    assert dead == []


def test_every_import_is_read_by_its_module():
    dead = [
        f"{module}:{alias.asname or alias.name}"
        for module, tree in TREES.items()
        if module != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if not names_read(tree)[(alias.asname or alias.name).split(".")[0]]
    ]
    assert dead == []


def _bound_at_top(tree: ast.Module) -> set[str]:
    """The names a module's top level binds by a definition or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return names


def test_each_name_is_imported_from_the_module_that_defines_it():
    borrowed = [
        f"{module}: {alias.name} from .{node.module}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name not in _bound_at_top(TREES[f"{node.module}.py"])
    ]
    assert borrowed == []


# Each module may import only modules before it here.
LAYERS = ("errors", "linalg", "sweep", "core", "serialize", "constructions", "spaces", "fixtures", "cli", "__init__")


def _bound_before_imports(tree: ast.Module) -> set[str]:
    """The names ``__init__`` binds before it imports any module of the package."""
    head = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            break
        head.append(node)
    return _bound_at_top(ast.Module(body=head, type_ignores=[]))


def test_modules_import_only_lower_layers():
    """A relative import names its module, or, as ``from . import name``, a
    module or the package.  The package counts as below every module only for
    the names it binds before its first import (``__version__``)."""
    assert sorted(f"{name}.py" for name in LAYERS) == sorted(TREES)
    early = _bound_before_imports(TREES["__init__.py"])
    upward = []
    for module, tree in TREES.items():
        rank = LAYERS.index(module[:-3])
        for node in tree.body:
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                if name in early:
                    continue
                target = name if name in LAYERS else "__init__"
                if LAYERS.index(target) >= rank:
                    upward.append(f"{module} imports {target}")
    assert upward == []
