"""Every private top-level name in the package is used somewhere in it.

A module-level ``_name`` (function, class or constant) is private to the
package, so no caller outside ``src/spanlink`` may need it.  Once nothing
inside the package reads it either, it is dead code and should go.
"""

import ast
from pathlib import Path

import spanlink

PACKAGE = Path(spanlink.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _referenced_names(stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unused_private_names(package: Path = PACKAGE) -> list[str]:
    """``module.name`` for each private top-level definition that no other
    top-level statement of the package reads.  A statement reading its own
    name (recursion, a self-referencing constant) does not count."""
    statements = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path.stem, stmt) for stmt in tree.body]
    refs = [_referenced_names(stmt) for _, stmt in statements]
    unused = []
    for i, (module, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            if _is_private(name) and not any(
                    name in names for j, names in enumerate(refs) if j != i):
                unused.append(f"{module}.{name}")
    return unused


def test_every_private_top_level_name_is_used():
    assert unused_private_names() == []


def test_an_unused_private_helper_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "def _used():\n    return _LIMIT\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "class _Orphan:\n    pass\n"
        "def public():\n    return _used()\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text("from .a import public\n", encoding="utf-8")
    assert unused_private_names(tmp_path) == ["a._recursive", "a._Orphan"]
