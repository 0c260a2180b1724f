"""Every top-level name in the package has a reader.

A module-level ``_name`` (function, class or constant) is private to the
package, so no caller outside ``src/spanlink`` may need it.  Once nothing
inside the package reads it either, it is dead code and should go.

A public top-level name is read when another top-level statement of the
package reads it, when ``__all__`` exports it, or when the benchmark
(``perfbench/``), a demo or the acceptance tests read it; the benchmark
also reads the names it wraps, which it spells as strings.  A public name
that only its own unit tests read is API no runtime path needs.
"""

import ast
from pathlib import Path

import spanlink

PACKAGE = Path(spanlink.__file__).parent
ROOT = PACKAGE.parents[1]
READERS = (ROOT / "perfbench", ROOT / "demos",
           ROOT / "tests" / "test_acceptance.py")


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


def _parse(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unread(package: Path, wanted, outside=frozenset()) -> list[str]:
    """``module.name`` for each top-level definition with ``wanted(name)``
    that neither ``outside`` nor another top-level statement of the package
    reads.  A statement reading its own name (recursion, a self-referencing
    constant) does not count; ``__all__``'s strings do."""
    statements = [(path.stem, stmt) for path in sorted(package.glob("*.py"))
                  for stmt in _parse(path).body]
    refs = [_referenced_names(stmt) for _, stmt in statements]
    read = outside | {node.value for _, stmt in statements
                      if "__all__" in _defined_names(stmt)
                      for node in ast.walk(stmt)
                      if isinstance(node, ast.Constant)}
    unused = []
    for i, (module, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            if wanted(name) and name not in read and not any(
                    name in names for j, names in enumerate(refs) if j != i):
                unused.append(f"{module}.{name}")
    return unused


def unused_private_names(package: Path = PACKAGE) -> list[str]:
    """``module.name`` for each private top-level definition that no other
    top-level statement of the package reads."""
    return _unread(package, _is_private)


def names_read_by(paths) -> set[str]:
    """Every name, attribute, imported name and string constant that the
    Python files at ``paths`` (files or directories) read."""
    files = [f for p in paths
             for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    names = set()
    for f in files:
        tree = _parse(f)
        names |= _referenced_names(tree)
        names |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)}
    return names


def unused_public_names(package: Path = PACKAGE,
                        readers=READERS) -> list[str]:
    """``module.name`` for each public top-level definition that neither
    the package, its ``__all__`` nor the files at ``readers`` read."""
    return _unread(package, lambda name: not name.startswith("_"),
                   names_read_by(readers))


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


def test_every_public_top_level_name_is_read():
    assert unused_public_names() == []


def test_an_unread_public_name_is_reported(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "__init__.py").write_text(
        "from .a import exported\n__all__ = ['exported', 'listed']\n",
        encoding="utf-8")
    (pkg / "a.py").write_text(
        "LIMIT = 3\n"
        "def exported():\n    return LIMIT\n"
        "def listed():\n    pass\n"
        "def wrapped():\n    pass\n"
        "def called():\n    pass\n"
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n"
        "class Unread:\n    pass\n", encoding="utf-8")
    (bench / "run.py").write_text(
        "import pkg.a as a\n"
        "a.called()\n"
        "TARGETS = [(a, 'wrapped')]\n", encoding="utf-8")
    assert unused_public_names(pkg, [bench]) == ["a.orphan", "a.Unread"]
