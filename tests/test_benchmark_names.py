"""The benchmark in ``perfbench/`` imports spanlink names and wraps others
by name.  Deleting or renaming one of them must fail here, in a second,
rather than zero a per-layer metric or break a benchmark run."""

import ast
import importlib
import sys
from pathlib import Path

import spanlink

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_and_wrapped_names_resolve(monkeypatch):
    assert Path(spanlink.__file__).parents[1] == PERFBENCH.parent / "src"
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("report", "tracing", "workloads")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        workloads = importlib.import_module("workloads")
        tracing = importlib.import_module("tracing")
        missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
                   for owner, attr, *_ in tracing.targets()
                   if not hasattr(owner, attr)]
        # module attributes the workloads reach at run time, such as
        # engine.extract and cli.main
        tree = ast.parse((PERFBENCH / "workloads.py").read_text("utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("engine", "cli")):
                module = getattr(workloads, node.value.id)
                if not hasattr(module, node.attr):
                    missing.append(f"{node.value.id}.{node.attr}")
    finally:
        for name in names:
            sys.modules.pop(name, None)
    assert missing == []
