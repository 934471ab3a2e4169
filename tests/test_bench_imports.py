"""The benchmark scripts under bench/ import library names directly, and
the benchmark compares commits by running them, so a renamed or removed
name would break it without failing any library test.  Read their
``from snarkforge... import`` statements with ast and resolve each name.

bench/child.py also serializes results with dataclasses.asdict, so the
two classes it serializes stay dataclasses.  No other package class is
one: the value classes derive from value.Value, which builds no methods at
import."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import snarkforge

BENCH = Path(__file__).resolve().parent.parent / "bench"


def snarkforge_imports(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "snarkforge"
        for alias in node.names
    ]


def test_bench_imports_resolve():
    imports = {path.name: snarkforge_imports(path) for path in BENCH.glob("*.py")}
    assert len(imports["child.py"]) > 30
    missing = [
        f"{script}: {module}.{name}"
        for script, names in sorted(imports.items())
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_only_the_classes_bench_serializes_are_dataclasses():
    # child.py's _plain writes Cycle (the answer of list_pentagons) with
    # dataclasses.asdict, and to_answer does so for TheoremReport
    modules = [
        importlib.import_module(f"snarkforge.{info.name}")
        for info in pkgutil.iter_modules(snarkforge.__path__)
    ]
    classes = {
        f"{module.__name__}.{name}": cls
        for module in modules
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
    }
    assert len(classes) > 10
    assert sorted(name for name, cls in classes.items() if dataclasses.is_dataclass(cls)) == [
        "snarkforge.analyze.TheoremReport",
        "snarkforge.graph.Cycle",
    ]
