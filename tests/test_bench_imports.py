"""The benchmark scripts under bench/ import library names directly, and
the benchmark compares commits by running them, so a renamed or removed
name would break it without failing any library test.  Read their
``from snarkforge... import`` statements with ast and resolve each name."""

import ast
import importlib
from pathlib import Path

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
