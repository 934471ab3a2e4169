"""tests/oracles.py holds the references the package is checked against,
some of them code that left the package.  None of its top-level names may
also be a name in snarkforge or in one of its modules, so a reference
cannot come back as a public duplicate of itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import snarkforge

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracle_names_stay_out_of_the_package():
    body = ast.parse(ORACLES.read_text(encoding="utf-8")).body
    defined = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {
        target.id
        for node in body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert len(defined) > 30
    modules = [snarkforge] + [
        importlib.import_module(f"snarkforge.{info.name}")
        for info in pkgutil.iter_modules(snarkforge.__path__)
    ]
    clashes = sorted(
        f"{module.__name__}.{name}" for module in modules for name in defined & set(vars(module))
    )
    assert not clashes
