"""``python -O`` strips assert statements, so a check written as one
vanishes from an optimized run.  Library checks raise explicit
exceptions instead; read every module under src/ with ast to keep it so."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_library():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 10
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found
