"""The identity verifiers count colorings instead of listing them:
theorem 3.3's cells and class count, its orthogonality check and 3.7's,
and 4.5's pendant patterns all come from pinned counts or the 2-factor
fold.  Read the verifier modules with ast so that neither takes up an
enumerator again."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "snarkforge"
ENUMERATORS = {"enumerate_colorings", "enumerate_decompositions"}


def test_verifiers_use_no_enumerator():
    found = []
    for name in ("analyze.py", "covers.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            used = (
                [alias.name for alias in node.names]
                if isinstance(node, (ast.Import, ast.ImportFrom))
                else [node.attr] if isinstance(node, ast.Attribute)
                else [node.id] if isinstance(node, ast.Name)
                else []
            )
            found += [f"{name}:{node.lineno} {u}" for u in used if u.split(".")[-1] in ENUMERATORS]
    assert not found
