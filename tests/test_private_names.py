"""A smoothed graph inherits its host's frontier order through
graph.contract_removed_edge alone, the verifiers smooth through that
public call, the frontier DPs read their slots through
graph.frontier_layout, every caller reads the refined vertex coloring
through graph.refined_coloring, the spanning forest through
graph.spanning_forest, the cycle-space labels through graph.cycle_labels,
edge orbits through isomorphism.edge_orbits and the coloring kernels'
placement steps through coloring._placement_steps.  Read the package with
ast so that no other module reads or writes graph.py's stored order,
layout, coloring, forest, labels or smoothing check, isomorphism.py's
stored orbits or coloring.py's stored steps, no other module names
graph._invariants, so the refined coloring stays the one vertex
invariant, analyze.py imports no private name from coloring, in
construct.py only _splice deletes vertices, and in coloring.py only
_decomposition_fixing and EdgeColoring.is_proper read incident_edges, so
every kernel takes its slots from graph.frontier_layout's (edge, slot)
pairs and none re-derives them, in graph.py only _two_factor_steps
calls combinations, so one function makes the 2-factor deltas that both
two_factor_fold and is_hamiltonian take, and only graph.frontier_fold and
coloring._psi_pass call frontier_step, with _spend defined in graph.py
alone, so both DPs fold one way and count their states one way."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "snarkforge"
STORED = {
    "_frontier_order": "graph.py",
    "_frontier_layout": "graph.py",
    "_refined_coloring": "graph.py",
    "_cycle_labels": "graph.py",
    "_spanning_forest": "graph.py",
    "_invariants": "graph.py",
    "_smoothing_checked": "graph.py",
    "_placement": "coloring.py",
    "_edge_orbits": "isomorphism.py",
}


def test_private_names_stay_in_their_module():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            named = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.value if isinstance(node, ast.Constant)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if named in STORED and path.name != STORED[named]:
                found.append(f"{path.name}:{node.lineno}")
            if (
                path.name == "analyze.py"
                and isinstance(node, ast.ImportFrom)
                and node.module == "coloring"
            ):
                private = [a.name for a in node.names if a.name.startswith("_")]
                found += [f"analyze.py:{node.lineno} {name}" for name in private]
    assert not found


def test_only_the_splice_deletes_vertices_in_construct():
    # the block-offset labeling of the three joins stays in construct._splice
    tree = ast.parse((PACKAGE / "construct.py").read_text(encoding="utf-8"))
    callers = {
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "delete_vertices"
    }
    assert callers == {"_splice"}



def test_only_the_pivot_and_the_properness_check_read_incidences_in_coloring():
    # a kernel reads which edge sits in which slot off graph.frontier_layout
    tree = ast.parse((PACKAGE / "coloring.py").read_text(encoding="utf-8"))

    def reads(node: ast.AST) -> int:
        return sum(
            isinstance(n, ast.Attribute) and n.attr == "incident_edges" for n in ast.walk(node)
        )

    scopes = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    scopes.update(
        (f"{top.name}.{item.name}", item)
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for item in top.body
        if isinstance(item, ast.FunctionDef)
    )
    readers = {name for name, scope in scopes.items() if reads(scope)}
    assert readers == {"_decomposition_fixing", "EdgeColoring.is_proper"}
    # and no read outside a function or method
    assert reads(tree) == sum(reads(scopes[name]) for name in readers)


def test_only_two_factor_steps_builds_deltas_in_graph():
    # the breadth-first fold and the depth-first walk share its moves
    tree = ast.parse((PACKAGE / "graph.py").read_text(encoding="utf-8"))

    def calls(node: ast.AST) -> int:
        return sum(
            isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "combinations"
            for n in ast.walk(node)
        )

    scopes = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    assert {name for name, scope in scopes.items() if calls(scope)} == {"_two_factor_steps"}
    # and no call outside it, in a class or at module level
    assert calls(tree) == calls(scopes["_two_factor_steps"])


def test_only_the_fold_and_the_psi_pass_step_the_frontier():
    # one breadth-first fold for both DPs, and one count of their states
    def calls(node: ast.AST) -> int:
        return sum(
            isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "frontier_step"
            for n in ast.walk(node)
        )

    callers, spends, stray = set(), set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
        callers |= {f"{path.stem}.{name}" for name, scope in scopes.items() if calls(scope)}
        # and no call outside a module-level function
        stray += calls(tree) - sum(map(calls, scopes.values()))
        spends |= {
            path.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_spend"
        }
    assert callers == {"graph.frontier_fold", "coloring._psi_pass"}
    assert stray == 0
    assert spends == {"graph.py"}
