import functools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    edge_orbits_by_all_automorphisms,
    refined_vertex_classes,
    sorted_bfs_distances,
    to_nx,
    vertex_orbits,
)
from snarkforge import graph, isomorphism
from snarkforge.coloring import psi
from snarkforge.construct import flower
from snarkforge.graph import Graph, contract_removed_edge, frontier_order, refined_coloring
from snarkforge.isomorphism import (
    automorphisms,
    edge_orbits,
    find_isomorphism,
    is_isomorphic,
)
from snarkforge.ledger import pentagon_join_family, superpose_chain_family
from snarkforge.recipe import evaluate_text
from strategies import SYMMETRIC_CUBIC, cubic_graphs, random_cubic_union, seeds


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def pentagonal_prism() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, edges)


def test_relabel_is_isomorphic(P):
    rng = random.Random(3)
    perm = list(range(10))
    rng.shuffle(perm)
    h = relabel(P, perm)
    mapping = find_isomorphism(P, h)
    assert mapping is not None
    for u, v in P.edges:
        assert h.has_edge(mapping[u], mapping[v])


def test_distinguishes_cubic_graphs(P):
    # the pentagonal prism has the same counts but girth 4
    assert not is_isomorphic(P, pentagonal_prism())
    assert nx.is_isomorphic(to_nx(P), to_nx(pentagonal_prism())) is False


def test_agrees_with_networkx(P, W, J5):
    cases = [(P, relabel(P, list(reversed(range(10))))), (P, pentagonal_prism())]
    for g, h in cases:
        assert is_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))


def test_petersen_automorphism_count(P):
    autos = automorphisms(P)
    assert len(autos) == 120
    oracle = sum(1 for _ in nx.vf2pp_all_isomorphisms(to_nx(P), to_nx(P)))
    assert oracle == 120
    # group closure spot check: composing two stays an automorphism
    a, b = autos[1], autos[2]
    comp = [a[b[v]] for v in range(P.n)]
    assert all(P.has_edge(comp[u], comp[v]) for u, v in P.edges)


def test_petersen_single_edge_orbit(P):
    orbits = edge_orbits(P)
    assert len(orbits) == 1
    assert len(orbits[0]) == 15
    assert len(vertex_orbits(P)) == 1


def test_two_edge_path_single_orbit():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert edge_orbits(g) == [[0, 1]]


def test_flower5_four_edge_orbits(J5):
    orbits = edge_orbits(J5)
    assert len(orbits) == 4
    assert sorted(len(o) for o in orbits) == [5, 5, 10, 10]
    assert sum(len(o) for o in orbits) == J5.m


def test_wheel_identity_single_edge(P, W):
    reduced, _, _ = contract_removed_edge(P, 7)
    assert is_isomorphic(reduced, W)


@pytest.mark.parametrize("k", [7, 9, 11, 13])
def test_flower_edge_orbit_sizes(k):
    assert sorted(len(o) for o in edge_orbits(flower(k))) == [k, k, 2 * k, 2 * k]


@pytest.mark.parametrize(
    "recipe",
    [
        *(f"(flower {k})" for k in (5, 7, 9, 11)),
        *superpose_chain_family(2),
        "(pentagonjoin (flower 5) p=0 (flower 5) p=0)",
    ],
)
def test_psi_constant_on_edge_orbits(recipe):
    """The automorphism code against the counting code: psi, counted at
    every edge, takes one value on each edge orbit."""
    g = evaluate_text(recipe)
    orbits = edge_orbits(g)
    assert sorted(e for orbit in orbits for e in orbit) == list(range(g.m))
    values = [psi(g, e) for e in range(g.m)]
    for orbit in orbits:
        assert len({values[e] for e in orbit}) == 1, orbit


SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(cubic_graphs(24))
def test_automorphisms_match_networkx(g):
    G = to_nx(g)
    oracle = {tuple(m[v] for v in range(g.n)) for m in nx.vf2pp_all_isomorphisms(G, G)}
    mine = [tuple(a) for a in automorphisms(g)]
    assert len(mine) == len(set(mine))
    assert set(mine) == oracle


@SETTINGS
@given(cubic_graphs(24), seeds, seeds)
def test_is_isomorphic_matches_networkx(g, perm_seed, other_seed):
    perm = list(range(g.n))
    random.Random(perm_seed).shuffle(perm)
    h = relabel(g, perm)
    mapping = find_isomorphism(g, h)
    assert mapping is not None
    assert sorted(mapping) == list(range(g.n))
    assert all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges)
    other = random_cubic_union([(g.n, other_seed)])
    assert is_isomorphic(g, other) == nx.is_isomorphic(to_nx(g), to_nx(other))


def test_automorphisms_compute_invariants_once(monkeypatch):
    # one refined coloring per graph value serves the orbit search, which
    # compares g with itself, and the frontier order, in either order
    calls = []
    real = graph._invariants

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graph, "_invariants", counted)
    g, h = flower(7), flower(9)
    assert len(edge_orbits(g)) == 4
    frontier_order(g)
    frontier_order(h)
    assert len(edge_orbits(h)) == 4
    assert calls == [g, h]
    # between two graphs, _match reads the same stored colorings, so only
    # the fresh flower(7) is refined
    assert is_isomorphic(g, flower(7)) and len(calls) == 3


def test_frontier_order_runs_no_automorphism_search(monkeypatch):
    # the order reads the refined coloring alone, so a fresh join graph
    # does not pay for its edge orbits
    monkeypatch.setattr(isomorphism, "_match", None)
    g = evaluate_text("(pentagonjoin (flower 5) p=0 (flower 5) p=0)")
    assert sorted(frontier_order(g)) == list(range(g.n))


DOT_PRODUCTS = [
    "(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1)",
    "(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1 wiring=crossed)",
    "(dotproduct (flower 5) e1=0 e2=7 (petersen) x=0 y=1)",
    "(dotproduct (petersen) e1=0 e2=7 (flower 5) x=0 y=1)",
]
ORBIT_CASES = {
    **{text: functools.partial(evaluate_text, text) for text in [
        *(f"(flower {k})" for k in range(5, 22, 2)),
        *superpose_chain_family(3),
        *pentagon_join_family(),
        *DOT_PRODUCTS,
    ]},
    **SYMMETRIC_CUBIC,
}


@pytest.mark.parametrize("name", ORBIT_CASES)
def test_edge_orbits_match_all_automorphisms(name):
    g = ORBIT_CASES[name]()
    assert edge_orbits(g) == edge_orbits_by_all_automorphisms(g)


def relabeled_case(name: str, seed: int) -> Graph:
    g = ORBIT_CASES[name]()
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


@SETTINGS
@given(st.one_of(
    cubic_graphs(24),
    # two copies of one random cubic graph, which an automorphism swaps,
    # and a third; from order 8 up, the oracle's group listing stays small
    st.builds(lambda n, s, t: random_cubic_union([(n, s), (n, s), (8, t)]),
              st.sampled_from(range(8, 13, 2)), seeds, seeds),
    st.builds(relabeled_case, st.sampled_from(sorted(ORBIT_CASES)), seeds),
))
def test_edge_orbits_match_all_automorphisms_at_random(g):
    assert edge_orbits(g) == edge_orbits_by_all_automorphisms(g)


def assert_coloring_is_label_invariant(g: Graph, seed: int) -> None:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    h = relabel(g, perm)
    colors, relabeled = refined_coloring(g), refined_coloring(h)
    assert all(relabeled[perm[v]] == colors[v] for v in range(g.n))
    # so the search between the two graphs finds a map
    mapping = find_isomorphism(g, h)
    assert mapping is not None and all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges)


@pytest.mark.parametrize("name", ORBIT_CASES)
def test_refined_coloring_is_label_invariant(name):
    # _match compares colors between two graphs, so a vertex's color may
    # depend on its graph's shape alone, never on labels
    assert_coloring_is_label_invariant(ORBIT_CASES[name](), 7)


@SETTINGS
@given(cubic_graphs(24), seeds)
def test_refined_coloring_is_label_invariant_at_random(g, seed):
    assert_coloring_is_label_invariant(g, seed)


def assert_classes_hold_vertex_orbits(g: Graph) -> None:
    colors = refined_coloring(g)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    assert list(classes.values()) == refined_vertex_classes(g)
    # every automorphism keeps each vertex's class
    assert all(len({colors[v] for v in orbit}) == 1 for orbit in vertex_orbits(g))


@pytest.mark.parametrize("name", ORBIT_CASES)
def test_refined_classes_hold_vertex_orbits(name):
    assert_classes_hold_vertex_orbits(ORBIT_CASES[name]())


@SETTINGS
@given(st.one_of(
    cubic_graphs(24),
    # two copies of one random cubic graph and a third, smaller one; three
    # copies of one graph of order 8 would make the oracle's group large
    st.builds(lambda n, s, t: random_cubic_union([(n, s), (n, s), (8, t)]),
              st.sampled_from(range(10, 13, 2)), seeds, seeds),
    st.builds(relabeled_case, st.sampled_from(sorted(ORBIT_CASES)), seeds),
))
def test_refined_classes_hold_vertex_orbits_at_random(g):
    assert_classes_hold_vertex_orbits(g)


def same_as(invariants: list) -> list[list[bool]]:
    return [[x == y for y in invariants] for x in invariants]


@SETTINGS
@given(st.lists(st.one_of(
    cubic_graphs(24),
    st.builds(relabeled_case, st.sampled_from(sorted(ORBIT_CASES)), seeds),
), min_size=2, max_size=2))
def test_invariants_tell_apart_what_sorted_bfs_distances_do(graphs):
    # within a graph, and between two graphs of one order, as _match uses them
    g, h = graphs
    assert same_as(graph._invariants(g)) == same_as(sorted_bfs_distances(g))
    if g.n == h.n:
        ours = sorted(graph._invariants(g)) == sorted(graph._invariants(h))
        assert ours == (sorted(sorted_bfs_distances(g)) == sorted(sorted_bfs_distances(h)))


def test_edge_orbits_are_stored_and_returned_fresh(monkeypatch):
    g = flower(9)
    expected = edge_orbits_by_all_automorphisms(g)
    first = edge_orbits(g)
    first[0].append(-1)
    first.append([])
    # a second call reads the stored orbits: no search runs
    monkeypatch.setattr(isomorphism, "_pinned_orbits", None)
    assert edge_orbits(g) == expected
