"""Differential tests for the coloring kernel: every count and every
enumerated coloring on seeded random cubic graphs, and on subgraphs with
a few edges deleted, must equal what the independent oracles (matching
factorization, naive backtracking, explicit enumeration) report, and must
not depend on the vertex labels, nor on the trivalent vertex where a
decomposition count pins its colors; nor may the width of the
kernel's vertex order (graph.frontier_order)."""

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import strategies
from oracles import (
    count_ec_by_factorization,
    count_ed_by_factorization,
    naive_colorings,
    naive_count_colorings,
    to_nx,
)
from snarkforge.coloring import (
    _count_frontier,
    count_colorings,
    count_decompositions,
    count_same_class,
    enumerate_colorings,
    enumerate_decompositions,
    psi,
)
from snarkforge.construct import flower, petersen, remove_pentagon
from snarkforge.errors import DomainError
from snarkforge.graph import (
    Graph,
    contract_removed_edge,
    frontier_order,
    is_quasi_cubic,
    list_pentagons,
)
from snarkforge.ledger import superpose_chain_family
from snarkforge.recipe import evaluate_text

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
seeds = st.integers(0, 2**32 - 1)


def relabeled(g: Graph, seed: int) -> tuple[Graph, list[int]]:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges]), perm


@st.composite
def cubic_graphs(draw) -> nx.Graph:
    n = draw(st.sampled_from(range(4, 21, 2)))
    G = nx.random_regular_graph(3, n, seed=draw(seeds))
    assume(nx.is_connected(G))
    return G


def to_graph(G: nx.Graph) -> Graph:
    return Graph.from_edges(G.number_of_nodes(), G.edges())


@SETTINGS
@given(cubic_graphs(), seeds)
def test_cubic_counts_match_factorization(G, seed):
    g = to_graph(G)
    ec = count_colorings(g)
    assert ec == count_ec_by_factorization(g) == naive_count_colorings(g)
    ed = count_decompositions(g)
    assert ed == count_ed_by_factorization(g)
    h, _ = relabeled(g, seed)
    assert (count_colorings(h), count_decompositions(h)) == (ec, ed)


@SETTINGS
@given(cubic_graphs(), st.integers(1, 3), seeds)
def test_edge_deleted_counts_match_naive(G, k, seed):
    # max valence 3, with 2-valent vertices
    rng = random.Random(seed)
    G.remove_edges_from(rng.sample(sorted(G.edges()), k))
    assume(nx.is_connected(G))
    g = to_graph(G)
    ec = count_colorings(g)
    assert ec == naive_count_colorings(g)
    assert count_colorings(relabeled(g, seed)[0]) == ec


@SETTINGS
@given(cubic_graphs(), seeds)
def test_quasi_cubic_counts_match_naive(G, seed):
    # deleting a cycle's edges leaves every cycle vertex univalent
    G.remove_edges_from(nx.find_cycle(G, source=random.Random(seed).randrange(len(G))))
    assume(nx.is_connected(G))
    g = to_graph(G)
    assert is_quasi_cubic(g)
    assume(any(g.valence(v) == 3 for v in range(g.n)))
    ec = count_colorings(g)
    ed = count_decompositions(g)
    assert ec == 6 * ed == naive_count_colorings(g)
    h, _ = relabeled(g, seed)
    assert (count_colorings(h), count_decompositions(h)) == (ec, ed)


@SETTINGS
@given(strategies.cubic_graphs(16), st.booleans(), seeds)
def test_decomposition_count_is_pivot_independent(g, quasi, seed):
    # count_decompositions pins where its DP starts; any trivalent pivot
    # selects one coloring per decomposition, so every pin site must agree
    if quasi:
        G = to_nx(g)
        G.remove_edges_from(nx.find_cycle(G, source=random.Random(seed).randrange(g.n)))
        g = to_graph(G)
    assume(g.is_connected())
    h, _ = relabeled(g, seed)
    trivalent = [v for v in range(h.n) if h.valence(v) == 3]
    assume(trivalent)
    # decompositions first, colorings second, on the same slot shifts: a
    # shared extension table that ignored the pins would break one of them
    ed = count_decompositions(h)
    ec = count_colorings(h)
    assert 6 * ed == ec == naive_count_colorings(h)
    if not quasi:
        assert ed == count_ed_by_factorization(h)
    for v in trivalent:
        assert _count_frontier(h, dict(zip(h.incident_edges(v), (1, 2, 3)))) == ed


@SETTINGS
@given(cubic_graphs(), st.sampled_from(["cubic", "edge-deleted", "quasi-cubic"]), seeds)
def test_enumeration_matches_naive(G, shape, seed):
    rng = random.Random(seed)
    if shape == "edge-deleted":
        G.remove_edges_from(rng.sample(sorted(G.edges()), rng.randint(1, 3)))
    elif shape == "quasi-cubic":
        G.remove_edges_from(nx.find_cycle(G, source=rng.randrange(len(G))))
    assume(nx.is_connected(G))
    g, _ = relabeled(to_graph(G), seed)
    colorings = sorted(c.colors for c in enumerate_colorings(g))
    assert len(set(colorings)) == len(colorings)
    expected = list(naive_colorings(g))  # lexicographic: index-order backtracking
    assert colorings == expected
    if is_quasi_cubic(g) and any(g.valence(v) == 3 for v in range(g.n)):
        pivot = next(v for v in range(g.n) if g.valence(v) == 3)
        pins = list(zip(g.incident_edges(pivot), (1, 2, 3)))
        decompositions = sorted(c.colors for c in enumerate_decompositions(g))
        assert decompositions == [c for c in expected if all(c[i] == x for i, x in pins)]


def test_psi_matches_enumeration_at_every_edge():
    for g in (petersen(), flower(5), flower(7)):
        h, perm = relabeled(g, g.n)
        for i, (u, v) in enumerate(g.edges):
            reduced, _d1, _d2 = contract_removed_edge(g, i)
            value = psi(g, i)
            assert 3 * value == len(list(enumerate_decompositions(reduced)))
            assert psi(h, (perm[u], perm[v])) == value


# Peak frontier widths measured with canonical labels and relabeling seeds
# 1-3: flower(13) 9, 9, 9, 9; the j=3 chain 10, 11, 11, 12.  One greedy
# pass from a single vertex reached 16 on the chain, and the DP's work
# grows as 3^width.
@pytest.mark.parametrize(
    "recipe, bound", [("(flower 13)", 10), (list(superpose_chain_family(3))[3], 12)]
)
def test_elimination_order_width(recipe, bound):
    g = evaluate_text(recipe)
    for h in [g] + [relabeled(g, seed)[0] for seed in (1, 2, 3)]:
        order = frontier_order(h)
        assert sorted(order) == list(range(h.n))
        placed: set[int] = set()
        peak = 0
        for v in order:
            placed.add(v)
            peak = max(peak, sum((a in placed) != (b in placed) for a, b in h.edges))
        assert peak <= bound


def listed_class_count(g: Graph, edges) -> int:
    """Decompositions, listed one coloring each, that give all the edges
    one color."""
    return sum(
        len({rep.colors[i] for i in edges}) == 1 for rep in enumerate_decompositions(g)
    )


@SETTINGS
@given(strategies.cubic_graphs(16), st.booleans(), st.integers(2, 3), seeds)
def test_class_counts_match_enumeration(g, quasi, size, seed):
    # a random pair or triple of edges, on cubic and quasi-cubic hosts;
    # the edges may meet the pivot, whose pins then rule out colors
    rng = random.Random(seed)
    if quasi:
        G = to_nx(g)
        G.remove_edges_from(nx.find_cycle(G, source=rng.randrange(g.n)))
        g = to_graph(G)
    assume(g.is_connected() and any(g.valence(v) == 3 for v in range(g.n)))
    edges = rng.sample(range(g.m), size)
    assert count_same_class(g, edges) == listed_class_count(g, edges)


def test_class_count_of_one_edge_is_the_decomposition_count(P):
    h = contract_removed_edge(P, 0)[0]
    assert count_same_class(h, [0]) == count_decompositions(h) == 3
    with pytest.raises(DomainError):
        count_same_class(h, [])


@pytest.mark.parametrize(
    "recipe", ["(petersen)", "(flower 5)", "(superpose52 (petersen) e=0 (petersen) u=0 v=6)"]
)
def test_pendant_triple_class_counts_match_enumeration(recipe):
    # theorem 4.5's five spread triples of the stubs a pentagon leaves
    g = evaluate_text(recipe)
    for p in list_pentagons(g):
        reduced, pendants = remove_pentagon(g, p)
        for k in range(5):
            triple = [pendants[(k + d) % 5].index for d in (-2, 0, 2)]
            assert count_same_class(reduced, triple) == listed_class_count(reduced, triple)
