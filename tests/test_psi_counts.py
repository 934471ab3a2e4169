"""coloring.psi_counts, psi at many edges from one forward and one
reverse pass over the host's Klein flows, against the single-edge
smoothed route (oracles.smoothed_decomposition_count), which shares none
of the pass's zero states, relabelled sums or last-vertex weights; and
the search harness that now reads its psi records and its certificate's
coloring count from one pass per recipe."""

import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import smoothable_by_search, smoothed_decomposition_count
from strategies import BRIDGED, girth4_cubic, moebius_ladder, prism_graph
from snarkforge import analyze, coloring, graph, ledger
from snarkforge.analyze import certify_snark
from snarkforge.coloring import (
    count_colorings,
    count_decompositions,
    psi_counts,
    psi_with_counts,
)
from snarkforge.construct import flower, petersen
from snarkforge.errors import BudgetExceededError, CountContradictionError, DomainError
from snarkforge.graph import Graph, frontier_order, girth
from snarkforge.graph6 import encode_graph6
from snarkforge.isomorphism import edge_orbits
from snarkforge.ledger import (
    PsiRecord,
    SearchBudget,
    TruncationRecord,
    evaluate_recipe_records,
    flower_family,
    search,
    superpose_chain_family,
)
from snarkforge.recipe import evaluate_text

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
seeds = st.integers(0, 2**32 - 1)


def smoothed_counts(g: Graph, edges) -> dict[int, int]:
    return {i: smoothed_decomposition_count(g, i) for i in edges}


HOSTS = {"P": petersen()}
HOSTS.update({f"J{n}": flower(n) for n in range(5, 14, 2)})
HOSTS.update(
    {f"chain{j}": evaluate_text(r) for j, r in enumerate(superpose_chain_family(3)) if j}
)


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_every_edge_matches_the_smoothed_route(name):
    g = HOSTS[name]
    expected = smoothed_counts(g, range(g.m))
    assert psi_counts(g, range(g.m)) == expected
    # the keys keep the order the edges were given in
    backwards = list(range(g.m))[::-1]
    assert list(psi_counts(g, backwards).items()) == [(i, expected[i]) for i in backwards]


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_edges_of_the_first_and_last_vertex_alone(name):
    # the zeros that close where the forward pass starts (T_e(0) / 2) and
    # open at the pinned last vertex, each asked for on its own, so the
    # passes stop as early as one edge allows
    g = HOSTS[name]
    order = frontier_order(g)
    for v in (order[0], order[-1]):
        for i in g.incident_edges(v):
            assert psi_counts(g, [i]) == smoothed_counts(g, [i])


@SETTINGS
@given(girth4_cubic(), seeds)
def test_random_girth4_cubic_graphs(g, seed):
    # colorable hosts included: the flow identity holds for any cubic host
    expected = smoothed_counts(g, range(g.m))
    assert psi_counts(g, range(g.m)) == expected
    subset = random.Random(seed).sample(range(g.m), random.Random(seed).randint(1, g.m))
    assert psi_counts(g, subset) == {i: expected[i] for i in subset}


K33 = Graph.from_edges(6, [(a, 3 + b) for a in range(3) for b in range(3)])


# each host with its edge-3-coloring count: the snarks, then colorable ones
HOST_COUNTS = {name: (g, 0) for name, g in HOSTS.items()}
HOST_COUNTS.update({
    "K33": (K33, 12), "prism4": (prism_graph(4), 24), "prism5": (prism_graph(5), 30),
    "prism7": (prism_graph(7), 126), "moebius4": (moebius_ladder(4), 18),
    "moebius6": (moebius_ladder(6), 66),
})


@pytest.mark.parametrize("name", HOST_COUNTS)
def test_the_pass_counts_the_host_colorings_as_the_forward_fold_does(name):
    # the reverse fold's host count, the certificate's EC= in a search,
    # against count_colorings' forward fold; asked for the last vertex's
    # edges alone, the pass folds the plain states over every vertex
    g, ec = HOST_COUNTS[name]
    assert count_colorings(g) == ec
    last = frontier_order(g)[-1]
    for edges in [range(g.m), *([i] for i in g.incident_edges(last))]:
        assert coloring._psi_pass(g, list(edges))[1] == ec


@SETTINGS
@given(girth4_cubic(), seeds)
def test_random_hosts_count_their_colorings_both_ways(g, seed):
    rng = random.Random(seed)
    subset = rng.sample(range(g.m), rng.randint(1, g.m))
    assert coloring._psi_pass(g, subset)[1] == count_colorings(g)


def girth4_cubic_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """The edges of the first connected random cubic graph of order n and
    girth at least 4 that rng's seeds give."""
    while True:
        pairs = sorted(nx.random_regular_graph(3, n, seed=rng.randrange(2**32)).edges())
        g = Graph.from_edges(n, pairs)
        if g.is_connected() and girth(g) >= 4:
            return pairs


@st.composite
def broken_hosts(draw) -> Graph:
    """Two random connected cubic graphs of girth at least 4, side by side
    or bridged: an edge of each subdivided by a new vertex, and the two
    new vertices joined.  Relabeled at random, so the first edge that
    fails may come anywhere in a given order."""
    rng = random.Random(draw(seeds))
    bridged = draw(st.booleans())
    pairs: list[tuple[int, int]] = []
    middles: list[int] = []
    n = 0
    for _ in range(2):
        order = rng.choice(range(6, 15, 2))
        side = [(u + n, v + n) for u, v in girth4_cubic_pairs(rng, order)]
        n += order
        if bridged:
            x, y = side.pop(rng.randrange(len(side)))
            side += [(x, n), (n, y)]
            middles.append(n)
            n += 1
        pairs += side
    if bridged:
        pairs.append((middles[0], middles[1]))
    names = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(names[u], names[v]) for u, v in pairs])


@SETTINGS
@given(broken_hosts(), seeds)
def test_smoothing_checks_fail_where_the_search_oracle_does(g, seed):
    # the stored labels against one search of G - e per edge: psi_counts
    # raises at the first edge the search fails, with its text, and a
    # search of the host truncates at the first such representative
    edges = random.Random(seed).sample(range(g.m), g.m)
    passed: list[int] = []
    with pytest.raises(DomainError) as expected:
        passed.extend(smoothable_by_search(g, edges))
    k = len(passed)
    assert list(psi_counts(g, edges[:k])) == passed
    with pytest.raises(DomainError) as batch:
        psi_counts(g, edges[:k + 1])
    assert str(batch.value) == str(expected.value)
    if g.is_connected():
        text = f"(graph6 {encode_graph6(g)})"
        reps: list[int] = []
        with pytest.raises(DomainError) as first:
            reps.extend(smoothable_by_search(g, (orbit[0] for orbit in edge_orbits(g))))
        answers = [
            e.edge_index if isinstance(e, PsiRecord) else e.reason
            for e in evaluate_recipe_records(text)
        ]
        assert answers == reps + [f"psi: {first.value}"]


def test_smoothing_preconditions_raise_as_the_smoothed_route_does(K4, prism):
    # a triangle, and the bridge (6, 13), whose smoothing is disconnected
    two_k33 = Graph.from_edges(12, K33.edges + tuple((6 + a, 6 + b) for a, b in K33.edges))
    cases = [(K4, 0), (prism, 0), (BRIDGED, BRIDGED.edge_index(6, 13)), (two_k33, 0),
             (petersen(), 15)]
    for g, e in cases:
        with pytest.raises(DomainError) as single:
            smoothed_decomposition_count(g, e)
        with pytest.raises(DomainError) as batch:
            psi_counts(g, [e])
        assert str(batch.value) == str(single.value)
    rest = [i for i in range(BRIDGED.m) if BRIDGED.edges[i] != (6, 13)]
    assert psi_counts(BRIDGED, rest) == smoothed_counts(BRIDGED, rest)


def test_budget_boundary_on_the_j3_chain():
    # the states a count and a pass generate are pinned exactly, so a
    # change to the DP steps cannot move where a budget truncates
    chain = HOSTS["chain3"]
    assert count_decompositions(chain, node_budget=6898) == 0  # a snark
    with pytest.raises(BudgetExceededError, match="exceeded 6897 DP states"):
        count_decompositions(chain, node_budget=6897)
    reps = [orbit[0] for orbit in edge_orbits(chain)]
    assert len(reps) == 39
    # the pass's reverse fold runs on to vertex 0 for the host's coloring
    # count, and on a snark those last steps carry no states
    assert coloring._psi_pass(chain, reps, node_budget=18365) == (psi_counts(chain, reps), 0)
    with pytest.raises(BudgetExceededError, match="exceeded 18364 DP states"):
        coloring._psi_pass(chain, reps, node_budget=18364)


def records_one_edge_at_a_time(text: str) -> list:
    """evaluate_recipe_records' answers as the single-edge route gives
    them: one psi_with_counts recount per orbit representative, stopping
    at the first representative psi rejects."""
    g = evaluate_text(text)
    out = []
    for orbit in edge_orbits(g):
        try:
            psi_val, _ned, ec = psi_with_counts(g, orbit[0])
        except (DomainError, CountContradictionError) as exc:
            return out + [f"psi: {exc}"]
        out.append((orbit[0], psi_val, ec))
    return out


@pytest.mark.parametrize("text", [
    "(petersen)", "(flower 5)", "(flower 7)", list(superpose_chain_family(2))[-1],
    "(graph6 C~)", "(graph6 Gr`HOk)", "(graph6 GhdHKc)", f"(graph6 {encode_graph6(K33)})",
    f"(graph6 {encode_graph6(BRIDGED)})",
])
def test_search_records_match_the_single_edge_route(text):
    answers = [
        (e.edge_index, e.psi, e.ec_count) if isinstance(e, PsiRecord) else e.reason
        for e in evaluate_recipe_records(text)
    ]
    assert answers == records_one_edge_at_a_time(text)


def test_bridged_host_keeps_the_records_before_the_bridge():
    # the bridge's orbit is not the first, so the records of the
    # representatives before it precede its truncation
    *records, last = evaluate_recipe_records(f"(graph6 {encode_graph6(BRIDGED)})")
    assert last.reason == "psi: graph must be connected"
    assert records and all(isinstance(e, PsiRecord) for e in records)


def test_node_budget_truncates_the_whole_recipe():
    entries = evaluate_recipe_records("(flower 5)", budget=SearchBudget(max_nodes=500))
    assert entries == [TruncationRecord("(flower 5)", "coloring count exceeded 500 DP states")]


def test_chain_search_makes_one_pass_and_no_smoothing(monkeypatch):
    calls = Counter()
    real_pass, real_smoothing = ledger._psi_pass, graph.contract_removed_edge

    def counting_pass(*args, **kwargs):
        calls["pass"] += 1
        return real_pass(*args, **kwargs)

    def counting_smoothing(*args, **kwargs):
        calls["smoothing"] += 1
        return real_smoothing(*args, **kwargs)

    monkeypatch.setattr(ledger, "_psi_pass", counting_pass)
    for module in (graph, analyze):
        monkeypatch.setattr(module, "contract_removed_edge", counting_smoothing)
    entries = list(search([list(superpose_chain_family(3))[-1]]))
    assert len(entries) == 39 and all(isinstance(e, PsiRecord) for e in entries)
    assert calls == {"pass": 1}


def test_search_certificates_come_from_the_pass(monkeypatch):
    # a search folds each host once, in its psi pass, and certifies it
    # with the pass's coloring count
    recipes = [*flower_family(13), *superpose_chain_family(3)]
    with monkeypatch.context() as patched:

        def no_count(*args, **kwargs):
            raise AssertionError("a search ran count_colorings")

        patched.setattr(analyze, "count_colorings", no_count)
        entries = list(search(recipes))
    assert len(entries) == 4 * 5 + 1 + 19 + 29 + 39
    for e in entries:
        assert isinstance(e, PsiRecord)
        assert e.certificate == certify_snark(evaluate_text(e.recipe)).summary()
