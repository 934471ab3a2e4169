import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from oracles import (
    count_ec_by_factorization,
    cyclic_connectivity_violated_by_bridges,
    cyclic_connectivity_violated_by_matchings,
    cyclic_connectivity_violated_exhaustive,
    frontier_order_by_tuple_keys,
    hamiltonian_by_backtracking,
    hamiltonian_by_cycle_enumeration,
    hamiltonian_cycles_by_permutations,
    has_two_disjoint_cycles_by_enumeration,
    is_cut_by_union_find,
    order_cost,
    to_nx,
)
from strategies import (
    SYMMETRIC_CUBIC,
    cubic_graphs,
    girth4_cubic,
    planted_cut_graphs,
    random_cubic_union,
    seeds,
)
from snarkforge.coloring import _count_frontier, count_decompositions, count_same_class, psi_counts
from snarkforge.covers import even_cover_sum
from snarkforge.kempe import cocyclic_factor_count
from snarkforge.errors import CyclicConnectivityUndefinedError, DomainError
from snarkforge.graph import (
    Cycle,
    Graph,
    contract_removed_edge,
    cycle_labels,
    cyclically_edge_connected_at_least,
    delete_edges,
    delete_vertices,
    find_cycles,
    frontier_layout,
    frontier_order,
    girth,
    hamiltonian_cycle_count,
    is_cubic,
    is_hamiltonian,
    is_quasi_cubic,
    list_pentagons,
    pendant_edges,
    spanning_forest,
    two_factor_fold,
    univalent_vertices,
    valence_profile,
)
from snarkforge import graph as graph_module
from snarkforge.construct import flower
from snarkforge.isomorphism import edge_orbits
from snarkforge.ledger import superpose_chain_family
from snarkforge.recipe import evaluate_text


def smoothed_in_two_steps(g: Graph, i: int):
    """contract_removed_edge's result built by delete_vertices, then a
    second Graph.from_edges with d1 and d2 added."""
    u, v = g.edges[i]
    t1, t2 = (w for w in g.neighbors(u) if w != v)
    w1, w2 = (w for w in g.neighbors(v) if w != u)
    smaller, mapping = delete_vertices(g, {u, v})
    d1 = tuple(sorted((mapping[t1], mapping[t2])))
    d2 = tuple(sorted((mapping[w1], mapping[w2])))
    out = Graph.from_edges(smaller.n, list(smaller.edges) + [d1, d2])
    return out, out.edge_ref(out.edge_index(*d1)), out.edge_ref(out.edge_index(*d2))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(girth4_cubic())
def test_smoothing_equals_the_two_step_construction(g):
    # at every edge of one host value, which is checked at the first
    for i in range(g.m):
        assert contract_removed_edge(g, i) == smoothed_in_two_steps(g, i)


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


class TestGraphValue:
    def test_normalization_and_validation(self):
        g = Graph.from_edges(3, [(2, 1), (1, 0)])
        assert g.edges == ((0, 1), (1, 2))
        with pytest.raises(DomainError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(DomainError):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(DomainError):
            Graph.from_edges(2, [(0, 5)])
        with pytest.raises(DomainError):
            Graph(0, ())

    def test_adjacency_consistency(self, P):
        for i, (u, v) in enumerate(P.edges):
            assert i in P.incident_edges(u)
            assert i in P.incident_edges(v)
            assert v in P.neighbors(u)
        assert sum(P.valence(v) for v in range(P.n)) == 2 * P.m

    def test_graphs_are_values(self, P):
        from snarkforge.construct import petersen

        assert P == petersen()
        assert hash(P) == hash(petersen())


class TestDeleteVertices:
    def test_petersen_minus_outer_pentagon(self, P):
        # deleting the outer 5-cycle leaves the inner 5-vertex pentagram
        inner, mapping = delete_vertices(P, {0, 1, 2, 3, 4})
        assert inner.n == 5 and inner.m == 5
        assert sorted(mapping) == [5, 6, 7, 8, 9]
        assert all(inner.valence(v) == 2 for v in range(5))

    def test_empty_deletion_is_identity(self, P):
        g, mapping = delete_vertices(P, set())
        assert g == P
        assert mapping == {v: v for v in range(P.n)}

    def test_triangle_minus_vertex(self):
        g, _ = delete_vertices(triangle(), {2})
        assert g.n == 2 and g.m == 1

    def test_survivors_keep_identity(self, P):
        g, mapping = delete_vertices(P, {3})
        for u, v in g.edges:
            assert True  # all edges valid by construction
        inv = {new: old for old, new in mapping.items()}
        for u, v in g.edges:
            assert P.has_edge(inv[u], inv[v])

    def test_improper_subset_rejected(self, P):
        with pytest.raises(DomainError):
            delete_vertices(P, set(range(10)))
        with pytest.raises(DomainError):
            delete_vertices(P, {99})


class TestDeleteEdges:
    def test_petersen_minus_pentagon_is_quasi_cubic(self, P):
        p = list_pentagons(P)[0]
        g = delete_edges(P, p.edge_pairs())
        assert g.n == P.n and g.m == P.m - 5
        assert is_quasi_cubic(g) and not is_cubic(g)
        assert sorted(univalent_vertices(g)) == sorted(p.vertices)

    def test_empty_and_full(self, P):
        assert delete_edges(P, []) == P
        empty = delete_edges(P, P.edges)
        assert empty.n == P.n and empty.m == 0

    def test_unknown_edge_rejected(self, P):
        with pytest.raises(DomainError):
            delete_edges(P, [(0, 7)])


class TestValences:
    def test_petersen_cubic(self, P):
        assert valence_profile(P) == {3: 10}
        assert is_cubic(P) and is_quasi_cubic(P)

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert valence_profile(g) == {1: 2}
        assert is_quasi_cubic(g) and not is_cubic(g)
        assert pendant_edges(g) == [0, 0]

    def test_quasi_cubic_with_trivalent_has_even_order(self, P, J5):
        # every quasi-cubic graph here with a 3-valent vertex has evenly
        # many vertices; exercised across the instances in this suite
        for g in [P, J5, delete_edges(P, list_pentagons(P)[0].edge_pairs())]:
            if is_quasi_cubic(g) and 3 in valence_profile(g):
                assert g.n % 2 == 0


class TestGirth:
    def test_known_girths(self, P, K4):
        assert girth(P) == 5
        assert girth(K4) == 3
        assert girth(flower(7)) == 6

    def test_against_networkx(self, P, J5, prism):
        for g in [P, J5, prism, flower(7)]:
            assert girth(g) == nx.girth(to_nx(g))

    def test_forest_has_no_girth(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert girth(g) is None


class TestFindCycles:
    def test_petersen_pentagons(self, P):
        pents = find_cycles(P, 5)
        assert len(pents) == 12
        for p in pents:
            assert len(set(p.vertices)) == 5
            for u, v in p.edge_pairs():
                assert P.has_edge(u, v)
        assert len(set(pents)) == 12  # canonical form dedups

    def test_flower5_single_pentagon(self, J5):
        assert len(list_pentagons(J5)) == 1

    def test_k4_has_no_pentagon(self, K4):
        assert find_cycles(K4, 5) == []

    def test_hexagon(self):
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert len(find_cycles(c6, 6)) == 1
        assert find_cycles(c6, 5) == []

    def test_every_petersen_edge_on_four_pentagons(self, P):
        per_edge = {e: 0 for e in P.edges}
        for p in find_cycles(P, 5):
            for pair in p.edge_pairs():
                per_edge[pair] += 1
        assert set(per_edge.values()) == {4}


class TestContractRemovedEdge:
    def test_counts(self, P):
        reduced, d1, d2 = contract_removed_edge(P, 0)
        assert reduced.n == P.n - 2
        assert reduced.m == P.m - 3
        assert is_cubic(reduced)

    def test_inserted_edges_non_adjacent_at_girth_5(self, P):
        for i in range(P.m):
            reduced, d1, d2 = contract_removed_edge(P, i)
            assert not set(d1.pair) & set(d2.pair)

    def test_rejects_bad_hosts(self, K4, prism):
        # K4 and the prism are cubic with girth 3, whichever edge is
        # smoothed; a failed check is not stored, so a bad host raises the
        # same text on every call, also after psi_counts' check met it
        cases = [(Graph.from_edges(2, [(0, 1)]), "a cubic graph"),
                 (delete_edges(K4, [(0, 1)]), "a cubic graph"),
                 (K4, "girth at least 4"), (prism, "girth at least 4")]
        for host, text in cases:
            for smooth in (lambda g, i: psi_counts(g, [i]), contract_removed_edge):
                for i in range(host.m):
                    with pytest.raises(DomainError) as err:
                        smooth(host, i)
                    assert str(err.value) == f"edge smoothing requires {text}"

    def test_matches_two_step_construction(self, P):
        hosts = [P] + [flower(n) for n in (5, 7, 9)]
        hosts += [evaluate_text(r) for r in superpose_chain_family(2)]
        for g in hosts:
            for i in range(g.m):
                assert contract_removed_edge(g, i) == smoothed_in_two_steps(g, i)

    def test_smoothing_inherits_the_host_order(self, P):
        # the host's order without e's endpoints, renumbered as
        # delete_vertices renumbers the survivors
        hosts = [P, flower(7)] + [evaluate_text(r) for r in superpose_chain_family(2)]
        for g in hosts:
            for i in range(g.m):
                mapping = delete_vertices(g, g.edges[i])[1]
                expected = tuple(mapping[w] for w in frontier_order(g) if w in mapping)
                assert frontier_order(contract_removed_edge(g, i)[0]) == expected

    def test_cube_smooths_at_every_edge(self):
        # Q3 has girth 4, the least that smoothing allows
        q3 = Graph.from_edges(8, [(a, a | bit) for a in range(8) for bit in (1, 2, 4) if not a & bit])
        assert girth(q3) == 4
        for i in range(q3.m):
            reduced, d1, d2 = contract_removed_edge(q3, i)
            assert reduced.n == 6 and is_cubic(reduced)
            assert not set(d1.pair) & set(d2.pair)


class TestHamiltonian:
    def test_wheel_rim(self, W):
        assert is_hamiltonian(W)

    def test_petersen_not_hamiltonian(self, P):
        assert not is_hamiltonian(P)
        assert not hamiltonian_by_cycle_enumeration(P)

    def test_small_cycles_and_paths(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert is_hamiltonian(c5)
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert not is_hamiltonian(path)
        # two triangles at one vertex, placed last: two paths end there
        bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        assert not is_hamiltonian(with_order(bowtie, (1, 2, 3, 4, 0)))

    def test_against_oracle(self, W, J5, prism):
        for g in [W, prism, J5]:
            assert is_hamiltonian(g) == hamiltonian_by_cycle_enumeration(g)

    def test_counts(self, K4, prism, P):
        k33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
        # the prism's 2-factor of two triangles is not a Hamiltonian cycle
        assert [hamiltonian_cycle_count(g) for g in (K4, k33, prism, P)] == [3, 6, 3, 0]
        assert hamiltonian_cycle_count(Graph(2, ((0, 1),))) == 0
        assert not is_hamiltonian(Graph(1, ()))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(cubic_graphs(8))
    def test_count_matches_brute_force(self, g):
        assert hamiltonian_cycle_count(g) == hamiltonian_cycles_by_permutations(g)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(cubic_graphs(16))
    def test_matches_backtracking(self, g):
        assert is_hamiltonian(g) == hamiltonian_by_backtracking(g)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        cubic_graphs(16),
        st.lists(st.tuples(st.sampled_from(range(4, 11, 2)), seeds), min_size=2, max_size=3)
        .map(random_cubic_union),
    ))
    def test_walk_agrees_with_the_count(self, g):
        # a disconnected union has 2-factors but never a Hamiltonian cycle
        assert is_hamiltonian(g) == (hamiltonian_cycle_count(g) > 0)

    def test_walk_agrees_with_the_count_on_the_families(self):
        # each host is a snark, so not Hamiltonian; most reductions are
        hosts = [flower(n) for n in range(5, 14, 2)]
        hosts += [evaluate_text(r) for r in superpose_chain_family(3)]
        answers = set()
        for g in hosts:
            assert not is_hamiltonian(g) and hamiltonian_cycle_count(g) == 0
            for orbit in edge_orbits(g):
                h = contract_removed_edge(g, orbit[0])[0]
                ham = is_hamiltonian(h)
                assert ham == (hamiltonian_cycle_count(h) > 0)
                answers.add(ham)
        assert answers == {True, False}

    def test_walk_builds_less_and_expands_each_pair_once(self, monkeypatch):
        # spy on the steps both routes take: count build calls, and record
        # each (step, state) pair whose closing key is read, raising on a
        # pair read twice
        builds = [0]
        expanded: set[tuple[int, int]] = set()

        class Mask(int):
            step = 0

            def __rand__(self, s: int) -> int:
                pair = (self.step, s)
                assert pair not in expanded, f"step {self.step} expands state {s} twice"
                expanded.add(pair)
                return s & int(self)

        real = graph_module._two_factor_steps

        def spied(*args):
            for k, (mask, build) in enumerate(real(*args)):
                mask = Mask(mask)
                mask.step = k

                def counted(key: int, build=build) -> list[int]:
                    builds[0] += 1
                    return build(key)

                yield mask, counted

        monkeypatch.setattr(graph_module, "_two_factor_steps", spied)
        g = flower(9)
        for orbit in edge_orbits(g):
            h = contract_removed_edge(g, orbit[0])[0]
            builds[0] = 0
            expanded.clear()
            assert is_hamiltonian(h)
            walk, builds[0] = builds[0], 0
            expanded.clear()
            assert hamiltonian_cycle_count(h) > 0
            assert 0 < walk < builds[0]
        # without a Hamiltonian cycle the walk expands exactly the fold's
        # pairs, each once
        for g in (flower(13), evaluate_text(list(superpose_chain_family(3))[-1])):
            expanded.clear()
            assert not is_hamiltonian(g)
            walk = set(expanded)
            expanded.clear()
            assert hamiltonian_cycle_count(g) == 0
            assert walk == expanded


def with_order(g: Graph, order) -> Graph:
    """An equal graph value that the frontier DPs walk in ``order``."""
    h = Graph(g.n, g.edges)
    object.__setattr__(h, "_frontier_order", tuple(order))
    return h


def layout_from_scratch(g: Graph, order) -> tuple:
    """graph.frontier_layout's rule, by vertex positions: the k-th vertex
    closes its edges to earlier vertices, in incidence order, freeing their
    slots, and each of its other edges takes the last slot freed so far or
    else a new one; both kinds are listed as (edge, slot) pairs, then as
    their slots alone."""
    pos = {v: k for k, v in enumerate(order)}
    slot_of: dict[int, int] = {}
    free: list[int] = []
    steps = []
    top = 0
    for k, v in enumerate(order):
        closing, opening = [], []
        for i in g.incident_edges(v):
            a, b = g.edges[i]
            if pos[a + b - v] < k:
                closing.append((i, slot_of[i]))
                free.append(slot_of[i])
            else:
                slot_of[i] = free.pop() if free else top
                top = max(top, slot_of[i] + 1)
                opening.append((i, slot_of[i]))
        steps.append((
            tuple(closing), tuple(opening),
            tuple(x for _, x in closing), tuple(x for _, x in opening),
        ))
    return tuple(steps), top


@st.composite
def graphs_with_orders(draw, max_n: int):
    """A random cubic graph, possibly disconnected, a random vertex order
    of it, and two distinct edges."""
    g = draw(cubic_graphs(max_n))
    order = draw(st.permutations(range(g.n)))
    d1, d2 = draw(st.lists(st.integers(0, g.m - 1), min_size=2, max_size=2, unique=True))
    return g, order, d1, d2


# The sum of 3^|frontier| over each named host's frontier order.  Each
# equals the cost of the best order from every start vertex, except on
# flower(5) and its isomorph (P, J5), which cost 36424 from every start:
# there the winning start is not the least vertex of its refined class.
ORDER_COSTS = {
    "(petersen)": 2404,
    "(flower 5)": 51976,
    "(flower 7)": 100576,
    "(flower 9)": 147232,
    "(flower 11)": 193888,
    "(flower 13)": 240544,
    **dict(zip(list(superpose_chain_family(3))[1:], [11476, 67852, 341956])),
    "(pentagonjoin (petersen) p=0 (petersen) p=0)": 2404,
    "(pentagonjoin (petersen) p=0 (flower 5) p=0)": 51976,
    "(pentagonjoin (flower 5) p=0 (petersen) p=0)": 40312,
    "(pentagonjoin (flower 5) p=0 (flower 5) p=0)": 89884,
    "(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1)": 4996,
    "(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1 wiring=crossed)": 4996,
    "(dotproduct (flower 5) e1=0 e2=7 (petersen) x=0 y=1)": 38368,
    "(dotproduct (petersen) e1=0 e2=7 (flower 5) x=0 y=1)": 40960,
}
COST_FROM_EVERY_START = {
    "(flower 5)": 36424,
    "(pentagonjoin (petersen) p=0 (flower 5) p=0)": 36424,
}


class TestFrontierOrder:
    @pytest.mark.parametrize("text", ORDER_COSTS)
    def test_order_cost_on_named_hosts(self, text):
        g = evaluate_text(text)
        assert order_cost(g, frontier_order(g)) == ORDER_COSTS[text]
        every_start = frontier_order_by_tuple_keys(g, range(g.n))
        assert order_cost(g, every_start) == COST_FROM_EVERY_START.get(text, ORDER_COSTS[text])

    def test_disjoint_k4s_restart_at_smallest_unplaced(self, K4):
        two = Graph.from_edges(8, list(K4.edges) + [(a + 4, b + 4) for a, b in K4.edges])
        assert frontier_order(two) == tuple(range(8))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(range(4, 11, 2)), seeds), min_size=2, max_size=3),
           st.integers(0, 3), seeds)
    def test_permutation_on_disconnected_graphs(self, parts, isolated, seed):
        g = random_cubic_union(parts)
        perm = list(range(g.n + isolated))
        random.Random(seed).shuffle(perm)
        h = Graph.from_edges(g.n + isolated, [(perm[u], perm[v]) for u, v in g.edges])
        assert sorted(frontier_order(h)) == list(range(h.n))
        assert frontier_order(h) == frontier_order_by_tuple_keys(h)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(cubic_graphs(20))
    def test_order_equals_tuple_key_search(self, g):
        # the packed candidate ranks pick what the tuple keys picked
        assert frontier_order(g) == frontier_order_by_tuple_keys(g)

    def test_order_equals_tuple_key_search_on_hosts(self):
        hosts = [flower(n) for n in range(5, 22, 2)]
        hosts += [evaluate_text(r) for r in superpose_chain_family(5)]
        for g in hosts:
            assert frontier_order(g) == frontier_order_by_tuple_keys(Graph(g.n, g.edges))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(graphs_with_orders(12))
    def test_dps_agree_under_any_order(self, case):
        # the order sets what a frontier DP costs, never what it counts
        g, order, d1, d2 = case
        h = with_order(g, order)
        assert frontier_order(h) == tuple(order)
        assert _count_frontier(h) == _count_frontier(g) == count_ec_by_factorization(g)
        # Tait: the all-even 2-factors, 2 per cycle, count the colorings;
        # no edge is banned, so each closing delta is listed twice
        ec = count_ec_by_factorization(g)
        for x in (h, g):
            assert two_factor_fold(x, lambda p, _l, _m: 0 if p else 2) == ec
        if g.is_connected():
            assert count_decompositions(h) == count_decompositions(g)
            # the order also moves the pivot of a class count
            assert count_same_class(h, (d1, d2)) == count_same_class(g, (d1, d2))
            assert cocyclic_factor_count(h, d1, d2) == cocyclic_factor_count(g, d1, d2)
        assert even_cover_sum(h, d1, d2) == even_cover_sum(g, d1, d2)
        assert hamiltonian_cycle_count(h) == hamiltonian_cycle_count(g)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["(petersen)", "(flower 5)", "(flower 7)",
                            *list(superpose_chain_family(1))[1:]]), st.data())
    def test_injected_order_propagates(self, recipe, data):
        g = evaluate_text(recipe)
        order = data.draw(st.permutations(range(g.n)))
        i = data.draw(st.integers(0, g.m - 1))
        reduced = contract_removed_edge(with_order(g, order), i)[0]
        mapping = delete_vertices(g, g.edges[i])[1]
        assert frontier_order(reduced) == tuple(mapping[w] for w in order if w in mapping)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(graphs_with_orders(12))
    def test_layout_follows_the_order(self, case):
        g, order, _d1, _d2 = case
        assert frontier_layout(with_order(g, order)) == layout_from_scratch(g, order)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["(petersen)", "(flower 5)", "(flower 7)",
                            *list(superpose_chain_family(1))[1:]]), st.data())
    def test_smoothed_layout_follows_inherited_order(self, recipe, data):
        g = evaluate_text(recipe)
        frontier_layout(g)
        reduced = contract_removed_edge(g, data.draw(st.integers(0, g.m - 1)))[0]
        order = frontier_order(reduced)
        assert frontier_layout(reduced) == layout_from_scratch(reduced, order)


class TestCyclicConnectivity:
    def test_petersen_levels(self, P):
        assert cyclically_edge_connected_at_least(P, 4)
        assert cyclically_edge_connected_at_least(P, 5)
        assert not cyclically_edge_connected_at_least(P, 6)

    def test_prism_fails_level_4(self, prism):
        # the 3-edge matching between the triangles is a violating cut
        assert cyclically_edge_connected_at_least(prism, 3)
        assert not cyclically_edge_connected_at_least(prism, 4)

    def test_monotone_in_level(self, P, J5):
        for g in [P, J5]:
            passed = [cyclically_edge_connected_at_least(g, k) for k in range(2, 8)]
            for earlier, later in zip(passed, passed[1:]):
                assert earlier or not later

    def test_against_exhaustive_subsets(self, P, prism, J5):
        for g, level in [(P, 4), (P, 5), (P, 6), (prism, 4), (J5, 4)]:
            mine = cyclically_edge_connected_at_least(g, level)
            oracle = not cyclic_connectivity_violated_exhaustive(g, level - 1)
            assert mine == oracle, (g.n, level)

    def test_undefined_without_disjoint_cycles(self, K4):
        with pytest.raises(CyclicConnectivityUndefinedError):
            cyclically_edge_connected_at_least(K4, 4)

    def test_non_cubic_rejected(self, P):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        for g in [path, delete_edges(P, [(0, 1)])]:
            with pytest.raises(DomainError):
                cyclically_edge_connected_at_least(g, 4)

    def test_defined_exactly_when_two_disjoint_cycles(self, P, K4, prism):
        k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
        for g in [P, K4, prism, k33]:
            assert defined_at_level_2(g) == has_two_disjoint_cycles_by_enumeration(g)
        assert not defined_at_level_2(K4) and not defined_at_level_2(k33)


def defined_at_level_2(g: Graph) -> bool:
    try:
        cyclically_edge_connected_at_least(g, 2)
    except CyclicConnectivityUndefinedError:
        return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(range(4, 21, 2)), st.integers(0, 2**32 - 1))
def test_disjoint_cycles_shortcut_matches_oracle(n, seed):
    # Lovasz: K4 and K3,3 are the only cubic graphs without two disjoint
    # cycles; random cubic graphs here may be disconnected
    g = Graph.from_edges(n, nx.random_regular_graph(3, n, seed=seed).edges())
    assert defined_at_level_2(g) == has_two_disjoint_cycles_by_enumeration(g)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(cubic_graphs(30), st.sampled_from([2, 3, 4, 5]))
def test_bridge_search_matches_matching_enumeration(g, level):
    assume(g.n >= 8)  # K4 and K3,3 alone are undefined
    mine = cyclically_edge_connected_at_least(g, level)
    assert mine == (not cyclic_connectivity_violated_by_matchings(g, level - 1))
    if g.n <= 12:
        assert mine == (not cyclic_connectivity_violated_exhaustive(g, level - 1))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(planted_cut_graphs(16))
def test_cut_pairs_match_bridge_search_on_planted_cuts(g):
    # each graph carries a cyclic cut of 2..6 edges, so violations occur at
    # every level from 2 to 7
    for level in range(2, 8):
        violated = not cyclically_edge_connected_at_least(g, level)
        assert violated == cyclic_connectivity_violated_by_bridges(g, level - 1), level
        if g.n <= 24 and level <= 5:
            assert violated == cyclic_connectivity_violated_by_matchings(g, level - 1), level


@st.composite
def any_graphs(draw) -> Graph:
    """A random cubic graph or union of two, or a random simple graph of
    1..12 vertices, connected or not."""
    if draw(st.booleans()):
        return draw(cubic_graphs(16))
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(any_graphs(), st.data())
def test_cycle_labels_xor_to_zero_exactly_on_cuts(g, data):
    labels, roots = cycle_labels(g), spanning_forest(g)[0]
    parts = sorted(sorted(c) for c in nx.connected_components(to_nx(g)))
    assert len(set(roots)) == len(parts)
    assert all(roots[v] == part[0] for part in parts for v in part)
    assert g.components() == parts
    assert g.is_connected() == (len(parts) == 1)
    side = data.draw(st.sets(st.sampled_from(range(g.n))))
    cut = [i for i, (u, v) in enumerate(g.edges) if (u in side) != (v in side)]
    subset = data.draw(st.sets(st.sampled_from(range(g.m)))) if g.m else set()
    for edges in (cut, subset):
        xor = 0
        for i in edges:
            xor ^= labels[i]
        assert (xor == 0) == is_cut_by_union_find(g, edges), sorted(edges)


def violating_by_nx(g: Graph, cut: list[int]) -> bool:
    """G minus the edges has two or more components, each holding a cycle."""
    G = to_nx(g)
    G.remove_edges_from(g.edges[i] for i in cut)
    parts = list(nx.connected_components(G))
    return len(parts) > 1 and all(G.subgraph(p).number_of_edges() >= len(p) for p in parts)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(cubic_graphs(16), planted_cut_graphs(8)), st.data())
def test_closing_lemma(g, data):
    """cyclically_edge_connected_at_least's closing lemma: an edge set
    whose labels XOR to 0 and whose edges but the last form a matching is
    violating.  The sets are drawn as the search grows and closes them: a
    matching of up to three edges in increasing order, and at each of its
    prefixes S, every edge f above S labelled XOR(S), and every f above S
    and free of S with each f' above f that the label index gives, f or
    f' free to meet S or f."""
    labels = cycle_labels(g)
    index: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        index.setdefault(label, []).append(i)
    drawn = data.draw(st.sets(st.sampled_from(range(g.m)), max_size=3))
    S: list[int] = []
    ends: set[int] = set()
    want, last = 0, -1
    for grow in sorted(drawn) + [None]:
        for f in index.get(want, ()):
            if f > last:
                assert violating_by_nx(g, S + [f]), S + [f]
        for f in range(last + 1, g.m):
            if not ends & set(g.edges[f]):
                for h in index.get(want ^ labels[f], ()):
                    if h > f:
                        assert violating_by_nx(g, S + [f, h]), S + [f, h]
        if grow is None or ends & set(g.edges[grow]):
            break
        S.append(grow)
        ends.update(g.edges[grow])
        want, last = want ^ labels[grow], grow


CONNECTIVITY_PINS = (
    [(f"(flower {k})", level, True) for k in (5, 7, 9, 11) for level in (3, 4, 5)]
    + [(f"(flower {k})", 4, True) for k in (13, 21)]
    + [(text, level, j == 0 or level < 5)
       for j, text in enumerate(superpose_chain_family(2)) for level in (3, 4, 5)]
)
# the matching enumeration takes 5 s or more on each of these
SLOW_FOR_MATCHINGS = {
    ("(flower 9)", 5), ("(flower 11)", 5), ("(flower 13)", 4), ("(flower 21)", 4)
}


@pytest.mark.parametrize("text,level,expected", CONNECTIVITY_PINS)
def test_cyclic_connectivity_pins(text, level, expected):
    g = evaluate_text(text)
    assert cyclically_edge_connected_at_least(g, level) == expected
    assert cyclic_connectivity_violated_by_bridges(g, level - 1) == (not expected)
    if (text, level) not in SLOW_FOR_MATCHINGS:
        assert cyclic_connectivity_violated_by_matchings(g, level - 1) == (not expected)


@pytest.mark.parametrize("name", SYMMETRIC_CUBIC)
def test_orbit_pruning_on_symmetric_graphs(name):
    """Edge-transitive and near edge-transitive graphs, where the first
    removed edge ranges over a few orbit representatives: every level
    against the bridge search, and against the matching enumeration where
    it stays under a fraction of a second."""
    g = SYMMETRIC_CUBIC[name]()
    for level in range(2, 7):
        violated = not cyclically_edge_connected_at_least(g, level)
        assert violated == cyclic_connectivity_violated_by_bridges(g, level - 1), level
        if g.m <= 24 or (level <= 4 and g.m <= 36):
            assert violated == cyclic_connectivity_violated_by_matchings(g, level - 1), level


@pytest.mark.parametrize("k", [5, 7, 9, 11])
def test_orbit_pruning_on_flowers(k):
    """Flowers at levels 2 and 6 (CONNECTIVITY_PINS hold 3 to 5).  Every
    flower from 7 up is cyclically 6-edge-connected; the bridge search
    takes 7 s and more to confirm it on flowers 9 and 11."""
    g = flower(k)
    for level in (2, 6):
        violated = not cyclically_edge_connected_at_least(g, level)
        assert violated == (k == 5 and level == 6), level
        if k <= 7:
            assert violated == cyclic_connectivity_violated_by_bridges(g, level - 1), level


class TestCycleValue:
    def test_canonical_form(self):
        a = Cycle.from_vertices([3, 1, 2])
        b = Cycle.from_vertices([1, 3, 2])
        c = Cycle.from_vertices([2, 3, 1])
        assert a == b == c
        assert a.vertices[0] == 1

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            Cycle.from_vertices([0, 1])
        with pytest.raises(DomainError):
            Cycle.from_vertices([0, 1, 1])
