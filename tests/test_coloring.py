from itertools import product

import pytest

from oracles import (
    count_ec_by_factorization,
    count_ed_by_factorization,
    naive_colorings,
    naive_count_colorings,
    step_table_by_products,
)
from strategies import generalized_petersen
from snarkforge.errors import BudgetExceededError, DomainError
from snarkforge.graph import (
    Graph,
    contract_removed_edge,
    delete_edges,
    frontier_fold,
    frontier_layout,
    list_pentagons,
)
from snarkforge.klein import ZERO
from snarkforge.coloring import (
    EdgeColoring,
    _count_frontier,
    _placement_steps,
    _step_table,
    count_colorings,
    count_decompositions,
    enumerate_colorings,
    enumerate_decompositions,
    parity_residual,
    psi,
    psi_with_counts,
)
from snarkforge.analyze import is_snark
from snarkforge.construct import flower, superpose_52
from snarkforge.isomorphism import edge_orbits


def petersen_minus_pentagon(P):
    return delete_edges(P, list_pentagons(P)[0].edge_pairs())


class TestCountColorings:
    def test_named_counts(self, P, W):
        assert count_colorings(P) == 0
        assert count_colorings(W) == 18
        assert count_colorings(Graph.from_edges(2, [(0, 1)])) == 3

    def test_against_factorization_oracle(self, P, W, J5, K4):
        for g in [P, W, K4]:
            assert count_colorings(g) == count_ec_by_factorization(g)
        reduced, _, _ = contract_removed_edge(J5, 0)
        assert count_colorings(reduced) == count_ec_by_factorization(reduced)

    def test_against_naive_oracle(self, P):
        g = petersen_minus_pentagon(P)
        assert count_colorings(g) == naive_count_colorings(g) == 30

    def test_even_cycle_count(self):
        # proper 3-colorings of the hexagon's edges: 2^6 + 2
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert count_colorings(c6) == 66 == naive_count_colorings(c6)

    def test_rejects_high_valence_and_disconnection(self):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        with pytest.raises(DomainError):
            count_colorings(star)
        two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DomainError):
            count_colorings(two_edges)

    def test_node_budget(self, J5):
        # the budget lives on the fold, which no public count exposes
        assert frontier_fold(_placement_steps(J5)) == count_colorings(J5) == 0
        with pytest.raises(BudgetExceededError, match="exceeded 5 DP states"):
            frontier_fold(_placement_steps(J5), node_budget=5)


def step_shapes():
    """(closing, opening) for every step of 0-3 closing slots and up to 3
    edges at the vertex, every opening pin None or 0-3, and the opening
    slots either new or reusing the closed ones, the last freed first, as
    graph.frontier_layout assigns them."""
    for closes in range(4):
        closing = (0, 3, 1)[:closes]
        for opens in range(4 - closes):
            for pins in product((None, 0, 1, 2, 3), repeat=opens):
                for reuse in (False, True):
                    free = list(closing) if reuse else []
                    slots = [free.pop() if free else 6 + k for k in range(opens)]
                    yield closing, tuple(zip(slots, pins))


class TestStepTable:
    def test_equals_the_product_oracle(self):
        # mask, keys and each key's deltas, in order: the depth-first walk
        # of enumerate_colorings yields its colorings in delta order
        shapes = list(step_shapes())
        assert ((0,), ((0, None), (7, None))) in shapes  # a reused slot
        for closing, opening in shapes:
            slots, pins = tuple(x for x, _ in opening), tuple(pin for _, pin in opening)
            mask, table = _step_table(closing, slots, pins)
            want_mask, want = step_table_by_products(closing, opening)
            assert mask == want_mask
            assert list(table.items()) == list(want.items()), (closing, opening)


class TestPlacementSteps:
    def test_set_up_once_per_graph_value_and_patched_at_pins(self):
        g = generalized_petersen(7, 2)  # a fresh graph value, colorable
        steps = _placement_steps(g)
        assert _placement_steps(g) is steps
        stored = [(mask, dict(table)) for mask, table in steps]
        # two pins, on edges that steps k1 and k2 open
        layout = frontier_layout(g)[0]
        openers = [k for k, step in enumerate(layout) if step[1]]
        k1, k2 = openers[len(openers) // 2], openers[-1]
        pins = {layout[k1][1][0][0]: 1, layout[k2][1][-1][0]: 2}
        want = sum(all(c[i] == x for i, x in pins.items()) for c in naive_colorings(g))
        assert count_decompositions(g) == count_ed_by_factorization(g)
        for _ in range(2):
            # each pinned count looks up the tables of its pinned steps alone
            before = _step_table.cache_info()
            assert _count_frontier(g, pins) == want
            after = _step_table.cache_info()
            assert after.hits + after.misses - before.hits - before.misses == 2
            assert after.misses - before.misses <= 2
        pinned = _placement_steps(g, pins)
        assert [k for k, step in enumerate(pinned) if step is not steps[k]] == [k1, k2]
        # the stored steps are the same object, unmutated, and an unpinned
        # count and enumeration after the pinned ones still match the oracle
        assert _placement_steps(g) is steps
        assert [(mask, dict(table)) for mask, table in steps] == stored
        assert _count_frontier(g) == count_ec_by_factorization(g) > 0
        assert len(list(enumerate_colorings(g))) == count_ec_by_factorization(g)


class TestEnumerateColorings:
    def test_stream_matches_counter(self, P, W):
        for g in [W, petersen_minus_pentagon(P)]:
            listed = list(enumerate_colorings(g))
            assert len(listed) == count_colorings(g)
            assert len(set(c.colors for c in listed)) == len(listed)
            assert all(c.is_proper() for c in listed)

    def test_empty_stream_for_snark(self, P):
        assert list(enumerate_colorings(P)) == []


class TestCountDecompositions:
    def test_named_counts(self, P, W):
        assert count_decompositions(W) == 3
        assert count_decompositions(P) == 0
        for p in list_pentagons(P)[:3]:
            assert count_decompositions(delete_edges(P, p.edge_pairs())) == 5

    def test_six_to_one_correspondence(self, P, W, J5, K4):
        # coloring count vs decomposition count computed by separate
        # kernel configurations
        reduced, _, _ = contract_removed_edge(J5, 0)
        for g in [W, K4, petersen_minus_pentagon(P), reduced]:
            assert count_colorings(g) == 6 * count_decompositions(g)

    def test_against_factorization_oracle(self, W, J5, K4):
        for g in [W, K4]:
            assert count_decompositions(g) == count_ed_by_factorization(g)
        for orbit in edge_orbits(J5):
            reduced, _, _ = contract_removed_edge(J5, orbit[0])
            assert count_decompositions(reduced) == count_ed_by_factorization(reduced)

    def test_representatives_are_canonical(self, W):
        reps = list(enumerate_decompositions(W))
        assert len(reps) == 3
        pivot_edges = W.incident_edges(0)
        for rep in reps:
            assert [rep.colors[i] for i in pivot_edges] == [1, 2, 3]

    def test_requires_quasi_cubic_with_trivalent(self):
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(DomainError):
            count_decompositions(c6)
        lone = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(DomainError):
            count_decompositions(lone)


class TestParityResidual:
    def test_zero_on_every_coloring(self, P, J5):
        for g in [
            petersen_minus_pentagon(P),
            delete_edges(J5, list_pentagons(J5)[0].edge_pairs()),
        ]:
            for coloring in enumerate_colorings(g):
                assert parity_residual(g, coloring) == ZERO

    def test_five_pendant_split_three_one_one(self, P):
        from snarkforge.graph import pendant_edges

        g = petersen_minus_pentagon(P)
        pend = pendant_edges(g)
        assert len(pend) == 5
        for coloring in enumerate_colorings(g):
            split = sorted(
                sum(1 for i in pend if coloring.colors[i] == c) for c in (1, 2, 3)
            )
            assert split == [1, 1, 3]

    def test_single_edge_counts_both_ends(self):
        g = Graph.from_edges(2, [(0, 1)])
        coloring = EdgeColoring(g, (1,))
        assert parity_residual(g, coloring) == ZERO

    def test_cubic_host_rejected(self, W):
        coloring = next(enumerate_colorings(W))
        with pytest.raises(DomainError):
            parity_residual(W, coloring)


class TestPsi:
    def test_petersen_all_edges(self, P):
        assert {psi(P, i) for i in range(P.m)} == {1}

    def test_counts_triplet(self, P):
        val, ned, nec = psi_with_counts(P, 0)
        assert (val, ned, nec) == (1, 3, 18)

    def test_flower5_orbit_values(self, J5):
        # frozen from the one-factorization oracle; Problem-5-style data
        by_orbit = {orbit[0]: psi(J5, orbit[0]) for orbit in edge_orbits(J5)}
        assert sorted(by_orbit.values()) == [2, 3, 5, 6]

    def test_psi_constant_on_every_orbit(self, J5):
        # automorphism orbits refine psi equality
        for orbit in edge_orbits(J5):
            assert len({psi(J5, i) for i in orbit}) == 1

    def test_superposition_doubles(self, P):
        res = superpose_52(P, 0, P, 0, 6)
        e = res.map_star_edge(P, (1, 2))
        assert psi(res.graph, e) == 2


class TestIsSnark:
    def test_classification(self, P, W, J5, K4, prism):
        assert is_snark(P) and is_snark(J5)
        # off the domain: disconnected cubic, and not cubic
        two_petersens = Graph.from_edges(
            20, list(P.edges) + [(u + 10, v + 10) for u, v in P.edges]
        )
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        for g in [W, K4, prism, flower(7), two_petersens, path]:
            assert is_snark(g) == (g == flower(7))


class TestSerialization:
    def test_text_round_trip(self, W):
        coloring = next(enumerate_colorings(W))
        text = coloring.to_text()
        assert EdgeColoring.from_text(W, text) == coloring
        assert text.splitlines()[0].split()[1] in {"a", "b", "c"}

    def test_incomplete_text_rejected(self, W):
        with pytest.raises(DomainError):
            EdgeColoring.from_text(W, "0 a\n1 b\n")
