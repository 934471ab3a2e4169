import pytest
from hypothesis import given, settings, strategies as st

from oracles import even_cover_sum_by_matchings, even_cycle_covers
from snarkforge.coloring import _count_frontier, count_decompositions
from snarkforge.errors import DomainError
from snarkforge.graph import Graph, contract_removed_edge
from snarkforge.covers import even_cover_sum, kaszonyi_sum_check
from snarkforge.construct import dot_product, flower, petersen, superpose_52
from snarkforge.isomorphism import edge_orbits
from strategies import cubic_graphs


class TestEvenCycleCovers:
    def test_wheel_has_exactly_the_rim(self, W_parts):
        W, spokes, rim = W_parts
        covers = even_cycle_covers(W, spokes[0], spokes[2])
        assert len(covers) == 1
        (cover,) = covers
        assert cover.cycle_count == 1
        assert cover.edge_pairs() == {r.pair for r in rim}

    def test_cover_shape_invariants(self, J5):
        reduced, d1, d2 = contract_removed_edge(J5, 0)
        covers = even_cycle_covers(reduced, d1, d2)
        assert covers
        for cover in covers:
            verts = [v for c in cover.cycles for v in c.vertices]
            assert sorted(verts) == list(range(reduced.n))  # spanning, disjoint
            for cyc in cover.cycles:
                assert len(cyc) % 2 == 0
            assert d1.pair not in cover.edge_pairs()
            assert d2.pair not in cover.edge_pairs()

    def test_sum_matches_matching_oracle(self, W_parts, J5):
        W, spokes, _ = W_parts
        cases = [(W, spokes[0].index, spokes[2].index)]
        reduced, d1, d2 = contract_removed_edge(J5, 0)
        cases.append((reduced, d1.index, d2.index))
        sp = superpose_52(petersen(), 0, petersen(), 0, 6)
        e = sp.map_star_edge(petersen(), (1, 2))
        reduced2, e1, e2 = contract_removed_edge(sp.graph, e)
        cases.append((reduced2, e1.index, e2.index))
        for g, a, b in cases:
            mine = sum(2 ** c.cycle_count for c in even_cycle_covers(g, a, b))
            assert mine == even_cover_sum_by_matchings(g, a, b)

    def test_wheel_power_sum(self, W_parts):
        W, spokes, _ = W_parts
        total = sum(
            2 ** c.cycle_count for c in even_cycle_covers(W, spokes[0], spokes[2])
        )
        assert total == 2


@st.composite
def hosts_with_edge_pairs(draw):
    """A random cubic graph (possibly disconnected) and two distinct edges
    of it, adjacent or not."""
    g = draw(cubic_graphs(16))
    d1, d2 = draw(st.lists(st.integers(0, g.m - 1), min_size=2, max_size=2, unique=True))
    return g, d1, d2


class TestEvenCoverSum:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(hosts_with_edge_pairs())
    def test_matches_enumeration_and_oracles(self, case):
        g, d1, d2 = case
        total = even_cover_sum(g, d1, d2)
        assert total == sum(2 ** c.cycle_count for c in even_cycle_covers(g, d1, d2))
        assert total == even_cover_sum_by_matchings(g, d1, d2)
        if g.is_connected():
            # colorings with both edges colored 1: the other two colors
            # alternate around each cycle of an all-even 2-factor
            assert total == _count_frontier(g, {d1: 1, d2: 1})

    def test_non_cubic_rejected(self):
        square = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(DomainError):
            even_cover_sum(square, 0, 1)

    @pytest.mark.parametrize(
        "k, neds",
        [
            (9, [126, 258, 129, 255]),
            (11, [510, 1026, 513, 1023]),
            (13, [2046, 4098, 2049, 4095]),
        ],
    )
    def test_two_route_pins_at_scale(self, k, neds):
        g = flower(k)
        got = []
        for orbit in edge_orbits(g):
            reduced, d1, d2 = contract_removed_edge(g, orbit[0])
            ned = count_decompositions(reduced)
            assert 3 * even_cover_sum(reduced, d1, d2) == 2 * ned
            got.append(ned)
        assert got == neds


class TestSumCheck:
    def test_wheel_identity(self, W_parts):
        W, spokes, _ = W_parts
        assert kaszonyi_sum_check(W, spokes[0], spokes[2]) == (3, 3, True)

    def test_reduced_flower(self, J5):
        reduced, d1, d2 = contract_removed_edge(J5, 0)
        lhs, rhs, equal = kaszonyi_sum_check(reduced, d1, d2)
        assert equal and lhs == rhs

    def test_reduced_superposition(self):
        P = petersen()
        sp = superpose_52(P, 0, P, 0, 6)
        e = sp.map_star_edge(P, (1, 2))
        reduced, d1, d2 = contract_removed_edge(sp.graph, e)
        lhs, rhs, equal = kaszonyi_sum_check(reduced, d1, d2)
        assert equal and lhs == 6

    def test_reduced_dot_product(self):
        P = petersen()
        dp = dot_product(P, 0, 7, P, 0, 1)
        # pick an edge away from the connecting cut
        e = dp.map_star_edge(P, (7, 9))
        reduced, d1, d2 = contract_removed_edge(dp.graph, e)
        lhs, rhs, equal = kaszonyi_sum_check(reduced, d1, d2)
        assert equal and lhs == rhs

    def test_non_orthogonal_pair_rejected(self, W):
        u, v = W.edges[0]
        other = next(i for i in W.incident_edges(u) if i != 0)
        with pytest.raises(DomainError):
            kaszonyi_sum_check(W, 0, other)

    def test_uncolorable_host_rejected(self, P):
        with pytest.raises(DomainError):
            kaszonyi_sum_check(P, 0, 7)
