import pytest

from oracles import count_ec_by_factorization
from snarkforge.errors import DomainError
from snarkforge.graph import (
    contract_removed_edge,
    girth,
    is_cubic,
    is_quasi_cubic,
    list_pentagons,
    univalent_vertices,
)
from snarkforge.coloring import (
    count_colorings,
    count_decompositions,
    enumerate_colorings,
    enumerate_decompositions,
)
from snarkforge.analyze import is_snark
from snarkforge.construct import (
    dot_product,
    flower,
    pentagon_join,
    remove_pentagon,
    superpose_52,
)
from snarkforge.graph6 import encode_graph6
from snarkforge.isomorphism import is_isomorphic


class TestNamedGraphs:
    def test_petersen_shape(self, P):
        assert (P.n, P.m) == (10, 15)
        assert girth(P) == 5
        assert count_colorings(P) == 0

    def test_wheel_parts(self, W_parts):
        W, spokes, rim = W_parts
        assert (W.n, W.m) == (8, 12)
        assert [s.pair for s in spokes] == [(0, 4), (1, 5), (2, 6), (3, 7)]
        assert rim[0].pair == (0, 1) and rim[7].pair == (0, 7)
        assert count_decompositions(W) == 3

    def test_wheel_is_every_smoothed_petersen(self, P, W):
        for i in range(P.m):
            reduced, _, _ = contract_removed_edge(P, i)
            assert is_isomorphic(reduced, W)

    def test_flower5(self, J5):
        assert (J5.n, J5.m) == (20, 30)
        assert count_colorings(J5) == 0
        assert len(list_pentagons(J5)) == 1

    def test_flower7(self):
        J7 = flower(7)
        assert (J7.n, J7.m) == (28, 42)
        assert girth(J7) == 6
        assert len(list_pentagons(J7)) == 0

    def test_flower_rejects_bad_orders(self):
        for n in (3, 4, 6, -1):
            with pytest.raises(DomainError):
                flower(n)


class TestRemovePentagon:
    def test_stubs_sit_on_pentagon_vertices(self, P):
        p = list_pentagons(P)[0]
        reduced, pendants = remove_pentagon(P, p)
        assert is_quasi_cubic(reduced)
        assert sorted(univalent_vertices(reduced)) == sorted(p.vertices)
        for k, ref in enumerate(pendants):
            assert p.vertices[k] in ref.pair

    def test_decomposition_count(self, P):
        p = list_pentagons(P)[0]
        reduced, _ = remove_pentagon(P, p)
        assert count_decompositions(reduced) == 5

    def test_majority_stubs_never_consecutive(self, P, J5):
        # a consecutive same-colored triple would extend to a coloring of
        # the uncolorable host, so every decomposition shows the spread
        # pattern instead
        for g in [P, J5]:
            p = list_pentagons(g)[0]
            reduced, pendants = remove_pentagon(g, p)
            for rep in enumerate_decompositions(reduced):
                cols = [rep.colors[x.index] for x in pendants]
                consecutive = any(
                    cols[k] == cols[(k + 1) % 5] == cols[(k + 2) % 5]
                    for k in range(5)
                )
                spread = any(
                    cols[(k - 2) % 5] == cols[k] == cols[(k + 2) % 5]
                    for k in range(5)
                )
                assert spread and not consecutive

    def test_rejects_non_pentagon(self, P):
        from snarkforge.graph import Cycle

        with pytest.raises(DomainError):
            remove_pentagon(P, Cycle.from_vertices([0, 1, 2, 3, 5]))


class TestPentagonJoin:
    def test_two_petersens(self, P):
        p = list_pentagons(P)[0]
        res = pentagon_join(P, p, P, p)
        assert (res.graph.n, res.graph.m) == (10, 15)
        assert is_cubic(res.graph)
        assert count_colorings(res.graph) == 0
        assert count_ec_by_factorization(res.graph) == 0
        assert len(res.connecting_edges) == 5
        assert is_snark(res.graph)

    def test_join_of_petersens_observed_isomorphic_to_petersen(self, P):
        # recorded observation for this particular input pair; the join is
        # not claimed to reproduce the host in general
        p = list_pentagons(P)[0]
        res = pentagon_join(P, p, P, p)
        observed = is_isomorphic(res.graph, P)
        print(f"pentagon_join(P,P) isomorphic to Petersen: {observed}")
        assert isinstance(observed, bool)

    def test_double_star_size(self, J5):
        p = list_pentagons(J5)[0]
        res = pentagon_join(J5, p, J5, p)
        assert res.graph.n == 30
        assert is_snark(res.graph)

    def test_every_rotation_stays_uncolorable(self, P):
        p = list_pentagons(P)[0]
        for rot in range(5):
            res = pentagon_join(P, p, P, p, rotation=rot)
            assert count_colorings(res.graph) == 0

    def test_mixed_join_certifies(self, P, J5):
        res = pentagon_join(J5, list_pentagons(J5)[0], P, list_pentagons(P)[0])
        assert res.graph.n == 20
        assert is_snark(res.graph)

    def test_rejects_pentagon_free_host(self, P):
        J7 = flower(7)
        with pytest.raises(DomainError):
            pentagon_join(J7, list_pentagons(P)[0], P, list_pentagons(P)[0])


class TestSuperpose52:
    def test_two_petersens_shape(self, P):
        res = superpose_52(P, 0, P, 0, 6)
        assert (res.graph.n, res.graph.m) == (22, 33)
        assert is_cubic(res.graph)
        assert count_colorings(res.graph) == 0
        assert len(res.connecting_edges) == 14
        assert len(res.new_vertices) == 6

    def test_blocks_are_induced_subgraphs(self, P):
        res = superpose_52(P, 0, P, 0, 6)
        for vmap in (res.star_map, res.prime_map):
            wanted = {
                tuple(sorted((vmap[a], vmap[b])))
                for a, b in P.edges
                if a in vmap and b in vmap
            }
            block = set(vmap.values())
            found = {
                (a, b) for a, b in res.graph.edges if a in block and b in block
            }
            assert found == wanted  # original adjacency, nothing extra

    def test_certifies_as_snark(self, P):
        res = superpose_52(P, 0, P, 0, 6)
        assert is_snark(res.graph)

    def test_shared_neighbor_vertices_allowed(self, P):
        # vertices 0 and 2 share neighbor 1
        res = superpose_52(P, 0, P, 0, 2)
        assert is_cubic(res.graph)
        assert res.graph.n == 22
        assert count_colorings(res.graph) == 0

    def test_rejects_adjacent_pair(self, P):
        with pytest.raises(DomainError):
            superpose_52(P, 0, P, 0, 5)


class TestDotProduct:
    def test_two_petersens(self, P):
        res = dot_product(P, 0, 7, P, 0, 1)
        assert (res.graph.n, res.graph.m) == (18, 27)
        assert is_cubic(res.graph) and girth(res.graph) == 5
        assert count_colorings(res.graph) == 0
        assert count_ec_by_factorization(res.graph) == 0
        assert is_snark(res.graph)

    def test_both_wirings_give_snarks(self, P):
        for wiring in ("parallel", "crossed"):
            res = dot_product(P, 0, 7, P, 0, 1, wiring=wiring)
            assert count_colorings(res.graph) == 0

    def test_connecting_cut_has_zero_color_sum(self, P):
        # remove an edge away from the connection; in every coloring of
        # the smoothed graph the four splice edges sum to zero
        from snarkforge.klein import ZERO, group_add

        res = dot_product(P, 0, 7, P, 0, 1)
        inner = res.map_star_edge(P, (7, 9))
        reduced, _, _ = contract_removed_edge(res.graph, inner)
        dropped = sorted(inner.pair)
        relabel = {
            v: v - sum(1 for d in dropped if d < v)
            for v in range(res.graph.n)
            if v not in dropped
        }
        cut_pairs = [
            (relabel[a], relabel[b])
            for a, b in (res.graph.edges[i] for i in res.connecting_edges)
        ]
        for coloring in enumerate_colorings(reduced):
            total = 0
            for pair in cut_pairs:
                total = group_add(total, coloring.colors[reduced.edge_index(*pair)])
            assert total == ZERO

    def test_rejects_bad_choices(self, P):
        with pytest.raises(DomainError):
            dot_product(P, 0, 1, P, 0, 1)  # adjacent edges
        with pytest.raises(DomainError):
            dot_product(P, 0, 7, P, 0, 6)  # non-adjacent vertices
        with pytest.raises(DomainError):
            dot_product(P, 0, 7, P, 0, 1, wiring="diagonal")


def _joins(P, J5):
    p, s = list_pentagons(P)[0], list_pentagons(P)[4]  # (0,1,2,3,4), (0,4,3,8,5)
    return {
        "pentagon P.P rot 0": pentagon_join(P, p, P, s, 0),
        "pentagon P.P rot 2": pentagon_join(P, p, P, s, 2),
        "pentagon P.J5": pentagon_join(P, s, J5, list_pentagons(J5)[0]),
        "superpose P into P": superpose_52(P, 0, P, 0, 6),
        "dot parallel": dot_product(P, 0, 7, P, 0, 1, "parallel"),
        "dot crossed": dot_product(P, 0, 7, P, 0, 1, "crossed"),
    }


_IDENTITY = {v: v for v in range(10)}
_DOT_STAR = {2: 10, 3: 11, 4: 12, 5: 13, 6: 14, 7: 15, 8: 16, 9: 17}
GOLDEN = {
    "pentagon P.P rot 0": (
        "IUYAGWaCW",
        {5: 0, 6: 1, 7: 2, 8: 3, 9: 4},
        {1: 5, 2: 6, 6: 7, 7: 8, 9: 9},
        (2, 5, 7, 8, 9),
        (),
    ),
    "pentagon P.P rot 2": (
        "IUWKGhAGW",
        {5: 0, 6: 1, 7: 2, 8: 3, 9: 4},
        {1: 5, 2: 6, 6: 7, 7: 8, 9: 9},
        (2, 5, 7, 8, 9),
        (),
    ),
    "pentagon P.J5": (
        "SqK??????C_g?g?S?cCGOG`?HA?`AA?`?",
        {1: 0, 2: 1, 6: 2, 7: 3, 9: 4},
        {v: v for v in range(5, 20)},
        (2, 4, 6, 8, 9),
        (),
    ),
    "superpose P into P": (
        "UgAQpW??G?_@???C_@O?IGG??CG_CK@????`A?CG",
        {2: 0, 3: 1, 4: 2, 5: 3, 6: 4, 7: 5, 8: 6, 9: 7},
        {1: 8, 2: 9, 3: 10, 4: 11, 5: 12, 7: 13, 8: 14, 9: 15},
        (2, 6, 9, 12, 15, 16, 22, 25, 27, 28, 29, 30, 31, 32),
        (16, 17, 18, 19, 20, 21),
    ),
    "dot parallel": (
        "QHaA@GUAo_?@_@O?@???Q?@W?Ao", _IDENTITY, _DOT_STAR, (2, 5, 9, 11), ()
    ),
    "dot crossed": (
        "QHaA@GUAo_?@O@_?@???Q?@W?Ao", _IDENTITY, _DOT_STAR, (2, 5, 9, 11), ()
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_join_outputs_are_pinned(P, J5, name):
    # the graph, both block maps, the connecting edges and the fresh
    # vertices of each construction, byte for byte
    res = _joins(P, J5)[name]
    got = (
        encode_graph6(res.graph),
        res.prime_map,
        res.star_map,
        res.connecting_edges,
        res.new_vertices,
    )
    assert got == GOLDEN[name]
