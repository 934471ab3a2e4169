import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    chain_by_dfs,
    cocyclic_factors_by_matchings,
    cocyclic_pairs_by_naive_colorings,
    naive_count_colorings,
    orthogonal_by_decompositions,
)
from snarkforge import kempe
from snarkforge.errors import DomainError
from snarkforge.graph import (
    Graph,
    contract_removed_edge,
    delete_edges,
    delete_vertices,
    list_pentagons,
)
from snarkforge.klein import A, B, C, COLORS
from snarkforge.coloring import EdgeColoring, count_decompositions, enumerate_colorings
from snarkforge.construct import flower, petersen, remove_pentagon
from snarkforge.isomorphism import edge_orbits
from snarkforge.ledger import superpose_chain_family
from snarkforge.recipe import evaluate_text
from snarkforge.kempe import (
    KempeChain,
    are_orthogonal,
    cocyclic_factor_count,
    color_pair_counts,
    kempe_chain,
    kempe_chain_two_colors,
    kempe_swap,
    orthogonal_pairs,
)
from strategies import cubic_graphs


def all_chains(coloring):
    g = coloring.graph
    for x, y in ((1, 2), (1, 3), (2, 3)):
        done = set()
        for i in range(g.m):
            if i in done or coloring.colors[i] not in (x, y):
                continue
            chain = kempe_chain_two_colors(coloring, x, y, i)
            done |= chain.edge_indexes
            yield chain


class TestChains:
    def test_cubic_chains_are_cycles(self, W):
        for coloring in enumerate_colorings(W):
            for chain in all_chains(coloring):
                assert chain.is_cycle
                assert chain.endpoints == ()
                assert len(chain.edge_indexes) % 2 == 0

    def test_same_pair_chains_disjoint(self, W, P):
        g = delete_edges(P, list_pentagons(P)[0].edge_pairs())
        for host_coloring in list(enumerate_colorings(W)) + list(enumerate_colorings(g)):
            for x, y in ((1, 2), (1, 3), (2, 3)):
                seen_vertices = set()
                done = set()
                for i in range(host_coloring.graph.m):
                    if i in done or host_coloring.colors[i] not in (x, y):
                        continue
                    chain = kempe_chain_two_colors(host_coloring, x, y, i)
                    done |= chain.edge_indexes
                    verts = {
                        v
                        for j in chain.edge_indexes
                        for v in host_coloring.graph.edges[j]
                    }
                    assert not verts & seen_vertices
                    seen_vertices |= verts

    def test_pendant_chain_walks_to_the_far_stub(self, P):
        # in the pentagon-free graph, the chain through the pendant edge
        # one step behind the spread triple is a path, and its far end is
        # forced two steps behind -- otherwise the host would be colorable
        p = list_pentagons(P)[0]
        reduced, pendants = remove_pentagon(P, p)
        for coloring in enumerate_colorings(reduced):
            cols = [coloring.colors[pendants[i].index] for i in range(5)]
            ks = [
                k
                for k in range(5)
                if cols[(k - 2) % 5] == cols[k] == cols[(k + 2) % 5]
            ]
            assert len(ks) == 1
            k = ks[0]
            x, y = cols[k], cols[(k - 1) % 5]
            chain = kempe_chain_two_colors(coloring, x, y, pendants[(k - 1) % 5])
            assert chain.kind == "path"
            assert set(chain.endpoints) == {
                p.vertices[(k - 1) % 5],
                p.vertices[(k - 2) % 5],
            }

    def assert_walk_matches_dfs(self, coloring):
        for x, y in ((1, 2), (1, 3), (2, 3)):
            for i in range(coloring.graph.m):
                if coloring.colors[i] not in (x, y):
                    continue
                chain = kempe_chain_two_colors(coloring, x, y, i)
                edges, ends = chain_by_dfs(coloring, x, y, i)
                assert chain.edge_indexes == edges
                assert chain.endpoints == ends
                assert chain.kind == ("path" if ends else "cycle")

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(cubic_graphs(14), st.lists(st.integers(0, 13), max_size=2, unique=True), st.data())
    def test_walk_matches_dfs_on_random_colorings(self, g, drop, data):
        # dropping vertices leaves a quasi-cubic host whose chains can be
        # paths that end on either side of the seed
        g = delete_vertices(g, [v for v in drop if v < g.n])[0]
        assume(g.m and g.is_connected())
        colorings = list(enumerate_colorings(g))
        assume(colorings)
        self.assert_walk_matches_dfs(data.draw(st.sampled_from(colorings)))

    def test_walk_matches_dfs_on_pentagon_removed_petersen(self, P):
        reduced, _ = remove_pentagon(P, list_pentagons(P)[0])
        for coloring in enumerate_colorings(reduced):
            self.assert_walk_matches_dfs(coloring)

    def test_improper_coloring_rejected(self):
        # at vertex 1 the walk could turn off its start edge onto a
        # two-colored cycle it would never leave
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
        colors = [1] * g.m
        colors[g.edge_index(1, 2)] = colors[g.edge_index(3, 4)] = 2
        with pytest.raises(DomainError, match="not proper"):
            kempe_chain_two_colors(EdgeColoring(g, tuple(colors)), 1, 2, (0, 1))

    def test_seed_must_carry_chain_color(self, W):
        coloring = next(enumerate_colorings(W))
        i = next(j for j in range(W.m) if coloring.colors[j] == A)
        with pytest.raises(DomainError):
            kempe_chain_two_colors(coloring, B, C, i)
        with pytest.raises(DomainError):
            kempe_chain(coloring, i, A)


class TestSwap:
    def test_involution_everywhere_on_wheel(self, W):
        for coloring in enumerate_colorings(W):
            for chain in all_chains(coloring):
                swapped = kempe_swap(coloring, chain)
                assert swapped.is_proper()
                back_chain = kempe_chain_two_colors(
                    swapped, *sorted(chain.colors), next(iter(chain.edge_indexes))
                )
                assert back_chain.edge_indexes == chain.edge_indexes
                assert kempe_swap(swapped, back_chain) == coloring

    def test_involution_sampled_on_larger_hosts(self, P, J5):
        rng = random.Random(11)
        hosts = [
            delete_edges(P, list_pentagons(P)[0].edge_pairs()),
            contract_removed_edge(J5, 0)[0],
        ]
        for g in hosts:
            pool = list(enumerate_colorings(g))
            for coloring in rng.sample(pool, min(100, len(pool))):
                chains = list(all_chains(coloring))
                chain = rng.choice(chains)
                swapped = kempe_swap(coloring, chain)
                assert swapped.is_proper()
                again = kempe_chain_two_colors(
                    swapped, *sorted(chain.colors), next(iter(chain.edge_indexes))
                )
                assert kempe_swap(swapped, again) == coloring

    def test_rim_swap_exchanges_the_two_pinned_colorings(self, W_parts):
        W, spokes, rim = W_parts
        f0, f2 = spokes[0], spokes[2]
        pinned = [
            c
            for c in enumerate_colorings(W)
            if c.colors[f0.index] == A and c.colors[f2.index] == A
        ]
        assert len(pinned) == 2
        first, second = pinned
        chain = kempe_chain_two_colors(first, B, C, rim[0])
        assert chain.is_cycle and len(chain.edge_indexes) == 8
        assert kempe_swap(first, chain) == second

    def test_partial_chain_rejected(self, W):
        # swapping only part of a two-colored cycle leaves a clash
        coloring = next(enumerate_colorings(W))
        chain = kempe_chain(coloring, 0, B if coloring.colors[0] != B else C)
        part = KempeChain(
            coloring, chain.colors, frozenset({0}), chain.kind, chain.endpoints
        )
        with pytest.raises(DomainError):
            kempe_swap(coloring, part)


class TestOrthogonality:
    def test_wheel_spoke_pairs(self, W_parts):
        W, spokes, _ = W_parts
        assert are_orthogonal(W, spokes[0], spokes[2])
        assert are_orthogonal(W, spokes[1], spokes[3])

    def test_adjacent_edges_never_orthogonal(self, W):
        u, v = W.edges[0]
        other = next(i for i in W.incident_edges(u) if i != 0)
        assert not are_orthogonal(W, 0, other)

    def test_uncolorable_host_rejected(self, P):
        with pytest.raises(DomainError):
            are_orthogonal(P, 0, 7)

    def test_identical_edges_rejected(self, W):
        with pytest.raises(DomainError):
            are_orthogonal(W, 0, 0)

    def test_inserted_edges_orthogonal_at_every_orbit(self):
        # theorem 3.3: in a colorable smoothed snark the two inserted edges
        # are orthogonal; random pairs almost never are, so pin the
        # positive cases on the library's own snarks, where a fold that
        # lets a one-mark cycle close or does not require the marked
        # edges counts factors
        hosts = [petersen(), flower(5), flower(7), flower(9), flower(11)]
        hosts += [evaluate_text(r) for r in list(superpose_chain_family(2))[1:]]
        colorable = 0
        for g in hosts:
            for orbit in edge_orbits(g):
                reduced, d1, d2 = contract_removed_edge(g, orbit[0])
                assert cocyclic_factor_count(reduced, d1, d2) == 0
                if count_decompositions(reduced):
                    colorable += 1
                    assert are_orthogonal(reduced, d1, d2)
                    assert orthogonal_by_decompositions(reduced, d1.index, d2.index)
                else:
                    with pytest.raises(DomainError):
                        are_orthogonal(reduced, d1, d2)
        assert colorable == 1 + 4 + 4 + 4 + 4 + 17 + 25

    @pytest.mark.parametrize("wiring", ["parallel", "crossed"])
    def test_every_pair_of_dot_product_reductions(self, wiring):
        # both dot products of two Petersen graphs, smoothed at edge 20:
        # the fold decides every edge pair as the census walks them
        dp = evaluate_text(
            f"(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1 wiring={wiring})"
        )
        reduced, d1, d2 = contract_removed_edge(dp, 20)
        census = set(orthogonal_pairs(reduced))
        assert (min(d1.index, d2.index), max(d1.index, d2.index)) in census
        for i in range(reduced.m):
            for j in range(i + 1, reduced.m):
                count = cocyclic_factor_count(reduced, i, j)
                assert (count == 0) == ((i, j) in census) == are_orthogonal(reduced, i, j)


@st.composite
def colorable_hosts_with_pairs(draw):
    """A connected colorable random cubic graph and three distinct-edge
    pairs of it."""
    g = draw(cubic_graphs(14))
    assume(g.is_connected() and naive_count_colorings(g) > 0)
    pair = st.lists(st.integers(0, g.m - 1), min_size=2, max_size=2, unique=True)
    return g, [tuple(draw(pair)) for _ in range(3)]


class TestAgainstNaiveColorings:
    @pytest.mark.parametrize(
        "recipe, e", [("(petersen)", 0), ("(flower 5)", 0), ("(flower 5)", 2)]
    )
    def test_smoothed_snarks_with_orthogonal_pairs(self, recipe, e):
        g = contract_removed_edge(evaluate_text(recipe), e)[0]
        cocyclic = cocyclic_pairs_by_naive_colorings(g)
        expected = [
            (i, j) for i in range(g.m) for j in range(i + 1, g.m) if (i, j) not in cocyclic
        ]
        assert expected
        assert orthogonal_pairs(g) == expected
        for i in range(g.m):
            for j in range(i + 1, g.m):
                assert are_orthogonal(g, i, j) == ((i, j) in expected)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(colorable_hosts_with_pairs())
    def test_orthogonality_matches_oracle(self, case):
        g, pairs = case
        cocyclic = cocyclic_pairs_by_naive_colorings(g)
        for i, j in pairs:
            assert are_orthogonal(g, i, j) == ((min(i, j), max(i, j)) not in cocyclic)
        assert orthogonal_pairs(g) == [
            (i, j)
            for i in range(g.m)
            for j in range(i + 1, g.m)
            if (i, j) not in cocyclic
        ]


@st.composite
def hosts_with_pairs(draw, max_n: int):
    """A random cubic graph, possibly disconnected or uncolorable, and two
    distinct edges of it, adjacent or not."""
    g = draw(cubic_graphs(max_n))
    d1, d2 = draw(st.lists(st.integers(0, g.m - 1), min_size=2, max_size=2, unique=True))
    return g, d1, d2


class TestCocyclicFactorCount:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(hosts_with_pairs(14))
    def test_matches_matchings_and_the_enumeration(self, case):
        g, d1, d2 = case
        if not g.is_connected():
            with pytest.raises(DomainError):
                are_orthogonal(g, d1, d2)
            return
        count = cocyclic_factor_count(g, d1, d2)
        assert count == cocyclic_factors_by_matchings(g, d1, d2)
        try:
            expected = orthogonal_by_decompositions(g, d1, d2)
        except DomainError:
            assert count == 0
            with pytest.raises(DomainError):
                are_orthogonal(g, d1, d2)
        else:
            assert are_orthogonal(g, d1, d2) == expected == (count == 0)

    def test_wheel_spokes_and_rim(self, W_parts):
        W, spokes, rim = W_parts
        assert cocyclic_factor_count(W, spokes[0], spokes[2]) == 0
        # of the wheel's seven 2-factors, four Hamiltonian cycles and one
        # pair of 4-cycles hold both rim edges on one cycle
        assert cocyclic_factor_count(W, rim[0], rim[4]) == 5

    def test_non_cubic_host_rejected(self, P):
        reduced = remove_pentagon(P, list_pentagons(P)[0])[0]
        with pytest.raises(DomainError):
            cocyclic_factor_count(reduced, 0, 1)


class TestColorPairCounts:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(hosts_with_pairs(16))
    def test_cells_match_the_enumerated_table(self, case):
        g, d1, d2 = case
        if not g.is_connected():
            with pytest.raises(DomainError):
                color_pair_counts(g, d1, d2)
            return
        table = {(x, y): 0 for x in COLORS for y in COLORS}
        for coloring in enumerate_colorings(g):
            table[(coloring.colors[d1], coloring.colors[d2])] += 1
        assert color_pair_counts(g, d1, d2) == table

    def test_uncolorable_host_gives_zero_cells(self, P):
        assert set(color_pair_counts(P, 0, 7).values()) == {0}

    @pytest.mark.parametrize("cell", [(x, y) for x in COLORS for y in COLORS])
    def test_each_cell_is_its_own_count(self, W_parts, monkeypatch, cell):
        # a wrong count under one pin pair shows in that cell and in no
        # other, so no cell is copied from another across a permutation
        W, spokes, _ = W_parts
        i, j = spokes[0].index, spokes[2].index
        real = kempe._count_frontier

        def faulty(g, fixed=None):
            return real(g, fixed) + (fixed == {i: cell[0], j: cell[1]})

        monkeypatch.setattr(kempe, "_count_frontier", faulty)
        table = color_pair_counts(W, i, j)
        assert table == {key: 2 + (key == cell) for key in table}

    def test_wheel_table_flat(self, W_parts):
        W, spokes, _ = W_parts
        table = color_pair_counts(W, spokes[0], spokes[2])
        assert set(table.values()) == {2}

    def test_table_partitions_colorings(self, W_parts):
        W, spokes, _ = W_parts
        table = color_pair_counts(W, spokes[0], spokes[1])
        assert sum(table.values()) == 18

    def test_adjacent_pair_diagonal_zero(self, W):
        u, v = W.edges[0]
        other = next(i for i in W.incident_edges(u) if i != 0)
        table = color_pair_counts(W, 0, other)
        assert all(table[(x, x)] == 0 for x in COLORS)


class TestOrthogonalPairs:
    def test_wheel_census(self, W_parts):
        W, spokes, _ = W_parts
        pairs = orthogonal_pairs(W)
        expected = {
            tuple(sorted((spokes[0].index, spokes[2].index))),
            tuple(sorted((spokes[1].index, spokes[3].index))),
        }
        assert expected <= set(pairs)
        # and on this host there is nothing else
        assert set(pairs) == expected

    def test_pairs_never_adjacent(self, W):
        for i, j in orthogonal_pairs(W):
            assert not set(W.edges[i]) & set(W.edges[j])

    def test_agrees_with_pairwise_predicate(self, W):
        pairs = set(orthogonal_pairs(W))
        for i in range(W.m):
            for j in range(i + 1, W.m):
                assert ((i, j) in pairs) == are_orthogonal(W, i, j)
