"""Hypothesis strategies for random test inputs."""

from __future__ import annotations

import functools
import random

import networkx as nx
from hypothesis import assume, strategies as st

from snarkforge.graph import Graph, girth

seeds = st.integers(0, 2**32 - 1)


def random_cubic_union(parts: list[tuple[int, int]]) -> Graph:
    """Disjoint union of networkx random cubic graphs, one for each
    (order, seed) pair, relabeled consecutively."""
    pairs = []
    offset = 0
    for order, seed in parts:
        G = nx.random_regular_graph(3, order, seed=seed)
        pairs += [(u + offset, v + offset) for u, v in G.edges()]
        offset += order
    return Graph.from_edges(offset, pairs)


@st.composite
def cubic_graphs(draw, max_n: int) -> Graph:
    """A networkx random cubic graph of order 4..max_n, or the disjoint
    union of two such graphs with at most max_n vertices in all."""
    first = draw(st.sampled_from(range(4, max_n + 1, 2)))
    parts = [(first, draw(seeds))]
    if first + 4 <= max_n and draw(st.booleans()):
        parts.append((draw(st.sampled_from(range(4, max_n - first + 1, 2))), draw(seeds)))
    return random_cubic_union(parts)


@st.composite
def girth4_cubic(draw) -> Graph:
    """A connected networkx random cubic graph of order 6..18 and girth at
    least 4, the hosts that edge smoothing accepts."""
    n = draw(st.sampled_from(range(6, 19, 2)))
    G = nx.random_regular_graph(3, n, seed=draw(seeds))
    assume(nx.is_connected(G))
    g = Graph.from_edges(n, G.edges())
    assume(girth(g) >= 4)
    return g


@st.composite
def planted_cut_graphs(draw, max_side: int) -> Graph:
    """Two random cubic graphs of order 4..max_side joined across a planted
    cut of s = 2..6 edges, relabeled at random.

    Each side frees s half-edges on s distinct vertices: for odd s it loses
    one vertex, which frees its three neighbors, and then it loses random
    disjoint edges away from the free vertices until s ends are free.  A
    random bijection joins the free ends of one side to those of the
    other; no vertex takes two cut edges, so no multiple edge arises.
    """
    s = draw(st.integers(2, 6))
    sides = []
    for _ in range(2):
        order = draw(st.sampled_from(range(4, max_side + 1, 2)))
        rng = random.Random(draw(seeds))
        G = nx.random_regular_graph(3, order, seed=rng.randrange(2**32))
        free: list[int] = []
        if s % 2:
            x = rng.randrange(order)
            free += G.neighbors(x)
            G.remove_node(x)
        for u, v in rng.sample(sorted(G.edges()), G.number_of_edges()):
            if len(free) == s:
                break
            if u not in free and v not in free:
                G.remove_edge(u, v)
                free += [u, v]
        assume(len(free) == s)
        sides.append((G, free))
    (A, free_a), (B, free_b) = sides
    relabel = draw(st.permutations(range(len(A) + len(B))))
    name_a = dict(zip(sorted(A), relabel))
    name_b = dict(zip(sorted(B), relabel[len(A):]))
    pairs = [(name_a[u], name_a[v]) for u, v in A.edges()]
    pairs += [(name_b[u], name_b[v]) for u, v in B.edges()]
    cross = draw(st.permutations(free_b))
    pairs += [(name_a[u], name_b[v]) for u, v in zip(free_a, cross)]
    return Graph.from_edges(len(A) + len(B), pairs)


def prism_graph(k: int) -> Graph:
    """The prism C_k x K2: two k-cycles joined rung by rung."""
    pairs = [(i, (i + 1) % k) for i in range(k)]
    pairs += [(k + i, k + (i + 1) % k) for i in range(k)]
    pairs += [(i, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, pairs)


def moebius_ladder(k: int) -> Graph:
    """The Moebius ladder on 2k vertices: a 2k-cycle plus its k diameters."""
    pairs = [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
    pairs += [(i, i + k) for i in range(k)]
    return Graph.from_edges(2 * k, pairs)


def generalized_petersen(n: int, s: int) -> Graph:
    """GP(n, s): an outer n-cycle, spokes, and inner vertices joined s
    steps apart (2s < n, so the graph is cubic and simple)."""
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(i, n + i) for i in range(n)]
    pairs += [(n + i, n + (i + s) % n) for i in range(n)]
    return Graph.from_edges(2 * n, pairs)


def subdivided_k33(offset: int) -> list[tuple[int, int]]:
    """K3,3 on offset..offset+5 with its edge (offset, offset+3) subdivided
    by offset+6, the one 2-valent vertex."""
    pairs = [(offset + a, offset + 3 + b) for a in range(3) for b in range(3) if a or b]
    return pairs + [(offset, offset + 6), (offset + 6, offset + 3)]


# two subdivided K3,3s joined at their 2-valent vertices: cubic, girth 4,
# and (6, 13) is a bridge
BRIDGED = Graph.from_edges(14, subdivided_k33(0) + subdivided_k33(7) + [(6, 13)])


# builders of edge-transitive or nearly edge-transitive cubic graphs, by
# name; GP(5,2) is the Petersen graph
SYMMETRIC_CUBIC = {
    **{f"prism {k}": functools.partial(prism_graph, k) for k in range(4, 10)},
    **{f"moebius {k}": functools.partial(moebius_ladder, k) for k in range(4, 10)},
    **{f"GP({n},2)": functools.partial(generalized_petersen, n, 2) for n in range(5, 13)},
    **{f"GP({n},3)": functools.partial(generalized_petersen, n, 3) for n in range(7, 13)},
}
