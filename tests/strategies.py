"""Hypothesis strategies for random test inputs."""

from __future__ import annotations

import networkx as nx
from hypothesis import strategies as st

from snarkforge.graph import Graph

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
