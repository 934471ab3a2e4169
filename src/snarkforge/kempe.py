"""Kempe chains: the maximal two-colored connected subgraphs of an
edge-3-coloring, the color-interchange move on them, and the derived
orthogonality predicate for edge pairs of a colorable cubic graph.

The chain API (kempe_chain_two_colors, kempe_chain, kempe_swap) works on
any host of maximum valence 3, where a chain may be a path.  The
orthogonality predicates take cubic hosts only, where every vertex
carries each color once, so each two-colored subgraph is 2-regular and
every chain is a cycle, of even length because its colors alternate.

Orthogonality is counted, not enumerated, by a 2-factor argument.  The
two classes x, y of a coloring form an all-even 2-factor whose cycles are
its xy-chains.  Conversely, an all-even 2-factor F gives a coloring whose
{1, 2}-chains are exactly F's cycles: alternate 1 and 2 around each cycle
and color the complement, a perfect matching, 3.  So d1 and d2 lie on a
common two-colored cycle in some coloring iff some all-even 2-factor has
both on one cycle, which are_orthogonal counts with graph.two_factor_fold
(``cocyclic_factor_count``).  The census orthogonal_pairs walks colorings,
which settles every pair in one pass: a color permutation pi maps every
xy-cycle onto a pi(x)pi(y)-cycle with the same edges, so one pinned
coloring per decomposition (enumerate_decompositions) stands for all six.
The census and the chain API walk chains with one routine (``_chain_walk``),
which takes at each vertex the one edge of the other color of the pair.
The color-pair table is nine pinned counts of the coloring kernel.
"""

from __future__ import annotations

from .errors import DomainError
from .graph import EdgeLike, Graph, is_cubic, resolve_edge, two_factor_fold
from .klein import COLORS
from .value import Value
from .coloring import (
    EdgeColoring,
    _check_colorable_shape,
    _count_frontier,
    count_decompositions,
    enumerate_decompositions,
)


class KempeChain(Value):
    """A maximal connected subgraph carrying exactly two colors.  Either a
    path whose two endpoints are univalent in the host, or a cycle."""

    coloring: EdgeColoring
    colors: frozenset[int]
    edge_indexes: frozenset[int]
    kind: str  # "path" or "cycle"
    endpoints: tuple[int, ...]  # the univalent path ends; empty for cycles

    @property
    def is_cycle(self) -> bool:
        return self.kind == "cycle"


def _chain_walk(
    g: Graph, colors: tuple[int, ...], start: int, pair: tuple[int, int]
) -> tuple[list[int], tuple[int, ...]]:
    """The chain of the proper coloring ``colors`` through edge ``start``
    for the color pair ``pair``, on a host of maximum valence 3: (its
    edges in the order walked, its sorted path ends, empty for a cycle).

    From each vertex the walk takes the one edge of the pair's color that
    it did not arrive by.  It leaves ``start`` through its second endpoint
    and returns as soon as it comes back to ``start``; only on reaching a
    path end does it walk out of the first endpoint as well."""
    flip = pair[0] ^ pair[1]
    edges = [start]
    ends = []
    for v in reversed(g.edges[start]):
        e = start
        while True:
            want = colors[e] ^ flip
            for e in g.incident_edges(v):
                if colors[e] == want:
                    break
            else:
                ends.append(v)
                break
            if e == start:
                return edges, ()
            edges.append(e)
            v = sum(g.edges[e]) - v
    return edges, tuple(sorted(ends))


def kempe_chain_two_colors(
    coloring: EdgeColoring, x: int, y: int, seed: EdgeLike
) -> KempeChain:
    """The unique maximal connected xy-colored subgraph through the seed
    edge, which must itself be colored x or y.  The coloring must be
    proper: elsewhere a vertex may offer the walk two ways on."""
    if x == y or x not in COLORS or y not in COLORS:
        raise DomainError("need two distinct colors")
    g = coloring.graph
    ref = resolve_edge(g, seed)
    if coloring.colors[ref.index] not in (x, y):
        raise DomainError("seed edge does not carry either chain color")
    if not coloring.is_proper():
        raise DomainError("coloring is not proper")
    edges, ends = _chain_walk(g, coloring.colors, ref.index, (x, y))
    kind = "path" if ends else "cycle"
    return KempeChain(coloring, frozenset((x, y)), frozenset(edges), kind, ends)


def kempe_chain(coloring: EdgeColoring, e: EdgeLike, y: int) -> KempeChain:
    """Chain through e for the color pair {color(e), y}."""
    x = coloring.color(e)
    if y == x:
        raise DomainError("second color must differ from the edge's color")
    return kempe_chain_two_colors(coloring, x, y, e)


def kempe_swap(coloring: EdgeColoring, chain: KempeChain) -> EdgeColoring:
    """Interchange the chain's two colors along the chain.  The result is
    again proper, and swapping twice restores the original."""
    if chain.coloring != coloring:
        raise DomainError("chain does not belong to this coloring")
    x, y = sorted(chain.colors)
    flip = x ^ y
    new = list(coloring.colors)
    for i in chain.edge_indexes:
        new[i] ^= flip
    swapped = EdgeColoring(coloring.graph, tuple(new))
    if not swapped.is_proper():
        raise DomainError("chain is not a maximal two-colored chain of this coloring")
    return swapped


def cocyclic_factor_count(h: Graph, d1: EdgeLike, d2: EdgeLike) -> int:
    """Number of all-even 2-factors of the cubic host h that hold d1 and
    d2 on one cycle.  It is positive iff some coloring puts d1 and d2 on a
    common two-colored cycle (see the module docstring), so on a
    colorable host the pair is orthogonal iff it is 0, and a positive
    count also shows the host colorable.

    graph.two_factor_fold with d1 and d2 marked, so that every counted
    factor contains both, and a closing rule that lets only an even cycle
    close and gives weight 0 to a cycle that closes with exactly one
    mark.  Defined for connected cubic hosts and two distinct edges.
    """
    if not is_cubic(h):
        raise DomainError("orthogonality is defined for cubic hosts")
    _check_colorable_shape(h)
    i, j = resolve_edge(h, d1).index, resolve_edge(h, d2).index
    if i == j:
        raise DomainError("need two distinct edges")
    return two_factor_fold(
        h, lambda parity, _last, marks: 0 if parity or marks == 1 else 1, marked=(i, j)
    )


def are_orthogonal(h: Graph, d1: EdgeLike, d2: EdgeLike) -> bool:
    """True iff no coloring of h puts d1 and d2 on a common two-colored
    Kempe cycle.

    Such a coloring exists iff some all-even 2-factor of h holds d1 and d2
    on one cycle: a coloring's two classes x, y form an all-even 2-factor
    whose cycles are its xy-cycles, and an all-even 2-factor with d1 and
    d2 on one cycle C gives the coloring that alternates 1 and 2 around
    every cycle and colors the complement 3, in which C is a {1, 2}-cycle.
    So the pair is orthogonal iff cocyclic_factor_count is 0 on a
    colorable host.  Colorability is counted only then, since a positive
    factor count already shows it.

    Defined for connected colorable cubic hosts; an uncolorable host is a
    domain error, as is d1 == d2.
    """
    if cocyclic_factor_count(h, d1, d2):
        return False
    if not count_decompositions(h):
        raise DomainError("host graph is uncolorable")
    return True


def color_pair_counts(
    h: Graph, d1: EdgeLike, d2: EdgeLike
) -> dict[tuple[int, int], int]:
    """Table (x, y) -> number of colorings with d1 colored x and d2
    colored y.  Keys cover all nine ordered color pairs.

    Each cell is its own count of the coloring kernel with d1 pinned to x
    and d2 to y.  No cell is copied from another across a color
    permutation, which would make "all nine cells are equal" hold by
    symmetry instead of by count."""
    _check_colorable_shape(h)
    i, j = resolve_edge(h, d1).index, resolve_edge(h, d2).index
    return {
        (x, y): _count_frontier(h, {i: x, j: y}) if i != j or x == y else 0
        for x in COLORS
        for y in COLORS
    }


def orthogonal_pairs(h: Graph) -> list[tuple[int, int]]:
    """All unordered pairs of orthogonal edges of a colorable cubic graph.

    One pass over one coloring per decomposition suffices, since a color
    permutation keeps every two-colored cycle's edge set (see the module
    docstring).  In each representative, each of the three color
    pairs splits its edges into cycles, walked one at a time because the
    two-colored subgraph of a cubic host is 2-regular.  Every pair seen
    together on one cycle is struck out, and the survivors are orthogonal.
    Adjacent pairs are always co-cyclic, so they never survive.  One
    cocyclic_factor_count per non-adjacent pair gives the same pairs, but
    on a 2-vCPU Xeon (best of 3 process_time) it took 5.5-7 ms against
    this walk's 0.3 ms at W8, and 67-72 ms against 0.5-0.6 ms at both e20
    reductions of the Petersen dot products.
    """
    if not is_cubic(h):
        raise DomainError("orthogonality is defined for cubic hosts")
    cocyclic = [0] * h.m  # edge -> bitmask of the edges it shares a cycle with
    seen_any = False
    for rep in enumerate_decompositions(h):
        seen_any = True
        for x, y in ((1, 2), (1, 3), (2, 3)):
            done = 0
            for i in range(h.m):
                if done >> i & 1 or rep.colors[i] not in (x, y):
                    continue
                cycle, _ends = _chain_walk(h, rep.colors, i, (x, y))
                mask = sum(1 << k for k in cycle)
                done |= mask
                for k in cycle:
                    cocyclic[k] |= mask
    if not seen_any:
        raise DomainError("host graph is uncolorable")
    return [
        (i, j)
        for i in range(h.m)
        for j in range(i + 1, h.m)
        if not cocyclic[i] >> j & 1
    ]
