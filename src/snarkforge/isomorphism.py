"""Isomorphism testing, automorphism enumeration, and edge orbits.

Backtracking over vertex maps, anchored on neighbors: vertices are mapped
in BFS order, and every vertex except a component root takes its image
from the unused neighbors of its BFS parent's image, so the branching at
each step is at most the valence.  Candidates are filtered by one
per-vertex invariant, graph.refined_coloring, stored on each graph value:
valence and distance-ball sizes refined to a stable coloring, its classes
ranked in sorted order of their label-free signatures, so an isomorphism
keeps every vertex's color, between two graphs as within one (McKay and
Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60
(2014)).  A candidate is kept only when its already-mapped neighbors are
exactly the images of the vertex's already-mapped neighbors.  Only
component roots scan every vertex of the target.  A search may pin
vertices to given images; its BFS order then starts at the pins.

Edge orbits come from a few pinned searches (orbit pruning, as in McKay
and Piperno): an edge not yet in an orbit gets the ends of each earlier
representative pinned on its own, both ways where the colors agree.  A
map found joins every edge with its image, and with none the edge starts
an orbit.  A complete pinned search finds a map whenever one exists, so
the orbits are exact.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .graph import Graph, refined_coloring


def _match(g: Graph, h: Graph, pins: Optional[dict[int, int]] = None) -> Iterator[list[int]]:
    """Yield vertex bijections g -> h preserving adjacency, each sending
    every vertex u in ``pins`` to pins[u].  A vertex and its image agree on
    refined_coloring, so two graphs whose color multisets differ have
    none."""
    if g.n != h.n or g.m != h.m:
        return
    pins = pins or {}
    gi, hi = refined_coloring(g), refined_coloring(h)
    if h is not g and sorted(gi) != sorted(hi):
        return
    # BFS order from the pinned vertices first: every vertex but a
    # component root has a mapped BFS parent, and its image must be a
    # neighbor of that parent's image.
    order: list[int] = []
    parent = [-1] * g.n
    seen = [False] * g.n
    for s in (*pins, *range(g.n)):
        if seen[s]:
            continue
        seen[s] = True
        order.append(s)
        qi = len(order) - 1
        while qi < len(order):
            u = order[qi]
            qi += 1
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    order.append(w)
    pos = [0] * g.n
    for k, u in enumerate(order):
        pos[u] = k
    # the neighbors of order[k] that are already mapped when it is placed
    earlier = [[w for w in g.neighbors(u) if pos[w] < k] for k, u in enumerate(order)]
    image = [-1] * g.n
    used = [False] * h.n

    def rec(k: int) -> Iterator[list[int]]:
        if k == len(order):
            yield list(image)
            return
        u = order[k]
        back = earlier[k]
        if u in pins:
            pool = (pins[u],)
        else:
            pool = range(h.n) if parent[u] < 0 else h.neighbors(image[parent[u]])
        for x in pool:
            if used[x] or hi[x] != gi[u]:
                continue
            hx = h.neighbors(x)
            # the mapped neighbors of x are exactly the images of u's
            if any(image[w] not in hx for w in back):
                continue
            if sum(used[y] for y in hx) != len(back):
                continue
            image[u] = x
            used[x] = True
            yield from rec(k + 1)
            image[u] = -1
            used[x] = False

    yield from rec(0)


def find_isomorphism(g: Graph, h: Graph) -> Optional[list[int]]:
    """A vertex map g -> h if the graphs are isomorphic, else None."""
    return next(_match(g, h), None)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


def automorphisms(g: Graph) -> list[list[int]]:
    """Every automorphism of g as a vertex permutation (identity included)."""
    return list(_match(g, g))


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def edge_orbits(g: Graph) -> list[list[int]]:
    """Partition of edge indexes into automorphism orbits, each orbit
    sorted, orbits ordered by least member: found once per graph value by
    pinned searches (see above) and stored on it as ``_edge_orbits``."""
    if getattr(g, "_edge_orbits", None) is None:
        object.__setattr__(g, "_edge_orbits", _pinned_orbits(g))
    return [list(orbit) for orbit in g._edge_orbits]


def _pinned_orbits(g: Graph) -> tuple[tuple[int, ...], ...]:
    colors = refined_coloring(g)
    root = list(range(g.m))  # union-find over edges, rooted at least members
    reps: list[int] = []
    # the representatives' ends, by their ends' colors
    ends: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for j, (a, b) in enumerate(g.edges):
        if _find(root, j) < j:
            continue  # already joined with an earlier representative
        # the first map found by the pinned searches, each representative's
        # ends onto (a, b) or (b, a) where their colors agree
        perm = next((m for x, y in ((a, b), (b, a))
                     for p, q in ends.get((colors[x], colors[y]), ())
                     for m in _match(g, g, {p: x, q: y})), None)
        if perm is None:
            reps.append(j)
            ends.setdefault((colors[a], colors[b]), []).append((a, b))
            continue
        for i, (u, v) in enumerate(g.edges):
            ri, rj = _find(root, i), _find(root, g.edge_index(perm[u], perm[v]))
            root[max(ri, rj)] = min(ri, rj)
    roots = [_find(root, i) for i in range(g.m)]
    return tuple(tuple(i for i in range(g.m) if roots[i] == r) for r in reps)
