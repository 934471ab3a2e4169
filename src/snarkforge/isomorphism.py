"""Isomorphism testing, automorphism enumeration, and edge orbits.

Backtracking over vertex maps, anchored on neighbors: vertices are mapped
in BFS order, and every vertex except a component root takes its image
from the unused neighbors of its BFS parent's image, so the branching at
each step is at most the valence.  Candidates are filtered by a per-vertex
invariant (valence plus the sorted multiset of BFS distances to all
vertices), and a candidate is kept only when its already-mapped neighbors
are exactly the images of the vertex's already-mapped neighbors.  Only
component roots scan every vertex of the target.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .graph import Graph


def _distance_rows(g: Graph) -> list[tuple[int, ...]]:
    rows = []
    for root in range(g.n):
        dist = [-1] * g.n
        dist[root] = 0
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for w in g.neighbors(u):
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(tuple(dist))
    return rows


def _invariants(g: Graph) -> list[tuple]:
    rows = _distance_rows(g)
    return [
        (g.valence(v), tuple(sorted(rows[v])))
        for v in range(g.n)
    ]


def _match(g: Graph, h: Graph) -> Iterator[list[int]]:
    """Yield vertex bijections g -> h preserving adjacency."""
    if g.n != h.n or g.m != h.m:
        return
    gi = _invariants(g)
    hi = gi if h is g else _invariants(h)
    if sorted(gi) != sorted(hi):
        return
    # BFS order: every vertex but a component root has a mapped BFS parent,
    # and its image must be a neighbor of that parent's image.
    order: list[int] = []
    parent = [-1] * g.n
    seen = [False] * g.n
    for s in range(g.n):
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


def _orbit_partition(size: int, images) -> list[list[int]]:
    """Classes of 0..size-1 under the maps in ``images`` (each a list
    sending i to its image), each class sorted, classes ordered by least
    member."""
    parent = list(range(size))
    for image in images:
        for i in range(size):
            ri, rj = _find(parent, i), _find(parent, image[i])
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(size):
        groups.setdefault(_find(parent, i), []).append(i)
    return sorted((sorted(v) for v in groups.values()), key=lambda o: o[0])


def edge_orbits(g: Graph) -> list[list[int]]:
    """Partition of edge indexes into automorphism orbits, each orbit
    sorted, orbits ordered by least member."""
    return _orbit_partition(
        g.m,
        (
            [g.edge_index(perm[u], perm[v]) for u, v in g.edges]
            for perm in automorphisms(g)
        ),
    )


def vertex_orbits(g: Graph) -> list[list[int]]:
    """Automorphism orbits on vertices, same ordering conventions as
    edge_orbits."""
    return _orbit_partition(g.n, automorphisms(g))
