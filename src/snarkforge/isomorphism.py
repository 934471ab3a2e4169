"""Isomorphism testing, automorphism enumeration, and edge orbits.

Plain backtracking over vertex maps, pruned by a per-vertex invariant
(valence plus the sorted multiset of BFS distances to all vertices).
Meant for graphs up to a few dozen vertices; correctness over speed.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .graph import Graph, _find


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


def _match(g: Graph, h: Graph, find_all: bool) -> Iterator[list[int]]:
    """Yield vertex bijections g -> h preserving adjacency."""
    if g.n != h.n or g.m != h.m:
        return
    gi, hi = _invariants(g), _invariants(h)
    if sorted(gi) != sorted(hi):
        return
    # Map vertices in an order that keeps the partial map connected where
    # possible, so adjacency constraints bite early.
    order: list[int] = []
    seen = [False] * g.n
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            order.append(u)
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    image: list[Optional[int]] = [None] * g.n
    used = [False] * h.n

    def candidates(u: int) -> Iterator[int]:
        for x in range(h.n):
            if not used[x] and hi[x] == gi[u]:
                yield x

    def consistent(u: int, x: int) -> bool:
        hx = set(h.neighbors(x))
        for w in g.neighbors(u):
            iw = image[w]
            if iw is not None and iw not in hx:
                return False
        deg_mapped = sum(1 for w in g.neighbors(u) if image[w] is not None)
        deg_hit = sum(1 for y in hx if y in mapped_targets)
        return deg_mapped <= deg_hit

    mapped_targets: set[int] = set()

    def rec(k: int) -> Iterator[list[int]]:
        if k == len(order):
            yield list(image)  # type: ignore[arg-type]
            return
        u = order[k]
        for x in candidates(u):
            if not consistent(u, x):
                continue
            image[u] = x
            used[x] = True
            mapped_targets.add(x)
            yield from rec(k + 1)
            image[u] = None
            used[x] = False
            mapped_targets.remove(x)

    if find_all:
        yield from rec(0)
    else:
        for m in rec(0):
            yield m
            return


def find_isomorphism(g: Graph, h: Graph) -> Optional[list[int]]:
    """A vertex map g -> h if the graphs are isomorphic, else None."""
    for m in _match(g, h, find_all=False):
        return m
    return None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


def automorphisms(g: Graph) -> list[list[int]]:
    """Every automorphism of g as a vertex permutation (identity included)."""
    return list(_match(g, g, find_all=True))


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
