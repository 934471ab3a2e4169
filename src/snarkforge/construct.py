"""Named cubic graphs and the snark-building surgeries: the Petersen
graph, the 8-vertex wheel with rim-to-rim spokes, the flower family,
pentagon removal, the five-edge pentagon join, the edge-for-snark
superposition, and the four-edge dot product.

Combined outputs use a block-offset labeling: the first factor's
surviving vertices keep their deletion-mapped labels, the second factor's
block follows, and freshly created vertices come last.  Result objects
carry the old-to-new maps so callers can address "the edge that came from
the second factor" by stable identity.
"""

from __future__ import annotations

from .errors import DomainError
from .graph import (
    Cycle,
    EdgeLike,
    EdgeRef,
    Graph,
    delete_edges,
    delete_vertices,
    girth,
    is_cubic,
    resolve_edge,
)
from .value import Value


def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle 0..4, inner 5-star 5..9."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer pentagon
        edges.append((i, 5 + i))              # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph.from_edges(10, edges)


def wheel_w8() -> tuple[Graph, list[EdgeRef], list[EdgeRef]]:
    """The 8-cycle with four rim-to-rim spokes through the hub.

    Returns (graph, spokes f0..f3, rim edges eps0..eps7), where the rim is
    (i, i+1 mod 8) and spoke f_i joins i to i+4.
    """
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(i, i + 4) for i in range(4)]
    g = Graph.from_edges(8, edges)
    spokes = [g.edge_ref(g.edge_index(i, i + 4)) for i in range(4)]
    rim = [g.edge_ref(g.edge_index(i, (i + 1) % 8)) for i in range(8)]
    return g, spokes, rim


def flower(n: int) -> Graph:
    """The flower graph on 4n vertices, n odd and at least 5.

    Vertex blocks: hub path t_k = k, the two swapped strands u_k = n+k and
    v_k = 2n+k, and the centers w_k = 3n+k; indices mod n.
    """
    if n < 5 or n % 2 == 0:
        raise DomainError("flower graphs need an odd order of at least 5")
    t = lambda k: k % n
    u = lambda k: n + k % n
    v = lambda k: 2 * n + k % n
    w = lambda k: 3 * n + k % n
    edges = []
    for k in range(n):
        edges.append((t(k), t(k + 1)))
        edges.append((u(k), v(k + 1)))
        edges.append((v(k), u(k + 1)))
        edges.append((w(k), t(k)))
        edges.append((w(k), u(k)))
        edges.append((w(k), v(k)))
    return Graph.from_edges(4 * n, edges)


def _check_pentagon(g: Graph, p: Cycle) -> None:
    if len(p) != 5:
        raise DomainError("not a pentagon")
    for a, b in p.edge_pairs():
        if not g.has_edge(a, b):
            raise DomainError(f"pentagon edge ({a},{b}) missing from host")


def remove_pentagon(g: Graph, p: Cycle) -> tuple[Graph, list[EdgeRef]]:
    """Delete a pentagon's five edges from a cubic girth-5 host.

    Returns the quasi-cubic remainder and its five pendant edges, indexed
    by pentagon position (pendant k is the edge left at p.vertices[k]).
    """
    _check_pentagon(g, p)
    if not is_cubic(g) or (girth(g) or 0) < 5:
        raise DomainError("pentagon removal expects a cubic host of girth 5")
    reduced = delete_edges(g, p.edge_pairs())
    pendants = []
    for vtx in p.vertices:
        inc = reduced.incident_edges(vtx)
        if len(inc) != 1:
            raise DomainError(f"pentagon vertex {vtx} keeps {len(inc)} edges, not 1")
        pendants.append(reduced.edge_ref(inc[0]))
    return reduced, pendants


class JoinResult(Value):
    """A two-factor construction output with its block maps.

    prime_map / star_map send surviving vertices of the first / second
    input to their labels in ``graph``; connecting_edges are the indexes
    of the freshly inserted edges."""

    graph: Graph
    prime_map: dict[int, int]
    star_map: dict[int, int]
    connecting_edges: tuple[int, ...]
    new_vertices: tuple[int, ...] = ()

    def map_star_edge(self, gs: Graph, e: EdgeLike) -> EdgeRef:
        """The result-graph edge corresponding to a second-factor edge."""
        return self._map_edge(self.star_map, gs, e)

    def map_prime_edge(self, gp: Graph, e: EdgeLike) -> EdgeRef:
        """The result-graph edge corresponding to a first-factor edge."""
        return self._map_edge(self.prime_map, gp, e)

    def _map_edge(self, vmap: dict[int, int], factor: Graph, e: EdgeLike) -> EdgeRef:
        a, b = resolve_edge(factor, e).pair
        if a not in vmap or b not in vmap:
            raise DomainError(f"edge ({a},{b}) did not survive the construction")
        return self.graph.edge_ref(self.graph.edge_index(vmap[a], vmap[b]))


def _splice(gp: Graph, drop_p, gs: Graph, drop_s, fresh: int, wire) -> JoinResult:
    """The block-offset labeling every two-factor construction shares:
    gp less ``drop_p`` keeps its deletion-mapped labels, gs less
    ``drop_s`` follows as the second block, and ``fresh`` new vertices
    come last.  ``wire(prime_map, star_map, new_vertices)`` returns the
    connecting edges in those labels."""
    gp0, prime_map = delete_vertices(gp, drop_p)
    gs0, map_s = delete_vertices(gs, drop_s)
    off = gp0.n
    star_map = {old: off + new for old, new in map_s.items()}
    new = tuple(range(off + gs0.n, off + gs0.n + fresh))
    joins = wire(prime_map, star_map, new)
    edges = [*gp0.edges, *((off + a, off + b) for a, b in gs0.edges), *joins]
    graph = Graph.from_edges(off + gs0.n + fresh, edges)
    conn = tuple(sorted(graph.edge_index(a, b) for a, b in joins))
    return JoinResult(graph, prime_map, star_map, conn, new)


def _outer_neighbor(g: Graph, vertex: int, ring: set[int]) -> int:
    outs = [w for w in g.neighbors(vertex) if w not in ring]
    if len(outs) != 1:
        raise DomainError("pentagon vertex lacks a unique outside neighbor")
    return outs[0]


def pentagon_join(
    gp: Graph, pp: Cycle, gs: Graph, ps: Cycle, rotation: int = 0
) -> JoinResult:
    """Join two pentagon-bearing cubic graphs by deleting a pentagon from
    each and inserting five edges with the index-doubling wiring: the
    outside neighbor at position k of the first pentagon is joined to the
    outside neighbor at position 2k + rotation of the second.
    """
    _check_pentagon(gp, pp)
    _check_pentagon(gs, ps)
    if not (is_cubic(gp) and is_cubic(gs)):
        raise DomainError("pentagon join expects cubic inputs")
    rotation %= 5
    ring_p, ring_s = set(pp.vertices), set(ps.vertices)
    t = [_outer_neighbor(gp, pp.vertices[k], ring_p) for k in range(5)]
    w = [_outer_neighbor(gs, ps.vertices[k], ring_s) for k in range(5)]
    if len(set(t)) != 5 or len(set(w)) != 5:
        raise DomainError("outside neighbors collide; host girth too small")
    wire = lambda pm, sm, _: [(pm[t[k]], sm[w[(2 * k + rotation) % 5]]) for k in range(5)]
    return _splice(gp, ring_p, gs, ring_s, 0, wire)


def superpose_52(
    gp: Graph, e: EdgeLike, gs: Graph, u: int, v: int
) -> JoinResult:
    """Replace an edge of the first cubic graph by the whole second one:
    both endpoints of the edge grow into three-vertex paths, the second
    graph loses the two chosen non-adjacent vertices, and fourteen new
    edges splice the pieces together.
    """
    if not (is_cubic(gp) and is_cubic(gs)):
        raise DomainError("superposition expects cubic inputs")
    ref = resolve_edge(gp, e)
    big_u, big_v = ref.pair
    if not (0 <= u < gs.n and 0 <= v < gs.n) or u == v:
        raise DomainError("need two distinct vertices of the second graph")
    if gs.has_edge(u, v):
        raise DomainError("the two chosen vertices must be non-adjacent")
    t_outer = sorted(x for x in gp.neighbors(big_u) if x != big_v)
    w_outer = sorted(x for x in gp.neighbors(big_v) if x != big_u)
    u_nbrs = sorted(gs.neighbors(u))
    v_nbrs = sorted(gs.neighbors(v))

    def wire(pm, sm, new):
        # new vertices: the three-vertex paths T(-1), T(0), T(1) and W(-1),
        # W(0), W(1) replacing the deleted endpoints
        t = [pm[t_outer[0]], *new[:3], pm[t_outer[1]]]
        w = [pm[w_outer[0]], *new[3:], pm[w_outer[1]]]
        spokes = [(new[i], sm[u_nbrs[i]]) for i in range(3)]
        spokes += [(sm[v_nbrs[i]], new[3 + i]) for i in range(3)]
        return [*zip(t, t[1:]), *zip(w, w[1:]), *spokes]

    return _splice(gp, {big_u, big_v}, gs, {u, v}, 6, wire)


def dot_product(
    g1: Graph,
    e1: EdgeLike,
    e2: EdgeLike,
    g2: Graph,
    x: int,
    y: int,
    wiring: str = "parallel",
) -> JoinResult:
    """The four-edge connection: drop two independent edges from the first
    graph and an adjacent vertex pair from the second, then tie the four
    loose vertex pairs together.

    ``wiring`` picks which of the two loose neighbors of x receives the
    first edge's lower endpoint: "parallel" wires in sorted order,
    "crossed" swaps that pair.
    """
    if not (is_cubic(g1) and is_cubic(g2)):
        raise DomainError("dot product expects cubic inputs")
    if wiring not in ("parallel", "crossed"):
        raise DomainError(f"unknown wiring {wiring!r}")
    r1, r2 = resolve_edge(g1, e1), resolve_edge(g1, e2)
    a, b = r1.pair
    c, d = r2.pair
    if len({a, b, c, d}) != 4:
        raise DomainError("the two removed edges must be non-adjacent")
    if not g2.has_edge(x, y):
        raise DomainError("the removed vertices must be adjacent")
    x_nbrs = sorted(t for t in g2.neighbors(x) if t != y)
    y_nbrs = sorted(t for t in g2.neighbors(y) if t != x)
    if wiring == "crossed":
        x_nbrs = x_nbrs[::-1]
    # the first factor loses edges but no vertex, so its labels stay
    g1_cut = delete_edges(g1, [r1.pair, r2.pair])
    wire = lambda pm, sm, _: list(zip((a, b, c, d), [sm[t] for t in x_nbrs + y_nbrs]))
    return _splice(g1_cut, (), g2, {x, y}, 0, wire)
