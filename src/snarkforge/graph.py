"""Immutable simple-graph values and the structural operations the rest of
the package builds on: vertex/edge deletion, the edge-smoothing surgery,
girth, cycle listing, one spanning forest per graph value and what is
read from it (components, the smoothing check, the cycle-space edge
labels and cyclic edge connectivity), the refined vertex coloring, the
vertex order every frontier DP places vertices in, and the frontier DP over
2-factors: folded breadth-first, it gives the even-cover sum (covers.py),
the orthogonality count (kempe.py) and the Hamiltonian cycle count, and
walked depth-first, it decides Hamiltonicity at its first cycle.

Both frontier DPs, the coloring kernel (coloring.py) and the 2-factor
DP, pack a state into one int, a field per frontier_layout slot, and
advance it with frontier_step (or, in the walk, one state at a time):
every move is an XOR delta listed under the fields of the slots a step
closes, which clears them, sets the opened ones and rewrites any other
field the move changes; both read each slot's edge off frontier_layout's
(edge, slot) pairs, and each step's slots off the tuples stored beside
them.

Vertices are dense ints 0..n-1.  Edges are unordered pairs stored as
(u, v) with u < v, sorted lexicographically, so an edge index is stable
for a given labeled graph.  Every operation returns a fresh graph; nothing
here mutates.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence, Union

from .errors import CyclicConnectivityUndefinedError, DomainError
from .value import Value, set_field

EdgePair = tuple[int, int]


def _normalize_pair(u: int, v: int) -> EdgePair:
    if u == v:
        raise DomainError(f"loop edge ({u},{v}) not allowed")
    return (u, v) if u < v else (v, u)


class Graph(Value):
    """A finite simple undirected graph (no loops, no multiple edges)."""

    n: int
    edges: tuple[EdgePair, ...]

    def __init__(self, n: int, edges: tuple[EdgePair, ...]):
        set_field(self, "n", n)
        set_field(self, "edges", edges)
        if n < 1:
            raise DomainError("graph needs at least one vertex")
        prev = None
        for u, v in edges:
            if not (0 <= u < v < n):
                raise DomainError(f"bad edge ({u},{v}) for n={n}")
            pair = (u, v)
            if prev is not None and pair <= prev:
                raise DomainError("edge list must be sorted and duplicate-free")
            prev = pair
        neighbors = [[] for _ in range(n)]
        incidence = [[] for _ in range(n)]
        index = {}
        for i, (u, v) in enumerate(edges):
            neighbors[u].append(v)
            neighbors[v].append(u)
            incidence[u].append(i)
            incidence[v].append(i)
            index[(u, v)] = i
        set_field(self, "_neighbors", tuple(tuple(a) for a in neighbors))
        set_field(self, "_incidence", tuple(tuple(a) for a in incidence))
        set_field(self, "_index", index)

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from any iterable of endpoint pairs, normalizing
        orientation and order.  Duplicate pairs are rejected."""
        norm = sorted(_normalize_pair(u, v) for u, v in pairs)
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise DomainError(f"duplicate edge {a}")
        return cls(n, tuple(norm))

    # -- basic queries ------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Indexes of the edges connected to v."""
        return self._incidence[v]

    def valence(self, v: int) -> int:
        return len(self._neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_pair(u, v) in self._index

    def edge_index(self, u: int, v: int) -> int:
        try:
            return self._index[_normalize_pair(u, v)]
        except KeyError:
            raise DomainError(f"({u},{v}) is not an edge") from None

    def edge_ref(self, i: int) -> "EdgeRef":
        if not 0 <= i < len(self.edges):
            raise DomainError(f"edge index {i} out of range")
        return EdgeRef(i, self.edges[i])

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, least vertex first,
        grouped by the root spanning_forest gives each vertex."""
        out: dict[int, list[int]] = {}
        for v, root in enumerate(spanning_forest(self)[0]):
            out.setdefault(root, []).append(v)
        return list(out.values())

    def is_connected(self) -> bool:
        return not any(spanning_forest(self)[0])


class EdgeRef(Value):
    """An edge of a specific graph: its index plus the endpoint pair."""

    index: int
    pair: EdgePair

    def __init__(self, index: int, pair: EdgePair):
        set_field(self, "index", index)
        set_field(self, "pair", pair)


EdgeLike = Union[EdgeRef, int, tuple[int, int]]


def resolve_edge(g: Graph, e: EdgeLike) -> EdgeRef:
    """Accept an EdgeRef, an edge index, or an endpoint pair."""
    if isinstance(e, EdgeRef):
        if not (0 <= e.index < g.m) or g.edges[e.index] != e.pair:
            raise DomainError(f"edge ref {e} does not belong to this graph")
        return e
    if isinstance(e, int):
        return g.edge_ref(e)
    u, v = e
    return g.edge_ref(g.edge_index(u, v))


@dataclass(frozen=True)
class Cycle:
    """A cycle as its vertex sequence, stored in canonical form: the least
    vertex first, and the smaller of the two neighbors second."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 3 or len(set(vs)) != len(vs):
            raise DomainError(f"not a cycle: {vs}")

    @classmethod
    def from_vertices(cls, seq: Sequence[int]) -> "Cycle":
        vs = list(seq)
        k = vs.index(min(vs))
        vs = vs[k:] + vs[:k]
        if vs[-1] < vs[1]:
            vs = [vs[0]] + vs[:0:-1]
        return cls(tuple(vs))

    def __len__(self) -> int:
        return len(self.vertices)

    def edge_pairs(self) -> list[EdgePair]:
        vs = self.vertices
        return [_normalize_pair(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


# -- valence shape ----------------------------------------------------


def valence_profile(g: Graph) -> dict[int, int]:
    """Map valence -> number of vertices with that valence."""
    prof: dict[int, int] = {}
    for v in range(g.n):
        d = g.valence(v)
        prof[d] = prof.get(d, 0) + 1
    return prof


def is_cubic(g: Graph) -> bool:
    return all(g.valence(v) == 3 for v in range(g.n))


def is_quasi_cubic(g: Graph) -> bool:
    """Every vertex 1- or 3-valent."""
    return all(g.valence(v) in (1, 3) for v in range(g.n))


def univalent_vertices(g: Graph) -> list[int]:
    return [v for v in range(g.n) if g.valence(v) == 1]


def pendant_edges(g: Graph) -> list[int]:
    """Indexes of edges connected to a univalent vertex, ordered by the
    univalent endpoint."""
    return [g.incident_edges(v)[0] for v in univalent_vertices(g)]


# -- surgeries ---------------------------------------------------------


def delete_vertices(g: Graph, q: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Remove the vertices in q and every edge touching them.

    Survivors are re-indexed densely; the returned mapping old -> new lets
    callers keep naming specific surviving vertices.
    """
    qs = set(q)
    if not qs <= set(range(g.n)) or len(qs) == g.n:
        raise DomainError("q must be a proper subset of the vertex set")
    mapping = {}
    for v in range(g.n):
        if v not in qs:
            mapping[v] = len(mapping)
    kept = [
        (mapping[u], mapping[v])
        for (u, v) in g.edges
        if u not in qs and v not in qs
    ]
    return Graph.from_edges(g.n - len(qs), kept), mapping


def delete_edges(g: Graph, s: Iterable[tuple[int, int]]) -> Graph:
    """Remove the given edges; every vertex is retained."""
    drop = {_normalize_pair(u, v) for u, v in s}
    unknown = drop - set(g.edges)
    if unknown:
        raise DomainError(f"not edges of the graph: {sorted(unknown)}")
    return Graph(g.n, tuple(p for p in g.edges if p not in drop))


def _require_smoothable(g: Graph) -> None:
    """contract_removed_edge's conditions on the host: cubic, with girth at
    least 4.  They keep every smoothing simple: a neighbor shared by the
    ends of e, or two adjacent neighbors of one end, would close a
    triangle.  A pass is stored on g, a failure is not, so it raises again."""
    if getattr(g, "_smoothing_checked", False):
        return
    if not is_cubic(g):
        raise DomainError("edge smoothing requires a cubic graph")
    # a cubic graph has girth at least 4 exactly when no edge is on a triangle
    nbr = [frozenset(g.neighbors(x)) for x in range(g.n)]
    if any(nbr[a] & nbr[b] for a, b in g.edges):
        raise DomainError("edge smoothing requires girth at least 4")
    object.__setattr__(g, "_smoothing_checked", True)


def _smoothable(g: Graph, edges: Iterable[EdgeLike]) -> Iterator[int]:
    """The index of each given edge in turn, once the smoothed route's
    preconditions hold there, checked with their DomainError texts but
    without smoothing: contract_removed_edge's conditions on the host,
    checked at the first edge, where smoothing would fail them first,
    and count_decompositions' connectivity, which the smoothed graph has
    exactly when g without e has it: g is connected and e's cycle_labels
    label is not 0."""
    for k, e in enumerate(edges):
        ref = resolve_edge(g, e)
        if not k:
            _require_smoothable(g)
            split, labels = not g.is_connected(), cycle_labels(g)
        if split or not labels[ref.index]:
            raise DomainError("graph must be connected")
        yield ref.index


def contract_removed_edge(g: Graph, e: EdgeLike) -> tuple[Graph, EdgeRef, EdgeRef]:
    """Remove edge e = (u, v) together with u and v, then reconnect each
    endpoint's two remaining neighbors with a new edge (smoothing both
    2-valent stubs away).

    Returns the smaller cubic graph plus the two inserted edges d1 (from
    u's side) and d2 (from v's side).  Requires a cubic host with girth
    at least 4, which is exactly what keeps the result simple.  The host
    is checked, and its frontier_order searched, once per graph value,
    not per edge: the smaller graph inherits the order, minus u and v and
    renumbered.
    """
    ref = resolve_edge(g, e)
    _require_smoothable(g)
    u, v = ref.pair
    t1, t2 = (w for w in g.neighbors(u) if w != v)
    w1, w2 = (w for w in g.neighbors(v) if w != u)
    # survivors renumbered densely and in order, so the kept edges stay sorted
    new = [x - (x > u) - (x > v) for x in range(g.n)]
    d1_pair = _normalize_pair(new[t1], new[t2])
    d2_pair = _normalize_pair(new[w1], new[w2])
    kept = [(new[a], new[b]) for a, b in g.edges if a not in ref.pair and b not in ref.pair]
    insort(kept, d1_pair)
    insort(kept, d2_pair)
    out = Graph(g.n - 2, tuple(kept))
    inherited = tuple(new[x] for x in frontier_order(g) if x not in ref.pair)
    object.__setattr__(out, "_frontier_order", inherited)
    return out, out.edge_ref(out.edge_index(*d1_pair)), out.edge_ref(out.edge_index(*d2_pair))


# -- cycles ------------------------------------------------------------


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for forests.

    BFS from every vertex; a non-tree edge closes a cycle of length
    dist[u] + dist[w] + 1, and the minimum over all roots is exact.
    """
    best = None
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            if best is not None and dist[u] * 2 >= best:
                break
            for w in g.neighbors(u):
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    length = dist[u] + dist[w] + 1
                    if best is None or length < best:
                        best = length
    return best


def find_cycles(g: Graph, length: int) -> list[Cycle]:
    """All distinct cycles of exactly the given length, each reported once
    (deduplicated up to rotation and reflection).

    Enumeration is rooted at the least vertex of each cycle: paths grow
    only through larger vertices, and orientation is fixed by requiring
    the second vertex to be smaller than the last.
    """
    if length < 3:
        return []
    out = []
    path = [0] * length

    def grow(root: int, v: int, depth: int, used: set[int]):
        for w in g.neighbors(v):
            if depth == length - 1:
                if w == root and path[1] < path[depth]:
                    out.append(Cycle(tuple(path)))
                continue
            if w <= root or w in used:
                continue
            path[depth + 1] = w
            used.add(w)
            grow(root, w, depth + 1, used)
            used.remove(w)

    for root in range(g.n):
        path[0] = root
        grow(root, root, 0, set())
    return out


def list_pentagons(g: Graph) -> list[Cycle]:
    return find_cycles(g, 5)


# -- refined vertex coloring -----------------------------------------


def _invariants(g: Graph) -> list[tuple]:
    """Per vertex: its valence and how many vertices lie within distance
    0, 1, 2, ... of it, up to the largest distance in g, which says what
    its sorted BFS distances to all vertices say, in g and between graphs
    of one order.  Every vertex's ball is a bitmask, and each round grows
    all of them by one step."""
    adj = [g.neighbors(v) for v in range(g.n)]
    balls = [1 << v for v in range(g.n)]
    sizes = [[1] for _ in range(g.n)]
    while True:
        grown = []
        for nbrs, ball in zip(adj, balls):
            for w in nbrs:
                ball |= balls[w]
            grown.append(ball)
        if grown == balls:
            return [(len(nbrs), tuple(row)) for nbrs, row in zip(adj, sizes)]
        balls = grown
        for row, ball in zip(sizes, balls):
            row.append(ball.bit_count())


def refined_coloring(g: Graph) -> tuple[int, ...]:
    """A color per vertex: _invariants refined to a stable coloring, each
    class split by its members' multisets of neighbor colors until none
    splits, computed once per graph value and stored on it as
    ``_refined_coloring``.  The signatures are label-free and ranked in
    sorted order, so every isomorphism keeps each vertex's color, and each
    vertex orbit lies in one class (McKay and Piperno)."""
    colors = getattr(g, "_refined_coloring", None)
    if colors is None:
        adj = [g.neighbors(v) for v in range(g.n)]
        colors, count = _invariants(g), 0
        while True:
            signs = [(c, tuple(sorted([colors[w] for w in nbrs])))
                     for c, nbrs in zip(colors, adj)]
            ranks = {s: k for k, s in enumerate(sorted(set(signs)))}
            colors = tuple(ranks[s] for s in signs)
            if len(ranks) == count:
                break
            count = len(ranks)
        object.__setattr__(g, "_refined_coloring", colors)
    return colors


# -- frontier order and the 2-factor fold -----------------------------


def _greedy_order(
    g: Graph, powers: list[int], start: int, by_age: bool, bound: float
) -> Optional[tuple[int, tuple[int, ...]]]:
    """One greedy vertex order from ``start``: always place an unplaced
    vertex with the most placed neighbours, ties going to the oldest
    frontier edge (``by_age``) or else to the smaller label, and go on at
    the smallest unplaced vertex when a component runs out.  Returns (sum
    of 3^|frontier| = powers[|frontier|] over the steps, order), or None
    once the sum reaches ``bound``.  Each candidate's rank is one int whose
    base-n digits are 3 minus its placed neighbours, under ``by_age`` the
    step of its oldest frontier edge, and its label, so the least rank mod
    n is the next vertex."""
    n, neighbors = g.n, g._neighbors
    placed = [False] * n
    seen = [0] * n  # placed neighbours of each unplaced vertex
    first = [0] * n  # n * the step at which its oldest frontier edge appeared
    cands: dict[int, int] = {}  # unplaced vertex with a placed neighbour -> rank
    order: list[int] = []
    width = cost = 0
    lead = n * n if by_age else n
    v = start
    for step in range(n):
        order.append(v)
        placed[v] = True
        cands.pop(v, None)
        around = neighbors[v]
        width += len(around) - 2 * seen[v]
        cost += powers[width]
        if cost >= bound:
            return None
        for w in around:
            if not placed[w]:
                if not seen[w] and by_age:
                    first[w] = step * n
                seen[w] += 1
                cands[w] = (3 - seen[w]) * lead + first[w] + w
        if cands:
            v = min(cands.values()) % n
        elif step + 1 < n:
            v = placed.index(False)
    return cost, tuple(order)


def frontier_order(g: Graph) -> tuple[int, ...]:
    """The vertex order of every frontier DP (the coloring kernel and the
    2-factor fold), searched once per graph value and stored on it as
    ``_frontier_order``, where a smoothed graph is handed its host's.

    Greedy orders under both tie rules from the least vertex of each
    class of refined_coloring(g), in label order; the one with the
    smallest sum of 3^|frontier| wins, the first found on a tie.  An
    automorphism keeps the classes, so each class is a union of vertex
    orbits, on most hosts one.  Ties within a run go by label, so orbit
    mates need not give equal costs, and the order may cost more than the
    best from every start.  Any vertex permutation gives every DP the same
    value; the order sets the cost alone."""
    # getattr, not g.__dict__: reading __dict__ materializes it, which
    # slows every later attribute read on the graph (CPython 3.11)
    order = getattr(g, "_frontier_order", None)
    if order is None:
        powers = [3**k for k in range(g.m + 1)]  # a frontier holds at most m edges
        starts: dict[int, int] = {}  # class -> its least vertex, in label order
        for v, c in enumerate(refined_coloring(g)):
            starts.setdefault(c, v)
        best = (float("inf"), ())
        for start in starts.values():
            for by_age in (True, False):
                best = _greedy_order(g, powers, start, by_age, best[0]) or best
        order = best[1]
        object.__setattr__(g, "_frontier_order", order)
    return order


Pairs = tuple[tuple[int, int], ...]  # a step's (edge, slot) pairs
Slots = tuple[int, ...]  # the same step's slots alone
Layout = tuple[tuple[tuple[Pairs, Pairs, Slots, Slots], ...], int]


def frontier_layout(g: Graph) -> Layout:
    """(steps, width): the slots every frontier DP keeps its frontier edges
    in, derived once per graph value from frontier_order(g) and stored on
    it as ``_frontier_layout``.  Step k places the k-th vertex of the
    order and is (closing, opening, closes, opens): the (edge, slot)
    pairs, in incidence order, of the edges back to placed vertices,
    whose slots it frees, and of the edges it opens, each taking the last
    freed slot or else a new one, the one record of each slot's edge;
    then the slots of each, so that no DP step derives them again.
    ``width`` counts the slots."""
    layout = getattr(g, "_frontier_layout", None)
    if layout is None:
        placed = [False] * g.n
        slot: dict[int, int] = {}
        free: list[int] = []
        steps = []
        for v in frontier_order(g):
            placed[v] = True
            closing: list[tuple[int, int]] = []
            opening: list[tuple[int, int]] = []
            for i in g.incident_edges(v):
                a, b = g.edges[i]
                if placed[a] and placed[b]:
                    closing.append((i, slot[i]))
                    free.append(slot.pop(i))
                else:
                    slot[i] = free.pop() if free else len(slot) + len(free)
                    opening.append((i, slot[i]))
            steps.append((
                tuple(closing), tuple(opening),
                tuple([x for _, x in closing]), tuple([x for _, x in opening]),
            ))
        layout = (tuple(steps), len(free))
        object.__setattr__(g, "_frontier_layout", layout)
    return layout


def smoothed_layout(g: Graph, i: int) -> tuple[tuple[int, int], dict[int, tuple[Slots, Slots]]]:
    """The frontier steps of G_e, g with edge i = (u, v) removed and u and
    v smoothed away, as changes to frontier_layout(g), in the order
    contract_removed_edge hands G_e: g's frontier_order without u and v.
    Returns (skipped, changed): the layout positions of u and v, and the
    (closes, opens) slots of the four outer neighbours, each with its
    edge to u or v dropped and d1, which joins u's other neighbours, in
    slot width, or d2, which joins v's, in slot width + 1, opening at the
    earlier end and closing at the later.  Every other step places the
    same edges in the same slots as in g: G_e's frontiers are g's without
    the edges at u and v, plus d1 and d2.  The caller has checked the
    smoothing's preconditions (_smoothable)."""
    layout, width = frontier_layout(g)
    order = frontier_order(g)
    pair = u, v = g.edges[i]
    gone = set(g._incidence[u] + g._incidence[v])
    changed: dict[int, tuple[Slots, Slots]] = {}
    for end, slot in ((u, width), (v, width + 1)):
        first, last = sorted([order.index(w) for w in g._neighbors[end] if w not in pair])
        for k in (first, last):
            closing, opening = layout[k][:2]
            closes = [x for j, x in closing if j not in gone]
            opens = [x for j, x in opening if j not in gone]
            (opens if k == first else closes).append(slot)
            changed[k] = tuple(closes), tuple(opens)
    return (order.index(u), order.index(v)), changed


def frontier_step(
    states: dict[int, int], mask: int, table: dict, build: Optional[Callable] = None
) -> dict[int, int]:
    """One placement step of either frontier DP: each state s of weight w
    adds w at s ^ d for every delta d in table[s & mask].  A key missing
    from ``table`` is a clash, whose states are dropped, or, when
    ``build`` is given, gets build(key) stored as its deltas."""
    nxt: dict[int, int] = {}
    get = nxt.get
    for s, w in states.items():
        key = s & mask
        deltas = table.get(key)
        if deltas is None:
            if build is None:
                continue
            deltas = table[key] = build(key)
        for d in deltas:
            t = s ^ d
            nxt[t] = get(t, 0) + w
    return nxt


def _two_factor_steps(
    g: Graph,
    close: Callable[[int, bool, int], int],
    banned: Collection[int] = (),
    marked: Collection[int] = (),
) -> Iterator[tuple[int, Callable[[int], list[int]]]]:
    """Each step's (mask, build) of the 2-factor DP, in frontier_order(g):
    ``mask`` covers the fields of the slots the step closes, and
    build(key) lists the XOR deltas of the states whose closing fields are
    ``key``.  two_factor_fold folds them breadth-first and is_hamiltonian
    walks them depth-first; this is the one place that builds a delta.

    A state packs one field per frontier_layout slot into an int: 0 when
    the edge is outside the factor, or else ``1 | tail << 1 | mate << k``,
    where ``mate`` is the slot of the frontier edge at the other end of
    its open path, ``tail`` is ``2 * marks + parity``, the marked edges on
    that path and its edge count mod 2, and ``k`` leaves room for the
    largest tail that ``len(marked)`` allows; both ends of a path carry
    its tail.  A placed vertex takes exactly two factor edges, never a
    banned one, and every marked edge it opens: with no factor edge coming
    in it opens a path of two edges, with one it extends that path, and
    with two it joins their paths or, when the two are mates, closes a
    cycle, which ``close(parity, last, marks)`` weighs from its length mod
    2, whether the vertex is the last of the order, and its marked edges.

    A delta clears the closing fields (it starts from the key), sets the
    opened ones and rewrites the far end of each path extended or joined:
    that end's old field holds the path's tail and the closing slot as its
    mate, so the key alone gives it.  A closed cycle's delta is the key
    alone, listed ``close(...)`` times.  Each step's set-up runs once per
    call, in a function of its own, so a build keeps its step's values
    however far the caller runs ahead (is_hamiltonian lists every step
    before it walks)."""
    steps, width = frontier_layout(g)
    k = 1 + (2 * len(marked) + 1).bit_length()
    low = (1 << k) - 1
    tails = low >> 1
    span = k + max(1, (width - 1).bit_length())  # bits per slot
    ones = (1 << span) - 1

    def moves(closed: Slots, opening: Pairs, last: bool) -> tuple[int, Callable]:
        # the ways to take 1 or 2 of the opened edges into the factor: each
        # takes every marked one, so each adds the same mark count
        free = [(i, x) for i, x in opening if i not in banned]
        must = {x for i, x in free if i in marked}
        picks = [
            [ys for ys in combinations([x for _, x in free], j) if must <= set(ys)]
            for j in (1, 2)
        ]
        gain = 2 * len(must)

        def build(key: int) -> list[int]:
            # each new field is head | mate << k, shifted to its slot
            ins = [x for x in closed if key >> span * x & 1]
            if not ins:
                head = 1 | gain << 1
                return [
                    (head | b << k) << span * a | (head | a << k) << span * b
                    for a, b in picks[1]
                ]
            if len(ins) == 1:
                # masked, so a state a wrong delta made cannot grow without bound
                x = ins[0]
                c = key >> span * x & ones
                mate, head = c >> k, 1 | ((c >> 1 & tails ^ 1) + gain) << 1
                far = c & low | x << k
                return [
                    key ^ (head | mate << k) << span * y ^ (far ^ (head | y << k)) << span * mate
                    for (y,) in picks[0]
                ]
            if len(ins) == 2 and not must:
                x, y = ins
                cx, cy = key >> span * x & ones, key >> span * y & ones
                mx, my = cx >> k, cy >> k
                tx, ty = cx >> 1 & tails, cy >> 1 & tails
                if mx == y:
                    return [key] * close(tx & 1, last, tx >> 1)
                head = 1 | ((tx ^ ty) & 1 | (tx >> 1) + (ty >> 1) << 1) << 1
                far_x, far_y = cx & low | x << k, cy & low | y << k
                return [
                    key ^ (far_x ^ (head | my << k)) << span * mx
                    ^ (far_y ^ (head | mx << k)) << span * my
                ]
            return []

        return sum(ones << span * x for x in closed), build

    for step, (_closing, opening, closed, _opens) in enumerate(steps):
        yield moves(closed, opening, step == g.n - 1)


def two_factor_fold(
    g: Graph,
    close: Callable[[int, bool, int], int],
    banned: Collection[int] = (),
    marked: Collection[int] = (),
) -> int:
    """Sum, over the 2-factors of g that avoid the ``banned`` edges and
    contain the ``marked`` ones, of the product of the weights ``close``
    gives their cycles, without listing the factors.

    Frontier DP over 2-factors (the mate-and-parity technique of Knuth's
    SIMPATH, TAOCP 7.1.4, as generalised by Kawahara, Inoue, Iwashita and
    Minato, IEICE Trans. Fundamentals 2017).  The vertices are placed in
    frontier_order(g), and each frontier edge, an edge with exactly one
    placed end, keeps its frontier_layout slot; _two_factor_steps packs
    the partial factors' open paths into states and lists each step's
    moves.  The fold maps each state to the summed weight of the partial
    factors reaching it, a step at a time.  A cycle's weight
    ``close(parity, last, marks)`` reads its length mod 2, whether it
    closes at the last vertex of the order, and its marked edges; it is a
    small non-negative multiplicity (every rule in the package returns 0,
    1 or 2), 0 forbidding the cycle.  frontier_step builds each step's
    deltas once per value of its closing fields.
    """
    states = {0: 1}
    for mask, build in _two_factor_steps(g, close, banned, marked):
        states = frontier_step(states, mask, {}, build)
        if not states:
            return 0
    return states.get(0, 0)


def _closes_at_last(_parity: int, last: bool, _marks: int) -> int:
    """The Hamiltonian closing rule: a cycle closes only at the last
    vertex of the order, so a 2-factor that closes one has one cycle,
    through every vertex."""
    return 1 if last else 0


def hamiltonian_cycle_count(g: Graph) -> int:
    """Number of Hamiltonian cycles of g: the 2-factor fold under the
    Hamiltonian closing rule."""
    return two_factor_fold(g, _closes_at_last)


def is_hamiltonian(g: Graph) -> bool:
    """True iff some cycle visits every vertex exactly once.

    A depth-first walk of the 2-factor fold's steps under the Hamiltonian
    closing rule, which stops at its first cycle: an explicit stack of
    (step, state) pairs, each expanded by the same deltas the fold takes,
    built once per closing key.  A state pushed at a step is recorded
    there and never pushed again, so no pair is expanded twice, a closing
    delta listed more than once is taken once, and a graph without a
    Hamiltonian cycle costs at most the fold's states.  The walk answers
    True at the first state 0 after the last step.  Its tables and
    records are freed on return."""
    if g.n < 3:
        return False
    steps = list(_two_factor_steps(g, _closes_at_last))
    last = len(steps) - 1
    tables: list[dict] = [{} for _ in steps]
    seen: list[set[int]] = [set() for _ in steps]  # states pushed at each step
    stack = [(0, 0)]
    while stack:
        k, s = stack.pop()
        mask, build = steps[k]
        key = s & mask
        deltas = tables[k].get(key)
        if deltas is None:
            deltas = tables[k][key] = build(key)
        if k == last:
            if any(s ^ d == 0 for d in deltas):
                return True
            continue
        pushed = seen[k + 1]
        for d in deltas:
            t = s ^ d
            if t not in pushed:
                pushed.add(t)
                stack.append((k + 1, t))
    return False


# -- the spanning forest and cyclic edge connectivity -----------------


def spanning_forest(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(roots, up, order): one spanning forest, grown by a graph search
    from each least vertex not yet reached, computed once per graph value
    and stored on it as ``_spanning_forest``.  roots[v] is the least
    vertex of v's component, so g is connected exactly when every root
    is 0 and Graph.components groups the vertices by root; up[v] is v's
    parent, -1 at a root, and order lists each vertex after its parent.
    cycle_labels reads its labels off the same forest, so a graph value
    asked only whether it is connected never computes them."""
    stored = getattr(g, "_spanning_forest", None)
    if stored is None:
        n = g.n
        roots = [-1] * n  # -1 until reached
        up = [-1] * n
        order: list[int] = []
        for root in range(n):
            if roots[root] >= 0:
                continue
            roots[root] = root
            stack = [root]
            while stack:
                u = stack.pop()
                order.append(u)
                for w in g._neighbors[u]:
                    if roots[w] < 0:
                        roots[w] = root
                        up[w] = u
                        stack.append(w)
        stored = (tuple(roots), tuple(up), tuple(order))
        object.__setattr__(g, "_spanning_forest", stored)
    return stored


def cycle_labels(g: Graph) -> tuple[int, ...]:
    """A cycle-space label per edge index, read off spanning_forest,
    computed once per graph value and stored on it as ``_cycle_labels``.

    The k-th non-tree edge carries its own bit ``1 << k``, and a tree edge
    the XOR of the bits of the non-tree edges with exactly one end in the
    subtree below it.  An edge set is a cut, the edges leaving some vertex
    set, exactly when it meets every cycle an even number of times; the
    fundamental cycles of the non-tree edges span the cycle space, so
    that parity check over them is enough, and it reads: the set's labels
    XOR to 0.  So a bridge is an edge labelled 0, and G - e is connected
    exactly when G is and e's label is not 0."""
    stored = getattr(g, "_cycle_labels", None)
    if stored is None:
        _roots, up, order = spanning_forest(g)
        edges, index = g.edges, g._index
        # the tree edge into each vertex but a root
        into = {v: index[(p, v) if p < v else (v, p)] for v, p in enumerate(up) if p >= 0}
        tree = set(into.values())
        labels = [0] * len(edges)
        below = [0] * g.n  # XOR of the non-tree bits at each vertex, then its subtree
        bit = 1
        for i, (u, v) in enumerate(edges):
            if i not in tree:
                labels[i] = bit
                below[u] ^= bit
                below[v] ^= bit
                bit <<= 1
        # a non-tree edge with both ends in a subtree adds its bit twice
        for v in reversed(order):
            p = up[v]
            if p >= 0:
                labels[into[v]] = below[v]
                below[p] ^= below[v]
        stored = tuple(labels)
        object.__setattr__(g, "_cycle_labels", stored)
    return stored


def cyclically_edge_connected_at_least(g: Graph, n: int) -> bool:
    """True iff no set S of at most n-1 edges separates the cubic graph g
    into two parts that both contain a cycle.

    Defined for cubic graphs only.  By Lovasz's 1965 characterization the
    only simple cubic graphs without two vertex-disjoint cycles are K4 and
    K3,3, where the question is undefined.  A disconnected cubic graph
    fails every level: each of its components holds a cycle.

    Matching-cut lemma.  A connected cubic graph has a violating set of at
    most k edges iff some nonempty matching of at most k edges is a cut,
    that is, its cycle_labels XOR to 0.  (=>) A smallest violating set is
    an edge cut delta(A), nonempty as G is connected, and any vertex with
    two cut edges could be moved across the cut to produce a strictly
    smaller violating set (its side keeps its cycle, since at most one of
    the vertex's edges stays inside).  So it is a matching.  (<=) Let a
    matching M be the cut delta(A).  Every edge leaving a component C of
    G[A] lies in M, and M takes at most one edge from each vertex, so
    every vertex of C keeps two edges inside C, and C holds a cycle; so
    does each component of the other side, and removing M separates them.

    Search.  A bridge (label 0) is a violating set of one edge.  Larger
    violating matchings are found by growing matchings S in increasing
    edge order from the empty one, each closed by an edge f above its
    last one and free of S and an edge f' above f labelled XOR(S) ^
    label(f), found by one lookup of the greatest edge in a label ->
    edges index.  A violating matching, sorted by index, is found at the
    S of all but its last two edges, so the empty S finds the cuts of two
    edges (equal labels).

    Closing lemma.  An edge set T whose labels XOR to 0 and whose edges
    but the last form a matching is violating; so is every set the
    search finds, though f' may meet S or f.  T = delta(A) with A and its
    complement nonempty.  A vertex meets at most two edges of T, and each
    side holds at most one that meets two, an end of the last edge.  A
    component of either side that is a tree of t vertices sends t + 2
    edges into T, which needs a vertex meeting three (t = 1) or two
    vertices meeting two (t >= 2).  So every component holds a cycle.

    Orbit pruning.  An automorphism maps matching cuts to matching cuts,
    so the least edge of S ranges over orbit minima only
    (isomorphism.edge_orbits).  Let r be the least orbit minimum among a
    violating matching's edges, at s: an automorphism taking s to r takes
    every other edge of the matching into an orbit with minimum at least
    r, onto an edge other than r, so above r, and the image is enumerated
    with r first.
    """
    if n < 2:
        raise DomainError("connectivity level must be at least 2")
    if not is_cubic(g):
        raise DomainError("cyclic edge connectivity is computed for cubic graphs only")
    if g.n == 4 or (g.n == 6 and girth(g) == 4):
        raise CyclicConnectivityUndefinedError(
            "graph has no pair of disjoint cycles"
        )
    labels = cycle_labels(g)
    if not g.is_connected() or 0 in labels:  # or a bridge
        return False
    edges, m = g.edges, g.m
    index: dict[int, list[int]] = {}  # label -> edges, in increasing order
    for i, label in enumerate(labels):
        index.setdefault(label, []).append(i)
    none = (-1,)  # the lookup default, shared rather than built per lookup
    used = [False] * g.n  # the ends of S's edges

    def grows(choices: Iterable[int], last: int, want: int, room: int) -> bool:
        for i in range(last + 1, m):
            u, v = edges[i]
            if not used[u] and not used[v] and index.get(want ^ labels[i], none)[-1] > i:
                return True
        if room < 3:
            return False
        for i in choices:
            u, v = edges[i]
            if used[u] or used[v]:
                continue
            used[u] = used[v] = True
            hit = grows(range(i + 1, m), i, want ^ labels[i], room - 1)
            used[u] = used[v] = False
            if hit:
                return True
        return False

    # the least edge of S is an orbit minimum (a function-level import:
    # isomorphism imports this module)
    from .isomorphism import edge_orbits

    reps = [orbit[0] for orbit in edge_orbits(g)] if n > 3 else ()
    return n < 3 or not grows(reps, -1, 0, n - 1)
