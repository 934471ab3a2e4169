"""Independent brute-force oracles used to pin expected values.

Nothing here shares code with the package internals: coloring counts come
from one-factorization counting (cubic) or naive index-order backtracking
(small quasi-cubic), two-factors come from perfect-matching complements,
even-cycle covers are listed by path search (the package sums 2^cycles
over them with its frontier DP over 2-factors and never lists them),
cyclic connectivity checks enumerate every subset, every matching with
one union-find pass each, or every matching one edge smaller with one
bridge-finding DFS each (the package reads a violating set as a matching
whose stored cycle-space labels XOR to 0 and finds its last edge by a
label lookup).  An edge set is a cut when one union-find pass with
parities puts the ends of each kept edge on one side and those of each
removed edge on opposite sides (the package XORs the edges' labels), and
G - e is connected when a search of G - e from an end of e reaches every
vertex (the package reads e's label).  Hamiltonian cycles come from
path backtracking or from every vertex ordering (the package counts them
with its frontier DP over 2-factors).  Orthogonality has two routes: the
package's former decision by walking one coloring per decomposition
(the one oracle here that calls package code, its enumerator and chain
walk), and a count of the matching complements that hold both edges on
one even cycle.  Kempe chains come from a DFS over the two-colored edges
that finds path ends by counting chain edges per vertex (the package
walks the chain), and pentagon-union components from growing the
pentagon's edge set until it is stable (the package takes a component of
the pentagon-edge subgraph).  The frontier order's greedy search keeps its
former tuple keys and key function here (the package ranks candidates by
one packed int).  Edge and vertex orbits come from listing every
automorphism with the package's unpinned matcher, which test_isomorphism
checks against networkx (the package finds edge orbits from a few pinned
searches).  psi's smoothed count removes the edge, smooths its ends away
with the package's surgery and counts the smaller graph's decompositions
with the package's kernel (the package's psi_counts reads every edge's
count from one pass over the host's Klein flows).  A coloring step table
comes from testing every product of closing and opening colors against
the vertex rule (the package shifts the shape's valid colorings onto the
step's slots).  The isomorphism search's vertex invariant keeps its former
form here, valence and sorted BFS distances from one search per vertex
(the package counts the vertices in balls grown for all vertices at once).
A graph6 body is decoded by reading every pair bit in turn (the package
reads the set bits alone and inverts each bit position to its pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Optional, Sequence

import networkx as nx

from snarkforge.coloring import EdgeColoring, count_decompositions, enumerate_decompositions
from snarkforge.errors import DomainError
from snarkforge.graph import (
    Cycle,
    EdgeLike,
    Graph,
    contract_removed_edge,
    is_cubic,
    list_pentagons,
    resolve_edge,
)
from snarkforge.isomorphism import automorphisms
from snarkforge.kempe import kempe_chain_two_colors


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def perfect_matchings(g: Graph) -> list[frozenset[int]]:
    """All perfect matchings, as frozensets of edge indexes."""
    out: list[frozenset[int]] = []
    covered = [False] * g.n
    chosen: list[int] = []

    def rec():
        free = next((v for v in range(g.n) if not covered[v]), None)
        if free is None:
            out.append(frozenset(chosen))
            return
        for i in g.incident_edges(free):
            u, v = g.edges[i]
            w = v if u == free else u
            if covered[w]:
                continue
            covered[free] = covered[w] = True
            chosen.append(i)
            rec()
            chosen.pop()
            covered[free] = covered[w] = False

    if g.n % 2 == 0:
        rec()
    return out


def count_ed_by_factorization(g: Graph) -> int:
    """Decomposition count of a cubic graph: partitions of the edge set
    into three perfect matchings, counted via disjoint matching pairs."""
    assert all(g.valence(v) == 3 for v in range(g.n))
    pms = perfect_matchings(g)
    pm_set = set(pms)
    all_edges = frozenset(range(g.m))
    pairs = 0
    for a, b in combinations(pms, 2):
        if a & b:
            continue
        if (all_edges - a - b) in pm_set:
            pairs += 1
    # each 3-matching partition appears once per unordered pair inside it
    assert pairs % 3 == 0
    return pairs // 3


def count_ec_by_factorization(g: Graph) -> int:
    return 6 * count_ed_by_factorization(g)


def naive_colorings(g: Graph) -> Iterator[tuple[int, ...]]:
    """Every proper edge-3-coloring as a tuple of colors indexed by edge,
    by backtracking in plain edge-index order with an explicit adjacency
    scan per assignment; no propagation ordering, no bit tricks."""
    colors = [0] * g.m

    def ok(i: int, c: int) -> bool:
        u, v = g.edges[i]
        for w in (u, v):
            for j in g.incident_edges(w):
                if j != i and colors[j] == c:
                    return False
        return True

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == g.m:
            yield tuple(colors)
            return
        for c in (1, 2, 3):
            if ok(i, c):
                colors[i] = c
                yield from rec(i + 1)
                colors[i] = 0

    return rec(0)


def naive_count_colorings(g: Graph) -> int:
    return sum(1 for _ in naive_colorings(g))


def two_factors_by_matching(g: Graph) -> list[frozenset[int]]:
    """2-factors of a cubic graph = complements of perfect matchings,
    returned as edge-index sets."""
    all_edges = frozenset(range(g.m))
    return [all_edges - pm for pm in perfect_matchings(g)]


def cycle_split(g: Graph, edge_set: frozenset[int]) -> list[list[int]]:
    """Split a 2-regular edge set into its cycles (vertex lists)."""
    adj: dict[int, list[int]] = {}
    for i in edge_set:
        u, v = g.edges[i]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set[int] = set()
    cycles = []
    for start in sorted(adj):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        prev, cur = None, start
        while True:
            nxt = next(w for w in adj[cur] if w != prev)
            if nxt == start:
                break
            cyc.append(nxt)
            seen.add(nxt)
            prev, cur = cur, nxt
        cycles.append(cyc)
    return cycles


def even_cover_sum_by_matchings(g: Graph, d1: int, d2: int) -> int:
    """Sum of 2^(cycle count) over all-even 2-factors avoiding both edges."""
    total = 0
    for tf in two_factors_by_matching(g):
        if d1 in tf or d2 in tf:
            continue
        cycles = cycle_split(g, tf)
        if all(len(c) % 2 == 0 for c in cycles):
            total += 2 ** len(cycles)
    return total


@dataclass(frozen=True)
class EvenCycleCover:
    """A spanning union of disjoint even cycles."""

    cycles: tuple[Cycle, ...]

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    def edge_pairs(self) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for c in self.cycles:
            out.update(c.edge_pairs())
        return out


def even_cycle_covers(h: Graph, d1: EdgeLike, d2: EdgeLike) -> list[EvenCycleCover]:
    """All spanning even-cycle covers of h that avoid both marked edges.

    Exact-cover search over vertices: grow a cycle from the least
    uncovered vertex using only allowed edges and uncovered vertices,
    check parity at closure, then recurse on what remains.  Each cycle is
    rooted at its least vertex with a fixed orientation, so every cover
    is produced exactly once.
    """
    if not is_cubic(h):
        raise DomainError("cover enumeration is defined for cubic hosts")
    banned = {resolve_edge(h, d1).index, resolve_edge(h, d2).index}
    allowed = [
        [j for j in h.incident_edges(v) if j not in banned] for v in range(h.n)
    ]
    covered = [False] * h.n
    covers: list[EvenCycleCover] = []
    chosen: list[Cycle] = []

    def other_end(edge_idx: int, v: int) -> int:
        a, b = h.edges[edge_idx]
        return b if a == v else a

    def grow(root: int, v: int, path: list[int]) -> None:
        for j in allowed[v]:
            w = other_end(j, v)
            if w == root:
                if len(path) >= 3 and len(path) % 2 == 0 and path[1] < path[-1]:
                    close(path)
                continue
            if covered[w] or w < root:
                continue
            covered[w] = True
            path.append(w)
            grow(root, w, path)
            path.pop()
            covered[w] = False

    def close(path: list[int]) -> None:
        # Every path vertex is already marked covered by grow/descend, so
        # the cycle can be committed without touching that state.
        chosen.append(Cycle.from_vertices(path))
        descend()
        chosen.pop()

    def descend() -> None:
        root = next((v for v in range(h.n) if not covered[v]), None)
        if root is None:
            covers.append(EvenCycleCover(tuple(chosen)))
            return
        covered[root] = True
        grow(root, root, [root])
        covered[root] = False

    descend()
    return covers


def cyclic_connectivity_violated_exhaustive(g: Graph, max_cut: int) -> bool:
    """Any edge set of size <= max_cut whose removal leaves two components
    that each contain a cycle?  All subsets, no shortcuts."""
    G = to_nx(g)
    for k in range(max_cut + 1):
        for subset in combinations(range(g.m), k):
            H = G.copy()
            H.remove_edges_from(g.edges[i] for i in subset)
            comps_with_cycle = 0
            for comp in nx.connected_components(H):
                sub = H.subgraph(comp)
                if sub.number_of_edges() >= sub.number_of_nodes():
                    comps_with_cycle += 1
            if comps_with_cycle >= 2:
                return True
    return False


def cyclic_connectivity_violated_by_matchings(g: Graph, max_cut: int) -> bool:
    """Any matching of at most max_cut edges whose removal leaves two
    components that each contain a cycle?  One union-find pass over the
    kept edges per candidate matching."""

    def violating(removed: list[bool]) -> bool:
        parent = list(range(g.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, (u, v) in enumerate(g.edges):
            if not removed[i]:
                parent[find(u)] = find(v)
        nverts = [0] * g.n
        medges = [0] * g.n
        for v in range(g.n):
            nverts[find(v)] += 1
        for i, (u, v) in enumerate(g.edges):
            if not removed[i]:
                medges[find(u)] += 1
        return sum(1 for r in range(g.n) if nverts[r] and medges[r] >= nverts[r]) >= 2

    removed = [False] * g.m
    used = [False] * g.n

    def rec(start: int, room: int) -> bool:
        if violating(removed):
            return True
        if room == 0:
            return False
        for i in range(start, g.m):
            u, v = g.edges[i]
            if used[u] or used[v]:
                continue
            removed[i] = True
            used[u] = used[v] = True
            hit = rec(i + 1, room - 1)
            removed[i] = False
            used[u] = used[v] = False
            if hit:
                return True
        return False

    return rec(0, max_cut)


def _violating_with_one_more(
    adj: Sequence[tuple[tuple[int, int], ...]], removed: Sequence[bool]
) -> bool:
    """Does removing the flagged edges, plus at most one more edge, leave
    two components that each contain a cycle?

    One iterative lowlink DFS over G - S (S the flagged edges) records each
    component's vertex and edge counts, each DFS subtree's vertex and
    degree sums, and the bridges.  Removing a non-bridge b cannot raise the
    number of cyclic components, and removing a bridge raises it by at most
    one, so S + b violates exactly when G - S already has two cyclic
    components or b is a bridge of a cyclic component with a cycle on both
    sides.  A side keeps a cycle when it has at least as many inner edges
    as vertices.
    """
    n = len(adj)
    disc = [0] * n  # discovery time, 0 while unvisited
    low = [0] * n
    size = [1] * n  # vertices in the DFS subtree
    deg = [0] * n  # degree sum over the DFS subtree
    clock = 0
    cyclic = 0
    for root in range(n):
        if disc[root]:
            continue
        first = clock + 1
        clock = first
        disc[root] = low[root] = clock
        bridges = []  # subtree roots hanging from a bridge
        # entries: vertex, the edge it was reached by, its adjacency iterator
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, via, rest = stack[-1]
            for w, e in rest:
                if removed[e]:
                    continue
                deg[v] += 1
                if e == via:
                    continue
                if disc[w]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append((w, e, iter(adj[w])))
                    break
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    size[p] += size[v]
                    deg[p] += deg[v]
                    if low[v] > disc[p]:
                        bridges.append(v)
        comp_v = clock - first + 1
        comp_e = deg[root] // 2
        if comp_e < comp_v:
            continue
        cyclic += 1
        if cyclic >= 2:
            return True
        for c in bridges:
            # the bridge is the only edge leaving c's subtree
            inner = (deg[c] - 1) // 2
            if inner >= size[c] and comp_e - 1 - inner >= comp_v - size[c]:
                return True
    return False


def cyclic_connectivity_violated_by_bridges(g: Graph, max_cut: int) -> bool:
    """Any matching of at most max_cut edges whose removal leaves two
    components that each contain a cycle?  Every matching of at most
    max_cut - 1 edges gets one lowlink DFS that finds the last edge as a
    bridge (Tarjan 1974), one edge more than the package enumerates."""
    adj = [tuple(zip(g.neighbors(x), g.incident_edges(x))) for x in range(g.n)]
    removed = [False] * g.m
    used = [False] * g.n

    def rec(start: int, room: int) -> bool:
        if _violating_with_one_more(adj, removed):
            return True
        if room == 0:
            return False
        for i in range(start, g.m):
            u, v = g.edges[i]
            if used[u] or used[v]:
                continue
            removed[i] = True
            used[u] = used[v] = True
            hit = rec(i + 1, room - 1)
            removed[i] = False
            used[u] = used[v] = False
            if hit:
                return True
        return False

    return rec(0, max_cut - 1)


def is_cut_by_union_find(g: Graph, subset: Iterable[int]) -> bool:
    """Is the edge set the cut of some vertex set, every edge with one end
    in it?  One union-find pass with parities: a kept edge puts its ends
    on one side, an edge of the set on opposite sides, and an edge that
    closes a cycle of the wrong parity shows that no vertex set fits."""
    parent = list(range(g.n))
    flip = [0] * g.n  # side relative to the parent

    def find(x: int) -> tuple[int, int]:
        side = 0
        while parent[x] != x:
            side ^= flip[x]
            x = parent[x]
        return x, side

    chosen = set(subset)
    for i, (u, v) in enumerate(g.edges):
        (ru, su), (rv, sv) = find(u), find(v)
        apart = int(i in chosen)
        if ru == rv:
            if su ^ sv != apart:
                return False
        else:
            parent[ru] = rv
            flip[ru] = su ^ sv ^ apart
    return True


def smoothable_by_search(g: Graph, edges: Iterable[EdgeLike]) -> Iterator[int]:
    """The index of each given edge in turn, with the DomainError the
    smoothed route raises at the first edge where it fails: the surgery's
    conditions on the host, raised by the surgery itself at the first
    edge, then one graph search of g without e from an end of e, which
    must reach every vertex."""
    for k, e in enumerate(edges):
        ref = resolve_edge(g, e)
        if not k:
            contract_removed_edge(g, ref)
        u, v = ref.pair
        seen, todo = {u}, [u]
        while todo:
            x = todo.pop()
            for y in g.neighbors(x):
                if y not in seen and {x, y} != {u, v}:
                    seen.add(y)
                    todo.append(y)
        if len(seen) < g.n:
            raise DomainError("graph must be connected")
        yield ref.index


def hamiltonian_by_backtracking(g: Graph) -> bool:
    """True iff some cycle visits every vertex exactly once, by growing a
    path from vertex 0 depth-first.

    Pruning: with the path ending at ``head`` and due back at vertex 0,
    every unvisited vertex still needs two route neighbors drawn from the
    unvisited set plus the two open endpoints, a necessary condition that
    kills most dead branches early.
    """
    n = g.n
    if n < 3:
        return False
    if any(g.valence(v) < 2 for v in range(n)):
        return False
    neighbors = [g.neighbors(v) for v in range(n)]
    nbr_sets = [frozenset(a) for a in neighbors]
    visited = [False] * n
    visited[0] = True
    unvisited_deg = [g.valence(v) for v in range(n)]
    for w in neighbors[0]:
        unvisited_deg[w] -= 1

    def feasible(head: int) -> bool:
        for x in range(n):
            if visited[x]:
                continue
            if unvisited_deg[x] + (x in nbr_sets[head]) + (x in nbr_sets[0]) < 2:
                return False
        return True

    def extend(v: int, count: int) -> bool:
        if count == n:
            return 0 in nbr_sets[v]
        for w in neighbors[v]:
            if visited[w]:
                continue
            visited[w] = True
            for x in neighbors[w]:
                unvisited_deg[x] -= 1
            if feasible(w) and extend(w, count + 1):
                return True
            for x in neighbors[w]:
                unvisited_deg[x] += 1
            visited[w] = False
        return False

    return extend(0, 1)


def hamiltonian_cycles_by_permutations(g: Graph) -> int:
    """Number of Hamiltonian cycles: every ordering of the vertices other
    than 0 that closes a cycle through 0, halved for the two directions."""
    if g.n < 3:
        return 0
    found = sum(
        all(g.has_edge(a, b) for a, b in zip((0,) + rest, rest + (0,)))
        for rest in permutations(range(1, g.n))
    )
    return found // 2


def hamiltonian_by_cycle_enumeration(g: Graph) -> bool:
    """Hamiltonicity via networkx cycle enumeration."""
    G = to_nx(g)
    return any(len(c) == g.n for c in nx.simple_cycles(G))


def has_two_disjoint_cycles_by_enumeration(g: Graph) -> bool:
    """Is there a cycle C such that G - V(C) still has a cycle?  Tries
    every cycle networkx enumerates."""
    G = to_nx(g)
    for cycle in nx.simple_cycles(G):
        rest = G.copy()
        rest.remove_nodes_from(cycle)
        if nx.cycle_basis(rest):
            return True
    return False


def cocyclic_pairs_by_naive_colorings(g: Graph) -> set[tuple[int, int]]:
    """Edge pairs (i, j), i < j, that lie on one two-colored cycle in some
    edge-3-coloring: for every naive coloring and every color pair, the
    networkx components of the subgraph of the edges with those colors,
    kept when each of their vertices has degree 2."""
    out: set[tuple[int, int]] = set()
    for colors in naive_colorings(g):
        for pair in ((1, 2), (1, 3), (2, 3)):
            H = nx.Graph()
            H.add_edges_from(
                (*g.edges[i], {"index": i}) for i in range(g.m) if colors[i] in pair
            )
            for comp in nx.connected_components(H):
                sub = H.subgraph(comp)
                if all(d == 2 for _, d in sub.degree()):
                    idx = sorted(i for _, _, i in sub.edges(data="index"))
                    out.update(combinations(idx, 2))
    return out


def orthogonal_by_decompositions(h: Graph, d1: int, d2: int) -> bool:
    """Is no two-colored cycle through both edges in any coloring?  In one
    coloring per decomposition (a color permutation keeps each
    two-colored cycle's edge set), walk the cycle through d1 for the pair
    {c(d1), c(d2)}, or for both pairs holding c(d1) when the two colors
    are equal.  An uncolorable host is a DomainError."""
    seen_any = False
    for rep in enumerate_decompositions(h):
        seen_any = True
        x, y = rep.colors[d1], rep.colors[d2]
        others = (y,) if x != y else [z for z in (1, 2, 3) if z != x]
        if any(d2 in kempe_chain_two_colors(rep, x, z, d1).edge_indexes for z in others):
            return False
    if not seen_any:
        raise DomainError("host graph is uncolorable")
    return True


def cocyclic_factors_by_matchings(g: Graph, d1: int, d2: int) -> int:
    """Number of 2-factors (perfect matching complements) whose cycles are
    all even and that hold both edges on one cycle."""
    total = 0
    for tf in two_factors_by_matching(g):
        if d1 not in tf or d2 not in tf:
            continue
        cycles = cycle_split(g, tf)
        if any(len(c) % 2 for c in cycles):
            continue
        (home,) = [c for c in cycles if g.edges[d1][0] in c]
        total += g.edges[d2][0] in home
    return total


def chain_by_dfs(
    coloring: EdgeColoring, x: int, y: int, seed: int
) -> tuple[frozenset[int], tuple[int, ...]]:
    """(edges, sorted path ends) of the xy-chain through the seed edge: a
    DFS over the xy-colored edges, with the ends found as the vertices
    that meet exactly one chain edge."""
    g = coloring.graph
    in_chain = {seed}
    stack = [seed]
    touched: dict[int, int] = {}  # vertex -> number of chain edges at it
    while stack:
        i = stack.pop()
        for v in g.edges[i]:
            touched[v] = touched.get(v, 0) + 1
            for j in g.incident_edges(v):
                if j not in in_chain and coloring.colors[j] in (x, y):
                    in_chain.add(j)
                    stack.append(j)
    ends = tuple(sorted(v for v, cnt in touched.items() if cnt == 1))
    return frozenset(in_chain), ends


def pentagon_union_by_growth(g: Graph, p: Cycle) -> set[tuple[int, int]]:
    """Edges of the component of the pentagon union through p, grown from
    p's edges by adding every union edge that meets a vertex already
    reached, until nothing is added."""
    union_edges: set[tuple[int, int]] = set()
    for pent in list_pentagons(g):
        union_edges.update(pent.edge_pairs())
    comp = set(p.edge_pairs())
    grew = True
    while grew:
        grew = False
        verts = {v for pair in comp for v in pair}
        for pair in union_edges - comp:
            if pair[0] in verts or pair[1] in verts:
                comp.add(pair)
                grew = True
    return comp


def greedy_order_by_tuple_keys(
    g: Graph, start: int, by_age: bool, bound: float
) -> Optional[tuple[int, tuple[int, ...]]]:
    """graph._greedy_order with the candidates in a set, picked by
    ``min`` over the key (-placed neighbours, step of the oldest frontier
    edge, label), or (-placed neighbours, label)."""
    placed = [False] * g.n
    seen = [0] * g.n
    first = [0] * g.n
    cands: set[int] = set()
    order: list[int] = []
    width = cost = 0
    key = (lambda w: (-seen[w], first[w], w)) if by_age else (lambda w: (-seen[w], w))
    v = start
    for step in range(g.n):
        order.append(v)
        placed[v] = True
        cands.discard(v)
        width += g.valence(v) - 2 * seen[v]
        cost += 3**width
        if cost >= bound:
            return None
        for w in g.neighbors(v):
            if not placed[w]:
                if not seen[w]:
                    first[w] = step
                    cands.add(w)
                seen[w] += 1
        if cands:
            v = min(cands, key=key)
        elif step + 1 < g.n:
            v = placed.index(False)
    return cost, tuple(order)


def refined_vertex_classes(g: Graph) -> list[list[int]]:
    """The classes of sorted_bfs_distances, split again and again while
    two members of a class have different multisets of neighbour classes;
    each class sorted, classes ordered by least member.  Every
    automorphism keeps each class."""
    color = sorted_bfs_distances(g)
    count = len(set(color))
    while True:
        names: dict = {}
        color = [
            names.setdefault((color[v], tuple(sorted(color[w] for w in g.neighbors(v)))), len(names))
            for v in range(g.n)
        ]
        if len(names) == count:
            break
        count = len(names)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(color):
        classes.setdefault(c, []).append(v)
    return list(classes.values())


def frontier_order_by_tuple_keys(
    g: Graph, starts: Optional[Iterable[int]] = None
) -> tuple[int, ...]:
    """The best greedy order by the sum of 3^|frontier|, both tie rules
    from each of ``starts`` in turn, the first found winning ties.  The
    starts default to the least vertex of each refined_vertex_classes
    class, as graph.frontier_order takes them; ``range(g.n)`` gives the
    search from every vertex, the cost reference."""
    if starts is None:
        starts = [members[0] for members in refined_vertex_classes(g)]
    best = (float("inf"), ())
    for start in starts:
        for by_age in (True, False):
            best = greedy_order_by_tuple_keys(g, start, by_age, best[0]) or best
    return best[1]


def order_cost(g: Graph, order) -> int:
    """The sum of 3^|frontier| over the steps of ``order``: the edges
    between placed and unplaced vertices after each placement."""
    pos = {v: k for k, v in enumerate(order)}
    return sum(
        3 ** sum(min(pos[u], pos[v]) <= k < max(pos[u], pos[v]) for u, v in g.edges)
        for k in range(g.n)
    )


def orbit_partition(size: int, images) -> list[list[int]]:
    """Classes of 0..size-1 under the maps in ``images`` (each a list
    sending i to its image), each class sorted, classes ordered by least
    member."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for image in images:
        for i in range(size):
            ri, rj = find(i), find(image[i])
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(size):
        groups.setdefault(find(i), []).append(i)
    return sorted((sorted(v) for v in groups.values()), key=lambda o: o[0])


def edge_orbits_by_all_automorphisms(g: Graph) -> list[list[int]]:
    """Partition of edge indexes into automorphism orbits, each orbit
    sorted, orbits ordered by least member, uniting every edge with its
    image under every automorphism."""
    return orbit_partition(
        g.m,
        (
            [g.edge_index(perm[u], perm[v]) for u, v in g.edges]
            for perm in automorphisms(g)
        ),
    )


def vertex_orbits(g: Graph) -> list[list[int]]:
    """Automorphism orbits on vertices, same ordering conventions as
    edge_orbits_by_all_automorphisms."""
    return orbit_partition(g.n, automorphisms(g))


def sorted_bfs_distances(g: Graph) -> list[tuple]:
    """Per vertex: its valence and its sorted BFS distances to all
    vertices, -1 for those out of reach."""
    out = []
    for root in range(g.n):
        dist = [-1] * g.n
        dist[root] = 0
        queue = [root]
        for u in queue:
            for w in g.neighbors(u):
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append((g.valence(root), tuple(sorted(dist))))
    return out


def smoothed_decomposition_count(g: Graph, e: EdgeLike) -> int:
    """Decompositions of g with e removed and its ends smoothed away,
    counted on that smaller graph, with the surgery's and the count's
    DomainErrors."""
    return count_decompositions(contract_removed_edge(g, e)[0])


def step_table_by_products(
    closing: tuple[int, ...], opening: tuple[tuple[int, Optional[int]], ...]
) -> tuple[int, dict[int, tuple[int, ...]]]:
    """coloring._step_table's (mask, table), built by testing every product
    of closing colors (0 to 3) and opening colors (the pin, or 1 to 3)
    against the vertex rule: all colors distinct and nonzero, or exactly
    one 0 with the rest sharing one nonzero color."""
    mask = sum(3 << 2 * x for x in closing)
    choices = [(1, 2, 3) if pin is None else (pin,) for _, pin in opening]
    slots = [x for x, _ in opening]
    packed = [(new, sum(c << 2 * x for c, x in zip(new, slots))) for new in product(*choices)]
    table: dict[int, tuple[int, ...]] = {}
    for known in product(range(4), repeat=len(closing)):
        adds = []
        for new, add in packed:
            here = known + new
            zeros, nonzero = here.count(0), set(here) - {0}
            if (not zeros and len(nonzero) == len(here)) or (zeros == 1 and len(nonzero) < 2):
                adds.append(add)
        if adds:
            key = sum(c << 2 * x for c, x in zip(known, closing))
            table[key] = tuple(map(key.__xor__, adds))
    return mask, table


def decode_graph6_by_pair_bits(text: str) -> Graph:
    """A graph6 string decoded as graph6.decode_graph6 once did it, for
    well-formed strings without header: the body is read bit by bit, most
    significant bit of each digit first, against every pair (i, j), i < j,
    in the format's column order, and the bits past the last pair are
    never read.  The size prefix is one digit, or ``~`` and three, or
    ``~~`` and six."""
    s = text.strip()
    width = 1 if s[0] != "~" else 4 if s[1] != "~" else 8
    n = 0
    for c in s[(width > 1) + (width > 4):width]:
        n = n << 6 | ord(c) - 63
    bits = ((ord(c) - 63 >> k) & 1 for c in s[width:] for k in range(5, -1, -1))
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return Graph.from_edges(n, [pair for pair, bit in zip(pairs, bits) if bit])
