"""Spanning even-cycle covers avoiding a marked edge pair, and the count
identity that ties them to the decomposition count of the host.

A cover is a union of pairwise disjoint cycles that touches every vertex,
uses neither marked edge, and has every cycle of even length.  For a
cubic host these are exactly the all-even 2-factors avoiding the pair.

The cover side of the identity, the sum of 2^(number of cycles) over the
covers, comes from a frontier DP over 2-factors (``even_cover_sum``) that
shares no state or step with the coloring kernel.  ``even_cycle_covers``
lists the covers themselves by path search; it is kept for listing them
and serves as the DP's reference on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError
from .graph import Cycle, EdgeLike, Graph, is_cubic, resolve_edge
from .coloring import count_decompositions
from .kempe import are_orthogonal


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


def _cover_order(h: Graph) -> list[int]:
    """Vertex order for even_cover_sum: next is the unplaced vertex with
    the most placed neighbours, ties going to the smaller label."""
    placed = [False] * h.n
    seen = [0] * h.n
    order: list[int] = []
    for _ in range(h.n):
        v = max((w for w in range(h.n) if not placed[w]), key=lambda w: (seen[w], -w))
        placed[v] = True
        order.append(v)
        for w in h.neighbors(v):
            seen[w] += 1
    return order


def even_cover_sum(h: Graph, d1: EdgeLike, d2: EdgeLike) -> int:
    """Sum of 2^(number of cycles) over the spanning even-cycle covers of
    h that avoid both marked edges, without listing the covers.

    Frontier DP over 2-factors (the mate-and-parity technique of Knuth's
    SIMPATH, TAOCP 7.1.4, as generalised by Kawahara, Inoue, Iwashita and
    Minato, IEICE Trans. Fundamentals 2017).  The vertices are placed one
    at a time; a frontier edge has exactly one placed end.  A state gives
    each frontier edge -1 when it is outside the factor, or else
    2 * mate + parity: the mate is the frontier edge at the other end of
    its open path and the parity is that path's edge count mod 2.  Each
    state maps to the summed weight of the partial factors reaching it.
    A placed vertex takes exactly two factor edges, never d1 or d2: with
    no factor edge coming in it opens a path of two edges, with one it
    extends that path, and with two it joins their paths or, when the two
    are mates, closes a cycle, which is allowed only at even parity and
    doubles the weight.
    """
    if not is_cubic(h):
        raise DomainError("the cover sum is defined for cubic hosts")
    banned = {resolve_edge(h, d1).index, resolve_edge(h, d2).index}
    front: list[int] = []
    states: dict[tuple[int, ...], int] = {(): 1}
    for v in _cover_order(h):
        inc = h.incident_edges(v)
        at = {i: k for k, i in enumerate(front)}
        closing = [(i, at[i]) for i in inc if i in at]
        opening = [i for i in inc if i not in banned and i not in at]
        keep = [k for k, i in enumerate(front) if i not in inc]
        front = [front[k] for k in keep] + opening
        pos = {i: k for k, i in enumerate(front)}
        idle = [-1] * len(opening)
        nxt: dict[tuple[int, ...], int] = {}
        for s, w in states.items():
            ins = [(i, s[k]) for i, k in closing if s[k] >= 0]
            base = [s[k] for k in keep] + idle
            grown: list[list[int]] = []
            if not ins:
                for a, b in combinations(opening, 2):
                    t = base[:]
                    t[pos[a]], t[pos[b]] = 2 * b, 2 * a
                    grown.append(t)
            elif len(ins) == 1:
                ((_x, c),) = ins
                mate, par = c >> 1, (c & 1) ^ 1
                for y in opening:
                    t = base[:]
                    t[pos[y]], t[pos[mate]] = 2 * mate + par, 2 * y + par
                    grown.append(t)
            elif len(ins) == 2:
                (_x, cx), (y, cy) = ins
                if cx >> 1 == y:
                    if not cx & 1:
                        grown.append(base)
                        w *= 2
                else:
                    mx, my, par = cx >> 1, cy >> 1, (cx ^ cy) & 1
                    base[pos[mx]], base[pos[my]] = 2 * my + par, 2 * mx + par
                    grown.append(base)
            for t in grown:
                key = tuple(t)
                nxt[key] = nxt.get(key, 0) + w
        states = nxt
        if not states:
            return 0
    return states.get((), 0)


def kaszonyi_sum_check(
    h: Graph, d1: EdgeLike, d2: EdgeLike
) -> tuple[int, int, bool]:
    """Evaluate both sides of the cover-sum identity for an orthogonal
    edge pair: the decomposition count of h against
    (3/2) * sum over covers of 2^(number of cycles).

    Returns (lhs, rhs, equal).  The two sides come from independent
    routes: the coloring kernel's count, and the cover sum from
    even_cover_sum's frontier DP over 2-factors.
    """
    if not are_orthogonal(h, d1, d2):
        raise DomainError("the marked edges must be orthogonal")
    lhs = count_decompositions(h)
    total = even_cover_sum(h, d1, d2)
    if (3 * total) % 2:
        raise DomainError("cover sum is odd; identity inputs out of domain")
    rhs = (3 * total) // 2
    return lhs, rhs, lhs == rhs
