"""Edge-3-coloring enumeration and counting, decomposition counts, the
pendant-edge parity residual, and the psi number of a snark edge.

Colors are the three nonzero Klein-group elements (see klein.py).  One
kernel serves counting and enumeration alike: it places the vertices in
graph.frontier_order, the order of the 2-factor DP behind the cover sum
and the Hamiltonian count too, and each placement closes the edges back
to placed vertices and extends the new ones over the colors (or pins)
that do not clash, in the style of Sekine-Imai-Tani frontier counting.
Counts (colorings, decompositions, psi) fold those steps breadth-first,
keeping for each coloring of the edges crossing the cut how many partial
colorings reach it; explicit colorings come from walking the same steps
depth-first.  psi at many edges of one host (psi_counts) folds the same
steps once forward and once in reverse over the host's Klein flows, with
no smoothing, and the reverse fold also counts the host's colorings;
psi_with_counts recounts one edge forward on the host's own steps, with
graph.smoothed_layout's changes at the few steps smoothing touches.
The order is searched once per graph value, and a smoothed graph
inherits its host's order (graph.contract_removed_edge); the frontier
edges keep the slots of graph.frontier_layout, derived once per order,
which names the edge in every slot and stores each step's slot tuples, so
no kernel here derives a slot from incident_edges or a slot tuple from
the pairs; the placement steps are stored once per graph
value, pins patched in per count.  A step reads one table, cached per
step, from the colors key of the slots it closes to the XOR deltas
key ^ add, one per packing add of colors onto the edges it opens, so
graph.frontier_step moves each state with one lookup; the table shifts
the colorings its vertex's shape allows, listed once per shape, onto
its slots.

A decomposition is counted as the one coloring with colors 1, 2, 3 on the
edges of a trivalent pivot.  Counts pin the first trivalent vertex of the
frontier order, so the DP carries one color permutation, not six, from
its first trivalent placement on; enumeration pins the lowest-label
trivalent vertex, so its representatives do not depend on the order.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, CountContradictionError, DomainError
from .graph import (
    EdgeLike,
    Graph,
    Slots,
    _smoothable,
    frontier_layout,
    frontier_order,
    frontier_step,
    is_quasi_cubic,
    pendant_edges,
    resolve_edge,
    smoothed_layout,
)
from .klein import COLORS, color_name, group_add, parse_color
from .value import Value, set_field


class EdgeColoring(Value):
    """A total proper assignment edge index -> color for a host graph."""

    graph: Graph
    colors: tuple[int, ...]

    def __init__(self, graph: Graph, colors: tuple[int, ...]):
        set_field(self, "graph", graph)
        set_field(self, "colors", colors)
        if len(colors) != graph.m:
            raise DomainError("coloring must assign every edge")

    def color(self, e: EdgeLike) -> int:
        return self.colors[resolve_edge(self.graph, e).index]

    def is_proper(self) -> bool:
        if not all(c in COLORS for c in self.colors):
            return False
        for v in range(self.graph.n):
            inc = self.graph.incident_edges(v)
            seen = 0
            for i in inc:
                bit = 1 << self.colors[i]
                if seen & bit:
                    return False
                seen |= bit
        return True

    def to_text(self) -> str:
        """Line-oriented form: one ``<edge index> <color name>`` per line."""
        return "\n".join(
            f"{i} {color_name(c)}" for i, c in enumerate(self.colors)
        ) + "\n"

    @classmethod
    def from_text(cls, graph: Graph, text: str) -> "EdgeColoring":
        assign: dict[int, int] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            idx_s, name = line.split()
            assign[int(idx_s)] = parse_color(name)
        if sorted(assign) != list(range(graph.m)):
            raise DomainError("coloring text does not cover the edge set")
        return cls(graph, tuple(assign[i] for i in range(graph.m)))


# -- enumeration and counting kernels ------------------------------------


def _check_colorable_shape(g: Graph) -> set[int]:
    """g's valences, read in one pass, once g is connected with valence <= 3."""
    valences = set(map(len, g._neighbors))
    if max(valences) > 3:
        raise DomainError("edge-3-coloring needs maximum valence 3")
    if not g.is_connected():
        raise DomainError("graph must be connected")
    return valences


def _check_decomposable(g: Graph):
    if not _check_colorable_shape(g) <= {1, 3}:
        raise DomainError("decomposition counting is defined for quasi-cubic graphs")


_Table = dict[int, tuple[int, ...]]
_Step = tuple[tuple[tuple[int, int], ...], int, _Table]


@cache
def _vertex_colorings(closes: int, pins: tuple[Optional[int], ...]) -> tuple[tuple, tuple]:
    """(opens, moves) for a vertex closing ``closes`` edges and opening edges
    pinned by ``pins`` (None or a color, 0 included): ``opens`` lists the
    opening colors, the pin or else a nonzero color, in itertools.product
    order, and ``moves`` pairs each closing-color tuple with the indexes in
    ``opens`` it allows, in lexicographic order.  A vertex allows distinct
    nonzero colors, or one 0 (psi_counts' zero edge) with the rest sharing
    a nonzero color, so that the colors sum to zero."""
    d = closes + len(pins)
    allowed = set(permutations(COLORS, d))
    allowed.update((c,) * k + (0,) + (c,) * (d - 1 - k) for k in range(d) for c in COLORS)
    opens = tuple(product(*[COLORS if pin is None else (pin,) for pin in pins]))
    where = {new: j for j, new in enumerate(opens)}
    moves: dict[tuple[int, ...], list[int]] = {}
    for colors in sorted(allowed):
        if colors[closes:] in where:
            moves.setdefault(colors[:closes], []).append(where[colors[closes:]])
    return opens, tuple((known, tuple(js)) for known, js in moves.items())


@cache
def _step_table(
    closing: Slots, opening: Slots, pins: Optional[tuple[Optional[int], ...]] = None
) -> tuple[int, _Table]:
    """(mask, table) for a step that closes the ``closing`` slots and opens
    the ``opening`` ones, each pinned by ``pins`` (None or a color per
    opening slot; no pins when None): ``mask`` covers the closing slots'
    two color bits each, and table[key] holds key ^ add for every packing
    add of colors onto the opening slots that the vertex allows after the
    closing colors key = s & mask, which frontier_step turns into
    s ^ key ^ add.  It shifts the shape's _vertex_colorings onto the
    slots; a delta starts from the key, as an opening slot may be one the
    step closes.  Keys without a move are left out.  Built once and
    shared, so callers only read it.  The slot tuples are read off
    graph.frontier_layout's steps, which store them."""
    mask = sum(3 << 2 * x for x in closing)
    opens, moves = _vertex_colorings(len(closing), pins or (None,) * len(opening))
    slots = [2 * x for x in opening]
    adds = [sum([c << x for c, x in zip(new, slots)]) for new in opens]
    shifts = [2 * x for x in closing]
    table: _Table = {}
    for known, js in moves:
        key = sum([c << x for c, x in zip(known, shifts)])
        table[key] = tuple([key ^ adds[j] for j in js])
    return mask, table


def _placement_steps(g: Graph, fixed: Optional[dict[int, int]] = None) -> Sequence[_Step]:
    """The vertex placements every kernel walks, in graph.frontier_order.

    A partial coloring is the colors on the frontier edges (one endpoint
    placed), packed two bits per graph.frontier_layout slot into an int.
    Each step is (opening, mask, table): the layout's (edge, slot) pairs
    of the edges the vertex opens, and the _step_table of its closing and
    opening slots with the pins in ``fixed``.

    The unpinned steps are derived once per graph value and stored on it
    as ``_placement``, with the edge -> step map that gives the step
    opening each edge (_psi_pass reads it too); a pinned call copies them
    and rebuilds only the steps that open a pinned edge.  The stored
    steps and their tables are shared, so callers only read them."""
    layout = frontier_layout(g)[0]
    stored = getattr(g, "_placement", None)
    if stored is None:
        steps = tuple([(opening, *_step_table(closes, opens))
                       for _closing, opening, closes, opens in layout])
        opener = {i: k for k, step in enumerate(layout) for i, _ in step[1]}
        stored = steps, opener
        object.__setattr__(g, "_placement", stored)
    steps, opener = stored
    if not fixed:
        return steps
    pinned = list(steps)
    for k in {opener[i] for i in fixed}:
        _closing, opening, closes, opens = layout[k]
        pins = tuple([fixed.get(i) for i, _ in opening])
        pinned[k] = (opening, *_step_table(closes, opens, pins))
    return pinned


def _count_frontier(
    g: Graph,
    fixed: Optional[dict[int, int]] = None,
    node_budget: Optional[int] = None,
) -> int:
    """Number of proper total colorings extending ``fixed``: the fold of
    the placement steps."""
    return _fold((step[1:] for step in _placement_steps(g, fixed)), node_budget)


def _fold(steps: Iterable[tuple[int, _Table]], node_budget: Optional[int]) -> int:
    """Folds (mask, table) steps breadth-first, mapping each frontier state
    to how many partial colorings reach it: a step drops states whose
    closing colors clash and extends the rest.  ``node_budget`` caps the
    number of states generated."""
    states = {0: 1}
    generated = 0
    for mask, table in steps:
        states = frontier_step(states, mask, table)
        generated = _spend(generated, states, node_budget)
        if not states:
            return 0
    return states.get(0, 0)


def _spend(generated: int, states: dict, node_budget: Optional[int]) -> int:
    """Add a step's states to the running total, raising past the budget."""
    generated += len(states)
    if node_budget is not None and generated > node_budget:
        raise BudgetExceededError(f"coloring count exceeded {node_budget} DP states")
    return generated


def _search_colorings(
    g: Graph, fixed: Optional[dict[int, int]] = None
) -> Iterator[tuple[int, ...]]:
    """Yield every proper total coloring extending ``fixed``, as a tuple of
    colors indexed by edge, by walking the placement steps depth-first."""
    steps = _placement_steps(g, fixed)
    assign = [0] * g.m

    def walk(k: int, s: int) -> Iterator[tuple[int, ...]]:
        if k == len(steps):
            yield tuple(assign)
            return
        opening, mask, table = steps[k]
        for d in table.get(s & mask, ()):
            t = s ^ d
            for i, x in opening:
                assign[i] = t >> 2 * x & 3
            yield from walk(k + 1, t)

    yield from walk(0, 0)


# -- public counting API -------------------------------------------------


def count_colorings(g: Graph, node_budget: Optional[int] = None) -> int:
    """Exact number of proper edge-3-colorings of a connected graph with
    maximum valence 3: with a trivalent vertex, six times the count pinned
    at count_decompositions' pivot, since each coloring is one of the six
    color permutations of one pinned coloring; ``node_budget`` caps the
    states of that pinned fold.  Paths and cycles take the plain fold."""
    if 3 not in _check_colorable_shape(g):
        return _count_frontier(g, node_budget=node_budget)
    pins = _decomposition_fixing(g, frontier_order(g))
    return 6 * _count_frontier(g, pins, node_budget)


def enumerate_colorings(g: Graph) -> Iterator[EdgeColoring]:
    """Yield each proper edge-3-coloring exactly once."""
    _check_colorable_shape(g)
    for assign in _search_colorings(g):
        yield EdgeColoring(g, assign)


def _decomposition_fixing(g: Graph, scan: Iterable[int]) -> dict[int, int]:
    """Pins 1, 2, 3 on the edges of the first trivalent vertex in ``scan``.
    Whichever trivalent vertex it is, each decomposition has exactly one
    coloring with those pins."""
    pivot = next((v for v in scan if g.valence(v) == 3), None)
    if pivot is None:
        raise DomainError("decomposition counting needs a trivalent vertex")
    e1, e2, e3 = g.incident_edges(pivot)
    return {e1: 1, e2: 2, e3: 3}


def count_decompositions(g: Graph, node_budget: Optional[int] = None) -> int:
    """Number of partitions of the edge set into three classes with no two
    adjacent edges sharing a class.

    Counted by pinning the three colors at one trivalent vertex, which
    selects exactly one coloring per decomposition; no division by the 6
    color permutations is ever performed.  The pivot is the first
    trivalent vertex of the frontier order, so the DP carries one color
    permutation from where it starts rather than all six until it reaches
    the pivot.
    """
    _check_decomposable(g)
    pins = _decomposition_fixing(g, frontier_order(g))
    return _count_frontier(g, pins, node_budget)


def count_same_class(g: Graph, edges: Iterable[EdgeLike]) -> int:
    """Number of decompositions that put all the given edges in one class.

    Each decomposition is counted as its coloring pinned at
    count_decompositions' pivot, with every given edge pinned as well, to
    1, 2 and 3 in turn; a color that clashes with a pivot pin on the same
    edge is skipped.  These pin sets differ from both count_decompositions'
    and color_pair_counts', so a class count is its own count rather than
    a sum or quotient of the others.
    """
    _check_decomposable(g)
    indexes = [resolve_edge(g, e).index for e in edges]
    if not indexes:
        raise DomainError("a class count needs at least one edge")
    pivot = _decomposition_fixing(g, frontier_order(g))
    total = 0
    for x in COLORS:
        pins = dict(pivot)
        if all(pins.setdefault(i, x) == x for i in indexes):
            total += _count_frontier(g, pins)
    return total


def enumerate_decompositions(g: Graph) -> Iterator[EdgeColoring]:
    """Yield one canonical coloring per decomposition: the representative
    with colors 1, 2, 3 on the edges of the lowest-label trivalent vertex.

    The pivot stays at the lowest label, not where the DP starts, so
    which coloring represents a decomposition depends on the graph value
    alone, never on the frontier order searched for it or inherited from
    a host."""
    _check_decomposable(g)
    for assign in _search_colorings(g, _decomposition_fixing(g, range(g.n))):
        yield EdgeColoring(g, assign)


# -- parity ---------------------------------------------------------------


def parity_residual(g: Graph, coloring: EdgeColoring) -> int:
    """Klein-group sum of the colors on pendant edges (edges meeting a
    univalent vertex).  Zero for every valid coloring."""
    if coloring.graph != g:
        raise DomainError("coloring does not belong to this graph")
    if not is_quasi_cubic(g):
        raise DomainError("parity residual is defined for quasi-cubic graphs")
    pend = pendant_edges(g)
    if not pend:
        raise DomainError("cubic graph has no pendant edges")
    total = 0
    for i in pend:
        total = group_add(total, coloring.colors[i])
    return total


# -- psi -------------------------------------------------------------------


def psi_from_count(ned: int) -> int:
    """psi from the decomposition count of the smoothed graph: one third
    of it.  The divisibility by 3 is guaranteed for snarks, and its
    failure raises CountContradictionError, never returns a wrong value."""
    if ned % 3:
        raise CountContradictionError(
            f"decomposition count {ned} of the reduced graph is not a multiple of 3"
        )
    return ned // 3


def psi_with_counts(
    g: Graph, e: EdgeLike, node_budget: Optional[int] = None
) -> tuple[int, int, int]:
    """(psi, |ED| of G_e, |EC| of G_e), where G_e is g with e = (u, v)
    removed and u and v smoothed away, |EC| comes from |ED| via the 6x
    correspondence, and the DomainErrors are those of smoothing e and
    counting G_e (graph._smoothable).

    |ED| is count_decompositions' fold of G_e, run on g's stored steps
    without building G_e (graph.smoothed_layout): u's and v's steps are
    skipped, every other step is g's own, and the four outer neighbours'
    steps and the pivot's, the first vertex of the order that is not u or
    v, read their tables from _step_table.  Each step generates the states
    G_e's own fold does, so ``node_budget`` truncates where it would.  The
    recount shares with psi_counts' pass only the order, the layout and
    the read-only tables: it folds proper colorings forward, with no zero
    color, no reverse fold, no relabelled sum and no halving."""
    i = next(_smoothable(g, [e]))
    ned = _fold(_smoothed_steps(g, i), node_budget)
    return psi_from_count(ned), ned, 6 * ned


def _smoothed_steps(g: Graph, i: int) -> list[tuple[int, _Table]]:
    """The (mask, table) steps of G_e's pinned fold, from g's placement
    steps and graph.smoothed_layout's changes to them; the pivot pins
    colors 1, 2, 3 on its three edges, all of them opening."""
    skipped, changed = smoothed_layout(g, i)
    pivot = min({0, 1, 2} - set(skipped))
    layout = frontier_layout(g)[0]
    steps = [step[1:] for step in _placement_steps(g)]
    for k in {pivot, *changed}:
        closes, opens = changed.get(k) or layout[k][2:]
        steps[k] = _step_table(closes, opens, COLORS if k == pivot else None)
    return [step for k, step in enumerate(steps) if k not in skipped]


def psi(g: Graph, e: EdgeLike) -> int:
    """The psi number of (g, e): one third of the decomposition count of
    the graph obtained by removing e and smoothing its endpoints away.

    The host must be a snark; the caller asserts it (see
    analyze.certify_snark).  Counted by psi_counts' pass at e alone."""
    i = next(_smoothable(g, [e]))
    return psi_from_count(_psi_pass(g, [i])[0][i])


# -- psi at many edges: one forward and one reverse pass ------------------


def psi_counts(g: Graph, edges: Iterable[EdgeLike]) -> dict[int, int]:
    """The decomposition count of the smoothed graph G_e (e removed, its
    ends smoothed away) at every given edge e, keyed by edge index in the
    order given: what psi_with_counts counts one edge at a time, from one
    forward and one reverse pass over the host, with the DomainErrors of
    smoothing at the first edge where smoothing would raise.

    Tait's correspondence (klein.py): giving e the group's zero and both
    edges at each end of e the color of the edge that smooths that end
    away turns the colorings of G_e into exactly the Klein flows of the
    host whose zero set is {e}, flows that sum to zero at every vertex.
    So ned(G_e) is that flow count over 6.  The forward pass is
    count_decompositions' fold, pinned at the first vertex of
    frontier_order, with its state map kept at each cut; the reverse pass
    places the same vertices last to first, each edge in the one slot
    graph.frontier_layout names for it, so that the two passes' keys
    agree at every cut, and pins the last vertex.  A reverse state may
    carry one zero, on a given edge, while that edge crosses the cut; at
    the last vertex a zero state (0, 1, 1) weighs 1 and the plain
    (1, 2, 3) weighs 2, which is what a sum over the six relabellings rho
    of the colors needs.  When e's zero closes at the k-th vertex, its
    states T_e meet the forward map F at the cut before it:

        ned(G_e) = 1/2 * sum_t F(t) * sum_rho T_e(rho t),    or T_e(0) / 2 when k = 0.

    Each halving is checked exact (CountContradictionError otherwise).
    The plain reverse states, which the zeros open from, run on to
    vertex 0, where they hold twice the host's decomposition count: the
    pass's second answer, 6 times that, is the host's edge-3-coloring
    count, what count_colorings folds forward.  Sekine, Imai and Tani
    (ISAAC 1995) read a transfer-matrix count the same way from both
    ends.  ledger.evaluate_recipe_records runs the pass under its node
    budget and certifies the host with its coloring count."""
    indexes = list(_smoothable(g, edges))
    return _psi_pass(g, indexes)[0] if indexes else {}


def _psi_pass(
    g: Graph, indexes: list[int], node_budget: Optional[int] = None
) -> tuple[dict[int, int], int]:
    """psi_counts' pass at edges whose preconditions _smoothable has
    checked, and the host's edge-3-coloring count: the plain reverse fold
    runs on to vertex 0, where it holds twice the host's decomposition
    count (the pinned last vertex weighs 2), and the host has 6 colorings
    per decomposition.  The slots are graph.frontier_layout's, a reverse
    step swapping a forward step's closing and opening slot tuples, and
    one loop steps each zero map, settling it at the step opening its edge.
    ``node_budget`` caps the states both passes generate."""
    layout, width = frontier_layout(g)
    steps = _placement_steps(g, _decomposition_fixing(g, frontier_order(g)))
    mask = sum(1 << 2 * x for x in range(width))
    # e opens forward at the stored step low[e] and closes there in reverse
    low = {i: g._placement[1][i] for i in indexes}
    keep = {k - 1 for k in low.values() if k}
    generated = 0

    forward: dict[int, dict[int, int]] = {}
    states = {0: 1}
    for k in range(max(keep, default=-1) + 1):
        _opening, step_mask, table = steps[k]
        states = frontier_step(states, step_mask, table)
        generated = _spend(generated, states, node_budget)
        if k in keep:
            forward[k] = states

    last = layout[-1][0]
    plain = {sum(c << 2 * x for c, (_, x) in zip(COLORS, last)): 2}
    zeros = {
        i: {sum(1 << 2 * x for j, x in last if j != i): 1} for i, _ in last if i in low
    }
    counts: dict[int, int] = {}
    for k in range(len(layout) - 2, -1, -1):
        # in reverse, step k closes what the forward step opened, and back
        closing, _opening, closes, opens = layout[k]
        step_mask, table = _step_table(opens, closes)
        for i, t_e in list(zeros.items()):
            zeros[i] = t_e = frontier_step(t_e, step_mask, table)
            generated = _spend(generated, t_e, node_budget)
            if low[i] == k:
                # the zero closes here: the table's zero rule makes the step
                del zeros[i]
                total = _relabelled_sum(t_e, forward[k - 1], mask) if k else t_e.get(0, 0)
                counts[i] = _halve(total, f"the flow count at edge {i}")
        for i, _x in closing:
            if i in low:
                # the zero opens here, as a pin 0 on e
                pins = tuple([0 if j == i else None for j, _ in closing])
                zeros[i] = frontier_step(plain, *_step_table(opens, closes, pins))
                generated = _spend(generated, zeros[i], node_budget)
        plain = frontier_step(plain, step_mask, table)
        generated = _spend(generated, plain, node_budget)
    host = _halve(plain.get(0, 0), "the host's weighted decomposition count")
    return {i: counts[i] for i in indexes}, 6 * host


def _halve(total: int, what: str) -> int:
    """total / 2, raising CountContradictionError when it is odd."""
    if total % 2:
        raise CountContradictionError(f"{what} is odd ({total}), not twice a count")
    return total // 2


def _relabelled_sum(a: dict[int, int], b: dict[int, int], mask: int) -> int:
    """sum_t a(t) * sum_rho b(rho t) over the six relabellings rho of the
    colors, which is symmetric in a and b, so the smaller map is walked.
    A relabelling is a linear map of the two color bits (klein.py), so it
    acts on every slot at once through the low bits (``mask``) and high
    bits of a state."""
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    total = 0
    for s, n_s in a.items():
        lo = s & mask
        hi = s >> 1 & mask
        mix = lo ^ hi
        total += n_s * (
            get(s, 0) + get(hi | lo << 1, 0) + get(lo | mix << 1, 0)
            + get(mix | hi << 1, 0) + get(hi | mix << 1, 0) + get(mix | lo << 1, 0)
        )
    return total
