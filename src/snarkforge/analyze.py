"""Snark certification and one machine check per counting identity, plus
Condition K, the predicate behind the open-problem searches (the
orthogonal pair census is kempe.orthogonal_pairs).

Each verifier returns a TheoremReport: the computed quantities, the exact
integer checks performed, and a pass/fail verdict.  All comparisons are
exact; there are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CyclicConnectivityUndefinedError, DomainError
from .graph import (
    Cycle,
    EdgeLike,
    Graph,
    contract_removed_edge,
    cyclically_edge_connected_at_least,
    girth,
    is_cubic,
    is_hamiltonian,
    list_pentagons,
    resolve_edge,
)
from .coloring import (
    count_colorings,
    count_decompositions,
    count_same_class,
    psi,
    psi_counts,
    psi_from_count,
)
from .construct import pentagon_join, remove_pentagon, superpose_52
from .covers import _cover_sum_side
from .kempe import cocyclic_factor_count, color_pair_counts
from .klein import COLORS
from .value import Value


class SnarkCertificate(Value):
    """Evidence for the three snark clauses at a given connectivity level."""

    girth: Optional[int]
    girth_ok: bool
    connectivity_level: int
    connectivity_ok: bool
    coloring_count: int

    @property
    def uncolorable(self) -> bool:
        return self.coloring_count == 0

    @property
    def passed(self) -> bool:
        return self.girth_ok and self.connectivity_ok and self.uncolorable

    def summary(self) -> str:
        return (
            f"girth={self.girth} cyc>={self.connectivity_level}:"
            f"{'y' if self.connectivity_ok else 'n'} EC={self.coloring_count} "
            f"{'pass' if self.passed else 'fail'}"
        )


def _snark_clauses(g: Graph, level: int = 4) -> tuple[Optional[int], bool, int, bool]:
    """SnarkCertificate's fields but the coloring count, the one place the
    girth and connectivity clauses are evaluated: girth at least 5 and
    cyclic edge connectivity at least ``level``, on a connected cubic
    graph (DomainError otherwise)."""
    if not is_cubic(g) or not g.is_connected():
        raise DomainError("certification expects a connected cubic graph")
    gv = girth(g)
    try:
        conn_ok = cyclically_edge_connected_at_least(g, level)
    except CyclicConnectivityUndefinedError:
        conn_ok = False
    return gv, gv is not None and gv >= 5, level, conn_ok


def certify_snark(g: Graph, level: int = 4) -> SnarkCertificate:
    """Evaluate the snark clauses: girth at least 5, cyclic edge
    connectivity at least ``level`` (both from _snark_clauses), and no
    edge-3-coloring, counted by count_colorings.  A search takes the
    count from its psi pass instead (ledger.evaluate_recipe_records)."""
    return SnarkCertificate(*_snark_clauses(g, level), count_colorings(g))


def is_snark(g: Graph) -> bool:
    """Certification predicate: a connected cubic graph that passes
    certify_snark at level 4."""
    return is_cubic(g) and g.is_connected() and certify_snark(g).passed


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one verification run: instance description, computed
    quantities, and the list of named exact checks."""

    theorem_id: str
    instance: str
    quantities: dict
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_text(self) -> str:
        lines = [f"theorem {self.theorem_id} on {self.instance}: {self.verdict}"]
        for key, val in self.quantities.items():
            lines.append(f"  {key} = {val}")
        for name, ok in self.checks:
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
        return "\n".join(lines) + "\n"


def verify_thm_3_3(g: Graph, e: EdgeLike) -> TheoremReport:
    """The triple-count identity at a removed edge: with L one third of
    the reduced graph's decomposition count, the d1~d2 class count is L,
    every one of the nine (color(d1), color(d2)) cells is 2L, and d1, d2
    are orthogonal whenever the reduced graph is colorable.

    Every quantity is a count of the coloring kernel under its own pins
    (kempe.color_pair_counts, coloring.count_same_class); orthogonality
    is the 2-factor count of kempe.cocyclic_factor_count, with the
    decomposition count as the colorability witness."""
    ref = resolve_edge(g, e)
    reduced, d1, d2 = contract_removed_edge(g, ref)
    ned = count_decompositions(reduced)
    big_l = ned // 3
    same_class = count_same_class(reduced, (d1, d2))
    table = color_pair_counts(reduced, d1, d2)
    checks = [
        ("decomposition count is 3L", ned == 3 * big_l),
        ("d1~d2 class count equals L", same_class == big_l),
        ("all nine color-pair cells equal 2L",
         all(table[(x, y)] == 2 * big_l for x in COLORS for y in COLORS)),
    ]
    colorable = ned > 0
    if colorable:
        checks.append(
            ("d1 and d2 orthogonal", not cocyclic_factor_count(reduced, d1, d2))
        )
    return TheoremReport(
        "3.3",
        f"edge {ref.index} {ref.pair}",
        {
            "L": big_l,
            "ed_count": ned,
            "same_class_count": same_class,
            "pair_table": {f"{x}{y}": table[(x, y)] for x in COLORS for y in COLORS},
            "reduced_colorable": colorable,
        },
        tuple(checks),
    )


def verify_thm_3_7(g: Graph, e: EdgeLike) -> TheoremReport:
    """The even-cover sum identity at a removed edge, plus the parity
    consequence: a non-Hamiltonian reduced graph forces an even psi."""
    ref = resolve_edge(g, e)
    reduced, d1, d2 = contract_removed_edge(g, ref)
    ned = count_decompositions(reduced)
    psi_val = ned // 3
    quantities = {"psi": psi_val, "ed_count": ned}
    checks: list[tuple[str, bool]] = [("psi is an integer", ned == 3 * psi_val)]
    if ned == 0:
        quantities["reduced_colorable"] = False
        checks.append(("psi even when reduced graph non-Hamiltonian", True))
    else:
        # covers.kaszonyi_sum_check's two sides, with ned as its count
        rhs = _cover_sum_side(reduced, d1, d2)
        ham = is_hamiltonian(reduced)
        quantities.update(
            {"reduced_colorable": True, "cover_sum_lhs": ned, "cover_sum_rhs": rhs,
             "reduced_hamiltonian": ham}
        )
        checks.append(("cover sum identity", ned == rhs))
        checks.append(
            ("psi even when reduced graph non-Hamiltonian", ham or psi_val % 2 == 0)
        )
    return TheoremReport("3.7", f"edge {ref.index} {ref.pair}", quantities, tuple(checks))


def _psis(g: Graph, edges: list[EdgeLike]) -> list[int]:
    """psi at each given edge, in the order given, from one
    coloring.psi_counts pass; a count that is not a multiple of 3 raises
    as psi does."""
    counts = psi_counts(g, edges)
    return [psi_from_count(counts[resolve_edge(g, e).index]) for e in edges]


def _pentagon_union_component(g: Graph, p: Cycle) -> set[tuple[int, int]]:
    """Edges of the connected component containing p inside the union of
    all pentagons of g."""
    union = {pair for pent in list_pentagons(g) for pair in pent.edge_pairs()}
    components = Graph.from_edges(g.n, union).components()
    comp = set(next(c for c in components if p.vertices[0] in c))
    return {pair for pair in union if pair[0] in comp}


def verify_thm_4_5(g: Graph, p: Cycle) -> TheoremReport:
    """Pentagon identities: psi is constant on the pentagon (and on the
    whole connected pentagon union through it), removing the pentagon's
    edges leaves 5*psi decompositions, and each of the five same-class
    pendant patterns accounts for exactly psi of them.

    Pattern k is the class count (coloring.count_same_class) of the
    pendant edges k-2, k and k+2.  The patterns exclude one another: the
    five pendant colors sum to 0 in the Klein group, so when a triple
    shares color x the other two pendants carry the two other colors.  The
    five counts thus add up to the decompositions in which some spread
    triple shares a class, and comparing that sum with the decomposition
    count checks that every decomposition has one."""
    reduced, pendants = remove_pentagon(g, p)
    union_comp = _pentagon_union_component(g, p)
    union_pairs = sorted(union_comp)
    union_psis = dict(zip(union_pairs, _psis(g, union_pairs)))
    psis = [union_psis[pair] for pair in p.edge_pairs()]
    psi_val = psis[0]
    ned = count_decompositions(reduced)
    pattern_counts = [
        count_same_class(reduced, [pendants[(k + d) % 5] for d in (-2, 0, 2)])
        for k in range(5)
    ]
    checks = [
        ("psi constant on pentagon edges", len(set(psis)) == 1),
        ("pentagon-free decomposition count is 5*psi", ned == 5 * psi_val),
        ("each spread-triple class count equals psi",
         all(c == psi_val for c in pattern_counts)),
        ("sum of class counts covers everything", sum(pattern_counts) == ned),
        ("psi constant on the pentagon union component",
         len(set(union_psis.values())) == 1),
    ]
    return TheoremReport(
        "4.5",
        f"pentagon {p.vertices}",
        {
            "psi": psi_val,
            "ed_count": ned,
            "class_counts": pattern_counts,
            "union_component_size": len(union_comp),
        },
        tuple(checks),
    )


def _eligible_edges(factor: Graph, vmap: dict[int, int]) -> list[tuple[int, int]]:
    """Factor edges that survive into the block ``vmap`` labels."""
    return [(a, b) for a, b in factor.edges if a in vmap and b in vmap]


def verify_thm_4_8(
    gp: Graph, pp: Cycle, gs: Graph, ps: Cycle, rotation: int = 0
) -> TheoremReport:
    """Pentagon join factorization: psi of a surviving second-factor edge
    is its factor psi times the first factor's pentagon psi, and
    symmetrically for surviving first-factor edges.  The five connecting
    edges are measured but not asserted."""
    res = pentagon_join(gp, pp, gs, ps, rotation)
    big = res.graph
    star = _eligible_edges(gs, res.star_map)
    prime = _eligible_edges(gp, res.prime_map)
    # each graph's psis from one pass: the pentagon edge first
    psi_ps, *star_psis = _psis(gs, [ps.edge_pairs()[0]] + star)
    psi_pp, *prime_psis = _psis(gp, [pp.edge_pairs()[0]] + prime)
    mapped = [res.map_star_edge(gs, pair) for pair in star]
    mapped += [res.map_prime_edge(gp, pair) for pair in prime]
    big_psis = _psis(big, mapped + list(res.connecting_edges))
    checked = [len(star), len(prime)]
    ok = [
        big_psis[:len(star)] == [x * psi_pp for x in star_psis],
        big_psis[len(star):len(mapped)] == [x * psi_ps for x in prime_psis],
    ]
    connecting_psi = dict(zip(res.connecting_edges, big_psis[len(mapped):]))
    return TheoremReport(
        "4.8",
        f"pentagon join ({gp.n}+{gs.n} vertices, rot={rotation})",
        {
            "first_factor_pentagon_psi": psi_pp,
            "second_factor_pentagon_psi": psi_ps,
            "second_block_edges_checked": checked[0],
            "first_block_edges_checked": checked[1],
            "connecting_psi": connecting_psi,
        },
        (
            ("psi multiplies on second-factor block", ok[0]),
            ("psi multiplies on first-factor block", ok[1]),
        ),
    )


def verify_thm_5_3(
    gp: Graph, e: EdgeLike, gs: Graph, u: int, v: int
) -> TheoremReport:
    """Edge-for-graph superposition: psi of a surviving second-factor edge
    equals twice its factor psi times the replaced edge's psi, every side
    counted with psi_counts' pass, one pass per graph."""
    ref = resolve_edge(gp, e)
    res = superpose_52(gp, ref, gs, u, v)
    big = res.graph
    psi_e = psi(gp, ref)
    pairs = _eligible_edges(gs, res.star_map)
    mapped = [res.map_star_edge(gs, pair).index for pair in pairs]
    big_counts = psi_counts(big, mapped)
    ok = True
    details = []
    for pair, i, factor_psi in zip(pairs, mapped, _psis(gs, pairs)):
        lhs, ec = psi_from_count(big_counts[i]), 6 * big_counts[i]
        rhs = 2 * factor_psi * psi_e
        details.append({"edge": pair, "psi": lhs, "expected": rhs, "ec": ec})
        ok = ok and lhs == rhs and ec == 18 * lhs
    return TheoremReport(
        "5.3",
        f"superposition ({gp.n}+{gs.n} vertices, e={ref.index}, u={u}, v={v})",
        {
            "replaced_edge_psi": psi_e,
            "edges_checked": len(details),
            "details": details,
        },
        (
            ("psi doubles-and-multiplies on the inserted block", ok),
        ),
    )


VERIFIERS = {
    "3.3": verify_thm_3_3,
    "3.7": verify_thm_3_7,
    "4.5": verify_thm_4_5,
    "4.8": verify_thm_4_8,
    "5.3": verify_thm_5_3,
}


def condition_k(g: Graph, e: EdgeLike) -> bool:
    """Does removing-and-smoothing this edge leave a colorable graph in
    which the two inserted edges are orthogonal?

    The host must be cubic, cyclically 4-edge-connected, with girth at
    least 5; its colorability is deliberately not assumed.
    """
    _, girth_ok, _, connectivity_ok = _snark_clauses(g)
    if not (girth_ok and connectivity_ok):
        raise DomainError(
            "Condition K expects girth at least 5 and cyclic 4-edge-connectivity"
        )
    reduced, d1, d2 = contract_removed_edge(g, e)
    if count_decompositions(reduced) == 0:
        return False
    return not cocyclic_factor_count(reduced, d1, d2)
