"""Spanning even-cycle covers avoiding a marked edge pair, and the count
identity that ties them to the decomposition count of the host.

A cover is a union of pairwise disjoint cycles that touches every vertex,
uses neither marked edge, and has every cycle of even length.  For a
cubic host these are exactly the all-even 2-factors avoiding the pair.

The cover side of the identity, the sum of 2^(number of cycles) over the
covers, comes from graph.py's frontier DP over 2-factors
(``even_cover_sum``), which shares no state or step with the coloring
kernel; the two DPs share only the vertex order, which sets what each
costs, never what it counts.  The covers are never listed: the identity
needs only the sum.
"""

from __future__ import annotations

from .errors import DomainError
from .graph import EdgeLike, Graph, is_cubic, resolve_edge, two_factor_fold
from .coloring import count_decompositions
from .kempe import cocyclic_factor_count


def even_cover_sum(h: Graph, d1: EdgeLike, d2: EdgeLike) -> int:
    """Sum of 2^(number of cycles) over the spanning even-cycle covers of
    h that avoid both marked edges, without listing the covers.

    graph.two_factor_fold with d1 and d2 banned and a closing rule that
    lets only an even cycle close and doubles the weight when one does.
    """
    if not is_cubic(h):
        raise DomainError("the cover sum is defined for cubic hosts")
    banned = {resolve_edge(h, d1).index, resolve_edge(h, d2).index}
    return two_factor_fold(h, lambda parity, _last, _marks: 0 if parity else 2, banned)


def kaszonyi_sum_check(
    h: Graph, d1: EdgeLike, d2: EdgeLike
) -> tuple[int, int, bool]:
    """Evaluate both sides of the cover-sum identity for an orthogonal
    edge pair: the decomposition count of h against
    (3/2) * sum over covers of 2^(number of cycles).

    Returns (lhs, rhs, equal).  The two sides come from independent
    routes: the coloring kernel's count, and the cover sum from
    even_cover_sum's frontier DP over 2-factors.  The count comes first
    and is also the colorability witness that orthogonality needs
    (kempe.are_orthogonal), so colorability is not counted twice.
    """
    lhs = count_decompositions(h)
    if not lhs:
        raise DomainError("host graph is uncolorable")
    rhs = _cover_sum_side(h, d1, d2)
    return lhs, rhs, lhs == rhs


def _cover_sum_side(h: Graph, d1: EdgeLike, d2: EdgeLike) -> int:
    """kaszonyi_sum_check's right side, (3/2) * even_cover_sum, on a host
    whose count the caller has found nonzero; analyze.verify_thm_3_7 has
    that count already and calls this, not the whole check."""
    if cocyclic_factor_count(h, d1, d2):
        raise DomainError("the marked edges must be orthogonal")
    total = even_cover_sum(h, d1, d2)
    if (3 * total) % 2:
        raise DomainError("cover sum is odd; identity inputs out of domain")
    return (3 * total) // 2
