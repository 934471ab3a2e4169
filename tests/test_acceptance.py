"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines; every check is exact integer equality, and the timing
bounds are asserted where a criterion states one.
"""

import random
import time
from contextlib import contextmanager

from oracles import even_cycle_covers
from snarkforge.graph import (
    contract_removed_edge,
    delete_edges,
    girth,
    cyclically_edge_connected_at_least,
    is_hamiltonian,
    list_pentagons,
    pendant_edges,
)
from snarkforge.klein import ZERO
from snarkforge.coloring import (
    count_colorings,
    count_decompositions,
    enumerate_colorings,
    parity_residual,
    psi,
    psi_with_counts,
)
from snarkforge.construct import pentagon_join, petersen, superpose_52, wheel_w8
from snarkforge.covers import even_cover_sum, kaszonyi_sum_check
from snarkforge.isomorphism import edge_orbits, is_isomorphic
from snarkforge.kempe import (
    kempe_chain_two_colors,
    kempe_swap,
    orthogonal_pairs,
)
from snarkforge.ledger import Ledger, search, superpose_chain_family
from snarkforge.analyze import verify_thm_3_3, verify_thm_4_5, verify_thm_4_8
from snarkforge.recipe import evaluate_text


@contextmanager
def criterion(num, label, limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {label}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} {label}: PASS ({dt:.2f}s)")
    if limit is not None:
        assert dt < limit, f"criterion {num} exceeded {limit}s ({dt:.2f}s)"


def chain_graphs(depth):
    """The iterated splice chain plus edge refs into the innermost block."""
    P = petersen()
    inner_pairs = [e for e in P.edges if 0 not in e and 6 not in e]
    g = P
    refs = {pair: pair for pair in inner_pairs}
    for step in range(depth):
        if step == 0:
            res = superpose_52(P, 0, P, 0, 6)
        else:
            res = superpose_52(P, 0, g, g.n - 5, g.n - 2)
        refs = {
            pair: res.map_star_edge(g, refs[pair]).pair for pair in inner_pairs
        }
        g = res.graph
    return g, [refs[pair] for pair in inner_pairs]


def test_criterion_1_petersen_baseline():
    with criterion(1, "Petersen baseline", limit=1.0):
        P = petersen()
        assert count_colorings(P) == 0
        assert girth(P) == 5
        assert cyclically_edge_connected_at_least(P, 4)
        assert all(psi(P, i) == 1 for i in range(15))


def test_criterion_2_wheel_identity():
    with criterion(2, "wheel identity"):
        P = petersen()
        W, _, _ = wheel_w8()
        for i in range(15):
            reduced, _, _ = contract_removed_edge(P, i)
            assert is_isomorphic(reduced, W)
        assert count_decompositions(W) == 3
        assert count_colorings(W) == 18


def test_criterion_3_triple_count_suite():
    with criterion(3, "triple-count identity suite", limit=30.0):
        P = petersen()
        for i in range(P.m):
            assert verify_thm_3_3(P, i).passed
        J5 = evaluate_text("(flower 5)")
        for orbit in edge_orbits(J5):
            assert verify_thm_3_3(J5, orbit[0]).passed
        res = pentagon_join(P, list_pentagons(P)[0], P, list_pentagons(P)[0])
        for i in range(res.graph.m):
            assert verify_thm_3_3(res.graph, i).passed


def test_criterion_4_cover_sum_suite():
    with criterion(4, "even-cover sum suite"):
        P = petersen()
        W, spokes, rim = wheel_w8()
        covers = even_cycle_covers(W, spokes[0], spokes[2])
        assert len(covers) == 1
        assert covers[0].cycle_count == 1
        assert covers[0].edge_pairs() == {r.pair for r in rim}
        assert even_cover_sum(W, spokes[0], spokes[2]) == 2
        assert kaszonyi_sum_check(W, spokes[0], spokes[2]) == (3, 3, True)

        instances = []
        J5 = evaluate_text("(flower 5)")
        instances.append(contract_removed_edge(J5, 0))
        sp = superpose_52(P, 0, P, 0, 6)
        instances.append(
            contract_removed_edge(sp.graph, sp.map_star_edge(P, (1, 2)))
        )
        for reduced, d1, d2 in instances:
            lhs, rhs, equal = kaszonyi_sum_check(reduced, d1, d2)
            assert equal, (lhs, rhs)
        # parity consequence on every instance above
        parity_cases = [(W, 3)] + [
            (red, count_decompositions(red)) for red, _, _ in instances
        ]
        for reduced, ned in parity_cases:
            if not is_hamiltonian(reduced):
                assert (ned // 3) % 2 == 0


def test_criterion_5_pentagon_suite():
    with criterion(5, "pentagon identity suite"):
        P = petersen()
        for p in list_pentagons(P):
            report = verify_thm_4_5(P, p)
            assert report.passed
            assert report.quantities["ed_count"] == 5
            assert report.quantities["class_counts"] == [1] * 5
            assert report.quantities["psi"] == 1
        J5 = evaluate_text("(flower 5)")
        report = verify_thm_4_5(J5, list_pentagons(J5)[0])
        assert report.passed
        assert report.quantities["psi"] == 2
        assert report.quantities["ed_count"] == 10


def test_criterion_6_pentagon_join_factorization():
    with criterion(6, "pentagon join factorization"):
        P = petersen()
        p = list_pentagons(P)[0]
        report = verify_thm_4_8(P, p, P, p)
        assert report.passed
        res = pentagon_join(P, p, P, p)
        surviving = [
            (a, b)
            for a, b in P.edges
            if a in res.star_map and b in res.star_map
        ]
        for pair in surviving:
            assert psi(res.graph, res.map_star_edge(P, pair)) == 1
            assert psi(res.graph, res.map_prime_edge(P, pair)) == 1
        J5 = evaluate_text("(flower 5)")
        mixed = verify_thm_4_8(J5, list_pentagons(J5)[0], P, p)
        assert mixed.passed


def test_criterion_7_superposition_chain():
    with criterion(7, "superposition chain psi doubling", limit=300.0):
        for j in (1, 2):
            g, inner_refs = chain_graphs(j)
            assert g.n == {1: 22, 2: 34}[j]
            for pair in inner_refs:
                val, _ned, ec = psi_with_counts(g, pair)
                assert val == 2**j
                assert ec == 18 * 2**j


def test_criterion_7_optional_j3():
    with criterion(7, "superposition chain depth 3 (optional)"):
        g, inner_refs = chain_graphs(3)
        assert g.n == 46
        val, _ned, ec = psi_with_counts(g, inner_refs[0])
        assert val == 8 and ec == 144


def test_criterion_8_parity_properties():
    with criterion(8, "pendant parity properties"):
        P = petersen()
        J5 = evaluate_text("(flower 5)")
        hosts = [delete_edges(P, p.edge_pairs()) for p in list_pentagons(P)]
        hosts.append(delete_edges(J5, list_pentagons(J5)[0].edge_pairs()))
        for g in hosts:
            pend = pendant_edges(g)
            assert len(pend) == 5
            count = 0
            for coloring in enumerate_colorings(g):
                count += 1
                assert parity_residual(g, coloring) == ZERO
                split = sorted(
                    sum(1 for i in pend if coloring.colors[i] == c)
                    for c in (1, 2, 3)
                )
                assert split == [1, 1, 3]
            assert count > 0


def test_criterion_9_kempe_properties():
    with criterion(9, "Kempe swap properties"):
        W, _, _ = wheel_w8()
        P = petersen()
        J5 = evaluate_text("(flower 5)")

        def chains_of(coloring):
            g = coloring.graph
            for x, y in ((1, 2), (1, 3), (2, 3)):
                done = set()
                for i in range(g.m):
                    if i in done or coloring.colors[i] not in (x, y):
                        continue
                    chain = kempe_chain_two_colors(coloring, x, y, i)
                    done |= chain.edge_indexes
                    yield chain

        # exhaustively on the wheel: every chain of every coloring
        for coloring in enumerate_colorings(W):
            for chain in chains_of(coloring):
                assert chain.is_cycle  # cubic host
                swapped = kempe_swap(coloring, chain)
                assert swapped.is_proper()
                again = kempe_chain_two_colors(
                    swapped, *sorted(chain.colors), next(iter(chain.edge_indexes))
                )
                assert kempe_swap(swapped, again) == coloring

        # sampled on larger hosts
        rng = random.Random(2024)
        larger = [
            contract_removed_edge(J5, 0)[0],
            delete_edges(P, list_pentagons(P)[0].edge_pairs()),
        ]
        for g in larger:
            pool = list(enumerate_colorings(g))
            for coloring in rng.sample(pool, min(100, len(pool))):
                for chain in chains_of(coloring):
                    swapped = kempe_swap(coloring, chain)
                    assert swapped.is_proper()
                    again = kempe_chain_two_colors(
                        swapped,
                        *sorted(chain.colors),
                        next(iter(chain.edge_indexes)),
                    )
                    assert kempe_swap(swapped, again) == coloring


def test_criterion_10_orthogonal_pairs():
    with criterion(10, "orthogonal pair census"):
        W, spokes, _ = wheel_w8()
        pairs = set(orthogonal_pairs(W))
        assert tuple(sorted((spokes[0].index, spokes[2].index))) in pairs
        assert tuple(sorted((spokes[1].index, spokes[3].index))) in pairs
        # recorded census for the smoothed dot product of two Petersens
        dp = evaluate_text("(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1)")
        reduced, d1, d2 = contract_removed_edge(dp, 20)
        census = orthogonal_pairs(reduced)
        assert tuple(sorted((d1.index, d2.index))) in set(census)
        assert len(census) >= 1


def test_criterion_11_ledger_reproducibility(tmp_path):
    with criterion(11, "ledger reproducibility"):
        led = Ledger(str(tmp_path / "acceptance.jsonl"))
        consumed = list(search(superpose_chain_family(2), led))
        assert consumed
        achieved = set(led.achieved())
        assert {1, 2, 4} <= achieved
        for rec in led.psi_records():
            assert led.reverify(rec)
