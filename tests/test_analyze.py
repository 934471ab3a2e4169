from collections import Counter

import networkx as nx
import pytest

from oracles import pentagon_union_by_growth
from snarkforge import analyze, coloring, covers
from snarkforge.errors import DomainError
from snarkforge.graph import Graph, contract_removed_edge, list_pentagons
from snarkforge.construct import dot_product, flower, superpose_52
from snarkforge.isomorphism import edge_orbits
from snarkforge.kempe import orthogonal_pairs
from snarkforge.ledger import superpose_chain_family
from snarkforge.recipe import evaluate_text
from snarkforge.analyze import (
    _pentagon_union_component,
    certify_snark,
    condition_k,
    verify_thm_3_3,
    verify_thm_3_7,
    verify_thm_4_5,
    verify_thm_4_8,
    verify_thm_5_3,
)


def count_calls(monkeypatch, module, name, calls):
    """Wrap module.name in a call counter keyed by name."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def dodecahedron():
    return Graph.from_edges(20, list(nx.dodecahedral_graph().edges()))


class TestCertify:
    def test_petersen_passes(self, P):
        cert = certify_snark(P)
        assert cert.passed and cert.girth == 5 and cert.coloring_count == 0
        assert "pass" in cert.summary()

    def test_k4_fails_on_girth_and_colorability(self, K4):
        cert = certify_snark(K4)
        assert not cert.passed
        assert not cert.girth_ok
        assert not cert.uncolorable

    def test_prism_fails_connectivity(self, prism):
        cert = certify_snark(prism)
        assert not cert.connectivity_ok and not cert.girth_ok

    def test_dodecahedron_fails_only_colorability(self):
        cert = certify_snark(dodecahedron())
        assert cert.girth_ok and cert.connectivity_ok and not cert.uncolorable

    def test_flower7_passes_level_6(self):
        cert = certify_snark(flower(7), level=6)
        assert cert.passed and cert.connectivity_level == 6

    def test_non_cubic_rejected(self):
        with pytest.raises(DomainError):
            certify_snark(Graph.from_edges(2, [(0, 1)]))


class TestTheorem33:
    def test_petersen(self, P):
        report = verify_thm_3_3(P, 0)
        assert report.passed
        assert report.quantities["L"] == 1

    def test_flower_orbits(self, J5):
        values = {}
        for orbit in edge_orbits(J5):
            report = verify_thm_3_3(J5, orbit[0])
            assert report.passed, report.to_text()
            values[orbit[0]] = report.quantities["L"]
        assert sorted(values.values()) == [2, 3, 5, 6]

    def test_pentagon_join_all_edges(self, P):
        from snarkforge.construct import pentagon_join

        res = pentagon_join(P, list_pentagons(P)[0], P, list_pentagons(P)[0])
        for i in range(res.graph.m):
            assert verify_thm_3_3(res.graph, i).passed

    def test_report_serializes(self, P):
        text = verify_thm_3_3(P, 0).to_text()
        assert "theorem 3.3" in text and "pass" in text


class TestTheorem37:
    def test_petersen_reduction_is_hamiltonian(self, P):
        report = verify_thm_3_7(P, 0)
        assert report.passed
        # psi is odd here, so the reduced graph had to be Hamiltonian
        assert report.quantities["psi"] == 1
        assert report.quantities["reduced_hamiltonian"] is True
        assert report.quantities["cover_sum_lhs"] == 3
        assert report.quantities["cover_sum_rhs"] == 3

    def test_flower_and_superposition(self, P, J5):
        assert verify_thm_3_7(J5, 0).passed
        res = superpose_52(P, 0, P, 0, 6)
        report = verify_thm_3_7(res.graph, res.map_star_edge(P, (1, 2)))
        assert report.passed
        assert report.quantities["psi"] == 2

    def test_reduced_graph_counted_once(self, monkeypatch):
        # the cover identity's left side is the decomposition count the
        # report already holds, not a second count of the same graph
        calls = Counter()
        for module in (analyze, covers):
            count_calls(monkeypatch, module, "count_decompositions", calls)
        report = verify_thm_3_7(flower(9), 0)
        assert report.passed and report.quantities["reduced_colorable"]
        assert calls == {"count_decompositions": 1}


class TestTheorem45:
    def test_all_petersen_pentagons(self, P):
        for p in list_pentagons(P):
            report = verify_thm_4_5(P, p)
            assert report.passed, report.to_text()
            assert report.quantities["psi"] == 1
            assert report.quantities["ed_count"] == 5
            assert report.quantities["class_counts"] == [1, 1, 1, 1, 1]
            # every Petersen edge sits on a pentagon, all in one component
            assert report.quantities["union_component_size"] == 15

    def test_union_component_matches_growth(self, P, J5):
        # in the dot products a pentagon's component reaches pentagons
        # that share no edge with it
        hosts = [P, J5, flower(7)] + [evaluate_text(r) for r in superpose_chain_family(2)]
        hosts += [
            evaluate_text(f"(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1 wiring={w})")
            for w in ("parallel", "crossed")
        ]
        for g in hosts:
            for p in list_pentagons(g):
                assert _pentagon_union_component(g, p) == pentagon_union_by_growth(g, p)

    def test_union_psis_from_one_pass(self, monkeypatch, P):
        # P's 12 pentagons share one 15-edge union component: each report
        # reads its 15 psis from one pass, with no smoothing
        calls = Counter()
        count_calls(monkeypatch, analyze, "psi_counts", calls)
        count_calls(monkeypatch, analyze, "contract_removed_edge", calls)
        for p in list_pentagons(P):
            assert verify_thm_4_5(P, p).passed
        assert calls == {"psi_counts": 12}

    def test_flower_pentagon(self, J5):
        report = verify_thm_4_5(J5, list_pentagons(J5)[0])
        assert report.passed
        assert report.quantities["psi"] == 2
        assert report.quantities["ed_count"] == 10


class TestTheorem48:
    def test_petersen_pair(self, P):
        p = list_pentagons(P)[0]
        report = verify_thm_4_8(P, p, P, p)
        assert report.passed
        assert report.quantities["first_factor_pentagon_psi"] == 1
        assert set(report.quantities["connecting_psi"].values()) == {1}

    def test_mixed_flower_petersen(self, P, J5):
        report = verify_thm_4_8(J5, list_pentagons(J5)[0], P, list_pentagons(P)[0])
        assert report.passed
        assert report.quantities["first_factor_pentagon_psi"] == 2

    def test_nonzero_rotation(self, P):
        p = list_pentagons(P)[0]
        assert verify_thm_4_8(P, p, P, p, rotation=2).passed

    def test_one_pass_per_graph(self, monkeypatch, P, J5):
        # the joined graph, and each factor, give all their psis in one pass
        calls = Counter()
        count_calls(monkeypatch, analyze, "psi_counts", calls)
        count_calls(monkeypatch, analyze, "contract_removed_edge", calls)
        assert verify_thm_4_8(J5, list_pentagons(J5)[0], P, list_pentagons(P)[0]).passed
        assert calls == {"psi_counts": 3}


class TestTheorem53:
    def test_petersen_pair(self, P):
        report = verify_thm_5_3(P, 0, P, 0, 6)
        assert report.passed
        assert report.quantities["replaced_edge_psi"] == 1
        assert all(d["psi"] == 2 for d in report.quantities["details"])

    def test_stub_adjacent_edges_included(self, P):
        report = verify_thm_5_3(P, 0, P, 0, 6)
        stub_touching = [
            d for d in report.quantities["details"]
            if set(d["edge"]) & set(P.neighbors(0) + P.neighbors(6))
        ]
        assert stub_touching  # the general case gets exercised too

    def test_shared_neighbor_instance(self, P):
        assert verify_thm_5_3(P, 0, P, 0, 2).passed

    def test_mapped_and_factor_psis_from_one_pass_each(self, monkeypatch, P, J5):
        # the replaced edge's psi is a pass at its one edge; nothing smooths
        calls = Counter()
        count_calls(monkeypatch, analyze, "psi_counts", calls)
        count_calls(monkeypatch, coloring, "_psi_pass", calls)
        count_calls(monkeypatch, analyze, "contract_removed_edge", calls)
        assert verify_thm_5_3(P, 0, J5, 0, 6).passed
        assert calls == {"psi_counts": 2, "_psi_pass": 3}

    def test_every_surviving_edge_above_sixty_edges(self, P):
        # the combined graph has 72 edges; all 48 surviving flower(9) edges
        # are checked, not one per edge orbit
        report = verify_thm_5_3(P, 0, flower(9), 0, 6)
        assert report.passed
        assert report.quantities["edges_checked"] == 48


class TestConditionK:
    def test_every_petersen_edge(self, P):
        assert all(condition_k(P, i) for i in range(P.m))

    def test_flower_orbit_reps(self, J5):
        assert all(condition_k(J5, orbit[0]) for orbit in edge_orbits(J5))

    def test_dodecahedron_recorded_outcome(self):
        # a colorable host meeting the hypotheses: no orbit satisfies the
        # condition here, so this graph is no counterexample to the
        # condition-implies-snark question
        dod = dodecahedron()
        assert all(not condition_k(dod, orbit[0]) for orbit in edge_orbits(dod))

    def test_hypotheses_enforced(self, K4, prism):
        with pytest.raises(DomainError):
            condition_k(K4, 0)
        with pytest.raises(DomainError):
            condition_k(prism, 0)

    def test_counts_no_host_colorings(self, monkeypatch, P, J5, K4, prism):
        # the condition reads the girth and connectivity clauses alone
        dod = dodecahedron()
        cases = [(P, range(P.m))]
        cases += [(g, [orbit[0] for orbit in edge_orbits(g)]) for g in (J5, dod)]

        def answers():
            out = [[condition_k(g, e) for e in edges] for g, edges in cases]
            for g in (K4, prism):
                with pytest.raises(DomainError) as err:
                    condition_k(g, 0)
                out.append(str(err.value))
            return out

        expected = answers()

        def refuse(g):
            raise AssertionError("condition_k counted the host's colorings")

        monkeypatch.setattr(analyze, "count_colorings", refuse)
        assert answers() == expected


class TestOrthogonalCensus:
    def test_dot_product_reduction_census(self, P):
        res = dot_product(P, 0, 7, P, 0, 1)
        inner = res.map_star_edge(P, (7, 9))
        reduced, d1, d2 = contract_removed_edge(res.graph, inner)
        pairs = orthogonal_pairs(reduced)
        assert tuple(sorted((d1.index, d2.index))) in set(pairs)
        # recorded census: this reduction carries two orthogonal pairs
        assert len(pairs) == 2
