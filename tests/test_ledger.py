import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import snarkforge
from snarkforge import ledger as ledger_module
from snarkforge.errors import DomainError, LedgerIntegrityError
from snarkforge.graph import Graph
from snarkforge.graph6 import decode_graph6, encode_graph6
from snarkforge.ledger import (
    Ledger,
    PsiRecord,
    SearchBudget,
    TruncationRecord,
    evaluate_recipe_records,
    flower_family,
    pentagon_join_family,
    search,
    superpose_chain_family,
)


def make_record(P, psi=1, edge=0):
    return PsiRecord(
        recipe="(petersen)",
        graph6=encode_graph6(P),
        edge_index=edge,
        psi=psi,
        ec_count=psi * 18,
        certificate="girth=5 cyc>=4:y EC=0 pass",
        wall_time=0.01,
    )


class TestLedgerStore:
    def test_record_query_achieved(self, tmp_path, P):
        led = Ledger(str(tmp_path / "led.jsonl"))
        rid = led.record(make_record(P))
        assert rid == 1
        assert led.achieved() == [1]
        hits = led.query(1)
        assert len(hits) == 1 and hits[0].recipe == "(petersen)"
        assert led.query(7) == []

    def test_reload_from_disk(self, tmp_path, P):
        path = str(tmp_path / "led.jsonl")
        Ledger(path).record(make_record(P))
        led = Ledger(path)
        assert led.achieved() == [1]

    def test_achieved_monotone_under_record(self, tmp_path, P):
        led = Ledger(str(tmp_path / "led.jsonl"))
        seen = set()
        for psi in (1, 4, 2, 1):
            led.record(make_record(P, psi=psi))
            assert seen <= set(led.achieved())
            seen = set(led.achieved())

    def test_invariant_violation_rejected(self, tmp_path, P):
        led = Ledger(str(tmp_path / "led.jsonl"))
        bad = PsiRecord(
            recipe="(petersen)",
            graph6=encode_graph6(P),
            edge_index=0,
            psi=1,
            ec_count=17,
            certificate="",
            wall_time=0.0,
        )
        with pytest.raises(DomainError):
            led.record(bad)

    def test_corrupt_line_reports_record_id(self, tmp_path, P):
        good = make_record(P)
        # each a record whose JSON type differs from its field's annotation
        mistyped = [
            json.dumps({"kind": "psi", **vars(good), field: value})
            for field, value in [
                ("graph6", 5),
                ("psi", True),
                ("edge_index", 1.5),
                ("tags", "ab"),
                ("recipe", 5),
                ("wall_time", False),
            ]
        ]
        for n, bad in enumerate(["{not json", "[1, 2]", "7", *mistyped]):
            path = tmp_path / f"led{n}.jsonl"
            Ledger(str(path)).record(good)
            with open(path, "a") as fh:
                fh.write(bad + "\n")
            with pytest.raises(LedgerIntegrityError) as err:
                Ledger(str(path))
            assert err.value.record_id == 2, bad

    def test_integer_wall_time_loads(self, tmp_path, P):
        path = tmp_path / "led.jsonl"
        line = json.dumps({"kind": "psi", **vars(make_record(P)), "wall_time": 0})
        path.write_text(line + "\n")
        assert Ledger(str(path)).psi_records()[0].wall_time == 0

    def test_bad_edge_index_is_integrity_error_on_load(self, tmp_path, P):
        path = tmp_path / "led.jsonl"
        payload = {
            "kind": "psi",
            "recipe": "(petersen)",
            "graph6": encode_graph6(P),
            "edge_index": 99,
            "psi": 1,
            "ec_count": 18,
            "certificate": "",
            "wall_time": 0.0,
            "version": "0.1.0",
            "tags": [],
        }
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(LedgerIntegrityError):
            Ledger(str(path))

    @pytest.mark.parametrize("edge", [-1, 15])
    def test_shared_graph6_still_checks_every_index(self, tmp_path, P, edge):
        # a load decodes each graph6 string once; the record after the one
        # that decoded it is still bound-checked and named by its line
        lines = [
            json.dumps({"kind": "psi", **vars(make_record(P, edge=e)), "tags": []})
            for e in (0, 3, edge)
        ]
        path = tmp_path / "led.jsonl"
        path.write_text("\n".join(lines[:2]) + "\n")
        assert [r.edge_index for r in Ledger(str(path)).psi_records()] == [0, 3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerIntegrityError) as err:
            Ledger(str(path))
        assert err.value.record_id == 3
        # an append shares the decoded string with the records before it
        led = Ledger(str(tmp_path / "appended.jsonl"))
        led.record(make_record(P))
        with pytest.raises(DomainError):
            led.record(make_record(P, edge=edge))

    def test_appends_decode_each_graph6_once(self, tmp_path, monkeypatch):
        decoded = []

        def counting_decode(text):
            decoded.append(text)
            return decode_graph6(text)

        monkeypatch.setattr(ledger_module, "decode_graph6", counting_decode)
        entries = list(search(superpose_chain_family(3), Ledger(str(tmp_path / "led.jsonl"))))
        assert len(entries) == 88
        assert sorted(decoded) == sorted({e.graph6 for e in entries})
        assert len(decoded) == 4

    def test_query_prefers_smallest_witness(self, tmp_path, P, J5):
        led = Ledger(str(tmp_path / "led.jsonl"))
        big = PsiRecord(
            recipe="(flower 5)",
            graph6=encode_graph6(J5),
            edge_index=0,
            psi=1,
            ec_count=18,
            certificate="",
            wall_time=0.0,
        )
        led.record(big)
        led.record(make_record(P))
        assert led.query(1)[0].recipe == "(petersen)"

    def test_lines_match_the_asdict_form(self, tmp_path):
        # the asdict form of a record: its kind, then each field as vars()
        # lists it, since every field is a flat value
        psi = evaluate_recipe_records("(petersen)")[0]
        truncated = evaluate_recipe_records("(flower 15)", budget=SearchBudget(max_edges=80))[0]
        assert psi.tags and isinstance(truncated, TruncationRecord)
        want = [
            json.dumps({"kind": "psi", **vars(psi), "tags": list(psi.tags)}, sort_keys=True),
            json.dumps({"kind": "truncated", **vars(truncated)}, sort_keys=True),
        ]
        path = tmp_path / "led.jsonl"
        led = Ledger(str(path))
        for rec in (psi, truncated):
            led.record(rec)
        assert path.read_text().splitlines() == want

    def test_csv_export(self, tmp_path, P):
        led = Ledger(str(tmp_path / "led.jsonl"))
        led.record(make_record(P))
        out = tmp_path / "summary.csv"
        led.export_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "psi,witness_vertices,recipe"
        assert lines[1] == "1,10,(petersen)"

    def test_import_leaves_csv_and_multiprocessing_out(self):
        # export_csv and a pooled search import them when they run, so
        # start-up does not pay for them
        src = str(Path(snarkforge.__file__).resolve().parent.parent)
        code = "import sys, snarkforge; print('csv' in sys.modules, 'multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == ["False", "False"]


class TestRecipeEvaluation:
    def test_petersen_single_orbit_record(self):
        entries = evaluate_recipe_records("(petersen)")
        assert len(entries) == 1
        rec = entries[0]
        assert rec.psi == 1 and rec.ec_count == 18
        assert "pass" in rec.certificate
        assert "pentagon" in rec.tags

    def test_flower_produces_orbit_records(self):
        entries = evaluate_recipe_records("(flower 5)")
        assert len(entries) == 4
        assert sorted(e.psi for e in entries) == [2, 3, 5, 6]

    def test_flower7_orbit_values(self):
        # cross-checked against the one-factorization oracle; together
        # with the order-5 and order-9 rows this is the recursion-hunt
        # data the search exists to collect
        entries = evaluate_recipe_records("(flower 7)")
        assert sorted(e.psi for e in entries) == [10, 11, 21, 22]

    def test_wall_time_is_per_record(self):
        # a clock running across records would count earlier records again
        # and sum to more than the whole call
        t0 = time.perf_counter()
        entries = evaluate_recipe_records("(flower 7)")
        elapsed = time.perf_counter() - t0
        assert sum(e.wall_time for e in entries) <= elapsed

    def test_oversized_recipe_truncates(self):
        entries = evaluate_recipe_records(
            "(flower 15)", budget=SearchBudget(max_edges=80)
        )
        assert len(entries) == 1
        assert isinstance(entries[0], TruncationRecord)

    def test_node_budget_truncates(self):
        entries = evaluate_recipe_records(
            "(petersen)", budget=SearchBudget(max_nodes=2)
        )
        assert any(isinstance(e, TruncationRecord) for e in entries)


class TestSearch:
    def test_families_yield_expected_recipes(self):
        assert list(flower_family(9)) == ["(flower 5)", "(flower 7)", "(flower 9)"]
        joins = list(pentagon_join_family())
        assert "(pentagonjoin (petersen) p=0 (petersen) p=0)" in joins
        chain = list(superpose_chain_family(2))
        assert chain[0] == "(petersen)"
        assert chain[1] == "(superpose52 (petersen) e=0 (petersen) u=0 v=6)"

    def test_search_records_and_reverifies(self, tmp_path):
        led = Ledger(str(tmp_path / "led.jsonl"))
        entries = list(search(superpose_chain_family(1), led))
        psis = {e.psi for e in entries if isinstance(e, PsiRecord)}
        assert {1, 2} <= psis
        for rec in led.psi_records():
            assert led.reverify(rec)

    @pytest.mark.parametrize("field", ["psi", "graph6"])
    @pytest.mark.parametrize("tampered_first", [False, True])
    def test_reverify_memo_cannot_hide_a_mismatch(self, tmp_path, field, tampered_first):
        # two records of one recipe share the rebuilt graph, but each
        # still gets its own graph6 comparison and recount
        good, other = evaluate_recipe_records("(flower 5)")[:2]
        if field == "psi":
            bad = PsiRecord(**{**vars(other), "psi": other.psi + 1, "ec_count": (other.psi + 1) * 18})
        else:
            g = decode_graph6(other.graph6)
            swap = list(range(g.n))
            swap[0], swap[-1] = swap[-1], swap[0]
            relabelled = Graph.from_edges(g.n, [(swap[u], swap[v]) for u, v in g.edges])
            bad = PsiRecord(**{**vars(other), "graph6": encode_graph6(relabelled)})
            assert bad.graph6 != other.graph6
        path = str(tmp_path / "led.jsonl")
        Ledger(path).record(good)
        Ledger(path).record(bad)
        led = Ledger(path)
        first, second = led.psi_records()
        assert first.recipe == second.recipe
        calls = [(second, False), (first, True)] if tampered_first else [(first, True), (second, False)]
        for rec, verdict in calls:
            assert led.reverify(rec) is verdict

    def test_empty_family_is_empty_stream(self, tmp_path):
        led = Ledger(str(tmp_path / "led.jsonl"))
        assert list(search([], led)) == []
        assert led.achieved() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_recipe_yields_a_truncation_record(self, tmp_path, workers):
        led = Ledger(str(tmp_path / "led.jsonl"))
        family = ["(flower 5)", "(flower 4)", "(flower 7)"]
        entries = list(search(family, led, workers=workers))
        assert [e.recipe for e in entries] == ["(flower 5)"] * 4 + ["(flower 4)"] + ["(flower 7)"] * 4
        bad = entries[4]
        assert isinstance(bad, TruncationRecord)
        assert bad.reason == "recipe: flower graphs need an odd order of at least 5"
        assert [e.psi for e in entries[:4] + entries[5:]] == [
            e.psi for e in evaluate_recipe_records("(flower 5)") + evaluate_recipe_records("(flower 7)")
        ]
        assert Ledger(led.path).entries == entries

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recipe_outside_the_domain_yields_a_truncation_record(self, tmp_path, workers):
        # K4 has girth 3, so psi cannot smooth its edges; a triangle is not
        # cubic; the cube's and W8's smoothings count decompositions that
        # are not a multiple of 3
        family = ["(graph6 C~)", "(graph6 Bw)", "(graph6 Gr`HOk)", "(graph6 GhdHKc)",
                  "(petersen)"]
        led = Ledger(str(tmp_path / "led.jsonl"))
        entries = list(search(family, led, workers=workers))
        assert [e.recipe for e in entries] == family
        assert [e.reason for e in entries[:4]] == [
            "psi: edge smoothing requires girth at least 4",
            "certification: certification expects a connected cubic graph",
            "psi: decomposition count 1 of the reduced graph is not a multiple of 3",
            "psi: decomposition count 1 of the reduced graph is not a multiple of 3",
        ]
        (petersen,) = evaluate_recipe_records("(petersen)")
        untimed = [PsiRecord(**{**vars(rec), "wall_time": 0}) for rec in (entries[4], petersen)]
        assert untimed[0] == untimed[1]
        assert Ledger(led.path).entries == entries

    def test_unparsable_recipe_keeps_its_text(self):
        (rec,) = evaluate_recipe_records("(flower 5")
        assert rec == TruncationRecord("(flower 5", "recipe: unclosed '(' in recipe")
        (rec,) = evaluate_recipe_records("(graph6 !!!)")
        assert rec.reason == "recipe: invalid graph6 character '!' (byte offset 0)"

    def test_parallel_workers_match_sequential(self, tmp_path):
        family = ["(petersen)", "(flower 5)", "(flower 7)"]
        seq = Ledger(str(tmp_path / "seq.jsonl"))
        par = Ledger(str(tmp_path / "par.jsonl"))
        list(search(family, seq))
        list(search(family, par, workers=2))
        assert seq.achieved() == par.achieved()
        assert [r.recipe for r in seq.psi_records()] == [
            r.recipe for r in par.psi_records()
        ]
