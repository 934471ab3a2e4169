import json

import pytest

from snarkforge import cli
from snarkforge.cli import main
from snarkforge.graph6 import encode_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_psi_petersen(capsys):
    code, out, _ = run(capsys, "psi", "--recipe", "(petersen)", "--edge", "0")
    assert code == 0
    assert out.strip() == "psi = 1"


def test_psi_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "psi", "--recipe", "(petersen)", "--edge", "3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["psi"] == 1
    assert payload["reduced_ec"] == 18


def test_psi_formula_extension_note(capsys, W):
    code, out, _ = run(
        capsys, "psi", "--graph6", encode_graph6(W), "--edge", "0"
    )
    assert code == 0
    assert "formula extension" in out


def test_certify_pass_and_fail(capsys, K4):
    code, out, _ = run(capsys, "certify", "--recipe", "(petersen)")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "certify", "--graph6", encode_graph6(K4))
    assert code == 1 and "fail" in out


def test_certify_json_payload(capsys, K4):
    code, out, _ = run(capsys, "certify", "--recipe", "(petersen)", "--json")
    assert code == 0
    assert json.loads(out) == {
        "girth": 5,
        "girth_ok": True,
        "connectivity_level": 4,
        "connectivity_ok": True,
        "coloring_count": 0,
        "passed": True,
    }
    code, out, _ = run(capsys, "certify", "--graph6", encode_graph6(K4), "--json")
    assert code == 1
    assert json.loads(out) == {
        "girth": 3,
        "girth_ok": False,
        "connectivity_level": 4,
        "connectivity_ok": False,
        "coloring_count": 6,
        "passed": False,
    }


def test_count(capsys, W):
    code, out, _ = run(capsys, "count", "--graph6", encode_graph6(W))
    assert code == 0
    assert "EC = 18" in out and "ED = 3" in out


def test_build_and_dot(capsys):
    code, out, _ = run(capsys, "build", "--recipe", "(flower 5)")
    assert code == 0 and "20 vertices, 30 edges" in out
    code, out, _ = run(capsys, "build", "--recipe", "(petersen)", "--dot")
    assert code == 0 and out.startswith("graph G {")


def test_build_dot_computes_nothing_else(capsys, monkeypatch):
    _, expected, _ = run(capsys, "build", "--recipe", "(petersen)", "--dot")

    def refuse(g):
        raise AssertionError("build --dot computed the girth")

    monkeypatch.setattr(cli, "girth", refuse)
    code, out, _ = run(capsys, "build", "--recipe", "(petersen)", "--dot")
    assert code == 0 and out == expected


def test_build_json_matches_library(capsys, P):
    code, out, _ = run(capsys, "build", "--recipe", "(petersen)", "--json")
    payload = json.loads(out)
    assert payload["graph6"] == encode_graph6(P)
    assert payload["vertices"] == 10


def test_verify_theorem_53(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--theorem",
        "5.3",
        "--recipe",
        "(superpose52 (petersen) e=0 (petersen) u=0 v=6)",
    )
    assert code == 0
    assert "overall: pass" in out


def test_verify_theorem_33_whole_orbit(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "3.3", "--recipe", "(petersen)")
    assert code == 0 and "theorem 3.3" in out


def test_verify_rejects_mismatched_recipe(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "5.3", "--recipe", "(petersen)")
    assert code == 2 and "error" in err


def test_orthogonal_pentagons_orbits(capsys, W):
    code, out, _ = run(capsys, "orthogonal", "--graph6", encode_graph6(W))
    assert code == 0 and "2 orthogonal pair(s)" in out
    code, out, _ = run(capsys, "pentagons", "--recipe", "(petersen)")
    assert code == 0 and "12 pentagon(s)" in out
    code, out, _ = run(capsys, "orbits", "--recipe", "(petersen)")
    assert code == 0 and "1 edge orbit(s)" in out


def test_search_and_export(capsys, tmp_path):
    led = str(tmp_path / "led.jsonl")
    code, out, _ = run(
        capsys, "search", "--family", "flowers", "--max-n", "5", "--ledger", led
    )
    assert code == 0
    assert "achieved psi values: [2, 3, 5, 6]" in out
    csv_path = str(tmp_path / "out.csv")
    code, out, _ = run(capsys, "export", "--csv", csv_path, "--ledger", led)
    assert code == 0
    assert "4 achieved value(s)" in out


def test_record_and_import(capsys, tmp_path, P):
    led = str(tmp_path / "led.jsonl")
    code, out, _ = run(capsys, "record", "--recipe", "(petersen)", "--ledger", led)
    assert code == 0 and "recorded psi=1" in out
    code, out, _ = run(
        capsys, "import", "--graph6", encode_graph6(P), "--ledger", led
    )
    assert code == 0 and "imported 1 record(s)" in out


def test_import_file_with_a_graph_outside_psi_domain(capsys, tmp_path, P):
    # the cube is cubic with girth 4, but its smoothings are not snark-like
    led = str(tmp_path / "led.jsonl")
    g6_file = tmp_path / "graphs.g6"
    g6_file.write_text(f"Gr`HOk\n{encode_graph6(P)}\n")
    code, out, _ = run(capsys, "import", "--file", str(g6_file), "--ledger", led)
    assert code == 0
    assert "truncated: psi: decomposition count 1" in out
    assert "imported 2 record(s)" in out


def test_ledger_env_var(capsys, tmp_path, monkeypatch):
    led = str(tmp_path / "env-led.jsonl")
    monkeypatch.setenv("SNARKFORGE_LEDGER", led)
    code, _, _ = run(capsys, "record", "--recipe", "(petersen)")
    assert code == 0
    assert (tmp_path / "env-led.jsonl").exists()


def test_domain_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "psi", "--recipe", "(frobnicate)", "--edge", "0")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "count", "--graph6", "!!!")
    assert code == 2
    for argv in [
        ("build", "--recipe", "(flower x)"),
        ("build", "--recipe", "(pentagonjoin (petersen) p=x (petersen) p=0)"),
        ("build", "--recipe", "(pentagonjoin (petersen) p=-1 (petersen) p=0)"),
        ("build", "--recipe", "(pentagonjoin (petersen) p=0 (petersen) p=0 rot=7)"),
        ("verify", "--theorem", "4.8", "--recipe",
         "(pentagonjoin (petersen) p=0 (petersen) p=0 rot=-3)"),
        ("verify", "--theorem", "4.5", "--recipe", "(petersen)", "--pentagon", "99"),
        ("verify", "--theorem", "4.5", "--recipe", "(petersen)", "--pentagon", "-1"),
        ("verify", "--theorem", "4.8", "--recipe",
         "(pentagonjoin (petersen) p=0 (petersen) p=12)"),
        ("verify", "--theorem", "5.3", "--recipe",
         "(superpose52 (petersen) e=x (petersen) u=0 v=6)"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2 and "error:" in err, argv
    bad_ledger = tmp_path / "bad.jsonl"
    bad_ledger.write_text("[1, 2]\n")
    code, _, err = run(
        capsys, "export", "--ledger", str(bad_ledger), "--csv", str(tmp_path / "o.csv")
    )
    assert code == 2 and "record 1" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["psi", "--nonsense"])
    assert exc.value.code == 2
