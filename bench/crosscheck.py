"""Cross-check bench/expected.json against routes that did not produce it.

    PYTHONPATH=src python3 bench/crosscheck.py

expected.json was written by the library's own counting kernel.  This
script re-derives what it can another way and exits 1 on any mismatch:

- graph6 strings are decoded by networkx, and edges are smoothed here;
- decomposition counts come from perfect-matching factorisation in
  tests/oracles.py, on graphs of at most MAX_N vertices;
- girth comes from networkx, cyclic 4-edge-connectivity from the
  exhaustive subset oracle (graphs of at most MAX_CUT_M edges),
  Hamiltonicity from networkx cycle enumeration (at most MAX_HAM_N
  vertices), cover sums from 2-factors, and orthogonal pairs from
  colorings assembled out of perfect matchings;
- known values: min psi of flower(n) for n = 5..13 is 2, 10, 42, 170, 682,
  and psi = 2^j on the inner Petersen block of the depth-j splice chain.

The stored ``ec_count == 18 * psi`` holds by construction and is not used.
Needs networkx (a test dependency); it is run by hand when expected.json
is re-seeded, not by the benchmark.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import networkx as nx

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from snarkforge import Graph, edge_orbits, flower, petersen, superpose_52  # noqa: E402
from snarkforge import evaluate_text, list_pentagons, pentagon_join  # noqa: E402

MAX_N = 34
MAX_CUT_M = 45
MAX_HAM_N = 18
FLOWER_MIN_PSI = {5: 2, 7: 10, 9: 42, 11: 170, 13: 682}

tally: Counter = Counter()
mismatches: list[str] = []


def check(kind: str, ok: bool, what: str) -> None:
    tally[kind] += 1
    if not ok:
        mismatches.append(f"{kind}: {what}")


def from_nx(G: nx.Graph) -> Graph:
    relabel = {v: k for k, v in enumerate(sorted(G.nodes))}
    return Graph.from_edges(len(relabel), [(relabel[a], relabel[b]) for a, b in G.edges])


def sorted_edges(G: nx.Graph) -> list[tuple[int, int]]:
    return sorted((min(a, b), max(a, b)) for a, b in G.edges)


def smooth(G: nx.Graph, edge: tuple[int, int]) -> tuple[Graph, int, int]:
    """Remove an edge with both endpoints, joining each endpoint's two other
    neighbours; returns the graph and the indexes of the two new edges."""
    u, v = edge
    t1, t2 = (w for w in G[u] if w != v)
    w1, w2 = (w for w in G[v] if w != u)
    H = G.copy()
    H.remove_nodes_from((u, v))
    H.add_edges_from(((t1, t2), (w1, w2)))
    g = from_nx(H)
    relabel = {x: k for k, x in enumerate(sorted(H.nodes))}
    pair = lambda a, b: tuple(sorted((relabel[a], relabel[b])))  # noqa: E731
    return g, g.edge_index(*pair(t1, t2)), g.edge_index(*pair(w1, w2))


def ed_count(g: Graph) -> int:
    return oracles.count_ed_by_factorization(g)


def orthogonal_pairs_by_matchings(g: Graph) -> list[list[int]]:
    """Pairs of edges never on one two-coloured cycle of any colouring."""
    pms = oracles.perfect_matchings(g)
    every = frozenset(range(g.m))
    cocyclic = set()
    for a in pms:
        for b in pms:
            if a & b or (every - a - b) not in set(pms):
                continue
            for cycle in oracles.cycle_split(g, a | b):
                members = sorted(g.edge_index(*sorted((cycle[k], cycle[k - 1])))
                                 for k in range(len(cycle)))
                cocyclic.update((x, y) for i, x in enumerate(members) for y in members[i + 1:])
    return [[i, j] for i in range(g.m) for j in range(i + 1, g.m) if (i, j) not in cocyclic]


def check_search_records(expected: dict) -> None:
    for recipe, lines in expected["ops"].items():
        records = [json.loads(line) for line in lines]
        G = nx.from_graph6_bytes(records[0]["graph6"].encode())
        g = from_nx(G)
        edges = sorted_edges(G)
        girth = nx.girth(G)
        summary = records[0]["certificate"]
        check("girth (networkx)", f"girth={girth} " in summary, recipe)
        if g.m <= MAX_CUT_M:
            violated = oracles.cyclic_connectivity_violated_exhaustive(g, 3)
            check("cyclic 4-connectivity (subsets)", ("cyc>=4:n" if violated else "cyc>=4:y") in summary, recipe)
        if g.n <= MAX_N:
            check("uncolorable (factorisation)", ("EC=0" in summary) == (ed_count(g) == 0), recipe)
        for rec in records:
            reduced, _d1, _d2 = smooth(G, edges[rec["edge_index"]])
            if reduced.n <= MAX_N:
                check("psi (factorisation)", 3 * rec["psi"] == ed_count(reduced),
                      f"{recipe} edge {rec['edge_index']}")


def check_known_values(expected: dict) -> None:
    for n, value in FLOWER_MIN_PSI.items():
        lines = expected["flowers"]["ops"][f"(flower {n})"]
        check("flower psi sequence", min(json.loads(x)["psi"] for x in lines) == value, f"flower {n}")
    P = petersen()
    inner = [e for e in P.edges if 0 not in e and 6 not in e]
    g, refs = P, {pair: pair for pair in inner}
    chain = list(expected["splice-chain"]["ops"].items())
    for j in (1, 2, 3):
        res = superpose_52(P, 0, P, 0, 6) if j == 1 else superpose_52(P, 0, g, g.n - 5, g.n - 2)
        refs = {pair: res.map_star_edge(g, refs[pair]).pair for pair in inner}
        g = res.graph
        psi_at = {}
        for line in chain[j][1]:
            rec = json.loads(line)
            psi_at[rec["edge_index"]] = rec["psi"]
        orbit_psi = {i: psi_at[o[0]] for o in edge_orbits(g) for i in o}
        for pair in inner:
            check("chain inner block psi = 2^j", orbit_psi[g.edge_index(*refs[pair])] == 2 ** j,
                  f"j={j} edge {refs[pair]}")


def check_identities(answers: dict) -> None:
    hosts = {"P": petersen(), "J5": flower(5), "J7": flower(7), "J9": flower(9)}
    for name, g in hosts.items():
        G = nx.Graph(g.edges)
        for key, report in answers.items():
            head, host, *rest = key.split()
            if host != name or head not in ("3.3", "3.7"):
                continue
            e = int(rest[0][1:])
            reduced, d1, d2 = smooth(G, g.edges[e])
            q = report["quantities"]
            if reduced.n <= MAX_N:
                check(f"{head} ed_count (factorisation)", q["ed_count"] == ed_count(reduced), key)
            if head == "3.7" and q["reduced_colorable"]:
                total = oracles.even_cover_sum_by_matchings(reduced, d1, d2)
                check("3.7 cover sum (2-factors)", q["cover_sum_rhs"] * 2 == 3 * total, key)
                if reduced.n <= MAX_HAM_N:
                    ham = oracles.hamiltonian_by_cycle_enumeration(reduced)
                    check("3.7 Hamiltonicity (networkx)", q["reduced_hamiltonian"] == ham, key)
    for name in ("P", "J5"):
        g = hosts[name]
        for k, p in enumerate(list_pentagons(g)):
            q = answers[f"4.5 {name} p{k}"]["quantities"]
            H = nx.Graph(g.edges)
            H.remove_edges_from(p.edge_pairs())
            ec = oracles.naive_count_colorings(from_nx(H))
            check("4.5 pentagon-free count (naive)", 6 * q["ed_count"] == ec, f"{name} p{k}")
            reduced, _d1, _d2 = smooth(nx.Graph(g.edges), p.edge_pairs()[0])
            check("4.5 pentagon psi (factorisation)", 3 * q["psi"] == ed_count(reduced), f"{name} p{k}")
    for a, b in (("P", "P"), ("J5", "P"), ("J5", "J5")):
        ga, gb = hosts[a], hosts[b]
        big = pentagon_join(ga, list_pentagons(ga)[0], gb, list_pentagons(gb)[0]).graph
        G = nx.Graph(big.edges)
        for e, value in answers[f"4.8 {a}x{b}"]["quantities"]["connecting_psi"].items():
            reduced, _d1, _d2 = smooth(G, big.edges[int(e)])
            check("4.8 connecting psi (factorisation)", 3 * value == ed_count(reduced), f"{a}x{b} e{e}")
    for b in ("P", "J5"):
        res = superpose_52(hosts["P"], 0, hosts[b], 0, 6)
        G = nx.Graph(res.graph.edges)
        for detail in answers[f"5.3 Px{b} e=0 u=0 v=6"]["quantities"]["details"]:
            edge = res.map_star_edge(hosts[b], tuple(detail["edge"])).pair
            reduced, _d1, _d2 = smooth(G, edge)
            check("5.3 block psi (factorisation)", 3 * detail["psi"] == ed_count(reduced),
                  f"Px{b} {detail['edge']}")
    # Petersen smoothed at any edge is the wheel, so the census sizes agree.
    wheel, _d1, _d2 = smooth(nx.Graph(hosts["P"].edges), (0, 1))
    check("census wheel (matchings)",
          len(answers["census wheel"]) == len(orthogonal_pairs_by_matchings(wheel)), "wheel")
    for wiring in ("parallel", "crossed"):
        key = f"census dotproduct {wiring} e20"
        dp = evaluate_text(f"(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1 wiring={wiring})")
        reduced, _d1, _d2 = smooth(nx.Graph(dp.edges), dp.edges[20])
        check("census dot product (matchings)",
              answers[key]["pairs"] == orthogonal_pairs_by_matchings(reduced), key)
    fixture = [json.loads(x) for x in (BENCH / "fixtures" / "ledger.jsonl").read_text().splitlines()]
    check("ledger achieved (raw lines)",
          answers["ledger achieved"] == sorted({r["psi"] for r in fixture}), "achieved")
    check("ledger reverify all true",
          all(v is True for k, v in answers.items() if k.startswith("ledger reverify")), "reverify")


def main() -> int:
    expected = json.loads((BENCH / "expected.json").read_text())
    check_search_records(expected["splice-chain"])
    check_search_records(expected["flowers"])
    check_known_values(expected)
    check_identities(expected["identities"]["ops"])
    for kind, n in sorted(tally.items()):
        print(f"{n:5d}  {kind}")
    for line in mismatches:
        print("MISMATCH", line)
    print(f"{sum(tally.values())} checks, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
