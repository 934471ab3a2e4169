"""Command line driver.

Exit codes: 0 = success / verified pass, 1 = verified fail (a certificate
or identity check came back negative), 2 = usage or domain error.  Every
number printed comes straight from the library call that produced it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, is_snark
from .errors import DomainError, Graph6ParseError, LedgerIntegrityError
from .graph import (
    Graph,
    girth,
    list_pentagons,
    valence_profile,
)
from .graph6 import decode_graph6, encode_graph6, to_dot
from .isomorphism import edge_orbits
from .coloring import count_colorings, count_decompositions, psi_counts
from .kempe import orthogonal_pairs
from .analyze import VERIFIERS, certify_snark
from .ledger import (
    Ledger,
    SearchBudget,
    flower_family,
    pentagon_join_family,
    search,
    superpose_chain_family,
)
from .recipe import (
    evaluate,
    evaluate_text,
    format_recipe,
    join_arguments,
    parse_recipe,
    pentagon_at,
)

PASS, FAIL, USAGE = 0, 1, 2


def _load_graph(args) -> Graph:
    if getattr(args, "recipe", None):
        return evaluate_text(args.recipe)
    if getattr(args, "graph6", None):
        return decode_graph6(args.graph6)
    raise DomainError("provide --recipe or --graph6")


def _emit(args, human: str, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def cmd_build(args) -> int:
    recipe = parse_recipe(args.recipe)
    g = evaluate(recipe)
    if args.dot:
        print(to_dot(g), end="")
        return PASS
    payload = {
        "recipe": format_recipe(recipe),
        "vertices": g.n,
        "edges": g.m,
        "graph6": encode_graph6(g),
        "girth": girth(g),
        "valences": valence_profile(g),
    }
    _emit(
        args,
        f"{payload['recipe']}: {g.n} vertices, {g.m} edges, girth {payload['girth']}\n"
        f"graph6: {payload['graph6']}",
        payload,
    )
    return PASS


def cmd_certify(args) -> int:
    g = _load_graph(args)
    cert = certify_snark(g, args.level)
    _emit(args, f"certificate: {cert.summary()}", {**vars(cert), "passed": cert.passed})
    return PASS if cert.passed else FAIL


def cmd_count(args) -> int:
    g = _load_graph(args)
    ec = count_colorings(g)
    ed = count_decompositions(g)
    _emit(args, f"EC = {ec}\nED = {ed}", {"ec": ec, "ed": ed})
    return PASS


def cmd_psi(args) -> int:
    g = _load_graph(args)
    certified = is_snark(g)
    (ned,) = psi_counts(g, [args.edge]).values()
    val = None if ned % 3 else ned // 3
    payload = {
        "psi": val,
        "reduced_ed": ned,
        "reduced_ec": 6 * ned,
        "edge": args.edge,
        "snark_certified": certified,
    }
    note = "" if certified else "  (formula extension: input is not a certified snark)"
    if val is None:
        # only possible off the certified domain, where the one-third
        # divisibility is not guaranteed
        _emit(
            args,
            f"psi undefined: reduced decomposition count {ned} "
            f"is not a multiple of 3{note}",
            payload,
        )
    else:
        _emit(args, f"psi = {val}{note}", payload)
    return PASS


def cmd_orthogonal(args) -> int:
    g = _load_graph(args)
    pairs = orthogonal_pairs(g)
    payload = {
        "pairs": [
            {"edges": [i, j], "endpoints": [g.edges[i], g.edges[j]]} for i, j in pairs
        ]
    }
    lines = [f"{len(pairs)} orthogonal pair(s)"]
    for i, j in pairs:
        lines.append(f"  {i} {g.edges[i]}  --  {j} {g.edges[j]}")
    _emit(args, "\n".join(lines), payload)
    return PASS


def cmd_pentagons(args) -> int:
    g = _load_graph(args)
    pents = list_pentagons(g)
    payload = {"pentagons": [list(p.vertices) for p in pents]}
    lines = [f"{len(pents)} pentagon(s)"]
    for k, p in enumerate(pents):
        lines.append(f"  p={k}: {p.vertices}")
    _emit(args, "\n".join(lines), payload)
    return PASS


def cmd_orbits(args) -> int:
    g = _load_graph(args)
    orbits = edge_orbits(g)
    payload = {"orbits": orbits}
    lines = [f"{len(orbits)} edge orbit(s)"]
    for orbit in orbits:
        lines.append(f"  {orbit}")
    _emit(args, "\n".join(lines), payload)
    return PASS


def cmd_verify(args) -> int:
    if args.theorem not in VERIFIERS:
        raise DomainError(
            f"unknown theorem id {args.theorem!r}; known: {sorted(VERIFIERS)}"
        )
    rec = parse_recipe(args.recipe)
    g = evaluate(rec)
    reports = []
    if args.theorem in ("3.3", "3.7"):
        verifier = VERIFIERS[args.theorem]
        if args.edge is not None:
            reports.append(verifier(g, args.edge))
        else:
            for orbit in edge_orbits(g):
                reports.append(verifier(g, orbit[0]))
    elif args.theorem == "4.5":
        pents = list_pentagons(g)
        if not pents:
            raise DomainError("graph has no pentagon")
        chosen = pents if args.pentagon is None else [pentagon_at(g, args.pentagon)]
        for p in chosen:
            reports.append(VERIFIERS["4.5"](g, p))
    else:
        op = {"4.8": "pentagonjoin", "5.3": "superpose52"}[args.theorem]
        if rec.op != op:
            raise DomainError(f"--theorem {args.theorem} needs a ({op} ...) recipe")
        reports.append(VERIFIERS[args.theorem](*join_arguments(rec)))
    all_pass = all(r.passed for r in reports)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "theorem": r.theorem_id,
                        "instance": r.instance,
                        "quantities": r.quantities,
                        "checks": dict(r.checks),
                        "verdict": r.verdict,
                    }
                    for r in reports
                ],
                sort_keys=True,
                default=str,
            )
        )
    else:
        for r in reports:
            print(r.to_text(), end="")
        print(f"overall: {'pass' if all_pass else 'FAIL'}")
    return PASS if all_pass else FAIL


def _open_ledger(args) -> Ledger:
    return Ledger(
        args.ledger or os.environ.get("SNARKFORGE_LEDGER", "snarkforge-ledger.jsonl")
    )


def _budget(args) -> SearchBudget:
    return SearchBudget(max_edges=args.budget_edges, max_nodes=args.budget_nodes)


def cmd_search(args) -> int:
    families = {
        "flowers": lambda: flower_family(args.max_n),
        "pentagon-joins": lambda: pentagon_join_family(),
        "superpose-chain": lambda: superpose_chain_family(args.depth),
    }
    if args.family not in families:
        raise DomainError(f"unknown family {args.family!r}; known: {sorted(families)}")
    ledger = _open_ledger(args)
    count = 0
    for entry in search(families[args.family](), ledger, _budget(args), workers=args.workers):
        count += 1
        if hasattr(entry, "psi"):
            print(
                f"psi={entry.psi} edge={entry.edge_index} "
                f"[{entry.certificate}] {entry.recipe}"
            )
        else:
            print(f"truncated: {entry.recipe} ({entry.reason})")
    print(f"recorded {count} entries; achieved psi values: {ledger.achieved()}")
    return PASS


def cmd_record(args) -> int:
    entries = list(search([args.recipe], _open_ledger(args), _budget(args)))
    for entry in entries:
        if hasattr(entry, "psi"):
            print(f"recorded psi={entry.psi} edge={entry.edge_index} {entry.recipe}")
        else:
            print(f"truncated: {entry.recipe} ({entry.reason})")
    return PASS


def cmd_export(args) -> int:
    ledger = _open_ledger(args)
    ledger.export_csv(args.csv)
    print(f"wrote {args.csv}: {len(ledger.achieved())} achieved value(s)")
    return PASS


def cmd_import(args) -> int:
    ledger = _open_ledger(args)
    budget = _budget(args)
    strings = []
    if args.graph6:
        strings.append(args.graph6)
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            strings.extend(line.strip() for line in fh if line.strip())
    count = 0
    for g6 in strings:
        decode_graph6(g6)  # validate before wrapping in a recipe
        for entry in search([f"(graph6 {g6})"], ledger, budget):
            count += 1
            if hasattr(entry, "psi"):
                print(f"psi={entry.psi} edge={entry.edge_index} [{entry.certificate}]")
            else:
                print(f"truncated: {entry.reason}")
    print(f"imported {count} record(s)")
    return PASS


def _add_graph_source(sub, recipe_required=False):
    if recipe_required:
        sub.add_argument("--recipe", required=True, help="construction recipe")
    else:
        sub.add_argument("--recipe", help="construction recipe")
        sub.add_argument("--graph6", help="graph6 string")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _add_ledger_options(sub, budget=True):
    sub.add_argument("--ledger", help="ledger path (default $SNARKFORGE_LEDGER)")
    if budget:
        sub.add_argument("--budget-edges", type=int, default=SearchBudget.max_edges)
        sub.add_argument("--budget-nodes", type=int, default=SearchBudget.max_nodes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snarkforge",
        description="build, certify, count, and verify cubic-graph coloring identities",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="evaluate a recipe and print the graph")
    _add_graph_source(p, recipe_required=True)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a summary")
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("certify", help="run the snark certificate")
    _add_graph_source(p)
    p.add_argument("--level", type=int, default=4, help="cyclic connectivity level")
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("count", help="coloring and decomposition counts")
    _add_graph_source(p)
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("psi", help="psi value at an edge")
    _add_graph_source(p)
    p.add_argument("--edge", type=int, required=True, help="edge index")
    p.set_defaults(func=cmd_psi)

    p = subs.add_parser("orthogonal", help="orthogonal edge pairs of a colorable host")
    _add_graph_source(p)
    p.set_defaults(func=cmd_orthogonal)

    p = subs.add_parser("pentagons", help="list pentagons")
    _add_graph_source(p)
    p.set_defaults(func=cmd_pentagons)

    p = subs.add_parser("orbits", help="edge orbits under automorphisms")
    _add_graph_source(p)
    p.set_defaults(func=cmd_orbits)

    p = subs.add_parser("verify", help="machine-check one counting identity")
    p.add_argument("--theorem", required=True, help="identity id (3.3, 3.7, 4.5, 4.8, 5.3)")
    p.add_argument("--recipe", required=True)
    p.add_argument("--edge", type=int, help="restrict 3.3/3.7 to one edge")
    p.add_argument("--pentagon", type=int, help="restrict 4.5 to one pentagon index")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("search", help="run a recipe family into the ledger")
    p.add_argument("--family", required=True, help="flowers | pentagon-joins | superpose-chain")
    p.add_argument("--max-n", type=int, default=9, help="largest flower order")
    p.add_argument("--depth", type=int, default=2, help="superpose chain length")
    _add_ledger_options(p)
    p.add_argument("--workers", type=int, default=1, help="parallel recipe evaluation")
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("record", help="evaluate one recipe into the ledger")
    p.add_argument("--recipe", required=True)
    _add_ledger_options(p)
    p.set_defaults(func=cmd_record)

    p = subs.add_parser("export", help="CSV summary of achieved psi values")
    p.add_argument("--csv", required=True, help="output path")
    _add_ledger_options(p, budget=False)
    p.set_defaults(func=cmd_export)

    p = subs.add_parser("import", help="ingest graph6 graphs into the ledger")
    p.add_argument("--graph6", help="one graph6 string")
    p.add_argument("--file", help="file with one graph6 string per line")
    _add_ledger_options(p)
    p.set_defaults(func=cmd_import)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, Graph6ParseError, LedgerIntegrityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
