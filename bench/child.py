"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 bench/child.py --workload NAME --out FILE [--trace] [--setup-only]
    python3 bench/child.py --workload NAME --out FILE --relabel-seed N

bench/run.py starts this script once per repetition and reads FILE, one
JSON object holding:

- ``setup``: reference seconds (see ``bench/refclock.py``) from this
  process's start (interpreter start, imports, inputs) to just before the
  first timed call;
- ``first_call``: the CLOCK_MONOTONIC reading at that point, so the parent
  can also report the wall-clock set-up from before it spawned us;
- ``seconds``: reference seconds from the first timed call to the end of
  the last, and the same span as ``cpu`` (plain CPU seconds) and ``wall``
  (wall clock);
- ``ops``: per operation its name, reference seconds measured from
  outside, and its answer (or the error it raised);
- ``counters``, ``peak_rss_kb`` and, with ``--trace``, ``spans``.

Search workloads run ``search(..., workers=1)`` untraced; traced, they run
the same steps as ``evaluate_recipe_records`` one public call at a time, so
each layer gets its own span.  ``--relabel-seed N`` instead checks
labeling-independent answers on small instances relabeled by a permutation
seeded with N (N = 0 keeps the labels and gives the reference answers).

Times are read from a RefClock: CPU seconds of the main thread scaled by
the core's sampled speed, so that other tenants' load on a shared machine
does not show as a slower program.  The library is single-threaded and
waits on nothing but small local files, so CPU time is what a user waits
for.  The library is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import re
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Optional

from refclock import RefClock

# Started before the library is imported, so that import counts as set-up.
CLOCK = RefClock()
CLOCK.start()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import snarkforge  # noqa: E402
from snarkforge import (  # noqa: E402
    Graph,
    Ledger,
    PsiRecord,
    SnarkCertificate,
    TheoremReport,
    TruncationRecord,
    contract_removed_edge,
    count_colorings,
    cyclically_edge_connected_at_least,
    edge_orbits,
    encode_graph6,
    evaluate_text,
    flower,
    format_recipe,
    girth,
    is_cubic,
    list_pentagons,
    orthogonal_pairs,
    parse_recipe,
    petersen,
    psi_with_counts,
    verify_thm_3_3,
    verify_thm_3_7,
    verify_thm_4_5,
    verify_thm_4_8,
    verify_thm_5_3,
    wheel_w8,
)
from snarkforge.errors import (  # noqa: E402
    BudgetExceededError,
    CyclicConnectivityUndefinedError,
    DomainError,
)
from snarkforge.ledger import SearchBudget, flower_family, search, superpose_chain_family  # noqa: E402

from spans import Tracer, span_of  # noqa: E402

# The certification level evaluate_recipe_records uses by default.
CERT_LEVEL = 4
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "ledger.jsonl"
DOT_PRODUCT = "(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1 wiring={})"
WALL_TIME = re.compile(r'(, )?"wall_time": [^,}]*')


def monotonic() -> float:
    # CLOCK_MONOTONIC is one clock for every process on the machine, so the
    # parent can subtract its own reading taken before the spawn.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def search_recipes(workload: str) -> list[str]:
    if workload == "splice-chain":
        return list(superpose_chain_family(3))
    return list(flower_family(13))


def _plain(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def to_answer(value):
    """JSON form of a library result, as compared against expected.json."""
    if isinstance(value, TheoremReport):
        value = {**dataclasses.asdict(value), "verdict": value.verdict}
    elif isinstance(value, Ledger):
        value = {"entries": len(value.entries)}
    return json.loads(json.dumps(value, sort_keys=True, default=_plain))


def ledger_answer(line: str) -> str:
    """A ledger line as written, byte for byte, minus its timing field.
    ``wall_time`` is never read: it is cumulative across a recipe's
    records, so per-recipe time is measured here from outside instead."""
    return WALL_TIME.sub("", line, count=1)


class Rep:
    """Operations, counters and (optionally) spans of one repetition."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.ops: list[dict] = []
        self.counters: dict[str, int] = {}

    def count(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """One public library call, spanned under its layer name."""
        with span_of(self.tracer, layer):
            return fn(*args, **kwargs)

    def op(self, name: str, fn: Callable, *args):
        """One operation: timed from outside, its answer recorded.  An
        exception is recorded as the answer's error so the run goes on."""
        start = CLOCK.now()
        value, answer, error = None, None, None
        try:
            with span_of(self.tracer, "op", name):
                value = fn(*args)
        except Exception:
            error = traceback.format_exc(limit=3)
        seconds = CLOCK.now() - start
        if isinstance(value, TheoremReport):
            self.count("analyze.checks", len(value.checks))
            self.count("analyze.checks_failed", sum(1 for _, ok in value.checks if not ok))
        if error is None:
            answer = to_answer(value)
        self.ops.append({"name": name, "seconds": seconds, "answer": answer, "error": error})
        return value


# -- search workloads -----------------------------------------------------


def traced_recipe(rep: Rep, text: str, ledger: Ledger, budget: SearchBudget) -> None:
    """evaluate_recipe_records followed by search's ledger appends, one
    public call per step, in the library's order."""
    call = rep.call
    canonical = call("recipe.evaluate", lambda: format_recipe(parse_recipe(text)))
    g = call("recipe.evaluate", evaluate_text, canonical)
    rep.count("edges", g.m)
    if g.m > budget.max_edges:
        entries = [TruncationRecord(canonical, f"edge count {g.m} over budget")]
    else:
        t0 = time.perf_counter()
        if not is_cubic(g) or not g.is_connected():
            raise DomainError("certification expects a connected cubic graph")
        gv = call("graph.girth", girth, g)
        try:
            conn_ok = call("graph.cyclic_connectivity", cyclically_edge_connected_at_least, g, CERT_LEVEL)
        except CyclicConnectivityUndefinedError:
            conn_ok = False
        ec = call("coloring.count_colorings", count_colorings, g)
        cert = SnarkCertificate(gv, gv is not None and gv >= 5, CERT_LEVEL, conn_ok, ec)
        g6 = call("graph6.encode", encode_graph6, g)
        pentagons = call("graph.pentagons", list_pentagons, g)
        pentagon_edges = {g.edge_index(a, b) for p in pentagons for a, b in p.edge_pairs()}
        orbits = call("isomorphism.edge_orbits", edge_orbits, g)
        entries = []
        try:
            for orbit in orbits:
                rep_edge = orbit[0]
                psi_val, ned, ec_count = call(
                    "coloring.psi", psi_with_counts, g, rep_edge, node_budget=budget.max_nodes
                )
                rep.count("coloring.decompositions_counted", ned)
                entries.append(PsiRecord(
                    recipe=canonical,
                    graph6=g6,
                    edge_index=rep_edge,
                    psi=psi_val,
                    ec_count=ec_count,
                    certificate=cert.summary(),
                    wall_time=round(time.perf_counter() - t0, 6),
                    tags=("pentagon",) if rep_edge in pentagon_edges else (),
                ))
        except BudgetExceededError as exc:
            entries.append(TruncationRecord(canonical, str(exc)))
    for entry in entries:
        call("ledger.record", ledger.record, entry)


def run_search(rep: Rep, recipes: list[str], ledger: Ledger, traced: bool) -> None:
    budget = SearchBudget()
    counts = []
    for text in recipes:
        before = len(ledger.entries)
        if traced:
            rep.op(text, traced_recipe, rep, text, ledger, budget)
        else:
            rep.op(text, lambda: sum(1 for _ in search([text], ledger, budget, workers=1)))
        counts.append(len(ledger.entries) - before)
    # Answers are the ledger lines as written, minus the timing field.
    lines = Path(ledger.path).read_text(encoding="utf-8").splitlines()
    for op, n in zip(rep.ops, counts):
        op["answer"] = None if op["error"] else [ledger_answer(line) for line in lines[:n]]
        lines = lines[n:]
    rep.count("ledger.records_written", len(ledger.entries))
    rep.count("ledger.truncations", sum(isinstance(e, TruncationRecord) for e in ledger.entries))
    rep.count("ledger.bytes_written", Path(ledger.path).stat().st_size)


# -- identities -----------------------------------------------------------


def run_identities(rep: Rep, hosts: dict[str, Graph], wheel: Graph, ledger_path: Path,
                   csv_path: Path) -> None:
    call, op = rep.call, rep.op
    for name, g in hosts.items():
        orbits = op(f"edge_orbits {name}", call, "isomorphism.edge_orbits", edge_orbits, g)
        for orbit in orbits or ():
            e = orbit[0]
            op(f"3.3 {name} e{e}", call, "analyze.verify_3_3", verify_thm_3_3, g, e)
            op(f"3.7 {name} e{e}", call, "analyze.verify_3_7", verify_thm_3_7, g, e)
    first_pentagon = {}
    for name in ("P", "J5"):
        g = hosts[name]
        pentagons = op(f"pentagons {name}", call, "graph.pentagons", list_pentagons, g) or []
        if pentagons:
            first_pentagon[name] = pentagons[0]
        for k, p in enumerate(pentagons):
            op(f"4.5 {name} p{k}", call, "analyze.verify_4_5", verify_thm_4_5, g, p)
    for a, b in (("P", "P"), ("J5", "P"), ("J5", "J5")):
        if a in first_pentagon and b in first_pentagon:
            op(f"4.8 {a}x{b}", call, "analyze.verify_4_8", verify_thm_4_8,
               hosts[a], first_pentagon[a], hosts[b], first_pentagon[b])
    for b in ("P", "J5"):
        op(f"5.3 Px{b} e=0 u=0 v=6", call, "analyze.verify_5_3", verify_thm_5_3,
           hosts["P"], 0, hosts[b], 0, 6)
    op("census wheel", call, "kempe.orthogonal_pairs", orthogonal_pairs, wheel)
    for wiring in ("parallel", "crossed"):
        def census(wiring=wiring):
            dp = call("recipe.evaluate", evaluate_text, DOT_PRODUCT.format(wiring))
            reduced, d1, d2 = contract_removed_edge(dp, 20)
            pairs = call("kempe.orthogonal_pairs", orthogonal_pairs, reduced)
            return {"d1": d1.index, "d2": d2.index, "pairs": pairs}

        op(f"census dotproduct {wiring} e20", census)
    ledger = op("ledger load", call, "ledger.load", Ledger, str(ledger_path))
    if ledger is None:
        return
    op("ledger achieved", call, "ledger.achieved", ledger.achieved)

    def export():
        call("ledger.export", ledger.export_csv, str(csv_path))
        return csv_path.read_text(encoding="utf-8")

    op("ledger export_csv", export)
    for k, rec in enumerate(ledger.psi_records(), start=1):
        op(f"ledger reverify {k}", call, "ledger.reverify", ledger.reverify, rec)


# -- labeling-independent checks -----------------------------------------


def relabel(g: Graph, rng: Optional[random.Random]) -> Graph:
    perm = list(range(g.n))
    if rng is not None:
        rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def relabel_checks(rep: Rep, workload: str, seed: int) -> None:
    """Label-free answers on instances small enough (at most 42 edges) that
    any labeling stays cheap: larger ones slow down by up to 40x under a
    random labeling, which no fixed run length can absorb."""

    def rng(name: str) -> Optional[random.Random]:
        return random.Random(f"{seed}/{name}") if seed else None

    if workload != "identities":
        for text in search_recipes(workload)[:2]:
            def invariants(text=text):
                g = relabel(evaluate_text(text), rng(text))
                entries = list(search([f"(graph6 {encode_graph6(g)})"], workers=1))
                size = {i: len(o) for o in edge_orbits(g) for i in o}
                records = [e for e in entries if isinstance(e, PsiRecord)]
                return {
                    "certificates": sorted({r.certificate for r in records}),
                    "orbit_psi": sorted([size[r.edge_index], r.psi] for r in records),
                    "truncated": len(entries) - len(records),
                }

            rep.op(f"relabel {text}", invariants)
        return
    hosts = {"P": petersen(), "J5": flower(5), "J7": flower(7)}
    for name, host in hosts.items():
        def orbit_rows(name=name, host=host):
            g = relabel(host, rng(name))
            rows = []
            for orbit in edge_orbits(g):
                r33, r37 = verify_thm_3_3(g, orbit[0]), verify_thm_3_7(g, orbit[0])
                rows.append([len(orbit), r33.verdict, r33.quantities["L"],
                             r37.verdict, r37.quantities["psi"]])
            return sorted(rows)

        rep.op(f"relabel 3.3/3.7 {name}", orbit_rows)
    for name in ("P", "J5"):
        def pentagon_rows(name=name):
            g = relabel(hosts[name], rng(name))
            reports = [verify_thm_4_5(g, p) for p in list_pentagons(g)]
            return sorted([r.verdict, r.quantities["psi"], r.quantities["ed_count"]] for r in reports)

        rep.op(f"relabel 4.5 {name}", pentagon_rows)
    rep.op("relabel census wheel", lambda: len(orthogonal_pairs(relabel(wheel_w8()[0], rng("W")))))
    for wiring in ("parallel", "crossed"):
        def census_size(wiring=wiring):
            reduced = contract_removed_edge(evaluate_text(DOT_PRODUCT.format(wiring)), 20)[0]
            return len(orthogonal_pairs(relabel(reduced, rng(wiring))))

        rep.op(f"relabel census dotproduct {wiring} e20", census_size)


# -- entry point ----------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("splice-chain", "flowers", "identities"))
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--relabel-seed", type=int)
    args = ap.parse_args(argv)
    if Path(snarkforge.__file__).resolve().parent != ROOT / "src" / "snarkforge":
        print(f"snarkforge imported from {snarkforge.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    # Set-up: everything a user pays before the first call that answers.
    workdir = args.out.parent / (args.out.stem + ".work")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if args.relabel_seed is None and args.workload == "identities":
        hosts = {"P": petersen(), "J5": flower(5), "J7": flower(7), "J9": flower(9)}
        wheel = wheel_w8()[0]
        ledger_path = workdir / "fixture.jsonl"
        shutil.copyfile(FIXTURE, ledger_path)
    elif args.relabel_seed is None:
        recipes = search_recipes(args.workload)
        ledger = Ledger(str(workdir / "ledger.jsonl"))

    tracer = Tracer(CLOCK.now) if args.trace else None
    rep = Rep(tracer)
    setup = CLOCK.now()
    first_call = monotonic()
    if not args.setup_only:
        start_cpu, start = time.thread_time(), time.perf_counter()
        if args.relabel_seed is not None:
            relabel_checks(rep, args.workload, args.relabel_seed)
        elif args.workload == "identities":
            run_identities(rep, hosts, wheel, ledger_path, workdir / "summary.csv")
        else:
            run_search(rep, recipes, ledger, traced=args.trace)
        seconds = CLOCK.now() - setup
        cpu, wall = time.thread_time() - start_cpu, time.perf_counter() - start
    CLOCK.stop()
    result = {"setup": setup, "first_call": first_call}
    if not args.setup_only:
        result.update({
            "seconds": seconds,
            "cpu": cpu,
            "wall": wall,
            "ops": rep.ops,
            "counters": rep.counters,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        })
        if tracer is not None:
            result["spans"] = tracer.spans
    args.out.write_text(json.dumps(result), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
