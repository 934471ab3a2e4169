"""Append-only store of psi search results and the harness that fills it.

One JSON record per line.  Fields are fixed per record kind:

    kind="psi":       recipe, graph6, edge_index, psi, ec_count,
                      certificate, wall_time, version, tags
    kind="truncated": recipe, reason, version

The in-memory index is rebuilt when a ledger is opened; a line that fails
to parse or violates a record invariant raises LedgerIntegrityError with
its 1-based line number.  Writes always go through record(), keeping the
file a faithful event log (single writer, any number of readers).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from typing import Iterable, Iterator, Optional, get_type_hints

from . import __version__
from .errors import BudgetExceededError, CountContradictionError, DomainError
from .errors import Graph6ParseError, LedgerIntegrityError
from .graph import Graph, _smoothable, list_pentagons
from .graph6 import decode_graph6, encode_graph6, graph6_order
from .coloring import _psi_pass, psi_from_count, psi_with_counts
from .isomorphism import edge_orbits
from .analyze import SnarkCertificate, _snark_clauses
from .recipe import evaluate, evaluate_text, format_recipe, parse_recipe
from .value import Value


class PsiRecord(Value):
    """One verified psi value: the recipe that builds the graph, the graph
    itself (graph6), an orbit-representative edge, and the raw counts.
    ``wall_time`` is the seconds of the pass that computed psi at every
    representative of its recipe, split evenly over them."""

    recipe: str
    graph6: str
    edge_index: int
    psi: int
    ec_count: int
    certificate: str
    wall_time: float
    version: str = __version__
    tags: tuple[str, ...] = ()

    def validate(self, edge_counts: dict[str, int]) -> None:
        """Check the record's invariants.  ``edge_counts`` maps the graph6
        strings already decoded to their edge counts; a Ledger hands every
        record it loads or appends the same dict, so each distinct string
        is decoded once.

        The ``18 * psi == ec_count`` check holds by construction for the
        records a search writes (evaluate_recipe_records stores 6 times the
        count psi is a third of), so it catches only lines written elsewhere."""
        if self.psi * 18 != self.ec_count:
            raise DomainError(
                f"psi {self.psi} inconsistent with coloring count {self.ec_count}"
            )
        if not isinstance(self.graph6, str):
            raise DomainError(f"graph6 {self.graph6!r} is not a string")
        if self.graph6 not in edge_counts:
            edge_counts[self.graph6] = decode_graph6(self.graph6).m
        if not 0 <= self.edge_index < edge_counts[self.graph6]:
            raise DomainError(f"edge index {self.edge_index} invalid for stored graph")


class TruncationRecord(Value):
    """Marker for an instance the search attempted but had to abandon."""

    recipe: str
    reason: str
    version: str = __version__


LedgerEntry = PsiRecord | TruncationRecord


def _entry_to_line(entry: LedgerEntry) -> str:
    kind = "psi" if isinstance(entry, PsiRecord) else "truncated"
    return json.dumps({"kind": kind, **vars(entry)}, sort_keys=True)


def _json_type_ok(value: object, hint: object) -> bool:
    """Does a decoded JSON value have the type a record field declares?
    A bool is not a number, a float field also takes an int, and a tuple
    of str is stored as a list of str."""
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    if hint == tuple[str, ...]:
        return isinstance(value, list) and all(isinstance(x, str) for x in value)
    return isinstance(value, hint)


_KINDS = {
    kind: (cls, get_type_hints(cls))
    for kind, cls in (("psi", PsiRecord), ("truncated", TruncationRecord))
}


def _line_to_entry(line: str, record_id: int, edge_counts: dict[str, int]) -> LedgerEntry:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LedgerIntegrityError(f"unparsable line: {exc}", record_id) from None
    if not isinstance(payload, dict):
        raise LedgerIntegrityError("record is not a JSON object", record_id)
    kind = payload.pop("kind", None)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise LedgerIntegrityError(f"unknown record kind {kind!r}", record_id)
    cls, hints = _KINDS[kind]
    for name, hint in hints.items():
        if name in payload and not _json_type_ok(payload[name], hint):
            raise LedgerIntegrityError(
                f"field {name!r} is {payload[name]!r}, not of type {hint}", record_id
            )
    try:
        if cls is PsiRecord:
            payload["tags"] = tuple(payload.get("tags", ()))
            rec = PsiRecord(**payload)
            rec.validate(edge_counts)
            return rec
        return TruncationRecord(**payload)
    except (TypeError, DomainError, ValueError) as exc:
        raise LedgerIntegrityError(str(exc), record_id) from None


class Ledger:
    """A ledger file plus its in-memory index."""

    def __init__(self, path: str):
        self.path = path
        self.entries: list[LedgerEntry] = []
        # recipe -> (graph, its graph6 string), for reverify
        self._witnesses: dict[str, tuple[Graph, str]] = {}
        self._edge_counts: dict[str, int] = {}  # graph6 -> edge count, for validate
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if line:
                        self.entries.append(_line_to_entry(line, lineno, self._edge_counts))

    def record(self, entry: LedgerEntry) -> int:
        """Append one entry; returns its 1-based record id."""
        if isinstance(entry, PsiRecord):
            entry.validate(self._edge_counts)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(_entry_to_line(entry) + "\n")
        self.entries.append(entry)
        return len(self.entries)

    def psi_records(self) -> list[PsiRecord]:
        return [e for e in self.entries if isinstance(e, PsiRecord)]

    def achieved(self) -> list[int]:
        """Sorted distinct psi values with at least one witness."""
        return sorted({r.psi for r in self.psi_records()})

    def query(self, n: int) -> list[PsiRecord]:
        """Witnesses for psi value n, smallest graph first, ties broken by
        recipe text."""
        hits = [r for r in self.psi_records() if r.psi == n]
        return sorted(hits, key=lambda r: (graph6_order(r.graph6), r.recipe))

    def reverify(self, rec: PsiRecord) -> bool:
        """Rebuild the witness from its recipe and confirm the stored
        graph6 string and counts bit-identically.

        Each recipe is built and encoded once per Ledger, so its graph's
        frontier order is searched once however many records it has; the
        graph6 comparison and the psi recount still run for every record.
        The recount (psi_with_counts) folds the record's smoothed graph
        forward on the rebuilt host's stored steps, without building the
        smoothed graph.  It shares with the search's two-way pass only the
        frontier order, the layout and the read-only step tables, not the
        pass's zero states, reverse fold, relabelled sums or halvings."""
        if rec.recipe not in self._witnesses:
            g = evaluate_text(rec.recipe)
            self._witnesses[rec.recipe] = g, encode_graph6(g)
        g, g6 = self._witnesses[rec.recipe]
        if g6 != rec.graph6:
            return False
        psi_val, _ned, ec = psi_with_counts(g, rec.edge_index)
        return psi_val == rec.psi and ec == rec.ec_count

    def export_csv(self, path: str) -> None:
        """Summary: one row per achieved value with its smallest witness."""
        # imported here, as search imports multiprocessing: no other
        # caller of the package needs it at start-up
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["psi", "witness_vertices", "recipe"])
            for n in self.achieved():
                best = self.query(n)[0]
                writer.writerow([n, graph6_order(best.graph6), best.recipe])


# -- search harness -----------------------------------------------------


class SearchBudget(Value):
    """Per-recipe caps of a search: the host's edge count, and the DP
    states of its one psi pass, which also counts the colorings its
    certificate needs."""

    max_edges: int = 80
    max_nodes: int = 10**8

    # mutable, so unhashable, as a dataclass that is not frozen
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None


def evaluate_recipe_records(
    recipe_text: str, budget: Optional[SearchBudget] = None
) -> list[LedgerEntry]:
    """Build one recipe, certify it, and compute psi for one edge per
    automorphism orbit, all from one coloring._psi_pass: the certificate
    takes its girth and connectivity clauses from analyze._snark_clauses,
    evaluated before the pass, and its coloring count from the pass's
    reverse fold, so the host is folded once.  A recipe that does not
    parse or build, an oversized instance, a graph that certification or
    psi rejects as outside its domain, and an over-budget pass each yield
    a single truncation marker instead, after the psi records of the
    representatives before the one psi rejects, so one bad recipe never
    ends a search.  ``max_nodes`` caps the states of the whole pass, the
    coloring count included, so going over it truncates the whole recipe."""
    budget = budget or SearchBudget()
    try:
        recipe = parse_recipe(recipe_text)
        canonical = format_recipe(recipe)
        g = evaluate(recipe)
    except (DomainError, Graph6ParseError) as exc:
        return [TruncationRecord(recipe_text, f"recipe: {exc}")]
    if g.m > budget.max_edges:
        return [TruncationRecord(canonical, f"edge count {g.m} over budget")]
    try:
        clauses = _snark_clauses(g)
    except DomainError as exc:
        return [TruncationRecord(canonical, f"certification: {exc}")]
    g6 = encode_graph6(g)
    pentagon_edges = {
        g.edge_index(a, b) for p in list_pentagons(g) for a, b in p.edge_pairs()
    }
    orbits = edge_orbits(g)
    t0 = time.perf_counter()
    # the first representative that fails the smoothing preconditions ends
    # the recipe after the records of those before it
    reps: list[int] = []
    failure = None
    try:
        for rep in _smoothable(g, (orbit[0] for orbit in orbits)):
            reps.append(rep)
    except DomainError as exc:
        failure = TruncationRecord(canonical, f"psi: {exc}")
    if not reps:
        return [failure]
    try:
        counts, colorings = _psi_pass(g, reps, node_budget=budget.max_nodes)
    except BudgetExceededError as exc:
        return [TruncationRecord(canonical, str(exc))]
    except CountContradictionError as exc:
        return [TruncationRecord(canonical, f"psi: {exc}")]
    certificate = SnarkCertificate(*clauses, colorings).summary()
    wall_time = round((time.perf_counter() - t0) / len(reps), 6)
    out: list[LedgerEntry] = []
    for rep in reps:
        try:
            psi_val = psi_from_count(counts[rep])
        except CountContradictionError as exc:
            return out + [TruncationRecord(canonical, f"psi: {exc}")]
        out.append(
            PsiRecord(
                recipe=canonical,
                graph6=g6,
                edge_index=rep,
                psi=psi_val,
                ec_count=6 * counts[rep],
                certificate=certificate,
                wall_time=wall_time,
                tags=("pentagon",) if rep in pentagon_edges else (),
            )
        )
    return out + ([failure] if failure else [])


def search(
    family: Iterable[str],
    ledger: Optional[Ledger] = None,
    budget: Optional[SearchBudget] = None,
    workers: int = 1,
) -> Iterator[LedgerEntry]:
    """Evaluate a stream of recipes under the budget, recording every
    produced entry into the ledger (when given) and yielding it.

    With ``workers > 1`` recipes are evaluated in parallel processes;
    ledger appends still happen here, in order, through the one writer.
    """
    budget = budget or SearchBudget()
    evaluate = functools.partial(evaluate_recipe_records, budget=budget)
    with contextlib.ExitStack() as stack:
        imap = map
        if workers > 1:
            # imported here: it would add about 10 ms to every start-up
            import multiprocessing

            imap = stack.enter_context(multiprocessing.Pool(workers)).imap
        for entries in imap(evaluate, family):
            for entry in entries:
                if ledger is not None:
                    ledger.record(entry)
                yield entry


# -- built-in recipe families -------------------------------------------


def flower_family(max_n: int) -> Iterator[str]:
    n = 5
    while n <= max_n:
        yield f"(flower {n})"
        n += 2


def pentagon_join_family() -> Iterator[str]:
    """Pentagon joins of each ordered pair of Petersen and J5, at pentagon 0."""
    bases = ("(petersen)", "(flower 5)")
    for left in bases:
        for right in bases:
            yield f"(pentagonjoin {left} p=0 {right} p=0)"


def superpose_chain_family(depth: int) -> Iterator[str]:
    """Repeatedly splice the previous graph in place of a Petersen edge.

    The first step splices at Petersen vertices 0 and 6, which are not
    adjacent; later steps splice at two of the freshly added path
    vertices, which are always non-adjacent.
    """
    inner = "(petersen)"
    yield inner
    for step in range(depth):
        if step == 0:
            u, v = 0, 6
        else:
            # the last six vertices are the fresh path vertices; pick the
            # middle of each path (T(0) and W(0)), never adjacent
            n = evaluate_text(inner).n
            u, v = n - 5, n - 2
        inner = f"(superpose52 (petersen) e=0 {inner} u={u} v={v})"
        yield inner
