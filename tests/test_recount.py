"""coloring.psi_with_counts, the ledger's recount, folds the smoothed
graph G_e on its host's own steps (graph.smoothed_layout) without building
G_e.  Checked here against the smoothed route,
oracles.smoothed_decomposition_count, which builds G_e with
graph.contract_removed_edge and counts it: the same count at every edge,
the same states at every step, the same DomainError texts and the same
budget boundary."""

import sys

import pytest
from hypothesis import HealthCheck, given, settings

from oracles import smoothed_decomposition_count
from strategies import BRIDGED, girth4_cubic
from snarkforge import coloring, graph
from snarkforge.coloring import psi_with_counts
from snarkforge.construct import flower, petersen
from snarkforge.errors import BudgetExceededError, CountContradictionError, DomainError
from snarkforge.graph import contract_removed_edge
from snarkforge.ledger import Ledger, PsiRecord, search, superpose_chain_family
from snarkforge.recipe import evaluate_text

HOSTS = {"P": petersen()}
HOSTS.update({f"J{n}": flower(n) for n in range(5, 16, 2)})
HOSTS.update(
    {f"chain{j}": evaluate_text(r) for j, r in enumerate(superpose_chain_family(3)) if j}
)


def states_per_step(monkeypatch, count) -> list[int]:
    """The states each step of the fold behind ``count()`` generates, never
    none, so a fold that stops spending cannot match an empty trace."""
    seen: list[int] = []
    real = graph._spend

    def spend(generated, states, node_budget):
        seen.append(len(states))
        return real(generated, states, node_budget)

    with monkeypatch.context() as patched:
        patched.setattr(graph, "_spend", spend)
        count()
    assert seen
    return seen


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_every_edge_matches_the_smoothed_route(monkeypatch, name):
    # the same count, and the same states at every step, so a node budget
    # truncates both routes at the same place
    g = HOSTS[name]
    for i in range(g.m):
        ned = smoothed_decomposition_count(g, i)
        assert psi_with_counts(g, i) == (ned // 3, ned, 6 * ned)
        smoothed = states_per_step(monkeypatch, lambda: smoothed_decomposition_count(g, i))
        assert states_per_step(monkeypatch, lambda: psi_with_counts(g, i)) == smoothed


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(girth4_cubic())
def test_random_girth4_cubic_graphs(g):
    # colorable hosts included, where a count need not be a multiple of 3
    for i in range(g.m):
        ned = smoothed_decomposition_count(g, i)
        if ned % 3:
            with pytest.raises(CountContradictionError, match=f"count {ned} of"):
                psi_with_counts(g, i)
        else:
            assert psi_with_counts(g, i) == (ned // 3, ned, 6 * ned)


def test_smoothing_preconditions_raise_as_the_smoothed_route_does(K4, prism):
    # K4 and the prism have triangles, and BRIDGED's edge (6, 13) is a bridge
    cases = [(K4, 0), (prism, 0), (BRIDGED, BRIDGED.edge_index(6, 13)), (petersen(), 15)]
    for g, e in cases:
        with pytest.raises(DomainError) as smoothed:
            smoothed_decomposition_count(g, e)
        with pytest.raises(DomainError) as recount:
            psi_with_counts(g, e)
        assert str(recount.value) == str(smoothed.value)


def test_budget_boundary_on_the_j3_chain():
    # edge 30 is the chain's costliest orbit representative; the smoothed
    # graph's count is count_decompositions' fold of its pinned steps
    chain = HOSTS["chain3"]
    h = contract_removed_edge(chain, 30)[0]
    pins = coloring._decomposition_fixing(h, graph.frontier_order(h))
    steps = coloring._placement_steps(h, pins)
    assert psi_with_counts(chain, 30, node_budget=8942) == (24, 72, 432)
    assert graph.frontier_fold(steps, 8942) == coloring.count_decompositions(h) == 72
    for count in (
        lambda: psi_with_counts(chain, 30, node_budget=8941),
        lambda: graph.frontier_fold(steps, 8941),
    ):
        with pytest.raises(BudgetExceededError, match="exceeded 8941 DP states"):
            count()


def test_reverify_builds_no_smoothed_graph(monkeypatch, tmp_path):
    led = Ledger(str(tmp_path / "led.jsonl"))
    entries = list(search(superpose_chain_family(2), led))
    assert entries and all(isinstance(e, PsiRecord) for e in entries)

    def refuse(*args, **kwargs):
        raise AssertionError("a recount smoothed an edge")

    # coloring and ledger do not import it; the verifiers' modules do
    assert not hasattr(coloring, "contract_removed_edge")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "snarkforge" and hasattr(module, "contract_removed_edge"):
            monkeypatch.setattr(module, "contract_removed_edge", refuse)
    reopened = Ledger(led.path)
    assert all(reopened.reverify(rec) for rec in reopened.psi_records())
