"""Values of the 2-factor fold and the coloring kernel at the widest
frontiers the test hosts reach, pinned from the tuple-keyed fold and the
used-color extension tables they replaced: every edge-orbit reduction of
flower(15) and of the j=3 superposition chain, whose reduced graphs keep 9
to 11 slots on the frontier (graph.frontier_layout), so that the fold's
packed states with two marked edges pass 64 bits.  The hypothesis graphs
of the other tests, at most 16 vertices, stay narrower (at most 8 slots
over 600 random cubic graphs of 14 and 16 vertices).

Each row is (edge-orbit representative e of the host, then, on the graph
G_e with e removed and smoothed and its inserted edges d1 and d2:
even_cover_sum(d1, d2), hamiltonian_cycle_count, cocyclic_factor_count at
(d1, d2) and at (d1, the next edge index), and the color_pair_counts cells
(1, 1) and (1, 2) at (d1, d2)).  Beside each count, is_hamiltonian must
answer whether it is positive.
"""

import pytest

from snarkforge.construct import flower
from snarkforge.covers import even_cover_sum
from snarkforge.graph import contract_removed_edge, hamiltonian_cycle_count, is_hamiltonian
from snarkforge.isomorphism import edge_orbits
from snarkforge.kempe import cocyclic_factor_count, color_pair_counts
from snarkforge.ledger import superpose_chain_family
from snarkforge.recipe import evaluate_text

FLOWER15 = [
    (0, 5460, 2898, 0, 3216, 5460, 5460),
    (2, 10924, 5674, 0, 6434, 10924, 10924),
    (30, 5462, 2903, 0, 3217, 5462, 5462),
    (32, 10922, 5675, 0, 6433, 10922, 10922),
]

CHAIN3 = [
    (0, 96, 104, 0, 64, 96, 96),
    (1, 96, 88, 0, 64, 96, 96),
    (2, 144, 60, 0, 72, 144, 144),
    (4, 96, 96, 0, 60, 96, 96),
    (7, 96, 120, 0, 50, 96, 96),
    (8, 96, 104, 0, 50, 96, 96),
    (9, 208, 76, 0, 96, 208, 208),
    (13, 96, 88, 0, 64, 96, 96),
    (14, 96, 96, 0, 50, 96, 96),
    (15, 96, 112, 0, 66, 96, 96),
    (16, 112, 60, 0, 62, 112, 112),
    (18, 96, 80, 0, 72, 96, 96),
    (21, 96, 80, 0, 56, 96, 96),
    (22, 96, 96, 0, 56, 96, 96),
    (23, 80, 48, 0, 40, 80, 80),
    (27, 96, 96, 0, 66, 96, 96),
    (28, 32, 56, 0, 40, 32, 32),
    (29, 32, 64, 0, 32, 32, 32),
    (30, 48, 32, 0, 28, 48, 48),
    (32, 32, 56, 0, 24, 32, 32),
    (35, 32, 48, 0, 32, 32, 32),
    (36, 32, 56, 0, 32, 32, 32),
    (37, 64, 20, 0, 26, 64, 64),
    (41, 32, 80, 0, 32, 32, 32),
    (42, 16, 16, 0, 16, 16, 16),
    (43, 32, 16, 0, 16, 32, 32),
    (45, 16, 32, 0, 16, 16, 16),
    (46, 16, 32, 0, 16, 16, 16),
    (47, 16, 32, 0, 16, 16, 16),
    (49, 16, 24, 0, 12, 16, 16),
    (50, 64, 8, 0, 28, 64, 64),
    (51, 16, 32, 0, 16, 16, 16),
    (53, 32, 16, 0, 20, 32, 32),
    (57, 0, 0, 0, 0, 0, 0),
    (58, 0, 0, 0, 0, 0, 0),
    (61, 0, 0, 0, 0, 0, 0),
    (62, 0, 0, 0, 0, 0, 0),
    (65, 0, 0, 0, 0, 0, 0),
    (66, 0, 0, 0, 0, 0, 0),
]


@pytest.mark.parametrize(
    "host, pinned",
    [
        (lambda: flower(15), FLOWER15),
        (lambda: evaluate_text(list(superpose_chain_family(3))[-1]), CHAIN3),
    ],
    ids=["flower15", "chain3"],
)
def test_wide_frontier_values(host, pinned):
    g = host()
    rows = []
    for orbit in edge_orbits(g):
        h, d1, d2 = contract_removed_edge(g, orbit[0])
        cells = color_pair_counts(h, d1, d2)
        count = hamiltonian_cycle_count(h)
        # the depth-first walk decides what the fold counts
        assert is_hamiltonian(h) == (count > 0)
        rows.append((
            orbit[0],
            even_cover_sum(h, d1, d2),
            count,
            cocyclic_factor_count(h, d1, d2),
            cocyclic_factor_count(h, d1, (d1.index + 1) % h.m),
            cells[(1, 1)],
            cells[(1, 2)],
        ))
    assert rows == pinned
