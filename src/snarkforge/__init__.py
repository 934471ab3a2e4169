"""snarkforge: exact edge-3-coloring counts, Kempe-chain machinery, snark
constructions, per-identity verification, and a reproducible psi ledger
for cubic graphs at desk scale."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    CountContradictionError,
    CyclicConnectivityUndefinedError,
    DomainError,
    Graph6ParseError,
    LedgerIntegrityError,
)
from .graph import (
    Cycle,
    EdgeRef,
    Graph,
    contract_removed_edge,
    cyclically_edge_connected_at_least,
    delete_edges,
    delete_vertices,
    find_cycles,
    girth,
    hamiltonian_cycle_count,
    is_cubic,
    is_hamiltonian,
    is_quasi_cubic,
    list_pentagons,
    valence_profile,
)
from .graph6 import decode_graph6, encode_graph6, to_dot
from .isomorphism import automorphisms, edge_orbits, find_isomorphism, is_isomorphic
from .klein import group_add
from .coloring import (
    EdgeColoring,
    count_colorings,
    count_decompositions,
    enumerate_colorings,
    enumerate_decompositions,
    parity_residual,
    psi,
    psi_counts,
    psi_with_counts,
)
from .kempe import (
    KempeChain,
    are_orthogonal,
    color_pair_counts,
    kempe_chain,
    kempe_chain_two_colors,
    kempe_swap,
    orthogonal_pairs,
)
from .covers import even_cover_sum, kaszonyi_sum_check
from .construct import (
    JoinResult,
    dot_product,
    flower,
    pentagon_join,
    petersen,
    remove_pentagon,
    superpose_52,
    wheel_w8,
)
from .recipe import Recipe, evaluate_text, format_recipe, parse_recipe
from .analyze import (
    SnarkCertificate,
    TheoremReport,
    certify_snark,
    condition_k,
    is_snark,
    verify_thm_3_3,
    verify_thm_3_7,
    verify_thm_4_5,
    verify_thm_4_8,
    verify_thm_5_3,
)
from .ledger import Ledger, PsiRecord, SearchBudget, TruncationRecord, search
