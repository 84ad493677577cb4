"""Induced matchings in subcubic graphs with certified size guarantees.

An induced matching (strong matching) is a set of edges whose endpoints are
pairwise distinct and nonadjacent.  The central algorithm reduces a subcubic
graph by local rules and returns a matching of size at least
ceil((n - i - n33plus) / 6), together with an auditable step trace; an exact
branch-and-bound oracle, greedy baselines with their own guarantees, and
deterministic graph generators round out the toolkit.
"""

from .certify import (
    BoundReport,
    LedgerResult,
    count_invariants,
    ledger_check,
    verify_induced_matching,
)
from .graph import (
    Edge,
    Graph,
    GraphError,
    GraphParseError,
    connected_components,
    girth,
    normalize_edge,
    parse_graph,
    write_edge_list,
)
from .greedy import (
    forest_greedy_induced_matching,
    girth6_induced_matching,
    greedy_induced_matching,
)
from .oracle import (
    ORACLE_EDGE_CAP,
    BudgetExceededError,
    exact_strong_matching_number,
)
from .generators import (
    SplitMix64,
    gen_c5_blowup,
    gen_extremal_cubic,
    gen_k33plus,
    gen_odd_regular_extremal,
    gen_random_bounded_degree,
    gen_random_cubic,
    gen_random_forest,
    gen_random_girth6,
    gen_random_subcubic,
)
from .reduction import (
    LedgerViolationError,
    ReductionStep,
    ReductionTrace,
    find_induced_matching_subcubic,
    format_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceededError",
    "Edge",
    "Graph",
    "GraphError",
    "GraphParseError",
    "LedgerResult",
    "LedgerViolationError",
    "ORACLE_EDGE_CAP",
    "ReductionStep",
    "ReductionTrace",
    "SplitMix64",
    "connected_components",
    "count_invariants",
    "exact_strong_matching_number",
    "find_induced_matching_subcubic",
    "forest_greedy_induced_matching",
    "format_trace",
    "gen_c5_blowup",
    "gen_extremal_cubic",
    "gen_k33plus",
    "gen_odd_regular_extremal",
    "gen_random_bounded_degree",
    "gen_random_cubic",
    "gen_random_forest",
    "gen_random_girth6",
    "gen_random_subcubic",
    "girth",
    "girth6_induced_matching",
    "greedy_induced_matching",
    "ledger_check",
    "normalize_edge",
    "parse_graph",
    "verify_induced_matching",
    "write_edge_list",
]
