"""Exact graph pebbling on paths, cycles, and Cartesian products.

A pebbling move removes two pebbles from a vertex and places one on an
adjacent vertex.  A distribution is solvable when every vertex can receive
a pebble through some move sequence.  This package computes exact
reachability, optimal pebbling numbers (with closed forms and constructive
witnesses for paths and cycles), classical pebbling numbers, product upper
bound checks, and size-reducing distribution surgeries — all verified by
brute force, with deterministic witnesses.
"""

from .engine import (
    MAX_ENGINE_PEBBLES,
    MAX_ENGINE_VERTICES,
    Distribution,
    Move,
    MoveSequence,
    SolveReport,
    apply_move,
    is_reachable,
    is_solvable,
    max_pebbles_to,
    max_pebbles_to_path_greedy,
    replay,
)
from .enumeration import (
    compositions_array,
    is_cycle_canonical,
    is_path_canonical,
    iter_compositions,
)
from .errors import (
    BudgetError,
    IllegalMoveError,
    NotApplicableError,
    PebblingError,
    ReplayError,
    SizeLimitError,
)
from .graphs import (
    MAX_PRODUCT_VERTICES,
    Graph,
    canonical_family,
    cartesian_product,
    load_edge_list,
    make_cycle,
    make_path,
    read_edge_list,
)
from .invariants import (
    MAX_GRAHAM_PRODUCT_VERTICES,
    MAX_PEBBLING_VALUE,
    MAX_PEBBLING_VERTICES,
    GrahamCheck,
    NumberReport,
    construct_optimal_cycle_distribution,
    construct_optimal_path_distribution,
    formula_fopt_cycle,
    formula_fopt_path,
    graham_optimal_check,
    optimal_pebbling_number,
    pebbling_number,
    product_distribution,
)
from .surgery import (
    SurgeryResult,
    collapse_two_pebble_block_path,
    cycle_reduce_big_pile,
    cycle_remove_202_or_220,
    remove_singleton,
    try_reduce,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Distribution",
    "Graph",
    "GrahamCheck",
    "IllegalMoveError",
    "MAX_ENGINE_PEBBLES",
    "MAX_ENGINE_VERTICES",
    "MAX_GRAHAM_PRODUCT_VERTICES",
    "MAX_PEBBLING_VALUE",
    "MAX_PEBBLING_VERTICES",
    "MAX_PRODUCT_VERTICES",
    "Move",
    "MoveSequence",
    "NotApplicableError",
    "NumberReport",
    "PebblingError",
    "ReplayError",
    "SizeLimitError",
    "SolveReport",
    "SurgeryResult",
    "apply_move",
    "canonical_family",
    "cartesian_product",
    "collapse_two_pebble_block_path",
    "compositions_array",
    "construct_optimal_cycle_distribution",
    "construct_optimal_path_distribution",
    "cycle_reduce_big_pile",
    "cycle_remove_202_or_220",
    "formula_fopt_cycle",
    "formula_fopt_path",
    "graham_optimal_check",
    "is_cycle_canonical",
    "is_path_canonical",
    "is_reachable",
    "is_solvable",
    "iter_compositions",
    "load_edge_list",
    "make_cycle",
    "make_path",
    "max_pebbles_to",
    "max_pebbles_to_path_greedy",
    "optimal_pebbling_number",
    "pebbling_number",
    "product_distribution",
    "read_edge_list",
    "remove_singleton",
    "replay",
    "try_reduce",
    "__version__",
]
