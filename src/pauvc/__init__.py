"""Exact solvers for pre-assignments that force a unique minimum vertex cover.

A pre-assignment pins vertices into the cover (include model), out of it
(exclude model), or both (mixed model); it is feasible when exactly one
minimum vertex cover respects it.  This package finds minimum feasible
pre-assignments exactly, generates benchmark instances with unique
covers, and translates between this problem and its neighbors.
"""

from .errors import LimitExceeded, ParseError, PauvcError
from .graph import (
    Classification,
    Graph,
    GraphKind,
    Model,
    PreAssignment,
    VertexSet,
    classify,
    delete,
    is_independent_dominating_set,
    is_independent_set,
    is_vertex_cover,
    parse_dimacs,
    render_dimacs,
)
from .random_graphs import gnp_graph, random_tree
from .reductions import (
    Cnf1in3,
    GcLabeling,
    assignment_to_cover,
    build_bipartite_gadget,
    build_gc,
    cover_to_assignment,
    enumerate_1in3,
    min_independent_dominating_set,
    parse_dimacs_cnf,
    verify_cover_structure,
)
from .solvers import (
    PauResult,
    include_to_exclude,
    mixed_to_exclude,
    solve,
    solve_enum,
    solve_fpt_exclude,
    solve_fpt_include,
)
from .tree import TreeAnswer, pau_tree
from .uniqueness import (
    FeasibilityReport,
    Reason,
    has_unique_min_vc,
    is_feasible,
    reduce_instance,
)
from .vertex_cover import (
    BranchLeaf,
    SolveStats,
    VcSolution,
    branch_to_matchings,
    enumerate_min_vertex_covers,
    min_vertex_cover,
    min_vertex_cover_bipartite,
)

__version__ = "0.1.0"

__all__ = [
    "BranchLeaf",
    "Classification",
    "Cnf1in3",
    "FeasibilityReport",
    "GcLabeling",
    "Graph",
    "GraphKind",
    "LimitExceeded",
    "Model",
    "ParseError",
    "PauResult",
    "PauvcError",
    "PreAssignment",
    "Reason",
    "SolveStats",
    "TreeAnswer",
    "VcSolution",
    "VertexSet",
    "assignment_to_cover",
    "branch_to_matchings",
    "build_bipartite_gadget",
    "build_gc",
    "classify",
    "cover_to_assignment",
    "delete",
    "enumerate_1in3",
    "enumerate_min_vertex_covers",
    "gnp_graph",
    "has_unique_min_vc",
    "include_to_exclude",
    "is_feasible",
    "is_independent_dominating_set",
    "is_independent_set",
    "is_vertex_cover",
    "min_independent_dominating_set",
    "min_vertex_cover",
    "min_vertex_cover_bipartite",
    "mixed_to_exclude",
    "parse_dimacs",
    "parse_dimacs_cnf",
    "pau_tree",
    "random_tree",
    "reduce_instance",
    "render_dimacs",
    "solve",
    "solve_enum",
    "solve_fpt_exclude",
    "solve_fpt_include",
    "verify_cover_structure",
]
