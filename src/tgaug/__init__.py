"""Temporal-graph connectivity augmentation toolkit.

Decide and optimize which temporal edges to add, out of a candidate set,
so that a temporal graph meets a connectivity requirement (full
connectivity, a designated source, or explicit pair demands) under strict
or non-strict journey semantics.  Includes the binary-matrix reformulation
of the lifespan-2 case, the quadratic algorithm for the one-extra-step
case, a temporal-expansion solver for pair demands, and generators for
the hardness gadgets used as correctness oracles.
"""

from .augmentation import (
    COST_EDGE,
    COST_GROUP,
    All,
    AugmentationProblem,
    Infeasible,
    Pairs,
    Requirement,
    Solution,
    Source,
    build_certificate,
    solve_exact,
    solve_one_plus_one,
    spanner_via_tca,
    unrestricted_candidates,
    verify_solution,
)
from .octo import (
    BinaryMatrix,
    MergeStep,
    OctoResult,
    apply_sequence,
    component_intersection_matrix,
    matrix_to_graph,
    sequence_to_edges,
    solve_octo,
)
from .steiner_expansion import (
    ExpansionGraph,
    TGSteinerInstance,
    build_expansion,
    min_weight_connection,
    solve_tpca_via_expansion,
)
from .temporal_graph import (
    NON_STRICT,
    STRICT,
    InvalidCandidateError,
    ParseError,
    SnapshotComponents,
    TemporalEdge,
    TemporalGraph,
    format_tg,
    parse_tg,
)

__version__ = "0.1.0"

__all__ = [
    "All",
    "AugmentationProblem",
    "BinaryMatrix",
    "COST_EDGE",
    "COST_GROUP",
    "ExpansionGraph",
    "Infeasible",
    "InvalidCandidateError",
    "MergeStep",
    "NON_STRICT",
    "OctoResult",
    "Pairs",
    "ParseError",
    "Requirement",
    "STRICT",
    "SnapshotComponents",
    "Solution",
    "Source",
    "TGSteinerInstance",
    "TemporalEdge",
    "TemporalGraph",
    "apply_sequence",
    "build_certificate",
    "build_expansion",
    "component_intersection_matrix",
    "format_tg",
    "matrix_to_graph",
    "min_weight_connection",
    "parse_tg",
    "sequence_to_edges",
    "solve_exact",
    "solve_octo",
    "solve_one_plus_one",
    "solve_tpca_via_expansion",
    "spanner_via_tca",
    "unrestricted_candidates",
    "verify_solution",
]
