"""Evaluation codes on projective toric varieties over finite fields.

The pipeline goes polytope -> variety -> code: describe a lattice
polytope by vertices and facet inequalities, check the simplicity and
characteristic hypotheses, then build the evaluation matrix of its
monomials at every rational point, compute the code dimension by a
per-face reduction count, and bound the minimum distance from below by
counting surviving reduced points of a surjective enlargement. The
oracle module re-derives the same quantities by brute force, and
verify_ledger checks the pipeline against it at small sizes.
"""

from .intlat import snf_invariant_factors
from .polytope import Polytope, PolytopeError, offset_difference, same_normal_fan
from .gf import GF, FieldError
from .variety import (
    Flag,
    HypothesisError,
    build_flags,
    check_hypotheses,
    count_rational_points,
    flag_assignment,
    flag_for_chain,
    picard_invariants,
    require_hypotheses,
)
from .code import (
    EvaluationMatrix,
    OrderSpec,
    ReductionSet,
    SurjectivityError,
    best_bound_over_orders,
    bounds_over_orders,
    dimension,
    distance_lower_bound,
    find_surjective_dilate,
    generator_matrix,
    is_surjective,
    projective_reduction,
    stock_orders,
    subcode_matrix,
    verify_ledger,
)
from .oracle import (
    BudgetExceededError,
    min_distance_exhaustive,
    min_weight_random_upper,
    pick_check,
    rank_gf,
    reduction_class_count_unionfind,
)

__all__ = [
    "BudgetExceededError",
    "EvaluationMatrix",
    "FieldError",
    "Flag",
    "GF",
    "HypothesisError",
    "OrderSpec",
    "Polytope",
    "PolytopeError",
    "ReductionSet",
    "SurjectivityError",
    "best_bound_over_orders",
    "bounds_over_orders",
    "build_flags",
    "check_hypotheses",
    "count_rational_points",
    "dimension",
    "distance_lower_bound",
    "find_surjective_dilate",
    "flag_assignment",
    "flag_for_chain",
    "generator_matrix",
    "is_surjective",
    "min_distance_exhaustive",
    "min_weight_random_upper",
    "offset_difference",
    "pick_check",
    "picard_invariants",
    "projective_reduction",
    "rank_gf",
    "reduction_class_count_unionfind",
    "require_hypotheses",
    "same_normal_fan",
    "snf_invariant_factors",
    "stock_orders",
    "subcode_matrix",
    "verify_ledger",
]

__version__ = "0.1.0"
