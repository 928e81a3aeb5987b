"""Finite-field incidence lab: exhaustive search kernels over F_p^d,
zero/containment-pattern enumeration, sphere geometry, and randomized
extremal-graph constructions, behind a reproducible experiment CLI."""

from .errors import ConstructionFailure, DomainError, ResourceLimitError
from .rng import Rng
from .gf import FieldCtx, find_prime, is_prime
from .mpoly import (
    MultiPoly,
    bivariate_section,
    count_zeros,
    evaluate_batch,
    format_poly,
    monomial_count,
    monomials_upto,
    parse_poly,
    sample_uniform,
    zero_set,
)
from .bigraph import (
    BipartiteGraph,
    Hypergraph,
    Pattern,
    contains_kss,
    find_induced_pattern,
    hypergraph_independent_set,
    independent_set_bound,
    prefix_tree_pattern,
    staircase_pattern,
)
from .patterns import (
    PatternFamily,
    SetSystem,
    containment_patterns,
    family_report,
    shatter_function,
    witness_rank_check,
    zero_patterns,
)
from .geometry import (
    AffineFlat,
    BilinearForm,
    Sphere,
    flats_in_sphere_check,
    intersect_spheres_to_flat,
    intersection_flats,
    isotropic_unit_pair_search,
    point_sphere_incidence,
    sphere_family_check,
    sphere_points,
    unit_distance_graph,
)
from .constructions import (
    AlgebraicGraphInstance,
    ConstructionReport,
    PointVarietyInstance,
    UnitDistanceInstance,
    ZeroCountResult,
    evasive_point_set,
    point_variety_instance,
    random_algebraic_graph,
    unit_distance_instance,
    zero_count_experiment,
)

__all__ = [n for n in dir() if not n.startswith("_")]
