"""Exact engine for rank-n cluster patterns of the linear (polygon) type.

The package computes cluster variables two independent ways (seed mutation
and admissible-path expansion over a triangulated polygon), tracks the
companion matrix data of mutation paths, and machine-checks log-concavity
properties of the resulting numerators, specializations, and expansion
constants.  All arithmetic is exact integer arithmetic on sparse Laurent
polynomials.

The names imported below are the public surface; tests/test_api.py pins it.
"""

from .poly import (
    DimensionMismatchError,
    InexactDivisionError,
    LaurentPoly,
    LogConcavityResult,
    is_log_concave,
    normalize_denominator,
    poly_to_json,
)
from .pattern import (
    Seed,
    a_n_matrix,
    cg_step,
    check_separation,
    coefficient_free_seed,
    d_vector_step,
    enumerate_exchange_graph,
    f_data,
    initial_d_matrix,
    is_skew_symmetrizable,
    mutate,
    mutate_matrix,
    principal_seed,
    principal_state,
    seed_to_json,
    state_step,
)
from .polygon import (
    TPath,
    Triangulation,
    crosses,
    crossing_d_vector,
    diagonals_crossing,
    enumerate_t_paths,
    expand_variable,
    fan,
    flip,
    from_diagonals,
    tpath_monomial,
    triangulation_from_json,
    triangulation_to_json,
    zigzag,
)
from .verify import (
    a2_basis,
    a2_charts,
    explore_a2_structure_constants,
    explore_an_monomials,
    run_claim,
    verify_a2_monomials,
    verify_coeff_bounds,
    verify_fd,
    verify_fpoly_logcc,
    verify_main1,
    verify_separation,
)
