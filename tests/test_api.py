"""The package's public surface: the names `cluster_logcc` exports.

This set is the declaration of the surface.  A name joins it only when a
test, the CLI or the README needs it from the package root.
"""

import types

import cluster_logcc

PUBLIC = {
    # poly
    "DimensionMismatchError",
    "InexactDivisionError",
    "LaurentPoly",
    "LogConcavityResult",
    "is_log_concave",
    "normalize_denominator",
    "poly_from_json",
    "poly_to_json",
    # pattern
    "DEFAULT_BUDGET",
    "ExchangeGraph",
    "Seed",
    "TropicalElement",
    "a_n_matrix",
    "boundary_seed",
    "canonical_seed_key",
    "cg_step",
    "check_separation",
    "cluster_variables",
    "coefficient_free_seed",
    "d_vector_step",
    "enumerate_exchange_graph",
    "f_data",
    "graph_to_json",
    "initial_d_matrix",
    "is_skew_symmetrizable",
    "mutate",
    "mutate_matrix",
    "principal_seed",
    "principal_state",
    "seed_from_json",
    "seed_to_json",
    "state_step",
    # polygon
    "TPath",
    "Triangulation",
    "assert_valid_t_path",
    "b_matrix_of",
    "crosses",
    "crossing_d_vector",
    "diagonals_crossing",
    "enumerate_t_paths",
    "enumerate_triangulations",
    "expand_variable",
    "fan",
    "flip",
    "from_diagonals",
    "intersection_parameter",
    "principal_b_matrix",
    "tpath_monomial",
    "triangulation_from_json",
    "triangulation_to_json",
    "zigzag",
    # verify
    "a2_basis",
    "a2_charts",
    "a2_cluster_monomial",
    "a2_structure_constants",
    "explore_a2_structure_constants",
    "explore_an_monomials",
    "run_claim",
    "verify_a2_monomials",
    "verify_coeff_bounds",
    "verify_fd",
    "verify_fpoly_logcc",
    "verify_main1",
    "verify_separation",
}


def test_public_surface_is_pinned():
    exported = {
        name
        for name, value in vars(cluster_logcc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


def test_no_export_list_to_keep_in_step():
    # the import block is the only list of exports
    assert not hasattr(cluster_logcc, "__all__")
