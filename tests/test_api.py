"""The package's public surface: the names `cluster_logcc` exports.

This set is the declaration of the surface.  A name joins it when a claim,
the CLI or the README needs it from the package root.  The tests read the
code the claims run, not wrappers of their own: a name that only tests
call, and that only rewraps what a claim already uses, leaves the package.

The benchmark tracer (perfbench/tracer.py) binds to submodule names that
are not all exported; the last tests check that those names still resolve,
so a rename fails here and not only in the benchmark's traced run.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import cluster_logcc
from cluster_logcc.verify import _CHECKERS

PUBLIC = {
    # poly
    "DimensionMismatchError",
    "InexactDivisionError",
    "LaurentPoly",
    "LogConcavityResult",
    "is_log_concave",
    "normalize_denominator",
    "poly_to_json",
    # pattern
    "Seed",
    "a_n_matrix",
    "cg_step",
    "check_separation",
    "coefficient_free_seed",
    "d_vector_step",
    "enumerate_exchange_graph",
    "f_data",
    "initial_d_matrix",
    "is_skew_symmetrizable",
    "mutate",
    "mutate_matrix",
    "principal_seed",
    "principal_state",
    "seed_to_json",
    "state_step",
    # polygon
    "TPath",
    "Triangulation",
    "crosses",
    "crossing_d_vector",
    "diagonals_crossing",
    "enumerate_t_paths",
    "expand_variable",
    "fan",
    "flip",
    "from_diagonals",
    "tpath_monomial",
    "triangulation_from_json",
    "triangulation_to_json",
    "zigzag",
    # verify
    "a2_basis",
    "a2_charts",
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


def test_seed_sweep_takes_no_plug_ins():
    # one search, over seeds: no step or key to swap in
    params = inspect.signature(cluster_logcc.enumerate_exchange_graph).parameters
    assert tuple(params) == ("seed", "budget")


def test_each_checker_takes_exactly_its_scope_flags():
    # run_claim passes a claim's scope values in order and nothing more, to
    # the exported checker itself: no adapter sits between.  The checkers
    # call the rank n, as in A_n.
    for claim, (reads, checker) in _CHECKERS.items():
        assert getattr(cluster_logcc, checker.__name__, None) is checker, claim
        params = tuple(inspect.signature(checker).parameters)
        assert params == tuple("n" if flag == "rank" else flag for flag in reads), claim


def test_import_leaves_rational_number_modules_unloaded():
    # the package computes in ints only; fractions would bring decimal and numbers
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, cluster_logcc; "
        "print(sorted(m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_export_list_to_keep_in_step():
    # the import block is the only list of exports
    assert not hasattr(cluster_logcc, "__all__")


# ---- the benchmark tracer's bindings ----


def _load_tracer():
    """perfbench/tracer.py, loaded by path; no Tracer is made, so nothing is rebound."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    for name, (modname, attr) in _load_tracer().TARGETS.items():
        owner = importlib.import_module(f"cluster_logcc.{modname}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: cluster_logcc.{modname}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_tracer_exchange_key_reads_seeds():
    exchange_key = _load_tracer()._exchange_key
    for seed in (
        cluster_logcc.coefficient_free_seed(cluster_logcc.a_n_matrix(3)),
        cluster_logcc.principal_seed(cluster_logcc.a_n_matrix(3)),
    ):
        key = exchange_key(seed, 1)
        hash(key)
        assert key[1] == seed.y[0].exponents
        assert key != exchange_key(seed, 2)
