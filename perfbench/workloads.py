"""The benchmark's workloads: which claims each runs, and at which scope.

A workload is a fixed list of `cluster-logcc verify` invocations that run in
one fresh interpreter, in the listed order.  The inputs are the paper's
claims at fixed scopes, so nothing here is random; the benchmark seed only
sets how runs interleave.

`full` is the measured scope.  `smoke` runs the same claims at rank 3 and
degree 4 and finishes in seconds; the benchmark's own tests use it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

Claim = Tuple[str, Tuple[str, ...]]  # (claim id, extra verify arguments)


class Workload(NamedTuple):
    name: str
    claims: Dict[str, List[Claim]]  # scope -> invocations in run order
    # Wrapped functions that must record calls in a traced run.  A zero means
    # the wrapping missed a name binding, or the workload stopped exercising
    # the layer it exists for.
    expect_called: Tuple[str, ...]


# Why each workload is here is in BENCHMARK.json.  Which per-layer metrics
# should move which end-to-end metrics:
#
# free-sweep: poly.div_exact.*, poly.mul.*, pattern.mutate.self_s,
#   pattern.canonical_seed_key.self_s and pattern.mutate_matrix.self_s move
#   main1_s and wall_s.  A memo on exchange relations pulls
#   poly.div_exact.calls toward pattern.mutate.distinct_exchanges while
#   pattern.mutate.calls stays; caches and interning show in peak_rss_mb.
# principal-sweep: pattern.cg_step.self_s, pattern.d_vector_step.self_s and
#   pattern.state_step.calls (3 x 660) move gyo21_s, fpoly_s, separation_s
#   and wall_s; a shared sweep pulls state_step.calls down.  The other
#   workloads never call these.  Caches show in peak_rss_mb.
# monomial-products: poly.mul.term_products, poly.mul.self_s and
#   poly.is_log_concave.self_s move conj-an_s, a2-monomials_s and wall_s;
#   poly.add.* and verify.run_claim.self_s (the elimination loop) move
#   conj1-a2_s.  Sweep changes are predicted not to move it.
# chord-expansion: poly.add.* and polygon.enumerate_t_paths.self_s move
#   coeff012_s and wall_s.  Sweep and mul changes: predicted no change.
# Every workload: cli.main.self_s (argument parsing, JSON emission) moves
#   each <claim>_s slightly.
_ALWAYS = ("cli.main", "verify.run_claim")

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "free-sweep",
        {
            "full": [("main1", ("--rank", "6"))],
            "smoke": [("main1", ("--rank", "3"))],
        },
        _ALWAYS
        + (
            "poly.mul",
            "poly.div_exact",
            "pattern.mutate",
            "pattern.mutate_matrix",
            "pattern.canonical_seed_key",
            "pattern.enumerate_exchange_graph",
            "polygon.expand_variable",
        ),
    ),
    Workload(
        "principal-sweep",
        {
            "full": [
                ("gyo21", ("--rank", "5")),
                ("fpoly", ("--rank", "5")),
                ("separation", ("--rank", "5")),
            ],
            "smoke": [
                ("gyo21", ("--rank", "3")),
                ("fpoly", ("--rank", "3")),
                ("separation", ("--rank", "3")),
            ],
        },
        _ALWAYS
        + (
            "pattern.state_step",
            "pattern.cg_step",
            "pattern.d_vector_step",
            "pattern.mutate",
            "pattern.canonical_seed_key",
            "pattern.f_data",
            "pattern.check_separation",
        ),
    ),
    Workload(
        "monomial-products",
        {
            "full": [
                ("conj-an", ("--rank", "4", "--deg", "4")),
                ("conj1-a2", ("--deg", "8")),
                ("a2-monomials", ("--deg", "16")),
            ],
            "smoke": [
                ("conj-an", ("--rank", "3", "--deg", "4")),
                ("conj1-a2", ("--deg", "4")),
                ("a2-monomials", ("--deg", "4")),
            ],
        },
        _ALWAYS
        + (
            "poly.mul",
            "poly.add",
            "poly.is_log_concave",
            "poly.normalize_denominator",
            "verify.a2_basis",
        ),
    ),
    Workload(
        "chord-expansion",
        {
            "full": [("coeff012", ("--rank", "12"))],
            "smoke": [("coeff012", ("--rank", "3"))],
        },
        _ALWAYS
        + (
            "poly.add",
            "polygon.enumerate_t_paths",
            "polygon.tpath_monomial",
            "polygon.expand_variable",
        ),
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
SCOPES = ("full", "smoke")
