"""Acceptance gate: thirteen criteria, one test each, exact tolerances.

Every check is integer-exact; the only numeric bounds are wall-clock limits
on the three criteria that pin runtimes.  Each test ends by printing a
single PASS line (visible with -s; under plain -v the per-test PASSED line
carries the same information).
"""

import json
import random
import time

from cluster_logcc import (
    LaurentPoly,
    a_n_matrix,
    coefficient_free_seed,
    crossing_d_vector,
    enumerate_exchange_graph,
    enumerate_t_paths,
    expand_variable,
    explore_a2_structure_constants,
    explore_an_monomials,
    f_data,
    flip,
    is_log_concave,
    mutate,
    mutate_matrix,
    normalize_denominator,
    principal_state,
    state_step,
    tpath_monomial,
    verify_a2_monomials,
    verify_coeff_bounds,
    verify_fd,
    verify_fpoly_logcc,
    verify_main1,
    verify_separation,
    zigzag,
)
from cluster_logcc.cli import main
from cluster_logcc.pattern import principal_states
from cluster_logcc.polygon import boundary_to_one

from oracles import dense_log_concave, plain_flip_graph


def _passed(num, text):
    print(f"criterion {num:2d} PASS - {text}")


# 1 ----------------------------------------------------------------------


def test_criterion_01_hexagon_path_table(capsys):
    started = time.monotonic()
    assert main(["tpaths", "--ngon", "6", "--from", "0", "--to", "3"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert len(obj["paths"]) == 5

    tri = zigzag(3)
    paths = enumerate_t_paths(tri, 0, 3)
    monomials = sorted(
        dict(boundary_to_one(tri, tpath_monomial(tri, p)).terms).popitem() for p in paths
    )
    assert monomials == sorted(
        [
            ((0, -1, 0), 1),
            ((-1, 1, -1), 1),
            ((-1, 0, -1), 1),
            ((-1, 0, -1), 1),
            ((-1, -1, -1), 1),
        ]
    )
    total = boundary_to_one(tri, expand_variable(tri, 0, 3))
    assert total.terms == {(0, -1, 0): 1, (-1, 1, -1): 1, (-1, 0, -1): 2, (-1, -1, -1): 1}
    nd = normalize_denominator(total, 3)
    assert nd.d_vector == (1, 1, 1)
    assert nd.numerator.terms == {(0, 2, 0): 1, (0, 1, 0): 2, (0, 0, 0): 1, (1, 0, 1): 1}
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _passed(1, f"five admissible paths and their exact sum ({elapsed:.2f}s)")


# 2 ----------------------------------------------------------------------

WALK_CELLS = [
    # direction, B, cluster, C, D, G, F, f-matrix (ambient x1, x2, y1, y2)
    (
        1,
        ((0, -1), (1, 0)),
        [{(-1, 1, 0, 0): 1, (-1, 0, 1, 0): 1}, {(0, 1, 0, 0): 1}],
        ((-1, 1), (0, 1)),
        ((1, 0), (0, -1)),
        ((-1, 0), (1, 1)),
        [{(0, 0): 1, (1, 0): 1}, {(0, 0): 1}],
        ((1, 0), (0, 0)),
    ),
    (
        2,
        ((0, 1), (-1, 0)),
        [
            {(-1, 1, 0, 0): 1, (-1, 0, 1, 0): 1},
            {(0, -1, 1, 1): 1, (-1, 0, 0, 0): 1, (-1, -1, 1, 0): 1},
        ],
        ((0, -1), (1, -1)),
        ((1, 1), (0, 1)),
        ((-1, -1), (1, 0)),
        [{(0, 0): 1, (1, 0): 1}, {(1, 1): 1, (1, 0): 1, (0, 0): 1}],
        ((1, 1), (0, 1)),
    ),
    (
        1,
        ((0, -1), (1, 0)),
        [
            {(1, -1, 0, 1): 1, (0, -1, 0, 0): 1},
            {(0, -1, 1, 1): 1, (-1, 0, 0, 0): 1, (-1, -1, 1, 0): 1},
        ],
        ((0, -1), (-1, 0)),
        ((0, 1), (1, 1)),
        ((0, -1), (-1, 0)),
        [{(0, 1): 1, (0, 0): 1}, {(1, 1): 1, (1, 0): 1, (0, 0): 1}],
        ((0, 1), (1, 1)),
    ),
    (
        2,
        ((0, 1), (-1, 0)),
        [{(1, -1, 0, 1): 1, (0, -1, 0, 0): 1}, {(1, 0, 0, 0): 1}],
        ((0, 1), (-1, 0)),
        ((0, -1), (1, 0)),
        ((0, 1), (-1, 0)),
        [{(0, 1): 1, (0, 0): 1}, {(0, 0): 1}],
        ((0, 0), (1, 0)),
    ),
]


def test_criterion_02_principal_walk_table():
    started = time.monotonic()
    st = principal_state(((0, 1), (-1, 0)))
    for step, (k, B, cluster, C, D, G, F, FM) in enumerate(WALK_CELLS, start=1):
        st = state_step(st, k)
        assert st.seed.B == B, f"B at t{step}"
        assert [dict(x.terms) for x in st.seed.cluster] == cluster, f"cluster at t{step}"
        assert st.C == C, f"C at t{step}"
        assert st.D == D, f"D at t{step}"
        assert st.G == G, f"G at t{step}"
        fd = f_data(st.seed)
        assert [dict(f.terms) for f in fd.f_polynomials] == F, f"F at t{step}"
        assert fd.f_matrix == FM, f"f-matrix at t{step}"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _passed(2, f"all cells of the rank-2 principal walk match ({elapsed:.2f}s)")


# 3 ----------------------------------------------------------------------


def test_criterion_03_period_ten_exactly():
    s0 = coefficient_free_seed(((0, 1), (-1, 0)))
    s = s0
    for i in range(1, 11):
        s = mutate(s, 1 + ((i - 1) % 2))
        if i < 10:
            assert s != s0, f"returned early at step {i}"
    assert s == s0
    _passed(3, "alternating mutation returns in exactly 10 steps, not fewer")


# 4 ----------------------------------------------------------------------


def test_criterion_04_log_concave_numerators_to_rank_six():
    elapsed6 = None
    for n in range(1, 7):
        started = time.monotonic()
        report = verify_main1(n)
        dt = time.monotonic() - started
        if n == 6:
            elapsed6 = dt
        assert report.ok, f"rank {n}: {report.witnesses[:1]}"
        assert report.stats["num_variables"] == n * (n + 3) // 2
    assert elapsed6 is not None and elapsed6 < 60.0
    _passed(4, f"dual-route log-concavity verified to rank 6 (rank 6 in {elapsed6:.2f}s)")


# 5 ----------------------------------------------------------------------


def test_criterion_05_coefficient_bounds_to_rank_six():
    for n in range(1, 7):
        report = verify_coeff_bounds(n)
        assert report.ok, f"rank {n}"
    assert verify_coeff_bounds(3).stats["has_coefficient_two"] is True
    _passed(5, "numerator coefficients bounded by 2, and 2 occurs at rank 3")


# 6 ----------------------------------------------------------------------


def test_criterion_06_degree_matrix_equals_positive_denominators():
    for n in range(2, 6):
        report = verify_fd(n)
        assert report.ok, f"rank {n}: {report.witnesses[:1]}"
    _passed(6, "x->1 degree matrix equals [denominator matrix]+ for ranks 2..5")


# 7 ----------------------------------------------------------------------


def test_criterion_07_companion_matrix_duality():
    def check(states):
        B0 = states[0].seed.B
        n = len(B0)
        for st in states:
            lhs = tuple(
                tuple(sum(B0[i][t] * st.C[t][j] for t in range(n)) for j in range(n))
                for i in range(n)
            )
            rhs = tuple(
                tuple(sum(st.G[i][t] * st.seed.B[t][j] for t in range(n)) for j in range(n))
                for i in range(n)
            )
            assert lhs == rhs

    # the vertices of the rank-2 walk, then every vertex of ranks 2..5
    walk = [principal_state(((0, 1), (-1, 0)))]
    for k in (1, 2, 1, 2):
        walk.append(state_step(walk[-1], k))
    check(walk)
    for n in range(2, 6):
        check(list(principal_states(n, None)))
    _passed(7, "B0 C = G B at every visited vertex")


# 8 ----------------------------------------------------------------------


def test_criterion_08_separation_formula():
    for n in range(2, 5):
        report = verify_separation(n)
        assert report.ok, f"rank {n}"
    _passed(8, "monomial-times-specialization identity holds for ranks 2..4")


# 9 ----------------------------------------------------------------------


def test_criterion_09_rank_two_monomials_closed_form():
    started = time.monotonic()
    report = verify_a2_monomials(8)
    elapsed = time.monotonic() - started
    assert report.ok, report.witnesses[:1]
    assert report.stats["num_monomials"] == 5 * 45  # all m1+m2 <= 8 in five charts
    assert elapsed < 30.0
    _passed(9, f"log-concave numerators and binomial closed form ({elapsed:.2f}s)")


# 10 ---------------------------------------------------------------------


def test_criterion_10_specialization_log_concavity():
    for n in range(2, 6):
        report = verify_fpoly_logcc(n)
        assert report.ok, f"rank {n}"
    _passed(10, "x->1 specializations log-concave with 0/1 degrees, ranks 2..5")


# 11 ---------------------------------------------------------------------


def test_criterion_11_exchange_graph_counts():
    expected = [2, 5, 14, 42, 132]
    for n, count in zip(range(1, 6), expected):
        graph = list(enumerate_exchange_graph(coefficient_free_seed(a_n_matrix(n))))
        flips = plain_flip_graph(zigzag(n))
        assert len(graph) == count
        assert len(flips) == count
    _passed(11, "seed BFS and flip BFS both count 2, 5, 14, 42, 132")


# 12 ---------------------------------------------------------------------

CASES = 1000


def test_criterion_12a_mutation_and_flip_involution():
    rng = random.Random(20260817)
    for _ in range(CASES):
        n = rng.randint(1, 4)
        seed = coefficient_free_seed(a_n_matrix(n))
        tri = zigzag(rng.randint(1, 6))
        for _ in range(rng.randint(0, 5)):
            seed = mutate(seed, rng.randint(1, n))
        for _ in range(rng.randint(0, 5)):
            tri = flip(tri, rng.randint(1, tri.n))
        k = rng.randint(1, n)
        assert mutate(mutate(seed, k), k) == seed
        assert mutate_matrix(mutate_matrix(seed.B, k), k) == seed.B
        j = rng.randint(1, tri.n)
        assert flip(flip(tri, j), j) == tri
    _passed(12, f"involution: {CASES} randomized seed/triangulation cases")


def test_criterion_12b_laurent_exactness():
    rng = random.Random(319)
    checked = 0
    while checked < CASES:
        n = rng.randint(2, 5)
        principal = rng.random() < 0.5
        st = principal_state(a_n_matrix(n)) if principal else None
        seed = st.seed if principal else coefficient_free_seed(a_n_matrix(n))
        for _ in range(rng.randint(1, 8)):
            k = rng.randint(1, n)
            seed = mutate(seed, k)  # raises InexactDivisionError on any failure
            assert all(c > 0 for c in seed.cluster[k - 1].coefficients())
            checked += 1
            if checked == CASES:
                break
    _passed(12, f"exact division held along {CASES} randomized mutation steps")


def test_criterion_12c_denominators_equal_crossing_numbers():
    rng = random.Random(77)
    checked = 0
    while checked < CASES:
        n = rng.randint(2, 5)
        base = zigzag(n)
        base_diagonals = {base.pair_of(k): k for k in range(1, n + 1)}
        st = principal_state(a_n_matrix(n))
        tri = base
        for _ in range(rng.randint(1, 10)):
            k = rng.randint(1, n)
            st = state_step(st, k)
            tri = flip(tri, k)
            chord = tri.pair_of(k)
            d_col = tuple(st.D[j][k - 1] for j in range(n))
            home = base_diagonals.get(chord)
            if home is not None:
                expected = tuple(-1 if j == home - 1 else 0 for j in range(n))
            else:
                expected = crossing_d_vector(base, chord)
            assert d_col == expected, (n, st.seed.history, chord)
            nd = normalize_denominator(st.seed.cluster[k - 1], n)
            assert nd.d_vector == d_col
            checked += 1
            if checked == CASES:
                break
    _passed(12, f"denominator recursion matched crossing counts in {CASES} cases")


def test_criterion_12d_log_concavity_against_dense_oracle():
    rng = random.Random(4099)
    for _ in range(CASES):
        m = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exp = tuple(rng.randint(-3, 3) for _ in range(m))
            terms[exp] = rng.randint(1, 9)
        p = LaurentPoly(m, terms)
        assert bool(is_log_concave(p)) == dense_log_concave(p)
    _passed(12, f"fast log-concavity agreed with the dense oracle on {CASES} polys")


# 13 ---------------------------------------------------------------------


def test_criterion_13_exploratory_searches_complete():
    report_an = explore_an_monomials(3, 4)
    assert report_an.status == "exploratory"
    assert report_an.stats["num_monomials"] > 0
    json.dumps(report_an.to_json_dict())  # violations, if any, must serialize

    report_sc = explore_a2_structure_constants(6)
    assert report_sc.status == "exploratory"
    assert report_sc.stats["num_unresolved"] == 0
    kinds = {w["kind"] for w in report_sc.witnesses}
    assert "negative-constant" not in kinds
    assert "unresolved-residual" not in kinds
    json.dumps(report_sc.to_json_dict())
    # log-concavity violations in the tables would appear as witnesses; they
    # are recorded, not asserted away, because the underlying question is open
    _passed(13, "exploratory searches completed with exact reconstruction")
