import copy
import itertools
import json
import pickle
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from oracles import (
    boundary_seed,
    dense_cg_step,
    dense_d_vector_step,
    dense_mutate_matrix,
    fraction_skew_symmetrizable,
    plain_check_separation,
    plain_exchange_graph,
    plain_mutate,
    plain_principal_states,
    plain_seed_key,
    trop_inverse,
    trop_mul,
    trop_one_oplus,
    trop_oplus,
    trop_split_pm,
)

import cluster_logcc.pattern as pattern
import cluster_logcc.verify as verify
from cluster_logcc import (
    InexactDivisionError,
    LaurentPoly,
    Seed,
    a_n_matrix,
    cg_step,
    check_separation,
    coefficient_free_seed,
    d_vector_step,
    enumerate_exchange_graph,
    enumerate_t_paths,
    expand_variable,
    f_data,
    initial_d_matrix,
    is_skew_symmetrizable,
    mutate,
    mutate_matrix,
    normalize_denominator,
    poly_to_json,
    principal_seed,
    principal_state,
    seed_to_json,
    state_step,
    zigzag,
)
from cluster_logcc.pattern import _labelled, canonical_seed_key, per_variable, principal_states

B2 = ((0, 1), (-1, 0))
TYPE_B2 = ((0, 2), (-1, 0))
TYPE_G2 = ((0, 3), (-1, 0))
KRONECKER = ((0, 2), (-2, 0))
MARKOV = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))


# ---- exchange matrices ----


def test_a_n_matrix_small():
    assert a_n_matrix(1) == ((0,),)
    assert a_n_matrix(2) == ((0, 1), (-1, 0))
    assert a_n_matrix(3) == ((0, -1, 0), (1, 0, 1), (0, -1, 0))
    assert a_n_matrix(4) == (
        (0, 1, 0, 0),
        (-1, 0, -1, 0),
        (0, 1, 0, 1),
        (0, 0, -1, 0),
    )
    with pytest.raises(ValueError):
        a_n_matrix(0)


def test_mutate_matrix_example():
    assert mutate_matrix(B2, 1) == ((0, -1), (1, 0))
    B3 = a_n_matrix(3)
    assert mutate_matrix(B3, 2) == ((0, 1, 0), (-1, 0, -1), (0, 1, 0))
    # mutation at an end of the chain creates no new entries
    assert mutate_matrix(B3, 1) == ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    with pytest.raises(IndexError):
        mutate_matrix(B3, 4)


@pytest.mark.parametrize(
    "B0",
    [a_n_matrix(n) for n in range(1, 7)] + [TYPE_B2, TYPE_G2, ((0, 2), (-2, 0))],
)
def test_mutate_matrix_matches_entry_formula_along_random_paths(B0):
    rng = random.Random(20261017 + len(B0))
    n = len(B0)
    for _ in range(200 // n):
        B = B0
        for _ in range(rng.randint(1, 8)):
            k = rng.randint(1, n)
            got = mutate_matrix(B, k)
            assert got == dense_mutate_matrix(B, k)
            B = got


@given(st.integers(min_value=1, max_value=4), st.lists(st.integers(min_value=1, max_value=4), max_size=8))
def test_matrix_mutation_involutive_and_symmetrizable(n, path):
    B = a_n_matrix(n)
    for k in path:
        if k > n:
            continue
        assert mutate_matrix(mutate_matrix(B, k), k) == B
        B = mutate_matrix(B, k)
        assert is_skew_symmetrizable(B)


@st.composite
def _sign_skew_matrices(draw):
    """Square matrices with zero diagonal and b_ij b_ji < 0 or both 0."""
    n = draw(st.integers(min_value=1, max_value=4))
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b = draw(st.integers(min_value=-3, max_value=3))
            if b:
                B[i][j] = b
                B[j][i] = -draw(st.integers(min_value=1, max_value=3)) * (1 if b > 0 else -1)
    return tuple(map(tuple, B))


@given(_sign_skew_matrices())
def test_integer_pair_scales_match_fraction_scales(B):
    assert is_skew_symmetrizable(B) == fraction_skew_symmetrizable(B)


def test_is_skew_symmetrizable():
    assert is_skew_symmetrizable(((0, 1), (-2, 0)))  # scaled by diag(2, 1)
    assert not is_skew_symmetrizable(((0, 1), (1, 0)))  # same sign
    assert not is_skew_symmetrizable(((0, 1), (0, 0)))  # asymmetric zero pattern
    assert not is_skew_symmetrizable(((1, 0), (0, 0)))  # nonzero diagonal
    # an inconsistent 3-cycle of scaling constraints
    assert not is_skew_symmetrizable(((0, 1, -2), (-1, 0, 1), (1, -1, 0)))
    assert is_skew_symmetrizable(((0, 1, -1), (-1, 0, 1), (1, -1, 0)))
    # a ragged matrix is refused, not read past the end of a short row
    assert not is_skew_symmetrizable(((0, 1), ()))
    assert not is_skew_symmetrizable(((0,), (1, 0)))
    for make in (coefficient_free_seed, principal_seed):
        with pytest.raises(ValueError, match="not skew-symmetrizable"):
            make([[0, 1], []])


# ---- seed mutation ----


def test_initial_coefficients_are_the_generators():
    # principal y_i starts as the i-th frozen generator; coefficient-free y_i is empty
    assert [y.exponents for y in principal_seed(a_n_matrix(3)).y] == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
    ]
    assert [y.exponents for y in coefficient_free_seed(a_n_matrix(3)).y] == [(), (), ()]


def test_coefficient_free_initial_seed():
    s = coefficient_free_seed(B2)
    assert s.n == 2 and s.num_frozen == 0 and s.num_vars == 2
    assert [x.terms for x in s.cluster] == [{(1, 0): 1}, {(0, 1): 1}]
    assert all(y.exponents == () for y in s.y)
    with pytest.raises(ValueError):
        coefficient_free_seed(((0, 1), (1, 0)))


def test_first_mutation_of_a_coefficient_free_seed():
    s = mutate(coefficient_free_seed(B2), 1)
    assert s.cluster[0].terms == {(-1, 1): 1, (-1, 0): 1}  # (x2 + 1) / x1
    assert s.cluster[1].terms == {(0, 1): 1}
    assert s.B == ((0, -1), (1, 0))
    assert s.history == (1,)


def test_mutation_is_involutive():
    s = coefficient_free_seed(a_n_matrix(3))
    for k in (1, 2, 3):
        assert mutate(mutate(s, k), k) == s  # history is excluded from equality
    p = principal_seed(a_n_matrix(3))
    for k in (1, 2, 3):
        assert mutate(mutate(p, k), k) == p


def test_coefficient_free_mutation_keeps_the_coefficients():
    # y_k = 1 leaves every y_i as it is, so mutation reuses the same objects
    for s in enumerate_exchange_graph(coefficient_free_seed(a_n_matrix(4))):
        for k in range(1, s.n + 1):
            t = mutate(s, k)
            assert t.frozen is s.frozen


def test_mutation_direction_out_of_range():
    with pytest.raises(IndexError):
        mutate(coefficient_free_seed(B2), 3)


_entries = st.integers(min_value=-2, max_value=2)
_exponents = st.tuples(*([st.integers(min_value=-4, max_value=4)] * 3))


@given(
    st.tuples(_entries, _entries, _entries),
    st.tuples(_exponents, _exponents, _exponents),
    st.integers(min_value=1, max_value=3),
)
def test_mutation_matches_semifield_route_with_mixed_sign_coefficients(upper, ys, k):
    # Principal sweeps only meet sign-coherent coefficients; these y_k may
    # mix signs, so both frozen monomials of the binomial and both branches
    # of the coefficient rule are exercised.
    a, b, c = upper
    B = ((0, a, b), (-a, 0, c), (-b, -c, 0))
    cluster = tuple(LaurentPoly.variable(6, i) for i in range(3))
    seed = Seed(B, tuple(zip(*ys)), cluster)
    got, want = mutate(seed, k), plain_mutate(seed, k)
    assert got.y == want.y
    assert got.B == want.B
    assert got.cluster == want.cluster


# The tropical semifield on exponent vectors, as plain_mutate uses it.


@given(_exponents, _exponents, _exponents)
def test_semifield_axioms(a, b, c):
    assert trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))
    assert trop_mul(a, b) == trop_mul(b, a)
    assert trop_mul(a, trop_inverse(a)) == (0, 0, 0)
    assert trop_oplus(a, b) == trop_oplus(b, a)
    assert trop_oplus(trop_oplus(a, b), c) == trop_oplus(a, trop_oplus(b, c))
    # distributivity of * over (+)
    assert trop_mul(a, trop_oplus(b, c)) == trop_oplus(trop_mul(a, b), trop_mul(a, c))


@given(_exponents)
def test_split_pm_reassembles(a):
    plus, minus = trop_split_pm(a)
    assert trop_mul(plus, trop_inverse(minus)) == a
    assert all(e >= 0 for e in plus)
    assert all(e >= 0 for e in minus)
    assert trop_one_oplus(a) == trop_inverse(minus)
    # the frozen monomials of mutate's exchange binomial are [c]_+ and [-c]_+
    assert plus == tuple(max(e, 0) for e in a)
    assert minus == tuple(max(-e, 0) for e in a)


# Frozen walk of the rank-2 principal pattern along directions 1,2,1,2.
# Ambient variables: (x1, x2, y1, y2).
PRINCIPAL_WALK = [
    {
        "B": ((0, -1), (1, 0)),
        "cluster": [{(-1, 1, 0, 0): 1, (-1, 0, 1, 0): 1}, {(0, 1, 0, 0): 1}],
        "y": [(-1, 0), (1, 1)],
        "C": ((-1, 1), (0, 1)),
        "D": ((1, 0), (0, -1)),
        "G": ((-1, 0), (1, 1)),
        "F": [{(0, 0): 1, (1, 0): 1}, {(0, 0): 1}],
        "FM": ((1, 0), (0, 0)),
    },
    {
        "B": ((0, 1), (-1, 0)),
        "cluster": [
            {(-1, 1, 0, 0): 1, (-1, 0, 1, 0): 1},
            {(0, -1, 1, 1): 1, (-1, 0, 0, 0): 1, (-1, -1, 1, 0): 1},
        ],
        "y": [(0, 1), (-1, -1)],
        "C": ((0, -1), (1, -1)),
        "D": ((1, 1), (0, 1)),
        "G": ((-1, -1), (1, 0)),
        "F": [{(0, 0): 1, (1, 0): 1}, {(1, 1): 1, (0, 0): 1, (1, 0): 1}],
        "FM": ((1, 1), (0, 1)),
    },
    {
        "B": ((0, -1), (1, 0)),
        "cluster": [
            {(1, -1, 0, 1): 1, (0, -1, 0, 0): 1},
            {(0, -1, 1, 1): 1, (-1, 0, 0, 0): 1, (-1, -1, 1, 0): 1},
        ],
        "y": [(0, -1), (-1, 0)],
        "C": ((0, -1), (-1, 0)),
        "D": ((0, 1), (1, 1)),
        "G": ((0, -1), (-1, 0)),
        "F": [{(0, 1): 1, (0, 0): 1}, {(1, 1): 1, (0, 0): 1, (1, 0): 1}],
        "FM": ((0, 1), (1, 1)),
    },
    {
        "B": ((0, 1), (-1, 0)),
        "cluster": [{(1, -1, 0, 1): 1, (0, -1, 0, 0): 1}, {(1, 0, 0, 0): 1}],
        "y": [(0, -1), (1, 0)],
        "C": ((0, 1), (-1, 0)),
        "D": ((0, -1), (1, 0)),
        "G": ((0, 1), (-1, 0)),
        "F": [{(0, 1): 1, (0, 0): 1}, {(0, 0): 1}],
        "FM": ((0, 0), (1, 0)),
    },
]


def test_principal_walk_against_frozen_table():
    st_ = principal_state(B2)
    assert st_.C == ((1, 0), (0, 1))
    assert st_.D == initial_d_matrix(2) == ((-1, 0), (0, -1))
    for step, (k, expect) in enumerate(zip([1, 2, 1, 2], PRINCIPAL_WALK), start=1):
        st_ = state_step(st_, k)
        s = st_.seed
        assert s.B == expect["B"], f"B at step {step}"
        assert [dict(x.terms) for x in s.cluster] == expect["cluster"], f"cluster at step {step}"
        assert [y.exponents for y in s.y] == expect["y"], f"y at step {step}"
        assert st_.C == expect["C"], f"C at step {step}"
        assert st_.D == expect["D"], f"D at step {step}"
        assert st_.G == expect["G"], f"G at step {step}"
        fd = f_data(s)
        assert [dict(f.terms) for f in fd.f_polynomials] == expect["F"], f"F at step {step}"
        assert fd.f_matrix == expect["FM"], f"FM at step {step}"
        assert check_separation(s, st_.G, st_.B0) == []


def test_alternating_mutation_has_period_ten():
    s0 = coefficient_free_seed(B2)
    s = s0
    for i in range(10):
        s = mutate(s, 1 + (i % 2))
    assert s == s0
    st_ = principal_state(B2)
    for i in range(10):
        st_ = state_step(st_, 1 + (i % 2))
    assert st_.seed == principal_state(B2).seed
    assert st_.C == ((1, 0), (0, 1))
    assert st_.G == ((1, 0), (0, 1))
    assert st_.D == ((-1, 0), (0, -1))


def test_half_period_swaps_the_initial_cluster():
    s = coefficient_free_seed(B2)
    t = s
    for i in range(5):
        t = mutate(t, 1 + (i % 2))
    assert [dict(x.terms) for x in t.cluster] == [{(0, 1): 1}, {(1, 0): 1}]
    assert plain_seed_key(t) == plain_seed_key(s)
    assert t != s  # labeled seeds differ, canonical classes agree


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=7))
def test_companion_duality_along_random_walks(path):
    st_ = principal_state(a_n_matrix(3))
    B0 = st_.B0
    for k in path:
        st_ = state_step(st_, k)
        lhs = tuple(
            tuple(sum(B0[i][t] * st_.C[t][j] for t in range(3)) for j in range(3))
            for i in range(3)
        )
        rhs = tuple(
            tuple(sum(st_.G[i][t] * st_.seed.B[t][j] for t in range(3)) for j in range(3))
            for i in range(3)
        )
        assert lhs == rhs
        assert check_separation(st_.seed, st_.G, B0) == []
        # coefficient exponent vectors read off the columns of C
        for i in range(3):
            assert st_.seed.y[i].exponents == tuple(st_.C[j][i] for j in range(3))


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@pytest.mark.parametrize(
    "B0",
    [a_n_matrix(n) for n in range(1, 7)] + [((0, 2), (-1, 0)), ((0, 3), (-1, 0)), ((0, 2), (-2, 0))],
)
def test_cg_step_matches_dense_products_along_random_paths(B0):
    rng = random.Random(20260817 + len(B0))
    n = len(B0)
    for _ in range(200 // n):
        C, G, B = _identity(n), _identity(n), B0
        for _ in range(rng.randint(1, 8)):
            k = rng.randint(1, n)
            got = cg_step(C, G, B, B0, k)
            assert got == dense_cg_step(C, G, B, B0, k)
            C, G = got
            B = mutate_matrix(B, k)


@pytest.mark.parametrize("n", range(1, 6))
def test_cg_step_matches_dense_products_at_every_principal_seed(n):
    for state in principal_states(n, None):
        for k in range(1, n + 1):
            assert cg_step(state.C, state.G, state.seed.B, state.B0, k) == dense_cg_step(
                state.C, state.G, state.seed.B, state.B0, k
            )


@pytest.mark.parametrize(
    "B0",
    [a_n_matrix(n) for n in range(1, 7)] + [TYPE_B2, TYPE_G2, ((0, 2), (-2, 0))],
)
def test_d_vector_step_matches_dense_formula_along_random_paths(B0):
    rng = random.Random(20261018 + len(B0))
    n = len(B0)
    for _ in range(200 // n):
        D, B = initial_d_matrix(n), B0
        for _ in range(rng.randint(1, 8)):
            k = rng.randint(1, n)
            got = d_vector_step(D, B, k)
            assert got == dense_d_vector_step(D, B, k)
            D = got
            B = mutate_matrix(B, k)


@pytest.mark.parametrize("n", range(1, 6))
def test_d_vector_step_matches_dense_formula_at_every_principal_seed(n):
    for state in principal_states(n, None):
        for k in range(1, n + 1):
            assert d_vector_step(state.D, state.seed.B, k) == dense_d_vector_step(
                state.D, state.seed.B, k
            )


def _negated_first_entry(G):
    """G with the first nonzero entry of column 0 negated (an invertible G has one)."""
    j = next(j for j, row in enumerate(G) if row[0])
    return tuple(
        tuple(-g if (r, c) == (j, 0) else g for c, g in enumerate(row))
        for r, row in enumerate(G)
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_check_separation_matches_plain_check_at_every_principal_seed(n):
    for state in principal_states(n, None):
        seed, G, B0 = state.seed, state.G, state.B0
        assert check_separation(seed, G, B0) == plain_check_separation(seed, G, B0) == []
        # with one entry of G negated both checks must list the same mismatches
        bad = _negated_first_entry(G)
        mismatches = check_separation(seed, bad, B0)
        assert mismatches and mismatches == plain_check_separation(seed, bad, B0)


def _fd_vectors(x, n):
    return x.substitute_ones(range(n)).max_degrees(), normalize_denominator(x, n).d_vector


@pytest.mark.parametrize("n", range(1, 7))
def test_per_variable_memos_agree_with_uncached_checks_seed_by_seed(n):
    num_variables = n * (n + 3) // 2
    # fpoly: f_data with a memo specializes each variable once
    memo = {}
    for seed in enumerate_exchange_graph(principal_seed(a_n_matrix(n))):
        assert f_data(seed, memo=memo) == f_data(seed)
    assert len(memo) == num_variables
    # gyo21: (f-vector, d-vector) facts once per variable
    facts, checks, forms = {}, [], {}
    for state in principal_states(n, None):
        seed, G, B0 = state.seed, state.G, state.B0
        fd = [_fd_vectors(x, n) for x in seed.cluster]
        assert per_variable(seed, facts, lambda x: _fd_vectors(x, n)) == fd
        # separation: the honest G, then a wrong one through the same memo; the
        # memo holds one form per variable, and a G column other than the
        # form's shift is still shifted onto F(y-hat) and compared
        honest = check_separation(seed, G, B0, memo=forms)
        assert honest == plain_check_separation(seed, G, B0) == []
        bad = _negated_first_entry(G)
        mismatches = check_separation(seed, bad, B0, memo=forms)
        assert mismatches and mismatches == plain_check_separation(seed, bad, B0)
        checks.append(mismatches)
    assert len(facts) == len(forms) == num_variables
    # a second pass, every form now memoised, lists the same mismatches
    for state, mismatches in zip(principal_states(n, None), checks):
        bad = _negated_first_entry(state.G)
        assert check_separation(state.seed, bad, state.B0, memo=forms) == mismatches


@pytest.mark.parametrize("n", range(1, 7))
def test_separation_shift_is_a_property_of_the_variable(n):
    memo = {}
    for state in principal_states(n, None):
        check_separation(state.seed, state.G, state.B0, memo=memo)
        for i, label in enumerate(state.seed.labels):
            _, _, g_star = memo[label]  # never None: it equals a column of G
            assert g_star == tuple(row[i] for row in state.G)
    assert len(memo) == n * (n + 3) // 2


@pytest.mark.parametrize(
    "terms,x_fails",
    [
        ({(1, 0, 1, 0): 1, (1, 0, 0, 0): -1}, True),  # x1*y1 - x1: 0 with y -> 1
        ({(1, 0, 1, 0): 1, (0, 1, 1, 0): -1}, True),  # x1*y1 - x2*y1: 0 with x -> 1
        # (x1 - x2)(y1 - 1): 0 on both sides, so every shift fits
        ({(1, 0, 1, 0): 1, (1, 0, 0, 0): -1, (0, 1, 1, 0): -1, (0, 1, 0, 0): 1}, False),
        # x1*y1 + x2: x1 + x2 against F(y-hat) = 1 + 1/x2, which no shift
        # carries onto it, though their least degrees differ by (0, 1)
        ({(1, 0, 1, 0): 1, (0, 1, 0, 0): 1}, True),
    ],
    ids=["lhs-cancels", "f-cancels", "both-cancel", "no-shift"],
)
def test_separation_on_hand_made_rank_2_variables(terms, x_fails):
    # the rank-2 principal seed with x in position 0, labelled for a memo
    s = principal_seed(a_n_matrix(2))
    seed = Seed(s.B, s.frozen, (LaurentPoly(4, terms), s.cluster[1]), labels=(0, 1))
    B0 = s.B
    identity = ((1, 0), (0, 1))
    negated = ((1, 0), (0, -1))  # x2 = x^(0, 1) fails here only
    shared = ((0, 0), (1, 1))  # x2's g-vector (0, 1) in both columns
    memo = {}
    for G, x2_fails in [(identity, 0), (negated, 1), (shared, 0), (identity, 0)]:
        plain = plain_check_separation(seed, G, B0)
        assert len(plain) == x_fails + x2_fails
        assert check_separation(seed, G, B0) == plain
        assert check_separation(seed, G, B0, memo=memo) == plain
    assert len(memo) == 2


def test_per_variable_memo_reads_a_sweep_in_any_order():
    seeds = list(enumerate_exchange_graph(principal_seed(a_n_matrix(3))))
    calls = []

    def specialize(x):
        calls.append(x)
        return x.substitute_ones(range(3))

    forward = [per_variable(s, {}, specialize) for s in seeds]  # no value shared
    calls.clear()
    memo = {}
    backward = [per_variable(s, memo, specialize) for s in reversed(seeds)][::-1]
    assert backward == forward
    # one call per distinct variable: a memo that recomputed on a hit would
    # call once per (seed, position), 42 times
    assert len(memo) == len(calls) == 9
    # without a memo every variable is computed, once each
    calls.clear()
    start = principal_seed(a_n_matrix(3))
    assert per_variable(start, None, specialize) == forward[0]
    assert calls == list(start.cluster)
    # a seed outside any sweep has no labels to key a memo on
    with pytest.raises(ValueError, match="labelled"):
        per_variable(start, {}, specialize)


def test_principal_only_checks_reject_a_coefficient_free_seed():
    s = coefficient_free_seed(a_n_matrix(3))
    with pytest.raises(ValueError, match="principal"):
        f_data(s)
    with pytest.raises(ValueError, match="principal"):
        check_separation(s, s.B, s.B)


def test_laurent_phenomenon_blocks_on_inexact_division():
    # every mutation step divides exactly; a corrupted seed must fail loudly
    from cluster_logcc import InexactDivisionError

    s = coefficient_free_seed(B2)
    bad = Seed(
        s.B,
        s.frozen,
        (LaurentPoly(2, {(1, 0): 1, (0, 0): 1}), s.cluster[1]),  # x1 + 1 is not a variable
    )
    # direction 1 divides the binomial x2 + 1 by the corrupt entry x1 + 1
    with pytest.raises(InexactDivisionError):
        mutate(bad, 1)


# ---- exchange graph ----


def _sweep_variables(seed):
    """The distinct variables the seed sweep meets, in the order met: main1's route."""
    variables = {}
    for s in enumerate_exchange_graph(seed):
        per_variable(s, variables, lambda x: x)
    return list(variables.values())


@pytest.mark.parametrize("n,seeds,variables", [(1, 2, 2), (2, 5, 5), (3, 14, 9), (4, 42, 14)])
def test_exchange_graph_counts(n, seeds, variables):
    g = list(enumerate_exchange_graph(coefficient_free_seed(a_n_matrix(n))))
    assert len(g) == seeds
    assert len(_sweep_variables(coefficient_free_seed(a_n_matrix(n)))) == variables


def test_exchange_graph_budget():
    got = []
    with pytest.raises(RuntimeError, match="^exchange graph not closed within budget$"):
        for s in enumerate_exchange_graph(coefficient_free_seed(a_n_matrix(3)), budget=5):
            got.append(s)
    assert len(got) == 5


# Every search goes through enumerate_exchange_graph with verify._a_n_seeds
# as its budget, so each one closes at exactly its class count (14 at rank 3)
# and fails one below, with one message, once that count reads 13.
_SEARCHES = {
    "main1": lambda: verify.run_claim("main1", rank=3),
    "gyo21": lambda: verify.run_claim("gyo21", rank=3),
    "fpoly": lambda: verify.run_claim("fpoly", rank=3),
    "separation": lambda: verify.run_claim("separation", rank=3),
    "conj-an": lambda: verify.run_claim("conj-an", rank=3, deg=2),
}


@pytest.mark.parametrize("search", list(_SEARCHES))
def test_every_search_closes_at_its_class_count_and_fails_one_below(monkeypatch, search):
    assert verify._a_n_seeds(3) == 14
    result = _SEARCHES[search]()
    if search == "conj-an":
        assert result.status == "exploratory" and result.stats["num_clusters"] == 14
    else:
        assert result.status == "verified" and result.stats["num_seeds"] == 14
    monkeypatch.setattr(verify, "_a_n_seeds", lambda n: 13)
    with pytest.raises(RuntimeError, match="^exchange graph not closed within budget$"):
        _SEARCHES[search]()


def test_exceeded_budget_stops_at_the_first_new_class(monkeypatch):
    mutations, companions = [], []
    honest_mutate, honest_step = pattern.mutate, pattern.state_step

    def counted_mutate(seed, k, *, memo=None, table=None):
        mutations.append(k)
        return honest_mutate(seed, k, memo=memo, table=table)

    def counted_step(state, k, seed=None):
        companions.append(k)
        return honest_step(state, k, seed)

    monkeypatch.setattr(pattern, "mutate", counted_mutate)
    monkeypatch.setattr(pattern, "state_step", counted_step)
    with pytest.raises(RuntimeError, match="not closed within budget"):
        list(principal_states(6, 200))
    # one mutation per class past the start: a step to a known class is
    # read off its facet, and the 201st class raises before its mutation
    assert len(mutations) == 199
    # companions are stepped once per class past the start, none for the 201st
    assert len(companions) == 199


def _sweep_cases():
    for n in range(1, 7):
        yield pytest.param(coefficient_free_seed(a_n_matrix(n)), None, id=f"free-A{n}")
        yield pytest.param(principal_seed(a_n_matrix(n)), None, id=f"principal-A{n}")
    yield pytest.param(boundary_seed(zigzag(3)), None, id="boundary-hexagon")
    yield pytest.param(boundary_seed(zigzag(4)), None, id="boundary-heptagon")
    for name, B in (("B2", TYPE_B2), ("G2", TYPE_G2)):
        yield pytest.param(coefficient_free_seed(B), None, id=f"free-{name}")
        yield pytest.param(principal_seed(B), None, id=f"principal-{name}")
    yield pytest.param(coefficient_free_seed(a_n_matrix(4)), 20, id="free-A4-budget-20")
    yield pytest.param(principal_seed(a_n_matrix(5)), 50, id="principal-A5-budget-50")
    # infinite type, cut by the budget: the Kronecker and Markov quivers
    for name, B, budget in (("kronecker", KRONECKER, 12), ("markov", MARKOV, 40)):
        yield pytest.param(coefficient_free_seed(B), budget, id=f"free-{name}-budget-{budget}")
        yield pytest.param(principal_seed(B), budget, id=f"principal-{name}-budget-{budget}")


def _unlabelled(s):
    """s without sweep labels: the twin a caller outside any sweep sees."""
    return Seed(s.B, s.frozen, s.cluster, s.history)


def _spy_on_mutate(monkeypatch, log=None):
    """Wrap the mutate that sweeps' default steps call.

    Returns the (memo, table) pairs handed to it, in order of first use.
    With a log, each step's direction and the class it reaches, named by
    plain_seed_key, are appended to it.
    """
    sweeps = []
    honest = pattern.mutate

    def spied(seed, k, *, memo=None, table=None):
        if not any(m is memo for m, _ in sweeps):
            sweeps.append((memo, table))
        t = honest(seed, k, memo=memo, table=table)
        if log is not None:
            log.append((k, plain_seed_key(t)))
        return t

    monkeypatch.setattr(pattern, "mutate", spied)
    return sweeps


def _recording(step, log):
    """step, logging each step's direction and the class it reaches."""

    def recorded(s, k):
        t = step(s, k)
        log.append((k, plain_seed_key(t)))
        return t

    return recorded


def _drain(sweep):
    """The classes a sweep yields, and its error message or None."""
    classes = []
    try:
        for s in sweep:
            classes.append(s)
    except RuntimeError as exc:
        return classes, str(exc)
    return classes, None


def _facet_steps(classes):
    """Every step of a sweep's expansion, as its facets tell it.

    For each yielded class s in expansion order and each direction k:
    (s, k, t), where t is the other yielded class holding the facet of s
    without position k, or None when no yielded class does (past a budget
    cut).  Facets are named here by their sorted labels, not by
    canonical_seed_key, and no step is mutated.
    """

    def facet(s, kk):
        return tuple(sorted(s.labels[:kk] + s.labels[kk + 1 :]))

    holders = {}
    for s in classes:
        for kk in range(s.n):
            holders.setdefault(facet(s, kk), []).append(s)
    steps = []
    for s in classes:
        for kk in range(s.n):
            others = [t for t in holders[facet(s, kk)] if t is not s]
            assert len(others) <= 1  # a facet lies in at most two clusters
            steps.append((s, kk + 1, others[0] if others else None))
    return steps


@pytest.mark.parametrize("seed,budget", _sweep_cases())
def test_memoised_sweep_matches_plain_sweep(monkeypatch, seed, budget):
    got_steps, want_steps = [], []
    _spy_on_mutate(monkeypatch, got_steps)
    got, got_error = _drain(enumerate_exchange_graph(seed, budget))
    want, want_error = _drain(
        plain_exchange_graph(seed, budget, step=_recording(plain_mutate, want_steps))
    )
    overrun = None if budget is None else "exchange graph not closed within budget"
    assert got_error == want_error == overrun
    assert len(got) == len(want)
    for s, t in zip(got, want):
        assert (s.history, s.B, s.y, s.cluster) == (t.history, t.B, t.y, t.cluster)
    # edge by edge, the class a step's facet leads to is the class
    # plain_mutate reaches; past a budget cut the plain route's last step
    # reaches a class that no yielded class shares a facet with
    steps = _facet_steps(got)
    assert len(steps) >= len(want_steps)
    steps = steps[: len(want_steps)]
    if overrun:
        (_, k, t), (want_k, past) = steps.pop(), want_steps.pop()
        assert (k, t) == (want_k, None)
        assert past not in {plain_seed_key(s) for s in got}
    else:
        assert len(steps) == seed.n * len(got)
    assert [(k, plain_seed_key(t)) for _, k, t in steps] == want_steps
    # mutate runs only on the steps that reach a new class, the ones yielded
    new = [(k, plain_seed_key(t)) for s, k, t in steps if t.history == s.history + (k,)]
    assert got_steps == new and len(new) == len(got) - 1


@pytest.mark.parametrize("seed,budget", _sweep_cases())
def test_sweep_expands_classes_in_the_order_it_yields_them(seed, budget):
    got, _ = _drain(enumerate_exchange_graph(seed, budget))
    index = {s.history: i for i, s in enumerate(got)}
    assert got[0].history == () and len(index) == len(got)
    parents = [index[s.history[:-1]] for s in got[1:]]
    # each parent was yielded before its child, and a later child never has
    # an earlier parent: the new neighbours of one class come out together
    assert all(p < i for i, p in enumerate(parents, start=1))
    assert parents == sorted(parents)


@pytest.mark.parametrize("seed,budget", _sweep_cases())
def test_sweep_labels_appear_in_order_one_at_a_time(seed, budget):
    # a new label makes a new class key, so the seed that brings it is
    # yielded at once: read in yield order the labels run 0, 1, 2, ... and
    # each seed past the start brings at most one, where it mutated
    got, _ = _drain(enumerate_exchange_graph(seed, budget))
    assert got[0].labels == tuple(range(seed.n))
    known = seed.n
    for s in got[1:]:
        new = [i for i, label in enumerate(s.labels) if label >= known]
        assert new in ([], [s.history[-1] - 1])
        if new:
            assert s.labels[new[0]] == known
            known += 1


def _state_data(st):
    return (st.seed.history, st.seed, st.C, st.G, st.D, st.B0)


@pytest.mark.parametrize(
    "n,budget,classes",
    [(1, None, 2), (2, None, 5), (3, None, 14), (4, None, 42), (5, None, 132), (6, None, 429)]
    + [(6, 200, 200)],
)
def test_principal_states_match_the_per_edge_route(n, budget, classes):
    # the per-edge route steps the companions of every neighbour and keys
    # it table-free; the same states must come out, then the same error
    got, got_error = _drain(principal_states(n, budget))
    want, want_error = _drain(plain_principal_states(n, budget))
    overrun = None if budget is None else "exchange graph not closed within budget"
    assert got_error == want_error == overrun
    assert len(got) == len(want) == classes
    assert [_state_data(s) for s in got] == [_state_data(t) for t in want]


def _split_alike(pairs):
    """Whether two keys, paired seed by seed, split the seeds into the same classes.

    Equal first keys must mean equal second keys and the other way round:
    every distinct pair then has a first and a second key of its own.
    """
    return len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(set(pairs))


def _key_pairs(classes):
    """canonical_seed_key of each yielded class's labels, paired with its
    plain_seed_key; then, step by step, that of the neighbour the step's
    facet leads to, paired with plain_seed_key of plain_mutate's step."""
    pairs = [(canonical_seed_key(s.labels), plain_seed_key(s)) for s in classes]
    for s, k, t in _facet_steps(classes):
        if t is not None:
            pairs.append((canonical_seed_key(t.labels), plain_seed_key(plain_mutate(s, k))))
    return pairs


@pytest.mark.parametrize("seed,budget", _sweep_cases())
def test_labelled_key_splits_classes_like_the_table_free_key(seed, budget):
    got, _ = _drain(enumerate_exchange_graph(seed, budget))
    pairs = _key_pairs(got)
    # every yielded class, then every step whose facet another class holds
    # (a budget cut leaves some facets with one class)
    assert len(pairs) > len(got)
    if budget is None:
        assert len(pairs) == (1 + seed.n) * len(got)
    assert _split_alike(pairs)
    assert len({b for _, b in pairs}) >= len(got)
    # a key that splits nothing apart, or everything, fails the check
    assert not _split_alike([(0, b) for _, b in pairs]) or len(got) == 1
    assert not _split_alike([(i, b) for i, (_, b) in enumerate(pairs)])


def test_canonical_seed_key_names_a_label_set():
    # the order labels come in is forgotten, and distinct sets keep apart;
    # n labels name a class, n - 1 a facet
    sets = [(), (0,), (3,), (0, 1), (1, 2), (0, 1, 2), (0, 2, 5), (2, 5, 7, 9)]
    for labels in sets:
        assert {canonical_seed_key(p) for p in itertools.permutations(labels)} == {
            tuple(sorted(labels))
        }
    assert len({canonical_seed_key(labels) for labels in sets}) == len(sets)


@pytest.mark.parametrize("n", range(1, 6))
def test_principal_state_keys_split_classes_like_the_table_free_key(n):
    states = list(principal_states(n, None))
    pairs = _key_pairs([st.seed for st in states])
    assert len(pairs) == (1 + n) * len(states)
    assert _split_alike(pairs)
    assert len({b for _, b in pairs}) == len(states)


@pytest.mark.parametrize(
    "start",
    [coefficient_free_seed(a_n_matrix(4)), principal_seed(a_n_matrix(4))],
    ids=["free-A4", "principal-A4"],
)
def test_a_yielded_seed_restarts_like_a_fresh_one(start):
    *_, late = enumerate_exchange_graph(start)
    # labels from the first sweep, which a fresh table would hand to other variables
    assert sorted(late.labels) != list(range(late.n))
    want = [(t.history, t.B, t.y, t.cluster) for t in enumerate_exchange_graph(_unlabelled(late))]
    assert len(want) == 42
    # the sweep labels the start afresh
    again = list(enumerate_exchange_graph(late))
    assert [(s.history, s.B, s.y, s.cluster) for s in again] == want
    assert again[0].labels == tuple(range(late.n))


def test_labels_stay_out_of_equality_hash_repr_and_json():
    *_, late = enumerate_exchange_graph(principal_seed(a_n_matrix(3)))
    twin = _unlabelled(late)
    assert late.labels is not None
    assert json.dumps(seed_to_json(late)) == json.dumps(seed_to_json(twin))
    assert late == twin and hash(late) == hash(twin) and repr(late) == repr(twin)
    # a mutation without a memo computes, and leaves the sweep's labels behind
    assert mutate(late, 1).labels is None
    # a memo needs labels from its own table
    with pytest.raises(ValueError, match="labelled"):
        mutate(twin, 1, memo={}, table={})
    with pytest.raises(ValueError, match="labelled"):
        mutate(late, 1, memo={})


@pytest.mark.parametrize("given", [{"memo": {}}, {"table": {}}], ids=["memo", "table"])
def test_memo_and_table_come_together(given):
    # one without the other is an error, never a step that drops it and
    # returns an unlabelled seed
    *_, late = enumerate_exchange_graph(principal_seed(a_n_matrix(3)))
    with pytest.raises(ValueError, match="labelled"):
        mutate(late, 1, **given)
    assert not any(given.values())  # and nothing was written to the one given


def test_exchange_memo_lives_for_one_sweep(monkeypatch):
    sweeps = _spy_on_mutate(monkeypatch)
    start = coefficient_free_seed(a_n_matrix(3))
    g = list(enumerate_exchange_graph(start))
    [(memo, table)] = sweeps
    # only the 13 steps that reach a new class mutate, over 11 distinct exchanges
    assert len(memo) == 11
    assert len(table) == 9  # each of the 9 variables interned once
    # every variable in the sweep is an initial one or a memo entry, shared
    objects = {id(x) for t in g for x in t.cluster}
    assert objects <= {id(x) for x in start.cluster} | {id(x) for _, x in memo.values()}
    # a default sweep shares its variables through a memo of its own: no
    # variable object carries over from the sweep above
    again = {id(x) for t in list(enumerate_exchange_graph(start)) for x in t.cluster}
    assert len(again) == len(objects)
    assert objects & again == {id(x) for x in start.cluster}
    # without a memo nothing is remembered: each call builds a new variable
    assert mutate(start, 2).cluster[1] is not mutate(start, 2).cluster[1]


def test_interleaved_sweeps_keep_their_own_memos(monkeypatch):
    starts = coefficient_free_seed(a_n_matrix(4)), principal_seed(a_n_matrix(3))
    alone = [list(enumerate_exchange_graph(s)) for s in starts]
    sweeps = _spy_on_mutate(monkeypatch)
    a, b = (enumerate_exchange_graph(s) for s in starts)
    together = [[], []]
    for s, t in itertools.zip_longest(a, b):
        for got, u in zip(together, (s, t)):
            if u is not None:
                got.append(u)
    assert [len(g) for g in together] == [42, 14]
    for got, want in zip(together, alone):
        assert [(s.history, s.B, s.y, s.cluster) for s in got] == [
            (t.history, t.B, t.y, t.cluster) for t in want
        ]
    # the distinct exchanges of the 41 and 13 steps that reach a new class
    assert [len(memo) for memo, _ in sweeps] == [26, 11]
    # and n(n+3)/2 variables each, interned once
    assert [len(table) for _, table in sweeps] == [14, 9]


def test_sweep_holds_only_its_queue():
    refs = []
    peak = 0
    for s in enumerate_exchange_graph(coefficient_free_seed(a_n_matrix(6))):
        refs.append(weakref.ref(s))
        del s
        peak = max(peak, sum(r() is not None for r in refs))
    assert len(refs) == 429
    assert 0 < peak < len(refs) / 2


def test_exchange_memo_keeps_apart_exchanges_with_different_binomials():
    # Valid seeds never share an outgoing variable and neighbour variables
    # across different exchanges, so sweeps cannot show a key that drops y_k,
    # the sign of b_jk or a multiplicity; these hand-made seeds can.
    x1, x2, x3 = (LaurentPoly.variable(5, i) for i in range(3))

    def seed(col, y1, cluster=(x1, x2, x3)):
        B = ((0, -col[0], -col[1]), (col[0], 0, 0), (col[1], 0, 0))
        return Seed(B, tuple((c, 0, 0) for c in y1), cluster)

    cases = [
        seed((1, 1), (1, 0)),  # (y1 x2 x3 + 1) / x1
        seed((1, 1), (0, 1)),  # another y_1
        seed((1, 1), (-1, 0)),  # y_1 on the other side
        seed((1, -1), (1, 0)),  # (y1 x2 + x3) / x1: one sign flipped
        seed((1, 1), (1, 0), (x1, x2, x2)),  # (y1 x2^2 + 1) / x1
        seed((1, 0), (1, 0), (x1, x2, x2)),  # (y1 x2 + 1) / x1: x2 once
        seed((2, 0), (1, 0)),  # (y1 x2^2 + 1) / x1 again, under another key
        seed((1, 1), (1, 0)),  # the first exchange again: a memo hit
    ]
    memo, table = {}, {}
    got = [mutate(_labelled(c, table), 1, memo=memo, table=table).cluster[0] for c in cases]
    assert len(memo) == 7
    assert got == [plain_mutate(c, 1).cluster[0] for c in cases]
    assert got[-1] is got[0]
    assert len({g.key() for g in got}) == 6


def test_inexact_division_inside_a_sweep_propagates_and_is_not_cached(monkeypatch):
    x1, x2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    # direction 1 divides x2 + 2 by x1 (exact); direction 2 divides x1 + 1
    # by the corrupt entry x2 + 1 (inexact)
    bad = Seed(B2, (), (x1, x2 + LaurentPoly.const(2, 1)))
    failures = []
    honest = pattern.mutate

    def retrying(s, k, *, memo, table):
        for _ in range(2):  # a failed exchange is not remembered, so it fails again
            try:
                return honest(s, k, memo=memo, table=table)
            except InexactDivisionError:
                failures.append(len(memo))
        return honest(s, k, memo=memo, table=table)

    monkeypatch.setattr(pattern, "mutate", retrying)
    with pytest.raises(InexactDivisionError):
        list(enumerate_exchange_graph(bad))
    assert failures == [1, 1]  # only direction 1's exchange is in the memo


def test_no_memo_outlives_its_sweep(monkeypatch):
    assert verify.run_claim("main1", rank=3).status == "verified"
    honest = LaurentPoly.div_exact

    def negated(self, divisor):
        return -honest(self, divisor)

    monkeypatch.setattr(LaurentPoly, "div_exact", negated)
    # a memo kept from the clean sweep would hand back the honest variables
    with pytest.raises(InexactDivisionError):
        verify.run_claim("main1", rank=3)


def test_rank_two_variables_are_the_five_expected():
    got = {tuple(sorted(v.terms.items())) for v in _sweep_variables(coefficient_free_seed(B2))}
    expected = [
        {(1, 0): 1},                                # x1
        {(0, 1): 1},                                # x2
        {(-1, 1): 1, (-1, 0): 1},                   # (x2 + 1) / x1
        {(1, -1): 1, (0, -1): 1},                   # (x1 + 1) / x2
        {(0, -1): 1, (-1, 0): 1, (-1, -1): 1},      # (x1 + x2 + 1) / (x1 x2)
    ]
    assert got == {tuple(sorted(t.items())) for t in expected}


def test_rank_one_variables():
    vs = _sweep_variables(coefficient_free_seed(((0,),)))
    assert [dict(v.terms) for v in vs] == [{(1,): 1}, {(-1,): 2}]


# ---- boundary coefficients from a triangulation ----


def test_boundary_seed_hexagon():
    tri = zigzag(3)
    s = boundary_seed(tri)
    assert s.n == 3 and s.num_frozen == 6 and s.num_vars == 9
    assert [y.exponents for y in s.y] == [
        (1, -1, 0, 0, 0, -1),
        (0, 0, 1, 0, 0, 1),
        (0, 0, -1, 1, -1, 0),
    ]


def test_boundary_seed_mutation_matches_kept_expansion():
    tri = zigzag(3)
    g = list(enumerate_exchange_graph(boundary_seed(tri)))
    assert len(g) == 14
    mutated = {x.key() for s in g for x in s.cluster}
    expected = {LaurentPoly.variable(9, k).key() for k in range(3)}
    size, diag = tri.size, set(tri.diagonal_pairs())
    for a in range(size):
        for b in range(a + 2, size):
            if a == 0 and b == size - 1 or (a, b) in diag:
                continue
            expected.add(expand_variable(tri, a, b).key())
    assert mutated == expected


# ---- serialization ----


def test_seed_stores_only_its_matrices_cluster_history_and_labels():
    # n and num_frozen are read off B and frozen, so they cannot disagree
    assert [name for name in Seed.__slots__ if name != "__weakref__"] == [
        "B", "frozen", "cluster", "history", "labels",
    ]
    s = boundary_seed(zigzag(3))
    assert not hasattr(s, "__dict__")
    assert (s.n, s.num_frozen) == (len(s.B), len(s.frozen)) == (3, 6)


def _records():
    """One instance of each immutable record type, with one of its fields."""
    seed = principal_seed(B2)
    tri = zigzag(3)
    yield pytest.param(mutate(seed, 1), "cluster", id="Seed")
    yield pytest.param(seed.y[0], "exponents", id="TropicalElement")
    yield pytest.param(principal_state(B2), "seed", id="PatternState")
    yield pytest.param(normalize_denominator(seed.cluster[0], 2), "d_vector", id="DenominatorForm")
    yield pytest.param(tri, "edges", id="Triangulation")
    yield pytest.param(enumerate_t_paths(tri, 0, 3)[0], "vertices", id="TPath")
    yield pytest.param(verify.a2_basis(1)[0], "value", id="BasisElement")


@pytest.mark.parametrize("record, field", _records())
def test_records_refuse_assignment(record, field):
    # neither a field nor a new attribute can be set on a value record
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, getattr(record, field))


def test_seed_hash_is_the_hash_of_its_compared_fields():
    # sets and dicts of seeds keep the order they had, so report bytes do not move
    *_, late = enumerate_exchange_graph(principal_seed(a_n_matrix(3)))
    assert late.labels is not None and late.history
    assert hash(late) == hash((late.B, late.frozen, late.cluster))


def test_seed_copies_keep_history_and_labels():
    *_, late = enumerate_exchange_graph(principal_seed(a_n_matrix(3)))
    for twin in (copy.copy(late), copy.deepcopy(late), pickle.loads(pickle.dumps(late))):
        assert twin == late
        assert (twin.history, twin.labels) == (late.history, late.labels)


def test_frozen_rows_of_another_length_rejected():
    # a short row would only fail later, as an IndexError inside mutate
    with pytest.raises(ValueError, match="frozen row"):
        pattern.geometric_seed(B2, [[1]])
    assert pattern.geometric_seed(B2, [[1, 0]]).num_frozen == 1


def test_seed_json_roundtrip():
    s = mutate(mutate(principal_seed(B2), 1), 2)
    obj = seed_to_json(s)
    assert obj["n"] == 2 and obj["frozen"] == 2 and obj["history"] == [1, 2]
    assert obj["B"] == [list(row) for row in s.B]
    assert obj["y"] == [[row[i] for row in s.frozen] for i in range(s.n)]
    assert obj["cluster"] == [poly_to_json(x) for x in s.cluster]


def test_non_integral_exchange_matrix_rejected():
    # int() would have read this as the valid matrix ((0, 1), (-1, 0))
    with pytest.raises(TypeError):
        coefficient_free_seed([[0, 1.5], [-1.5, 0]])
