from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cluster_logcc import (
    DimensionMismatchError,
    InexactDivisionError,
    LaurentPoly,
    a_n_matrix,
    coefficient_free_seed,
    enumerate_exchange_graph,
    is_log_concave,
    normalize_denominator,
    poly_to_json,
    principal_seed,
)

from cluster_logcc.poly import ExponentCodec

from oracles import dense_log_concave, plain_div_exact, scan_log_concave, slow_poly_mul


def P(num_vars, terms):
    return LaurentPoly(num_vars, terms)


# ---- strategies ----

exponents = st.integers(min_value=-3, max_value=3)
coeffs = st.integers(min_value=-5, max_value=5).filter(lambda c: c != 0)


def polys(num_vars, max_terms=5, coeff=coeffs):
    term = st.tuples(st.tuples(*([exponents] * num_vars)), coeff)
    return st.lists(term, max_size=max_terms).map(
        lambda pairs: LaurentPoly(num_vars, dict(pairs))
    )


# ---- construction ----


def test_duplicate_exponents_merge():
    p = LaurentPoly(1, [((0,), 2), ((0,), 3), ((1,), 1)])
    assert p.terms == {(0,): 5, (1,): 1}


def test_zero_coefficients_dropped():
    p = P(2, {(1, 0): 0, (0, 1): 4})
    assert p.terms == {(0, 1): 4}
    assert not LaurentPoly(2, {(1, 1): 0})


def test_wrong_arity_rejected():
    with pytest.raises(DimensionMismatchError):
        P(2, {(1,): 1})


@pytest.mark.parametrize("terms", [{(0,): 0.5}, {(0,): 1.5}, {(0.5,): 1}, {(1.0,): 1}])
def test_non_integral_terms_rejected(terms):
    # a float is never truncated: 0.5 would be the zero polynomial, 1.5 a 1
    with pytest.raises(TypeError):
        P(1, terms)


def test_constructors():
    assert LaurentPoly.zero(3).terms == {}
    assert LaurentPoly.const(2, 7).terms == {(0, 0): 7}
    assert LaurentPoly.const(2, 0).terms == {}
    assert LaurentPoly.variable(3, 1).terms == {(0, 1, 0): 1}
    assert LaurentPoly.monomial(2, (-1, 2), 3).terms == {(-1, 2): 3}


# ---- arithmetic ----


def test_product_example():
    x_plus_1 = P(1, {(1,): 1, (0,): 1})
    x_minus_1 = P(1, {(1,): 1, (0,): -1})
    assert (x_plus_1 * x_minus_1).terms == {(2,): 1, (0,): -1}


def test_mixed_arity_rejected():
    with pytest.raises(DimensionMismatchError):
        P(1, {(1,): 1}) + P(2, {(1, 0): 1})


def test_pow():
    x = LaurentPoly.variable(1, 0)
    assert ((x + LaurentPoly.const(1, 1)) ** 3).terms == {(3,): 1, (2,): 3, (1,): 3, (0,): 1}
    assert (x ** 0).terms == {(0,): 1}
    with pytest.raises(ValueError):
        x ** -2
    with pytest.raises(ValueError):
        (x + LaurentPoly.const(1, 1)) ** -1
    with pytest.raises(ValueError):
        LaurentPoly.monomial(1, (1,), 2) ** -1


@given(polys(2), polys(2), polys(2))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + LaurentPoly.zero(2) == p
    assert p * LaurentPoly.const(2, 1) == p
    assert p - p == LaurentPoly.zero(2)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.tuples(polys(m, max_terms=4), polys(m, max_terms=4))
    )
)
def test_mul_matches_schoolbook(pq):
    # one to four variables
    p, q = pq
    assert p * q == slow_poly_mul(p, q)


def test_scale_rejects_inexact_factors():
    with pytest.raises(TypeError):
        P(1, {(0,): 3}).scale(0.5)


@pytest.mark.parametrize(
    "op",
    [
        lambda p: p.shift([0.5, 0]),
        lambda p: p.shift([1.0, 0]),
        lambda p: p.substitute_ones([1.5]),
        lambda p: p.substitute_ones([0.0]),
        lambda p: p ** 0.0,
        lambda p: p ** 2.0,
    ],
    ids=["shift-half", "shift-float-one", "drop-1.5", "drop-float-zero", "pow-0.0", "pow-2.0"],
)
def test_ring_operations_reject_inexact_arguments(op):
    # as scale does: a float offset, index or power is a TypeError, never
    # an exponent 1.5 in a result that skipped the constructor's checks
    with pytest.raises(TypeError):
        op(P(2, {(1, 0): 1, (0, 1): 2}))


@given(
    polys(3),
    polys(3).filter(bool),
    st.integers(min_value=-3, max_value=3),
    st.tuples(exponents, exponents, exponents),
    st.sets(st.integers(min_value=0, max_value=2)),
    st.integers(min_value=0, max_value=3),
)
def test_ring_results_are_clean_fresh_and_leave_operands_alone(p, q, k, offsets, drop, power):
    # Ring operations skip the constructor's validation, so their results
    # must already be what the constructor would build.
    pq = p * q
    before = [dict(x.terms) for x in (p, q, pq)]
    x_plus_y, x_minus_y = P(2, {(1, 0): 1, (0, 1): 1}), P(2, {(1, 0): 1, (0, 1): -1})
    assert (x_plus_y * x_minus_y).terms == {(2, 0): 1, (0, 2): -1}  # the xy terms cancel
    results = [
        (x_plus_y * x_minus_y, (x_plus_y, x_minus_y)),
        (p + q, (p, q)),
        (p - q, (p, q)),
        (-p, (p,)),
        (p * q, (p, q)),
        (p.scale(k), (p,)),
        (p.shift(offsets), (p,)),
        (pq.div_exact(q), (pq, q)),
        (p.substitute_ones(drop), (p,)),
        (p ** power, (p,)),
    ]
    for r, operands in results:
        assert r == LaurentPoly(r.num_vars, r.terms)
        for e, c in r.terms.items():
            assert type(e) is tuple and len(e) == r.num_vars
            assert isinstance(c, int) and c != 0
        assert all(r.terms is not x.terms for x in operands)
    assert [x.terms for x in (p, q, pq)] == before


# ---- exact division ----


@given(polys(2), polys(2).filter(bool))
def test_div_exact_roundtrip(p, q):
    assert (p * q).div_exact(q) == p


def test_div_exact_remainder_witness():
    p = P(1, {(2,): 1, (0,): 1})  # x^2 + 1
    d = P(1, {(1,): 1, (0,): 1})  # x + 1
    with pytest.raises(InexactDivisionError) as err:
        p.div_exact(d)
    assert err.value.remainder
    assert err.value.remainder.terms == {(0,): 2}  # x^2+1 = (x-1)(x+1) + 2


def test_div_exact_by_zero():
    with pytest.raises(ZeroDivisionError):
        P(1, {(0,): 1}).div_exact(LaurentPoly.zero(1))


def test_div_exact_laurent_shift():
    # (x + 1) / x is exact in the Laurent ring
    p = P(1, {(1,): 1, (0,): 1})
    q = p.div_exact(LaurentPoly.variable(1, 0))
    assert q.terms == {(0,): 1, (-1,): 1}


def _division(divide, p, d):
    """("quotient", q) or ("remainder", the InexactDivisionError witness)."""
    try:
        return "quotient", divide(p, d)
    except InexactDivisionError as err:
        return "remainder", err.remainder


@given(polys(3), polys(3).filter(bool), polys(3, max_terms=2))
def test_heap_division_matches_plain_long_division(p, q, r):
    # exact on p * q, and inexact for most planted extra terms r
    for dividend in (p * q, p * q + r):
        got = _division(LaurentPoly.div_exact, dividend, q)
        assert got == _division(plain_div_exact, dividend, q)
        assert got[1].terms == LaurentPoly(got[1].num_vars, got[1].terms).terms


@pytest.mark.parametrize("start", [coefficient_free_seed, principal_seed])
def test_heap_division_matches_plain_long_division_on_sweep_operands(monkeypatch, start):
    honest = LaurentPoly.div_exact
    operands = []

    def recording(p, d):
        operands.append((p, d))
        return honest(p, d)

    monkeypatch.setattr(LaurentPoly, "div_exact", recording)
    assert sum(1 for _ in enumerate_exchange_graph(start(a_n_matrix(5)))) == 132
    monkeypatch.undo()
    assert len(operands) > 50
    inexact = 0
    for p, d in operands:
        assert _division(LaurentPoly.div_exact, p, d) == ("quotient", plain_div_exact(p, d))
        # one more of the lowest term: inexact unless the divisor is a monomial
        planted = p + LaurentPoly.monomial(p.num_vars, min(p.terms))
        got = _division(LaurentPoly.div_exact, planted, d)
        assert got == _division(plain_div_exact, planted, d)
        inexact += got[0] == "remainder"
    assert inexact == sum(len(d.terms) > 1 for _, d in operands) > 0


@given(polys(2, max_terms=3), st.integers(min_value=0, max_value=5))
def test_power_matches_repeated_product(p, k):
    expected = LaurentPoly.const(2, 1)
    for _ in range(k):
        expected = slow_poly_mul(expected, p)
    assert p ** k == expected


# ---- degrees and substitution ----


def test_degree_bounds():
    p = P(2, {(-1, 2): 1, (3, -4): 5})
    assert p.min_degrees() == (-1, -4)
    assert p.max_degrees() == (3, 2)
    with pytest.raises(ValueError):
        LaurentPoly.zero(2).max_degrees()


def test_substitute_ones():
    p = P(3, {(1, 2, 0): 1, (-1, 2, 1): 3})
    q = p.substitute_ones([0, 2])
    assert q.num_vars == 1
    assert q.terms == {(2,): 4}


def test_substitute_ones_cancellation():
    p = P(2, {(1, 0): 1, (0, 0): -1})
    assert p.substitute_ones([0]).terms == {}


# ---- denominator normal form ----


def test_normalize_denominator_trivial_variable():
    x1 = LaurentPoly.variable(2, 0)
    nd = normalize_denominator(x1, 2)
    assert nd.d_vector == (-1, 0)
    assert nd.numerator == LaurentPoly.const(2, 1)


def test_normalize_denominator_example():
    # (x2^2 + 2 x2 + 1 + x1 x3) / (x1 x2 x3)
    p = P(3, {(0, -1, 0): 1, (-1, 1, -1): 1, (-1, 0, -1): 2, (-1, -1, -1): 1})
    nd = normalize_denominator(p, 3)
    assert nd.d_vector == (1, 1, 1)
    assert nd.numerator.terms == {(1, 0, 1): 1, (0, 2, 0): 1, (0, 1, 0): 2, (0, 0, 0): 1}


def test_normalize_denominator_frozen_axes_left_alone():
    # 4 ambient vars, first 2 are cluster axes; frozen exponents stay put
    p = P(4, {(-1, 0, 1, 0): 1, (-1, 1, 0, 2): 1})
    nd = normalize_denominator(p, 2)
    assert nd.d_vector == (1, 0)
    assert nd.numerator.terms == {(0, 0, 1, 0): 1, (0, 1, 0, 2): 1}


def test_normalize_denominator_rejects_zero_and_negative_frozen():
    with pytest.raises(ValueError):
        normalize_denominator(LaurentPoly.zero(2), 2)
    with pytest.raises(ValueError):
        normalize_denominator(P(2, {(0, -1): 1}), 1)  # negative frozen exponent


@given(polys(2, coeff=st.integers(min_value=1, max_value=5)).filter(bool))
def test_normalize_roundtrip(p):
    nd = normalize_denominator(p, 2)
    assert nd.numerator.min_degrees() == (0, 0)  # every cluster axis touches its floor
    undo = tuple(-d for d in nd.d_vector)
    assert nd.numerator.shift(undo) == p


# ---- log-concavity ----


def test_x_squared_plus_one_fails():
    res = is_log_concave(P(1, {(2,): 1, (0,): 1}))
    assert not res
    assert res.axis == 0
    assert res.point == (1,)


def test_binomial_rows_pass():
    x = LaurentPoly.variable(1, 0)
    one = LaurentPoly.const(1, 1)
    for n in range(8):
        assert is_log_concave((x + one) ** n)


def test_two_variable_example():
    p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert is_log_concave(p)
    # a gap along axis 1: (0,0) and (0,2) present, (0,1) absent
    q = P(2, {(0, 0): 1, (0, 2): 1, (1, 1): 1})
    res = is_log_concave(q)
    assert not res and res.axis == 1 and res.point == (0, 1)


def test_log_concave_input_validation():
    with pytest.raises(ValueError):
        is_log_concave(LaurentPoly.zero(1))
    with pytest.raises(ValueError):
        is_log_concave(P(1, {(0,): -1}))


def test_negative_exponents_allowed():
    assert is_log_concave(P(1, {(-2,): 1, (-1,): 2, (0,): 1}))


@given(polys(2, max_terms=6, coeff=st.integers(min_value=1, max_value=9)).filter(bool))
@settings(max_examples=300)
def test_log_concavity_matches_dense_oracle(p):
    assert bool(is_log_concave(p)) == dense_log_concave(p)


@given(polys(3, max_terms=5, coeff=st.integers(min_value=1, max_value=9)).filter(bool))
def test_log_concavity_matches_dense_oracle_3d(p):
    assert bool(is_log_concave(p)) == dense_log_concave(p)


positive = st.integers(min_value=1, max_value=9)


@st.composite
def gapped_boxes(draw):
    """A full box of terms in 1-4 variables, possibly at negative exponents,
    with zero, one or two points taken out.  The coefficients are either
    random or a product of binomial rows, which is log-concave before the
    gaps are planted."""
    m = draw(st.integers(min_value=1, max_value=4))
    side = st.integers(min_value=1, max_value=4 if m <= 2 else 3)
    lo = draw(st.tuples(*([st.integers(min_value=-3, max_value=1)] * m)))
    sides = draw(st.tuples(*([side] * m)))
    box = list(product(*(range(l, l + s) for l, s in zip(lo, sides))))
    if draw(st.booleans()):
        coeffs = draw(st.lists(positive, min_size=len(box), max_size=len(box)))
    else:
        coeffs = []
        for e in box:
            c = 1
            for x, l, s in zip(e, lo, sides):
                c *= comb(s - 1, x - l)
            coeffs.append(c)
    gaps = draw(st.lists(st.sampled_from(box), max_size=2, unique=True))
    terms = {e: c for e, c in zip(box, coeffs) if e not in gaps}
    return LaurentPoly(m, terms)


sparse_positive = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: polys(m, max_terms=8, coeff=positive)
)


@given(st.one_of(sparse_positive, gapped_boxes()).filter(bool))
@settings(max_examples=400)
def test_log_concavity_matches_line_scan(p):
    # the line-by-line scan pins the witness as well as the verdict
    got, want = is_log_concave(p), scan_log_concave(p)
    assert (got.ok, got.axis, got.point) == (want.ok, want.axis, want.point)


@given(
    st.one_of(sparse_positive, gapped_boxes()).filter(bool),
    st.tuples(*([st.integers(min_value=-5, max_value=5)] * 4)),
)
@settings(max_examples=300)
def test_log_concavity_moves_with_a_shift(p, offsets):
    # a shift moves no coefficient and keeps the scan order, so the shifted
    # polynomial fails at p's point moved by v, or passes with p
    v = offsets[: p.num_vars]
    got, want = is_log_concave(p.shift(v)), is_log_concave(p)
    assert (got.ok, got.axis) == (want.ok, want.axis)
    if want.ok:
        assert got.point is None
    else:
        assert got.point == tuple(a + b for a, b in zip(want.point, v))


def test_log_concavity_witness_is_least_in_scan_order():
    # two failing lines on axis 0; the scan meets (3, 1)'s line (rest (1,)) first
    p = P(2, {(0, 5): 1, (2, 5): 1, (2, 1): 1, (4, 1): 1, (0, 0): 1, (1, 0): 1})
    assert tuple(is_log_concave(p)) == (False, 0, (3, 1)) == tuple(scan_log_concave(p))
    # axis 0 passes, so axis 1's failure is the witness, lowest position first
    q = P(2, {(0, -3): 1, (0, -1): 4, (0, 1): 9})
    assert tuple(is_log_concave(q)) == (False, 1, (0, -2)) == tuple(scan_log_concave(q))
    # axis 1 fails on the lines a = 3 and a = 0; a = 3 comes first in dict
    # order, and its failing point has the smaller packed key
    r = P(2, {(3, 0): 1, (3, 2): 1, (0, 4): 1, (0, 6): 1})
    codec = ExponentCodec.for_products([r], 1)
    assert tuple(is_log_concave(codec.pack(r), codec)) == (False, 1, (0, 5))
    assert tuple(is_log_concave(r)) == (False, 1, (0, 5)) == tuple(scan_log_concave(r))
    # two failures on one line: the lower position, met last
    t = P(2, {(1, 7): 1, (1, 9): 1, (1, 2): 1, (1, 4): 1})
    assert tuple(is_log_concave(t)) == (False, 1, (1, 3)) == tuple(scan_log_concave(t))


@pytest.mark.parametrize("p", [LaurentPoly.zero(2), P(2, {(0, 0): 1, (1, 1): -2})])
def test_log_concavity_input_errors_match_line_scan(p):
    with pytest.raises(ValueError) as got:
        is_log_concave(p)
    with pytest.raises(ValueError) as want:
        scan_log_concave(p)
    assert str(got.value) == str(want.value)


@given(polys(2, max_terms=6, coeff=st.integers(min_value=1, max_value=9)).filter(bool))
@settings(max_examples=300)
def test_log_concave_forbids_pinched_zeros(p):
    # Dense-array consequence of the inequality: a zero coefficient cannot
    # sit between two positive immediate neighbors on any axis line.
    if not is_log_concave(p):
        return
    m = p.num_vars
    lo = [min(e[i] for e in p.terms) for i in range(m)]
    hi = [max(e[i] for e in p.terms) for i in range(m)]
    for point in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if p.terms.get(point, 0) != 0:
            continue
        for axis in range(m):
            left = list(point)
            right = list(point)
            left[axis] -= 1
            right[axis] += 1
            pinched = (
                p.terms.get(tuple(left), 0) > 0
                and p.terms.get(tuple(right), 0) > 0
            )
            assert not pinched


# ---- packed exponents ----

some_vars = st.integers(min_value=1, max_value=5)


@st.composite
def planted_lines(draw):
    """Positive polynomials in 1-5 variables with one three-point axis line
    planted, its middle possibly absent, among a few random terms."""
    m = draw(some_vars)
    axis = draw(st.integers(min_value=0, max_value=m - 1))
    base = draw(st.tuples(*([st.integers(min_value=-3, max_value=3)] * m)))
    terms = dict(draw(st.lists(st.tuples(st.tuples(*([exponents] * m)), positive), max_size=5)))
    for i, c in enumerate(draw(st.tuples(positive, st.integers(0, 9), positive))):
        e = base[:axis] + (base[axis] + i,) + base[axis + 1 :]
        terms.pop(e, None)
        if c:
            terms[e] = c
    return LaurentPoly(m, terms)


@given(some_vars.flatmap(polys))
def test_unpack_inverts_pack(p):
    codec = ExponentCodec(p.num_vars, 3)
    assert codec.unpack(codec.pack(p)) == p


@given(some_vars.flatmap(lambda m: st.tuples(polys(m), polys(m))))
def test_packed_product_matches_mul(pq):
    # every digit of a product of two is within twice the largest |exponent|
    p, q = pq
    codec = ExponentCodec.for_products([p, q], 2)
    assert codec.unpack(codec.mul(codec.pack(p), codec.pack(q))) == p * q


@given(st.one_of(planted_lines(), sparse_positive, gapped_boxes()).filter(bool))
@settings(max_examples=400)
def test_packed_scan_matches_is_log_concave(p):
    # bound = the largest |exponent| exactly: neighbours two steps below a
    # digit at the bound still decode, so none aliases another term
    codec = ExponentCodec.for_products([p], 1)
    assert tuple(is_log_concave(codec.pack(p), codec)) == tuple(scan_log_concave(p))


def test_packed_scan_finds_failing_lines_and_absent_middles():
    # failures on the last axis, which steps the degree digit alone, and on
    # a lower axis whose middle is absent, least (rest, position) first
    cases = [
        P(3, {(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): 4}),
        P(3, {(2, 1, 0): 1, (2, 1, 2): 1, (1, -1, 0): 1, (1, 1, 0): 2, (1, 3, 0): 1}),
        P(5, {(0, 0, 0, -3, 1): 1, (0, 0, 0, -1, 1): 1}),
        P(1, {(-3,): 1, (-1,): 1}),
    ]
    for p in cases:
        codec = ExponentCodec.for_products([p], 1)
        got = is_log_concave(codec.pack(p), codec)
        assert not got.ok
        assert tuple(got) == tuple(scan_log_concave(p))


@given(
    some_vars.flatmap(lambda m: polys(m, max_terms=8, coeff=positive)).filter(bool),
    st.integers(min_value=1, max_value=3),
)
def test_packed_and_unpacked_forms_scan_alike(p, deg):
    # any codec wide enough for p gives p's own result
    codec = ExponentCodec.for_products([p], deg)
    assert tuple(is_log_concave(codec.pack(p), codec)) == tuple(is_log_concave(p))


def test_zero_variable_constants_only_check_their_sign():
    assert tuple(is_log_concave(P(0, {(): 5}))) == (True, None, None)
    with pytest.raises(ValueError, match=r"^negative coefficient -5 at \(\)$"):
        is_log_concave(P(0, {(): -5}))
    with pytest.raises(ValueError, match="zero polynomial"):
        is_log_concave(LaurentPoly.zero(0))


@pytest.mark.parametrize("bound", range(5))
def test_scan_neighbours_of_a_digit_at_the_bound_never_alias(bound):
    # two terms, one with its digit at the least values the bound allows:
    # the scan's neighbours two steps below it fall beyond the bound, and
    # must match no other term's key (the last exponent is no digit, so it
    # ranges wider)
    codec = ExponentCodec(2, bound)
    wide = range(-3 * bound - 4, 3 * bound + 5)
    others = [(a, b) for a in range(-bound, bound + 1) for b in wide]
    for e in [(a, b) for a in range(-bound, min(1 - bound, bound) + 1) for b in wide]:
        for f in others:
            if f != e:
                p = P(2, {e: 1, f: 1})
                assert tuple(is_log_concave(codec.pack(p), codec)) == tuple(scan_log_concave(p))


@given(some_vars.flatmap(lambda m: st.lists(st.tuples(*([exponents] * m)), unique=True)))
def test_packed_keys_order_exponents_graded_lex(exps):
    codec = ExponentCodec(len(exps[0]) if exps else 1, 3)
    keys = {e: codec.encode(e) for e in exps}
    assert sorted(exps, key=keys.get) == sorted(exps, key=lambda e: (sum(e), e))
    assert len(set(keys.values())) == len(exps)
    assert all(codec.decode(k) == e for e, k in keys.items())


def test_digit_beyond_the_bound_raises():
    codec = ExponentCodec(3, 4)
    # the last exponent is no digit: the degree digit carries it unbounded
    for e in [(4, -4, 100), (-4, 4, -100)]:
        assert codec.decode(codec.encode(e)) == e
    for e in [(5, 0, 0), (0, -5, 0), (-5, 5, 0)]:
        with pytest.raises(ValueError, match="beyond the bound 4"):
            codec.encode(e)
        with pytest.raises(ValueError, match="beyond the bound 4"):
            codec.pack(P(3, {e: 1}))
    with pytest.raises(DimensionMismatchError):
        codec.pack(P(2, {(0, 0): 1}))
    with pytest.raises(DimensionMismatchError):
        codec.encode((0, 0))
    # for_products: deg times the factors' largest |exponent|
    assert ExponentCodec.for_products([P(2, {(-3, 1): 1}), P(2, {(2, 2): 1})], 5).bound == 15


def test_codec_in_one_variable_and_at_degree_zero():
    one = ExponentCodec(1, 0)
    assert [one.encode((e,)) for e in (-7, 0, 9)] == [-7, 0, 9]  # the degree alone
    p = P(1, {(-9,): 1, (-8,): 1, (-7,): 5})
    assert one.unpack(one.pack(p)) == p
    assert tuple(is_log_concave(one.pack(p), one)) == tuple(scan_log_concave(p))
    const = ExponentCodec.for_products([P(2, {(1, -1): 1}), P(2, {(0, 1): 2})], 0)
    assert const.bound == 0
    assert const.mul(const.pack(P(2, {(0, 0): 3})), const.pack(P(2, {(0, 0): -2}))) == {0: -6}
    with pytest.raises(ValueError, match="beyond the bound 0"):
        const.pack(P(2, {(1, -1): 1}))
    for bad in [(0, 3), (2, -1)]:
        with pytest.raises(ValueError):
            ExponentCodec(*bad)
    with pytest.raises(ValueError, match="^degree bound must be nonnegative$"):
        ExponentCodec.for_products([P(2, {(0, 0): 1})], -1)


# ---- serialization ----


def _assert_lists_terms(obj, p):
    """obj is p's JSON: p.terms, each exponent once in lex order, coefficients as strings."""
    terms = obj["terms"]
    assert obj["num_vars"] == p.num_vars
    assert [t["exp"] for t in terms] == sorted(map(list, p.terms))
    assert all(type(t["coeff"]) is str for t in terms)
    assert {tuple(t["exp"]): int(t["coeff"]) for t in terms} == p.terms


def test_json_roundtrip_and_order():
    p = P(2, {(1, -1): 3, (-1, 2): 1, (0, 0): -2})
    obj = poly_to_json(p)
    assert obj["num_vars"] == 2
    assert [t["exp"] for t in obj["terms"]] == [[-1, 2], [0, 0], [1, -1]]  # lex order
    _assert_lists_terms(obj, p)


def test_json_handles_big_coefficients():
    big = 10 ** 40
    p = P(1, {(0,): big})
    obj = poly_to_json(p)
    assert obj["terms"] == [{"exp": [0], "coeff": str(big)}]
    _assert_lists_terms(obj, p)


@given(polys(2))
def test_json_roundtrip_property(p):
    _assert_lists_terms(poly_to_json(p), p)
