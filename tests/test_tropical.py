"""The tropical semifield on exponent vectors, as the reference mutation uses it."""

from hypothesis import given, strategies as st

from oracles import trop_inverse, trop_mul, trop_one_oplus, trop_oplus, trop_split_pm

elements = st.tuples(*([st.integers(min_value=-4, max_value=4)] * 3))


@given(elements, elements, elements)
def test_semifield_axioms(a, b, c):
    assert trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))
    assert trop_mul(a, b) == trop_mul(b, a)
    assert trop_mul(a, trop_inverse(a)) == (0, 0, 0)
    assert trop_oplus(a, b) == trop_oplus(b, a)
    assert trop_oplus(trop_oplus(a, b), c) == trop_oplus(a, trop_oplus(b, c))
    # distributivity of * over (+)
    assert trop_mul(a, trop_oplus(b, c)) == trop_oplus(trop_mul(a, b), trop_mul(a, c))


@given(elements)
def test_split_pm_reassembles(a):
    plus, minus = trop_split_pm(a)
    assert trop_mul(plus, trop_inverse(minus)) == a
    assert all(e >= 0 for e in plus)
    assert all(e >= 0 for e in minus)
    assert trop_one_oplus(a) == trop_inverse(minus)
    # the frozen monomials of mutate's exchange binomial are [c]_+ and [-c]_+
    assert plus == tuple(max(e, 0) for e in a)
    assert minus == tuple(max(-e, 0) for e in a)
