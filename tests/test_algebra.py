from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternrace.algebra import (
    RationalFunc,
    clear_denominators,
    ipoly_exact_div,
    ipoly_mul,
    ipoly_trim,
    poly_gcd,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12,
).map(Fraction)

int_polys = st.lists(st.integers(min_value=-50, max_value=50), max_size=5).map(ipoly_trim)

positive_rationals = st.fractions(
    min_value=Fraction(1, 12), max_value=4, max_denominator=12,
).map(Fraction)


@given(int_polys, int_polys)
def test_poly_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if not a and not b:
        assert g == []
        return
    assert gcd(*g) == 1  # primitive
    for p in (a, b):
        ipoly_exact_div(p, g)  # exact over Z, or ArithmeticError


@given(int_polys, int_polys, int_polys)
def test_poly_gcd_common_factor(a, b, c):
    if not c:
        return
    g = poly_gcd(ipoly_mul(a, c), ipoly_mul(b, c))
    ipoly_exact_div(g, poly_gcd(c, c))  # c's primitive part divides the gcd


def test_clear_denominators():
    polys = ([Fraction(1, 2), 3], [], [Fraction(-2, 3)])
    assert clear_denominators(polys) == ([[3, 18], [], [-4]], 6)
    assert clear_denominators(([2, 0], [1])) == ([[2, 0], [1]], 1)


def rf(num, den=(1,)):
    return RationalFunc(tuple(Fraction(c) for c in num),
                        tuple(Fraction(c) for c in den))


def test_rf_canonical_form():
    # (2a + 2)/(4a + 4) reduces to 1/2
    f = rf((2, 2), (4, 4))
    assert f == RationalFunc.const(Fraction(1, 2))
    # denominator made monic
    g = rf((1,), (0, 2))
    assert g.den == (Fraction(0), Fraction(1))
    assert g.num == (Fraction(1, 2),)


def test_rf_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        rf((1,), ())


nonzero_polys = st.lists(rationals, min_size=1, max_size=4).filter(any)
rfs = st.builds(RationalFunc, st.lists(rationals, max_size=4), nonzero_polys)


@settings(max_examples=60)
@given(rfs, rfs)
def test_rf_canonicalization_stable(f, g):
    # monic denominator, coprime parts
    (n, d), _ = clear_denominators((f.num, f.den))
    assert f.den[-1] == 1
    assert not n or len(poly_gcd(n, d)) == 1
    # rebuilding from the stored parts is the identity
    assert RationalFunc(f.num, f.den) == f
    # equal fractions canonicalize structurally equal
    if not g.is_zero():
        (fn, fd, gn), _ = clear_denominators((f.num, f.den, g.num))
        assert RationalFunc(ipoly_mul(fn, gn), ipoly_mul(fd, gn)) == f


@settings(max_examples=60)
@given(rfs, rfs, rfs)
def test_rf_field_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f - f == RationalFunc.zero()
    if not g.is_zero():
        assert (f / g) * g == f


@settings(max_examples=60)
@given(rfs, rfs, positive_rationals)
def test_rf_eval_matches_field_ops(f, g, a):
    try:
        fa, ga = f(a), g(a)
    except ZeroDivisionError:
        return
    assert (f + g)(a) == fa + ga

