from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patternrace import algebra
from patternrace.algebra import (
    RationalFunc,
    coprime_mod_p,
    ipoly_trim,
    poly_gcd,
)

from rf_field import RF, clear_denominators, ipoly_exact_div, ipoly_mul, monic_den, monic_num

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
    return RF(tuple(Fraction(c) for c in num),
              tuple(Fraction(c) for c in den))


def test_rf_canonical_form():
    # (2a + 2)/(4a + 4) reduces to 1/2
    f = rf((2, 2), (4, 4))
    assert f == RF((Fraction(1, 2),))
    assert (f.inum, f.iden) == ((1,), (2,))
    # the Fraction view has a monic denominator
    g = rf((1,), (0, 2))
    assert (g.inum, g.iden) == ((1,), (0, 2))
    assert monic_den(g) == (Fraction(0), Fraction(1))
    assert monic_num(g) == (Fraction(1, 2),)
    # the sign goes to the numerator, the content of both parts is removed
    h = rf((Fraction(-3, 2), 0, 3), (6, -9))
    assert (h.inum, h.iden) == ((1, 0, -2), (-4, 6))
    assert RationalFunc(()) == RationalFunc((), (5, 7))
    assert RationalFunc(()).iden == (1,)


def test_rf_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        rf((1,), ())


nonzero_polys = st.lists(rationals, min_size=1, max_size=4).filter(any)
rfs = st.builds(RF, st.lists(rationals, max_size=4), nonzero_polys)


@settings(max_examples=60)
@given(rfs, rfs)
def test_rf_canonicalization_stable(f, g):
    # coprime integer parts with no common content and iden[-1] > 0
    n, d = f.inum, f.iden
    assert d[-1] > 0 and gcd(*n, *d) == 1
    assert not n or len(poly_gcd(list(n), list(d))) == 1
    assert monic_den(f)[-1] == 1  # the Fraction view is monic
    # rebuilding from either stored form is the identity
    assert RationalFunc(n, d) == f
    assert RF(monic_num(f), monic_den(f)) == f
    # equal fractions canonicalize structurally equal
    if not g.is_zero():
        (fn, fd, gn), _ = clear_denominators((monic_num(f), monic_den(f), monic_num(g)))
        assert RationalFunc(ipoly_mul(fn, gn), ipoly_mul(fd, gn)) == f


@settings(max_examples=60)
@given(rfs, rfs, rfs)
def test_rf_field_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f - f == RF.zero()
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



# ---------------------------------------------------------------------------
# the coprimality test mod p before the PRS gcd

P = algebra._P


def prs_canonical(num, den):
    """The canonical integer pair by the primitive PRS alone: the
    reference for the constructor, which skips the PRS when coprime_mod_p
    decides the gcd."""
    (num, den), _ = clear_denominators((num, den))
    num, den = ipoly_trim(num), ipoly_trim(den)
    if not num:
        return (), (1,)
    g = poly_gcd(num, den)
    num, den = ipoly_exact_div(num, g), ipoly_exact_div(den, g)
    c = gcd(*num, *den) if den[-1] > 0 else -gcd(*num, *den)
    return tuple(x // c for x in num), tuple(x // c for x in den)


@pytest.fixture
def prs_calls(monkeypatch):
    """The number of poly_gcd calls the constructor has made, in a list."""
    calls = [0]

    def counting(a, b):
        calls[0] += 1
        return poly_gcd(a, b)

    monkeypatch.setattr(algebra, "poly_gcd", counting)
    return calls


def test_coprime_pair_skips_the_prs(prs_calls):
    f = RationalFunc([0, 1], [2, -1])  # alpha / (2 - alpha)
    assert prs_calls == [0]
    assert (f.inum, f.iden) == ((0, -1), (-2, 1))


def test_common_factor_reaches_the_prs(prs_calls):
    two_minus = [2, -1]
    num, den = ipoly_mul(two_minus, [1, 1]), ipoly_mul(two_minus, [3, 0, 1])
    assert not coprime_mod_p(num, den)
    f = RationalFunc(num, den)
    assert prs_calls == [1]
    assert (f.inum, f.iden) == ((1, 1), (3, 0, 1))


@pytest.mark.parametrize("num, den", [
    ([1, P], [2, 1]),          # p divides lc(num)
    ([1, 1], [3, 2 * P]),      # p divides lc(den)
    ([0, 1], [P, 1]),          # coprime over Q, but alpha divides both images
])
def test_undecided_pair_reaches_the_prs(prs_calls, num, den):
    assert not coprime_mod_p(num, den)
    f = RationalFunc(num, den)
    assert prs_calls == [1]
    assert (f.inum, f.iden) == prs_canonical(num, den)


coefficients = st.one_of(st.integers(min_value=-50, max_value=50),
                         st.sampled_from([P, -P, 3 * P]))
factors = st.lists(st.integers(min_value=-6, max_value=6), max_size=3).map(ipoly_trim)


@st.composite
def fraction_pairs(draw):
    """(num, den) coefficient lists, often with a common factor, some
    with leading coefficients that p divides, some in Fractions."""
    common = draw(factors.filter(bool))
    num = ipoly_mul(draw(st.lists(coefficients, max_size=4).map(ipoly_trim)), common)
    den = ipoly_mul(draw(st.lists(coefficients, min_size=1, max_size=4)
                         .map(ipoly_trim).filter(bool)), common)
    scale = draw(st.integers(min_value=1, max_value=6))
    return [Fraction(c, scale) for c in num], den


def test_canonical_pair_equals_prs_reference(prs_calls):
    branches = {"mod p": 0, "prs": 0}

    @settings(max_examples=200)
    @given(fraction_pairs())
    def check(pair):
        before = prs_calls[0]
        f = RF(*pair)
        assert (f.inum, f.iden) == prs_canonical(*pair)
        if f.inum:
            branches["prs" if prs_calls[0] > before else "mod p"] += 1

    check()
    assert branches["mod p"] and branches["prs"], branches


# ---------------------------------------------------------------------------
# evaluation

def eval_reference(f, x):
    """f(x) summed in Fractions from the monic coefficients."""
    x = Fraction(x)
    d = sum(c * x ** i for i, c in enumerate(monic_den(f)))
    if not d:
        raise ZeroDivisionError(f"denominator vanishes at alpha = {x}")
    return sum(c * x ** i for i, c in enumerate(monic_num(f))) / d


points = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-20, max_value=20, max_denominator=30).map(Fraction))


@settings(max_examples=150)
@given(rfs, points)
def test_rf_eval_equals_fraction_reference(f, x):
    try:
        expected = eval_reference(f, x)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="denominator vanishes"):
            f(x)
        return
    assert f(x) == expected


@settings(max_examples=60)
@given(st.lists(rationals, min_size=1, max_size=4), nonzero_polys, points)
def test_rf_eval_at_a_pole_raises(num, den, x):
    # den * (q alpha - p) vanishes at x = p/q; the numerator does not.
    assume(eval_reference(RF(num), x) != 0)
    (den,), _ = clear_denominators((den,))
    f = RF(num, ipoly_mul(den, [-x.numerator, x.denominator]))
    with pytest.raises(ZeroDivisionError, match=f"denominator vanishes at alpha = {x}$"):
        f(x)
