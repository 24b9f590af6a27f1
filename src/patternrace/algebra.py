"""Exact arithmetic in the variable alpha.

Canonical rational functions, the one field the package computes in,
and what canonicalisation needs of dense integer polynomials (int
lists): clearing, trimming, exact division and gcd.  A rational
function is kept as a pair of integer polynomials in lowest terms, and
printed from those integers.  Everything here is exact; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Dense polynomials over Z: int lists, ascending exponents.  The trimmed
# form has no trailing zeros; the zero polynomial is the empty list.

def clear_denominators(polys: Sequence[Sequence[Scalar]]):
    """Scale rational coefficient sequences (ints or Fractions) by the lcm
    l of all their denominators.  Returns the integer lists and l."""
    l = lcm(*(c.denominator for p in polys for c in p))
    return [[c.numerator * (l // c.denominator) for c in p] for p in polys], l


def ipoly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def ipoly_exact_div(a: list, b: list) -> list:
    if not b:
        raise ZeroDivisionError("integer polynomial division by zero")
    rem = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    lb = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1]
        if c:
            f, r = divmod(c, lb)
            if r:
                raise ArithmeticError("inexact integer polynomial division")
            q[i] = f
            for j, bc in enumerate(b):
                rem[i + j] -= f * bc
    if any(rem):
        raise ArithmeticError("inexact integer polynomial division")
    return ipoly_trim(q)


# Polynomial gcd via a primitive pseudo-remainder sequence; plain Euclid
# over Q suffers badly from coefficient growth.

def _int_primitive(a: list) -> list:
    g = 0
    for c in a:
        g = gcd(g, abs(c))
    if g > 1:
        return [c // g for c in a]
    return a


def _int_prem(a: list, b: list) -> list:
    r = list(a)
    while r and r[-1] == 0:
        r.pop()
    lb = b[-1]
    while len(r) >= len(b):
        lr = r[-1]
        off = len(r) - len(b)
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[off + i] -= lr * bc
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(a: list, b: list) -> list:
    """Primitive gcd of two trimmed integer polynomials, up to sign.

    By Gauss's lemma it divides each of them exactly over Z."""
    if not a:
        return _int_primitive(b)
    if not b:
        return _int_primitive(a)
    x = _int_primitive(a)
    y = _int_primitive(b)
    while y:
        x, y = y, _int_primitive(_int_prem(x, y))
    return x


# Coprimality decided mod a prime below 2**30 before the PRS runs: the
# images mod _P of a coprime pair almost always have a constant gcd.
_P = 2 ** 30 - 35


def _rem_mod_p(a: list, b: list) -> list:
    """Remainder of a by b over GF(_P); both reduced mod _P, b[-1] != 0."""
    r = list(a)
    n = len(b) - 1
    inv = pow(b[-1], -1, _P)
    low = b[:-1]
    for top in range(len(r) - 1, n - 1, -1):
        q = r[top] * inv % _P
        if q:
            r[top - n:top] = [(c - q * bc) % _P for c, bc in zip(r[top - n:top], low)]
    del r[n:]
    return ipoly_trim(r)


def coprime_mod_p(a: list, b: list) -> bool:
    """True when the images of two trimmed nonzero integer polynomials
    mod _P prove them coprime over Q; False when they cannot.

    If _P divides neither leading coefficient and gcd(a mod _P, b mod _P)
    is a constant, a and b are coprime: a common factor h, taken
    primitive in Z[alpha], divides both over Z (Gauss's lemma), so lc(h)
    divides lc(a), h mod _P keeps its degree and would divide both
    images.
    """
    x = [c % _P for c in a]
    y = [c % _P for c in b]
    if not x[-1] or not y[-1]:
        return False
    while len(y) > 1:
        x, y = y, _rem_mod_p(x, y)
    return bool(y)


# ---------------------------------------------------------------------------

def _scaled_value(coeffs: tuple, p: int, q: int, k: int) -> int:
    """q**k * P(p/q) for the polynomial P of degree <= k with these
    coefficients: sum c_i p**i q**(k - i), by Horner's rule."""
    acc = 0
    qk = q ** (k + 1 - len(coeffs))
    for c in reversed(coeffs):
        acc = acc * p + c * qk
        qk *= q
    return acc


class RationalFunc:
    """Ratio of polynomials in alpha, kept in canonical form.

    inum and iden are tuples of ints, ascending exponents, with
    gcd(inum, iden) = 1 as polynomials, no integer above 1 dividing
    every coefficient of both, and iden[-1] > 0.  That pair is unique, so
    structural equality coincides with equality in the fraction field.
    """

    __slots__ = ("inum", "iden")

    def __init__(self, num: Sequence[Scalar], den: Sequence[Scalar] = (1,)):
        """num and den are coefficient sequences of ints or Fractions.

        Both are cleared to Z[alpha]; they are divided by their primitive
        gcd only when coprime_mod_p cannot show it is 1, then by their
        joint integer content, signed so that the leading denominator
        coefficient is positive."""
        (num, den), _ = clear_denominators((num, den))
        num, den = ipoly_trim(num), ipoly_trim(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = [1]
        elif not coprime_mod_p(num, den):
            g = poly_gcd(num, den)
            if len(g) > 1:
                num = ipoly_exact_div(num, g)
                den = ipoly_exact_div(den, g)
        c = gcd(*num, *den)
        if den[-1] < 0:
            c = -c
        if c != 1:
            num = [x // c for x in num]
            den = [x // c for x in den]
        self.inum = tuple(num)
        self.iden = tuple(den)

    def __call__(self, x: Scalar) -> Fraction:
        """The value at alpha = x = p/q: with k the larger degree,
        q**k N(x) / (q**k D(x)), each an integer sum, and one Fraction."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        k = max(len(self.inum), len(self.iden)) - 1
        d = _scaled_value(self.iden, p, q, k)
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at alpha = {x}")
        return Fraction(_scaled_value(self.inum, p, q, k), d)

    def __eq__(self, other):
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.inum == other.inum and self.iden == other.iden

    def __hash__(self):
        return hash((self.inum, self.iden))

    def __repr__(self):
        return f"RationalFunc(num={list(self.inum)}, den={list(self.iden)})"
