"""Exact arithmetic in the variable alpha.

Dense integer polynomials (int lists) and canonical rational
functions, the one field the package computes in.
Everything here is exact; no floats.
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


def ipoly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def ipoly_sub(a: list, b: list) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return ipoly_trim(out)


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


# ---------------------------------------------------------------------------

class RationalFunc:
    """Ratio of polynomials in alpha, kept in canonical form.

    Canonical means gcd(num, den) = 1 and the denominator is monic, so
    structural equality coincides with equality in the fraction field.
    num and den are tuples of Fraction coefficients, ascending exponents.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[Scalar], den: Sequence[Scalar] = (1,)):
        """num and den are coefficient sequences of ints or Fractions.

        Both are cleared to Z[alpha] and divided exactly by their
        primitive gcd; the monic Fraction parts are built once."""
        (num, den), _ = clear_denominators((num, den))
        num, den = ipoly_trim(num), ipoly_trim(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = [1]
        else:
            g = poly_gcd(num, den)
            if len(g) > 1:
                num = ipoly_exact_div(num, g)
                den = ipoly_exact_div(den, g)
        lc = den[-1]
        self.num = tuple(Fraction(c, lc) for c in num)
        self.den = tuple(Fraction(c, lc) for c in den)

    @classmethod
    def const(cls, c: Scalar) -> "RationalFunc":
        return cls((c,))

    @classmethod
    def zero(cls) -> "RationalFunc":
        return cls(())

    @classmethod
    def one(cls) -> "RationalFunc":
        return cls((1,))

    def is_zero(self) -> bool:
        return not self.num

    def _int_parts(self):
        """(N, D), integer polynomials with N / D = self."""
        return clear_denominators((self.num, self.den))[0]

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self - (-other)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RationalFunc)
        out.num = tuple(-c for c in self.num)
        out.den = self.den
        return out

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        (a, b), (c, d) = self._int_parts(), other._int_parts()
        return RationalFunc(ipoly_sub(ipoly_mul(a, d), ipoly_mul(c, b)), ipoly_mul(b, d))

    def __rsub__(self, other):
        return _as_rf(other) - self

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        (a, b), (c, d) = self._int_parts(), other._int_parts()
        return RationalFunc(ipoly_mul(a, c), ipoly_mul(b, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        (a, b), (c, d) = self._int_parts(), other._int_parts()
        return RationalFunc(ipoly_mul(a, d), ipoly_mul(b, c))

    def __rtruediv__(self, other):
        return _as_rf(other) / self

    def __call__(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        d = sum(c * x ** i for i, c in enumerate(self.den))
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at alpha = {x}")
        return sum(c * x ** i for i, c in enumerate(self.num)) / d

    def __eq__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunc(num={list(self.num)}, den={list(self.den)})"


def _as_rf(x):
    if isinstance(x, RationalFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunc.const(x)
    return NotImplemented
