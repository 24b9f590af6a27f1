"""Exact arithmetic in the variable alpha.

Dense polynomial helpers over Fraction coefficients, sparse Laurent
polynomials (negative exponents allowed), and canonical rational
functions.  Everything here is immutable and exact; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

_ZERO = Fraction(0)
_ONE = Fraction(1)

Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Dense polynomials: tuples of Fraction coefficients, ascending exponents,
# no trailing zeros.  The zero polynomial is the empty tuple.

def poly(coeffs: Iterable[Scalar]) -> tuple:
    return _trim([Fraction(c) for c in coeffs])


def _trim(cs) -> tuple:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def poly_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def poly_neg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def poly_sub(a: tuple, b: tuple) -> tuple:
    return poly_add(a, poly_neg(b))


def poly_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def poly_scale(a: tuple, c: Scalar) -> tuple:
    c = Fraction(c)
    if not c:
        return ()
    return tuple(x * c for x in a)


def poly_shift(a: tuple, k: int) -> tuple:
    """Multiply by alpha**k (k >= 0)."""
    if not a:
        return ()
    return (_ZERO,) * k + a


def poly_deg(a: tuple) -> int:
    return len(a) - 1


def poly_eval(a: tuple, x: Scalar) -> Fraction:
    x = Fraction(x)
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_divmod(a: tuple, b: tuple):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    q = [_ZERO] * max(len(a) - len(b) + 1, 0)
    lb = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1]
        if c:
            f = c / lb
            q[i] = f
            for j, bc in enumerate(b):
                rem[i + j] -= f * bc
    return _trim(q), _trim(rem)


def poly_monic(a: tuple) -> tuple:
    if not a or a[-1] == 1:
        return a
    return poly_scale(a, 1 / a[-1])


# Polynomial gcd via a primitive pseudo-remainder sequence over the
# integers; plain Euclid over Q suffers badly from coefficient growth.

def _to_int(a: tuple) -> list:
    l = lcm(*(c.denominator for c in a)) if a else 1
    return [int(c * l) for c in a]


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


def poly_gcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd of two polynomials over the rationals."""
    if not a:
        return poly_monic(b)
    if not b:
        return poly_monic(a)
    x = _int_primitive(_to_int(a))
    y = _int_primitive(_to_int(b))
    while y:
        x, y = y, _int_primitive(_int_prem(x, y))
    return poly_monic(tuple(Fraction(c) for c in x))


# ---------------------------------------------------------------------------
# Integer polynomials (plain int lists) used by the fraction-free
# race solve; exact division is guaranteed by the Bareiss scheme.

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


# ---------------------------------------------------------------------------

class LaurentPoly:
    """Sparse polynomial in alpha allowing negative exponents.

    Canonical form: only nonzero coefficients are stored, so equality
    of term maps is equality of values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping, Iterable, None] = None):
        items = []
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
        t: dict = {}
        for e, c in items:
            c = Fraction(c)
            if c:
                acc = t.get(e, _ZERO) + c
                if acc:
                    t[int(e)] = acc
                else:
                    t.pop(int(e), None)
        self.terms = t

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, exponent: int, coeff: Scalar) -> "LaurentPoly":
        return cls({exponent: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_exp(self) -> int:
        if not self.terms:
            return 0
        return min(self.terms)

    @property
    def max_exp(self) -> int:
        if not self.terms:
            return 0
        return max(self.terms)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by alpha**k (k may be negative)."""
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

    def __add__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            acc = t.get(e, _ZERO) + c
            if acc:
                t[e] = acc
            else:
                t.pop(e, None)
        out = LaurentPoly()
        out.terms = t
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly()
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_laurent(other) + (-self)

    def __mul__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                acc = t.get(e, _ZERO) + c1 * c2
                if acc:
                    t[e] = acc
                else:
                    t.pop(e, None)
        out = LaurentPoly()
        out.terms = t
        return out

    __rmul__ = __mul__

    def __call__(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        if not x and self.min_exp < 0:
            raise ZeroDivisionError("negative exponent at alpha = 0")
        return sum((c * x ** e for e, c in self.terms.items()), _ZERO)

    def __eq__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_rational_func(self) -> "RationalFunc":
        """Clear negative exponents: multiply through by alpha**d."""
        d = max(0, -self.min_exp)
        num = [_ZERO] * (self.max_exp + d + 1 if self.terms else 1)
        for e, c in self.terms.items():
            num[e + d] = c
        return RationalFunc(_trim(num), poly_shift((_ONE,), d))

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        parts = [f"{c}*a^{e}" for e, c in sorted(self.terms.items())]
        return "LaurentPoly(" + " + ".join(parts) + ")"


def _as_laurent(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly({0: x})
    return NotImplemented


# ---------------------------------------------------------------------------

class RationalFunc:
    """Ratio of polynomials in alpha, kept in canonical form.

    Canonical means gcd(num, den) = 1 and the denominator is monic, so
    structural equality coincides with equality in the fraction field.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(_ONE,)):
        num = poly(num)
        den = poly(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = (_ONE,)
        else:
            g = poly_gcd(num, den)
            if poly_deg(g) > 0:
                num, _ = poly_divmod(num, g)
                den, _ = poly_divmod(den, g)
            lc = den[-1]
            if lc != 1:
                num = poly_scale(num, 1 / lc)
                den = poly_scale(den, 1 / lc)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c: Scalar) -> "RationalFunc":
        return cls((Fraction(c),))

    @classmethod
    def zero(cls) -> "RationalFunc":
        return cls(())

    @classmethod
    def one(cls) -> "RationalFunc":
        return cls((_ONE,))

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return RationalFunc(num, poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RationalFunc)
        out.num = poly_neg(self.num)
        out.den = self.den
        return out

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_rf(other) + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunc(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunc(poly_mul(self.num, other.den), poly_mul(self.den, other.num))

    def __rtruediv__(self, other):
        return _as_rf(other) / self

    def __call__(self, x: Scalar) -> Fraction:
        d = poly_eval(self.den, x)
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at alpha = {x}")
        return poly_eval(self.num, x) / d

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
    if isinstance(x, LaurentPoly):
        return x.to_rational_func()
    return NotImplemented
