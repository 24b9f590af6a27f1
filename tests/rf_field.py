"""Field operations on rational functions, for the tests.

The program only builds, compares, evaluates and prints RationalFuncs;
the reference solvers and the identity tests also add, multiply and
divide them.  RF is a RationalFunc with those operators: each result is
built from the integer parts of the operands and canonicalised by the
program's own constructor, so an RF equals the RationalFunc of the same
function.  An int or Fraction operand is read as a constant.  RF also
takes Fraction coefficients, which RationalFunc does not: it clears
them to integers with clear_denominators first.

monic_num and monic_den give the Fraction coefficients of a
RationalFunc with its denominator made monic, the values the program
prints: the reference oracles and the identity tests read them.

ipoly_mul and ipoly_sub are the dense products and differences of int
lists (ascending exponents) under those operators, and ipoly_exact_div
their dense exact division.  The dense reference elimination in
cramer_reference uses all three, so it shares no arithmetic with the
program's sparse elimination; the gcd tests divide with it too.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from patternrace.algebra import RationalFunc, ipoly_trim


def clear_denominators(polys):
    """Scale rational coefficient sequences (ints or Fractions) by the lcm
    l of all their denominators.  Returns the integer lists and l."""
    l = lcm(*(c.denominator for p in polys for c in p))
    return [[c.numerator * (l // c.denominator) for c in p] for p in polys], l


def ipoly_mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def ipoly_sub(a, b) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return ipoly_trim(out)


def ipoly_exact_div(a, b) -> list:
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


def monic_num(f: RationalFunc) -> tuple:
    lc = f.iden[-1]
    return tuple(Fraction(c, lc) for c in f.inum)


def monic_den(f: RationalFunc) -> tuple:
    lc = f.iden[-1]
    return tuple(Fraction(c, lc) for c in f.iden)


def _as_rf(x):
    if isinstance(x, RF):
        return x
    if isinstance(x, RationalFunc):
        return RF(x.inum, x.iden)
    if isinstance(x, (int, Fraction)):
        return RF.const(x)
    return NotImplemented


class RF(RationalFunc):
    __slots__ = ()

    def __init__(self, num, den=(1,)):
        (num, den), _ = clear_denominators((num, den))
        super().__init__(num, den)

    @classmethod
    def const(cls, c) -> "RF":
        return cls((c,))

    @classmethod
    def zero(cls) -> "RF":
        return cls(())

    @classmethod
    def one(cls) -> "RF":
        return cls((1,))

    def is_zero(self) -> bool:
        return not self.inum

    def __neg__(self):
        return RF([-c for c in self.inum], self.iden)

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self - (-other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.inum, self.iden, other.inum, other.iden
        return RF(ipoly_sub(ipoly_mul(a, d), ipoly_mul(c, b)), ipoly_mul(b, d))

    def __rsub__(self, other):
        return _as_rf(other) - self

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RF(ipoly_mul(self.inum, other.inum), ipoly_mul(self.iden, other.iden))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.inum:
            raise ZeroDivisionError("division by zero rational function")
        return RF(ipoly_mul(self.inum, other.iden), ipoly_mul(self.iden, other.inum))

    def __rtruediv__(self, other):
        return _as_rf(other) / self
