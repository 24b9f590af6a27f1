"""Exact arithmetic in the variable alpha.

Canonical rational functions, the one field the package computes in,
and the integer polynomials they are built from, in two forms.  Dense
int lists are what a RationalFunc takes, stores and prints: trimming
and gcd.  Lists of nonzero terms are what the race system is solved
on: fraction_free_solve, the package's one elimination, and
_exact_quotient, its exact division, which RationalFunc also uses to
divide by a gcd.  Every coefficient is an integer; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence

from .model import rational_str


# ---------------------------------------------------------------------------
# Dense polynomials over Z: int lists, ascending exponents.  The trimmed
# form has no trailing zeros; the zero polynomial is the empty list.

def ipoly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


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
# Sparse polynomials over Z: lists of the nonzero (exponent, coefficient)
# terms, ascending exponents.  The zero polynomial is the empty list.

def _terms(p: list) -> list:
    return [(e, c) for e, c in enumerate(p) if c]


def _dense(terms: list) -> list:
    p = [0] * (terms[-1][0] + 1 if terms else 0)
    for e, c in terms:
        p[e] = c
    return p


def _negated(terms: list) -> list:
    return [(e, -c) for e, c in terms]


def _add_product(buf: list, a: list, b: list) -> None:
    """Add a * b into buf, a dense int list indexed by exponent that is
    extended as needed, with one multiplication per pair of terms."""
    if a and b:
        top = a[-1][0] + b[-1][0] + 1
        if top > len(buf):
            buf.extend([0] * (top - len(buf)))
        for ea, ca in a:
            for eb, cb in b:
                buf[ea + eb] += ca * cb


def _exact_quotient(buf: list, divisor: list) -> list:
    """The terms of buf / divisor, consuming buf (a dense int list).

    Raises ZeroDivisionError for a zero divisor and ArithmeticError when
    the quotient is not in Z[alpha]."""
    if not divisor:
        raise ZeroDivisionError("integer polynomial division by zero")
    top, lead = divisor[-1]
    low = divisor[:-1]
    q = []
    for i in range(len(buf) - 1, top - 1, -1):
        c = buf[i]
        if c:
            f, r = divmod(c, lead)
            if r:
                raise ArithmeticError("inexact integer polynomial division")
            s = i - top
            q.append((s, f))
            for e, x in low:
                buf[s + e] -= f * x
    if any(buf[:top]):
        raise ArithmeticError("inexact integer polynomial division")
    q.reverse()
    return q


def fraction_free_solve(a: List[list]):
    """Solve an n x (n+r) augmented system over Z[alpha].

    Entries are sparse integer polynomials (lists of nonzero terms); the
    last r = len(a[0]) - n columns are right-hand sides.  Returns
    (det, ys) with det = det A and, for each right-hand column c,
    ys[c][i] = det * x_i, the Cramer numerators, all exact and as
    trimmed dense int lists; a is left unchanged.  Bareiss elimination
    without pivoting (Bareiss 1968): after step k every a[i][j]
    (i, j > k) is a (k+2)-minor, so dividing by the previous pivot is
    exact; back-substitution keeps each y in Z[alpha] the same way.
    Every leading principal minor of A must be nonzero, as in a race
    system (see solver.solve_race); for r >= 1 a zero pivot raises
    ZeroDivisionError at its next exact division, never a wrong answer.

    The entries of a race system are mostly zero coefficients (a
    constant plus one term per overlap), hence the sparse form: each
    update (pivot * a[i][j] - f * a[k][j]) / prev adds both products
    into one buffer and divides it by prev's nonzero terms.
    """
    n = len(a)
    width = len(a[0])
    t = [list(row) for row in a]
    prev = [(0, 1)]
    for k, pivot_row in enumerate(t[:-1]):
        pivot = pivot_row[k]
        for row in t[k + 1:]:
            f = _negated(row[k])
            for j in range(k + 1, width):
                buf = []
                _add_product(buf, pivot, row[j])
                _add_product(buf, f, pivot_row[j])
                row[j] = _exact_quotient(buf, prev)
            row[k] = []
        prev = pivot
    det = t[n - 1][n - 1]
    minus_det = _negated(det)
    ys = []
    for c in range(n, width):
        # y_i = (det * a[i][c] - sum_j a[i][j] * y_j) / a[i][i], with
        # numerator and divisor both negated.
        y: List[list] = [[]] * n
        for i in range(n - 1, -1, -1):
            row = t[i]
            buf = []
            _add_product(buf, minus_det, row[c])
            for j in range(i + 1, n):
                _add_product(buf, row[j], y[j])
            y[i] = _exact_quotient(buf, _negated(row[i]))
        ys.append([_dense(terms) for terms in y])
    return _dense(det), ys


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
    """Ratio of integer polynomials in alpha, kept in canonical form.

    inum and iden are tuples of ints, ascending exponents, with
    gcd(inum, iden) = 1 as polynomials, no integer above 1 dividing
    every coefficient of both, and iden[-1] > 0.  That pair is unique, so
    structural equality coincides with equality in the fraction field.
    """

    __slots__ = ("inum", "iden")

    def __init__(self, num: Sequence[int], den: Sequence[int] = (1,)):
        """num and den are sequences of int coefficients.

        They are divided by their primitive gcd only when coprime_mod_p
        cannot show it is 1, then by their joint integer content, signed
        so that the leading denominator coefficient is positive."""
        num, den = ipoly_trim(list(num)), ipoly_trim(list(den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = [1]
        elif not coprime_mod_p(num, den):
            g = poly_gcd(num, den)
            if len(g) > 1:
                g = _terms(g)
                num = _dense(_exact_quotient(num, g))
                den = _dense(_exact_quotient(den, g))
        c = gcd(*num, *den)
        if den[-1] < 0:
            c = -c
        if c != 1:
            num = [x // c for x in num]
            den = [x // c for x in den]
        self.inum = tuple(num)
        self.iden = tuple(den)

    def __call__(self, x: Fraction) -> Fraction:
        """The value at alpha = x = p/q: with k the larger degree,
        q**k N(x) / (q**k D(x)), each an integer sum, and one Fraction."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        k = max(len(self.inum), len(self.iden)) - 1
        d = _scaled_value(self.iden, p, q, k)
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at alpha = {rational_str(x)}")
        return Fraction(_scaled_value(self.inum, p, q, k), d)

    def __eq__(self, other):
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.inum == other.inum and self.iden == other.iden

    def __hash__(self):
        return hash((self.inum, self.iden))

    def __repr__(self):
        return f"RationalFunc(num={list(self.inum)}, den={list(self.iden)})"
