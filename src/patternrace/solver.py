"""Closed-form race engine.

Single-pattern generating functions from the optional-stopping argument,
the competing-pattern linear system solved exactly by one fraction-free
elimination over Z[alpha], and exact power-series extraction of
waiting-time distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence

from .algebra import (
    ONE_MINUS_ALPHA,
    LaurentPoly,
    RationalFunc,
    ipoly_exact_div,
    ipoly_mul,
    ipoly_sub,
)
from .correlation import correlation
from .model import (
    Alphabet,
    Pattern,
    RaceProblem,
    Violation,
    ValidationReport,
    InvalidRaceError,
    require_valid,
)

_ZERO = Fraction(0)


class SolverError(RuntimeError):
    pass


class DegenerateCollectionError(SolverError):
    """The race system is singular, or its determinant vanishes at alpha=1."""


class ZeroConstantDenominatorError(SolverError):
    """Series extraction hit a denominator with zero constant term.

    This signals an internal bug: the generating function must be finite
    at alpha = 0.
    """


# ---------------------------------------------------------------------------
# single pattern

def _check_single(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> None:
    b.check_alphabet(alphabet)
    if a is not None:
        a.check_alphabet(alphabet)
        head = a.letters[:-1]
        n = len(b.letters)
        if n <= len(head) and any(head[i:i + n] == b.letters
                                  for i in range(len(head) - n + 1)):
            raise InvalidRaceError(ValidationReport((Violation(
                "initial-contains-pattern",
                "pattern occurs inside the initial word before its last letter"),)))


def single_pgf(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> RationalFunc:
    """E(alpha^tau) for the wait until b, given initial word a."""
    _check_single(a, b, alphabet)
    ab = correlation(a, b, alphabet)
    bb = correlation(b, b, alphabet)
    num = 1 + ONE_MINUS_ALPHA * ab
    den = 1 + ONE_MINUS_ALPHA * bb
    return num.to_rational_func() / den.to_rational_func()


def single_Q(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> RationalFunc:
    """Generating function of the tail probabilities Pr(tau > n)."""
    _check_single(a, b, alphabet)
    ab = correlation(a, b, alphabet)
    bb = correlation(b, b, alphabet)
    num = bb - ab
    den = 1 + ONE_MINUS_ALPHA * bb
    return num.to_rational_func() / den.to_rational_func()


def single_expected(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> Fraction:
    """Expected waiting time for b given initial word a."""
    _check_single(a, b, alphabet)
    return correlation(b, b, alphabet)(1) - correlation(a, b, alphabet)(1)


# ---------------------------------------------------------------------------
# competing patterns

@dataclass(frozen=True)
class RaceSolution:
    """Closed-form solution of a pattern race."""

    q_tau: RationalFunc
    g_total: RationalFunc
    g_per_pattern: tuple
    win_probs: tuple
    expected_tau: Fraction
    # alpha=1 intermediates: win_numerators[k] = det A_k(1), the system
    # determinant with the column of g_k replaced by the right-hand side,
    # and win_denominator = det A(1).
    win_numerators: tuple
    win_denominator: Fraction


def _clear_row(row: Sequence[LaurentPoly]):
    """Scale a Laurent row by alpha**d and the lcm l of its coefficient
    denominators, so that every entry is an integer polynomial (an int
    list, ascending exponents).  Returns the integer row and l."""
    d = max([0] + [-e for lp in row for e in lp.terms])
    l = lcm(*(c.denominator for lp in row for c in lp.terms.values()))
    irow = []
    for lp in row:
        coeffs = [0] * (max(lp.terms) + d + 1 if lp.terms else 0)
        for e, c in lp.terms.items():
            coeffs[e + d] = int(c * l)
        irow.append(coeffs)
    return irow, l


def fraction_free_solve(a: List[list]):
    """Solve an n x (n+1) augmented system over Z[alpha], in place.

    Entries are integer polynomials (int lists, ascending exponents).
    Returns (det, y) with det = det A and y_i = det * x_i, the Cramer
    numerators, all exact; det is [] and y None when A is singular.
    Bareiss elimination (Bareiss 1968): after step k every a[i][j]
    (i, j > k) is a (k+2)-minor, so dividing by the previous pivot is
    exact; back-substitution keeps y in Z[alpha] the same way.
    """
    n = len(a)
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return [], None
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n + 1):
                row[j] = ipoly_exact_div(
                    ipoly_sub(ipoly_mul(pivot, row[j]), ipoly_mul(f, pivot_row[j])),
                    prev)
            row[k] = []
        prev = pivot
    det = a[n - 1][n - 1]
    if not det:
        return [], None
    y: List[list] = [[]] * n
    for i in range(n - 1, -1, -1):
        acc = ipoly_mul(det, a[i][n])
        for j in range(i + 1, n):
            acc = ipoly_sub(acc, ipoly_mul(a[i][j], y[j]))
        y[i] = ipoly_exact_div(acc, a[i][i])
    if sign < 0:
        # The last pivot is the determinant of the row-swapped matrix.
        det = [-c for c in det]
        y = [[-c for c in yi] for yi in y]
    return det, y


def solve_race(problem: RaceProblem) -> RaceSolution:
    """Solve the race system A x = rhs for x = (Q, g_1, ..., g_m).

    Row 0 of [A | rhs] is (1 - alpha, 1, ..., 1 | 1); row i is
    (-1, B_i1, ..., B_im | v_i), with B_ij the correlation of B_j against
    B_i and v_i that of the initial word against B_i.  Each row is cleared
    to Z[alpha], then one fraction-free elimination of the augmented
    matrix yields det A and every Cramer numerator y_i = det A * x_i.  The
    alpha = 1 values come from the same polynomials evaluated at 1.
    """
    require_valid(problem)
    alphabet, pats = problem.alphabet, problem.patterns
    a = [[[1, -1]] + [[1]] * len(pats) + [[1]]]
    scale = 1
    minus_one = LaurentPoly.term(0, -1)
    for bi in pats:
        row = ([minus_one] + [correlation(bj, bi, alphabet) for bj in pats]
               + [correlation(problem.initial, bi, alphabet)])
        irow, l = _clear_row(row)
        a.append(irow)
        scale *= l

    det, y = fraction_free_solve(a)
    if not det:
        raise DegenerateCollectionError("system denominator is identically zero")

    det1 = sum(det)
    if det1 == 0:
        raise DegenerateCollectionError(
            "sum of unit-column determinants vanishes at alpha = 1")
    g_nums = y[1:]
    total = [sum(g[e] for g in g_nums if e < len(g))
             for e in range(max(map(len, g_nums)))]
    # The row scaling cancels in every ratio; only the raw alpha = 1
    # determinants need it divided back out.
    return RaceSolution(
        q_tau=RationalFunc(y[0], det),
        g_total=RationalFunc(total, det),
        g_per_pattern=tuple(RationalFunc(g, det) for g in g_nums),
        win_probs=tuple(Fraction(sum(g), det1) for g in g_nums),
        expected_tau=Fraction(sum(y[0]), det1),
        win_numerators=tuple(Fraction(sum(g), scale) for g in g_nums),
        win_denominator=Fraction(det1, scale),
    )


# ---------------------------------------------------------------------------
# power series

def power_series(rf: RationalFunc, n: int) -> list:
    """First n+1 Taylor coefficients of rf around alpha = 0."""
    if not rf.den or rf.den[0] == 0:
        raise ZeroConstantDenominatorError(
            "denominator has zero constant term; no Taylor expansion at 0")
    num, den = rf.num, rf.den
    d0 = den[0]
    out: list = []
    for i in range(n + 1):
        c = num[i] if i < len(num) else _ZERO
        for j in range(1, min(i, len(den) - 1) + 1):
            c -= den[j] * out[i - j]
        out.append(c / d0)
    return out


@dataclass(frozen=True)
class SeriesTable:
    """Exact per-step distribution up to a horizon.

    per_pattern[k][n] is the probability that the race ends at step n
    with pattern k; totals[n] sums the row; tail_mass is the probability
    the race is still running after the horizon.
    """

    horizon: int
    per_pattern: tuple
    totals: tuple
    tail_mass: Fraction

    def row(self, n: int) -> tuple:
        return tuple(col[n] for col in self.per_pattern)


def series(problem: RaceProblem, n: int,
           solution: Optional[RaceSolution] = None) -> SeriesTable:
    """Exact distribution table extracted from the closed-form solution."""
    if n < 0:
        raise ValueError("horizon must be >= 0")
    if solution is None:
        solution = solve_race(problem)
    per = tuple(tuple(power_series(g, n)) for g in solution.g_per_pattern)
    totals = tuple(sum(col[i] for col in per) for i in range(n + 1))
    tail = 1 - sum(totals)
    return SeriesTable(horizon=n, per_pattern=per, totals=totals, tail_mass=tail)
