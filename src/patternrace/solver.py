"""Closed-form race engine.

The competing-pattern linear system, built over Z[alpha] from the
correlation term maps and solved exactly by algebra.fraction_free_solve,
and exact power-series extraction of waiting-time distributions.  A
single pattern is the race with m = 1.  The automaton DP certifies the
answers without sharing this module's code or algebra's elimination.

With d the lcm of the letter-probability denominators,
d**n * P(tau = n, k wins) is an integer, so the series recurrence runs
on those integers and the SeriesTable holds them; serialize prints them
without building a Fraction.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .algebra import RationalFunc, fraction_free_solve
from .correlation import correlations
from .model import RaceProblem


class InexactSeriesError(RuntimeError):
    """A scaled series coefficient was not an integer.

    This signals an internal bug: the scale does not clear the
    denominators of the series.
    """


# ---------------------------------------------------------------------------
# competing patterns

class RaceSolution(NamedTuple):
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


def _clear_row(row: Sequence[dict]) -> tuple:
    """Scale a row of term maps {exponent: coefficient} by alpha**d and
    the lcm l of its coefficient denominators, so that every entry is an
    integer polynomial, as the list of its nonzero terms.  Returns the
    integer row and l."""
    d = max([0] + [-e for terms in row for e in terms])
    l = lcm(*(c.denominator for terms in row for c in terms.values()))
    return [[(e + d, c.numerator * (l // c.denominator))
             for e, c in sorted(terms.items())] for terms in row], l


def solve_race(problem: RaceProblem) -> RaceSolution:
    """Solve the race system A x = rhs for x = (Q, g_1, ..., g_m).

    Row 0 of [A | rhs] is (1 - alpha, 1, ..., 1 | 1); row i is
    (-1, B_i1, ..., B_im | v_i), with B_ij the correlation of B_j against
    B_i and v_i that of the initial word against B_i.  Each row is cleared
    to Z[alpha], then one fraction-free elimination of the augmented
    matrix yields det A and every Cramer numerator y_i = det A * x_i.  The
    alpha = 1 values come from the same polynomials evaluated at 1.  No
    pivot is zero: the leading (k+1)-minor is a row scale times det A of
    the valid sub-race B_1..B_k, and mutual-containment makes det A(1) != 0.

    Row 0 reads (1 - alpha) Q + G = 1 for G = g_1 + ... + g_m, so with
    q_tau = N/D canonical, g_total is (D - (1 - alpha) N)/D, and that pair
    is canonical too: gcd(D - (1 - alpha) N, D) = gcd(1 - alpha, D) = 1,
    since D(1) != 0 (Q(1) = E[tau] is finite); a prime dividing every
    coefficient of both parts would divide every coefficient of D and,
    by induction from the constant term, of N, so their joint content
    is 1; and D keeps its sign.
    """
    alphabet, pats = problem.alphabet, problem.patterns
    a = [[[(0, 1), (1, -1)]] + [[(0, 1)]] * (len(pats) + 1)]
    scale = 1
    minus_one = {0: -1}
    words = (*pats, problem.initial)
    for bi in pats:
        row = [minus_one] + correlations(words, bi, alphabet)
        irow, l = _clear_row(row)
        a.append(irow)
        scale *= l

    det, (y,) = fraction_free_solve(a)
    det1 = sum(det)
    g_nums = y[1:]
    q_tau = RationalFunc(y[0], det)
    n, d = q_tau.inum, q_tau.iden
    # D - N + alpha N, canonical over D as it stands (see above).
    g_total = [u - v + w for u, v, w in zip_longest(d, n, (0, *n), fillvalue=0)]
    # The row scaling cancels in every ratio; only the raw alpha = 1
    # determinants need it divided back out.
    return RaceSolution(
        q_tau=q_tau,
        g_total=RationalFunc(g_total, d),
        g_per_pattern=tuple(RationalFunc(g, det) for g in g_nums),
        win_probs=tuple(Fraction(sum(g), det1) for g in g_nums),
        expected_tau=Fraction(sum(y[0]), det1),
        win_numerators=tuple(Fraction(sum(g), scale) for g in g_nums),
        win_denominator=Fraction(det1, scale),
    )


# ---------------------------------------------------------------------------
# power series

def power_series(rf: RationalFunc, n: int, d: int) -> list:
    """First n+1 Taylor coefficients c_i of rf around alpha = 0, scaled
    to the integers C_i = d**i * c_i.

    d must make every C_i an integer: for a race generating function,
    c_i is a sum of products of i letter probabilities, so the lcm of
    their denominators will do.  With N, E the integer parts of rf, the
    recurrence E_0 C_i = d**i N_i - sum_j E_j d**j C_(i-j) runs on ints
    with one exact division per coefficient.
    """
    num, den = rf.inum, rf.iden
    e0 = den[0]
    # E_j * d**j for j = 1, 2, ..., nearest term first.
    den = [c * d ** j for j, c in enumerate(den[1:], 1)]
    # The last len(den) coefficients, newest first, to pair with den.
    window = deque(maxlen=len(den))
    out: list = []
    scale = 1
    for i in range(n + 1):
        acc = num[i] * scale if i < len(num) else 0
        acc -= sum(map(mul, den, window))
        c, r = divmod(acc, e0)
        if r:
            raise InexactSeriesError(
                f"coefficient {i} times {d}**{i} is not an integer")
        out.append(c)
        window.appendleft(c)
        scale *= d
    return out


class SeriesTable(NamedTuple):
    """Exact per-step distribution up to a horizon, held as the engines
    compute it: columns[k][n] = d**n * P(tau = n, k wins), an integer,
    with d the lcm of the letter-probability denominators.  columns is
    a tuple of tuples, so two tables are equal exactly when their
    integers are.
    """

    d: int
    columns: tuple

    @property
    def horizon(self) -> int:
        return len(self.columns[0]) - 1

    def scaled_totals(self) -> list:
        """d**n * P(tau = n) for n = 0..horizon."""
        return [sum(row) for row in zip(*self.columns)]

    def scaled_tail(self) -> int:
        """d**horizon * P(tau > horizon), derived from the columns."""
        # sum_n totals[n] * d**(horizon - n), by Horner's rule
        absorbed = 0
        for t in self.scaled_totals():
            absorbed = absorbed * self.d + t
        return self.d ** self.horizon - absorbed


def series(problem: RaceProblem, n: int,
           solution: Optional[RaceSolution] = None) -> SeriesTable:
    """Exact distribution table extracted from the closed-form solution.

    Each generating function g_k is expanded with power_series, scaled
    by the lcm d of the letter-probability denominators; the table holds
    those integers.
    """
    if n < 0:
        raise ValueError("horizon must be >= 0")
    if solution is None:
        solution = solve_race(problem)
    d = problem.alphabet.denominator
    return SeriesTable(d, tuple(tuple(power_series(g, n, d))
                                for g in solution.g_per_pattern))
