"""Reference oracle: Taylor coefficients by the Fraction recurrence.

This is the term-by-term rational recurrence den * c = num, solved for
c_i with Fraction arithmetic on the canonical coefficients.  It needs no
scale and no integer clearing, so it is independent of the integer
kernel `patternrace.solver.power_series`, which the tests compare
against it.  The Fraction views of a SeriesTable (per_pattern, totals,
tail_mass) live here too: only the tests read them.
"""

from __future__ import annotations

from fractions import Fraction

from patternrace.algebra import RationalFunc
from patternrace.solver import RaceSolution, SeriesTable

from rf_field import monic_den, monic_num

_ZERO = Fraction(0)


def power_series(rf: RationalFunc, n: int) -> list:
    """First n+1 Taylor coefficients of rf around alpha = 0."""
    num, den = monic_num(rf), monic_den(rf)
    if den[0] == 0:
        raise ZeroDivisionError(
            "denominator has zero constant term; no Taylor expansion at 0")
    d0 = den[0]
    out: list = []
    for i in range(n + 1):
        c = num[i] if i < len(num) else _ZERO
        for j in range(1, min(i, len(den) - 1) + 1):
            c -= den[j] * out[i - j]
        out.append(c / d0)
    return out


def series_table(solution: RaceSolution, n: int) -> tuple:
    """The distribution table summed in Fractions: the triple
    (per_pattern(t), totals(t), tail_mass(t)) of a SeriesTable t."""
    per = tuple(tuple(power_series(g, n)) for g in solution.g_per_pattern)
    row_sums = tuple(sum(col[i] for col in per) for i in range(n + 1))
    return per, row_sums, 1 - sum(row_sums)


# Fraction views of a SeriesTable, each entry divided by its own power
# of d; the program prints the scaled integers without building them.

def per_pattern(t: SeriesTable) -> tuple:
    """per_pattern(t)[k][n]: the probability that the race ends at step n
    with pattern k."""
    return tuple(tuple(Fraction(c, t.d ** n) for n, c in enumerate(col))
                 for col in t.columns)


def totals(t: SeriesTable) -> tuple:
    """totals(t)[n]: the probability that the race ends at step n."""
    return tuple(sum(col[n] for col in per_pattern(t)) for n in range(t.horizon + 1))


def tail_mass(t: SeriesTable) -> Fraction:
    """The probability that the race is still running after the horizon."""
    return 1 - sum(totals(t))
