"""Reference formulas for one pattern: the optional-stopping closed forms.

For the wait tau until b, given an initial word a, the gambling-team
argument gives E(alpha^tau) = (1 + (1 - alpha)(A*B)) / (1 + (1 - alpha)(B*B))
and E(tau) = (B*B)(1) - (A*B)(1), with (X*Y) the correlation polynomial.
The tests compare `patternrace.solver.solve_race` on a one-pattern race
against these formulas.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from patternrace.correlation import correlation, evaluate
from patternrace.model import (
    Alphabet,
    InvalidRaceError,
    Pattern,
    ValidationReport,
    Violation,
)

from rf_field import RF

ONE_MINUS_ALPHA = RF((1, -1))


def laurent_rf(terms: dict) -> RF:
    """A term map {exponent: coefficient}, such as a correlation, as a
    rational function: multiply through by alpha**d to clear negative
    exponents."""
    d = max([0] + [-e for e in terms])
    num = [0] * (max(terms) + d + 1 if terms else 0)
    for e, c in terms.items():
        num[e + d] = c
    return RF(num, [0] * d + [1])


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


def single_pgf(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> RF:
    """E(alpha^tau) for the wait until b, given initial word a."""
    _check_single(a, b, alphabet)
    ab = laurent_rf(correlation(a, b, alphabet))
    bb = laurent_rf(correlation(b, b, alphabet))
    return (1 + ONE_MINUS_ALPHA * ab) / (1 + ONE_MINUS_ALPHA * bb)


def single_Q(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> RF:
    """Generating function of the tail probabilities Pr(tau > n)."""
    _check_single(a, b, alphabet)
    ab = laurent_rf(correlation(a, b, alphabet))
    bb = laurent_rf(correlation(b, b, alphabet))
    return (bb - ab) / (1 + ONE_MINUS_ALPHA * bb)


def single_expected(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> Fraction:
    """Expected waiting time for b given initial word a."""
    _check_single(a, b, alphabet)
    return evaluate(correlation(b, b, alphabet), 1) - evaluate(correlation(a, b, alphabet), 1)
