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

from patternrace.algebra import LaurentPoly, RationalFunc
from patternrace.correlation import correlation
from patternrace.model import (
    Alphabet,
    InvalidRaceError,
    Pattern,
    ValidationReport,
    Violation,
)

ONE_MINUS_ALPHA = LaurentPoly({0: 1, 1: -1})


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
    om = ONE_MINUS_ALPHA.to_rational_func()
    ab = correlation(a, b, alphabet).to_rational_func()
    bb = correlation(b, b, alphabet).to_rational_func()
    return (1 + om * ab) / (1 + om * bb)


def single_Q(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> RationalFunc:
    """Generating function of the tail probabilities Pr(tau > n)."""
    _check_single(a, b, alphabet)
    om = ONE_MINUS_ALPHA.to_rational_func()
    ab = correlation(a, b, alphabet).to_rational_func()
    bb = correlation(b, b, alphabet).to_rational_func()
    return (bb - ab) / (1 + om * bb)


def single_expected(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> Fraction:
    """Expected waiting time for b given initial word a."""
    _check_single(a, b, alphabet)
    return correlation(b, b, alphabet)(1) - correlation(a, b, alphabet)(1)
