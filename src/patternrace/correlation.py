"""Correlation polynomials of one pattern against another.

The correlation of a seen word A against an awaited word B collects one
term per overlap length k where the last k letters of A equal the first
k letters of B; the term at exponent -k has coefficient equal to the
reciprocal probability of that k-letter prefix of B.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import LaurentPoly
from .model import Alphabet, Pattern


def correlation(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> LaurentPoly:
    """Correlation polynomial of a against b; zero when a is empty."""
    if a is None:
        return LaurentPoly.zero()
    a.check_alphabet(alphabet)
    b.check_alphabet(alphabet)
    terms = {}
    prefix_prob = Fraction(1)
    for k in range(1, min(len(a), len(b)) + 1):
        prefix_prob *= alphabet.probs[b.letters[k - 1]]
        if a.suffix(k) == b.prefix(k):
            terms[-k] = 1 / prefix_prob
    return LaurentPoly(terms)
