"""Correlation polynomials of one pattern against another.

The correlation of a seen word A against an awaited word B collects one
term per overlap length k where the last k letters of A equal the first
k letters of B; the term at exponent -k has coefficient equal to the
reciprocal probability of that k-letter prefix of B.  A correlation is
held as its term map {exponent: coefficient} of nonzero terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .model import Alphabet, Pattern


def correlation(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> dict:
    """Term map {-k: 1/P(b[:k])} of a against b; empty when a is empty."""
    if a is None:
        return {}
    a.check_alphabet(alphabet)
    b.check_alphabet(alphabet)
    terms = {}
    prefix_prob = Fraction(1)
    for k in range(1, min(len(a), len(b)) + 1):
        prefix_prob *= alphabet.probs[b.letters[k - 1]]
        if a.suffix(k) == b.prefix(k):
            terms[-k] = 1 / prefix_prob
    return terms


def evaluate(terms: dict, alpha) -> Fraction:
    """The value of a term map at alpha, exactly."""
    alpha = Fraction(alpha)  # an int base would turn alpha ** -k into a float
    return sum((c * alpha ** e for e, c in terms.items()), Fraction(0))
