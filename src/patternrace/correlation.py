"""Correlation polynomials of one pattern against another.

The correlation of a seen word A against an awaited word B collects one
term per overlap length k where the last k letters of A equal the first
k letters of B; the term at exponent -k has coefficient equal to the
reciprocal probability of that k-letter prefix of B.  A correlation is
held as its term map {exponent: coefficient} of nonzero terms.

The work that depends on B alone, its reciprocal prefix probabilities
and its KMP failure function, is done once per B by correlations; the
overlaps of each word are then the border chain of the KMP state it
reaches (Knuth, Morris and Pratt 1977).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, List, Optional

from .model import Alphabet, Pattern


def _failure(letters: tuple) -> list:
    """fail[k] = the length of the longest proper border of letters[:k],
    for k = 1..len(letters); fail[0] is 0 and unused."""
    fail = [0] * (len(letters) + 1)
    k = 0
    for i in range(1, len(letters)):
        c = letters[i]
        while k and letters[k] != c:
            k = fail[k]
        if letters[k] == c:
            k += 1
        fail[i + 1] = k
    return fail


def correlations(words: Iterable[Optional[Pattern]], b: Pattern,
                 alphabet: Alphabet) -> List[dict]:
    """Term map {-k: 1/P(b[:k])} of each word against b, in order; the
    map of None is empty.

    The longest overlap k of a word is the KMP state reached by reading
    its last len(b) letters from the start state, since no longer
    overlap exists; the other overlaps are the borders of b[:k], found
    by following fail from k.  b and the words must use only letters of
    alphabet, as those of a validated RaceProblem do; they are not
    checked here.
    """
    letters = b.letters
    n = len(letters)
    probs = alphabet.probs
    inverse = list(accumulate((1 / probs[c] for c in letters), mul, initial=Fraction(1)))
    fail = _failure(letters)
    out = []
    for a in words:
        if a is None:
            out.append({})
            continue
        # From state 0, n letters reach state n only on the last one, so
        # no full match needs a fall-back mid-word.
        k = 0
        for c in a.letters[-n:]:
            while k and letters[k] != c:
                k = fail[k]
            if letters[k] == c:
                k += 1
        chain = []
        while k:
            chain.append(k)
            k = fail[k]
        out.append({-k: inverse[k] for k in reversed(chain)})
    return out


def correlation(a: Optional[Pattern], b: Pattern, alphabet: Alphabet) -> dict:
    """Term map {-k: 1/P(b[:k])} of a against b; empty when a is empty.

    Raises PatternError when a or b has a letter outside alphabet."""
    b.check_alphabet(alphabet)
    if a is not None:
        a.check_alphabet(alphabet)
    return correlations((a,), b, alphabet)[0]


def evaluate(terms: dict, alpha) -> Fraction:
    """The value of a term map at alpha, exactly."""
    alpha = Fraction(alpha)  # an int base would turn alpha ** -k into a float
    return sum((c * alpha ** e for e, c in terms.items()), Fraction(0))
