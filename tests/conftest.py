import random
from fractions import Fraction

import pytest

from patternrace.model import (
    Alphabet,
    Pattern,
    RaceProblem,
    is_subpattern,
    make_alphabet,
    validate_race,
)


@pytest.fixture
def fair_coin():
    return make_alphabet([("H", "1/2"), ("T", "1/2")])


@pytest.fixture
def three_way(fair_coin):
    """The symmetric-coin race between THH, HTH and HHT."""
    pats = tuple(fair_coin.pattern(s) for s in ("THH", "HTH", "HHT"))
    return RaceProblem(alphabet=fair_coin, patterns=pats)


def random_alphabet(rng: random.Random) -> Alphabet:
    size = rng.randint(2, 4)
    weights = [rng.randint(1, 6) for _ in range(size)]
    total = sum(weights)
    symbols = tuple("abcd"[:size])
    return Alphabet(symbols, tuple(Fraction(w, total) for w in weights))


def random_problem(rng: random.Random, with_initial=None, m=None) -> RaceProblem:
    """A random validated race problem (rejection sampling).

    m asks for that many patterns; by default 1 to 4 are drawn."""
    while True:
        alphabet = random_alphabet(rng)
        count = rng.randint(1, 4) if m is None else m
        pats = []
        tries = 0
        while len(pats) < count and tries < 60:
            tries += 1
            length = rng.randint(1, 6)
            cand = Pattern(tuple(rng.randrange(alphabet.size) for _ in range(length)))
            if all(not is_subpattern(cand, p) and not is_subpattern(p, cand)
                   for p in pats):
                pats.append(cand)
        if len(pats) < (m or 1):
            continue
        use_initial = rng.random() < 0.6 if with_initial is None else with_initial
        initial = None
        if use_initial:
            length = rng.randint(1, 6)
            initial = Pattern(tuple(rng.randrange(alphabet.size)
                                    for _ in range(length)))
        problem = RaceProblem(alphabet=alphabet, patterns=tuple(pats),
                              initial=initial)
        if validate_race(problem).ok:
            return problem
