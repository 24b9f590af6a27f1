import random
from fractions import Fraction

import pytest

from patternrace.algebra import RationalFunc
from patternrace.model import (
    Alphabet,
    InvalidRaceError,
    Pattern,
    RaceProblem,
    is_subpattern,
    make_alphabet,
)
from patternrace.serialize import parse_rational_str

from rf_field import RF


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
        try:
            return RaceProblem(alphabet=alphabet, patterns=tuple(pats),
                               initial=initial)
        except InvalidRaceError:
            continue


def rf_from_obj(obj) -> RationalFunc:
    """The rational function of a {"num": [...], "den": [...]} output object."""
    return RF(
        tuple(parse_rational_str(c) for c in obj["num"]),
        tuple(parse_rational_str(c) for c in obj["den"]),
    )


def corrupt_solution(sol, which: str):
    """sol with the top numerator coefficient of one generating function
    raised by 1: which is "q_tau", "g_total" or "g_1".  Returns the
    corrupted solution and that coefficient's index, the first at which
    the corrupted function's series differs."""
    def bump(rf):
        # c / lc is the top coefficient of the monic form; c + lc raises it by 1
        return RationalFunc(rf.inum[:-1] + (rf.inum[-1] + rf.iden[-1],), rf.iden)

    if which == "g_1":
        g = sol.g_per_pattern
        return (sol._replace(g_per_pattern=(bump(g[0]),) + g[1:]),
                len(g[0].inum) - 1)
    rf = getattr(sol, which)
    return sol._replace(**{which: bump(rf)}), len(rf.inum) - 1
