import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patternrace.correlation import correlation, correlations, evaluate
from patternrace.model import (
    Alphabet,
    Pattern,
    PatternError,
    RaceProblem,
    make_alphabet,
    pattern_prob,
)

from conftest import random_problem
from cramer_reference import correlation_matrix, initial_correlation_vector


def test_correlation_fair_coin_example(fair_coin):
    a = fair_coin.pattern("THH")
    b = fair_coin.pattern("THTH")
    assert correlation(a, b, fair_coin) == {}
    assert correlation(b, b, fair_coin) == {-2: 4, -4: 16}
    assert correlation(a, a, fair_coin) == {-3: 8}
    assert correlation(b, a, fair_coin) == {-2: 4}
    assert evaluate(correlation(a, a, fair_coin), 1) == 8


def test_public_functions_reject_letters_outside_the_alphabet(fair_coin):
    # correlations trusts its callers' validated words; the public
    # wrappers check raw Patterns.
    good = fair_coin.pattern("TH")
    bad = Pattern((0, 2))
    for a, b in ((bad, good), (good, bad), (None, bad)):
        with pytest.raises(PatternError):
            correlation(a, b, fair_coin)
    with pytest.raises(PatternError):
        pattern_prob(bad, fair_coin)


def test_correlation_biased_coin():
    # the same example with Pr(H)=p, Pr(T)=q instantiated at p=1/3
    p, q = Fraction(1, 3), Fraction(2, 3)
    alpha = make_alphabet([("H", p), ("T", q)])
    a = alpha.pattern("THH")
    b = alpha.pattern("THTH")
    assert correlation(a, a, alpha) == {-3: 1 / (p * p * q)}
    assert correlation(b, a, alpha) == {-2: 1 / (p * q)}
    assert correlation(a, b, alpha) == {}
    assert correlation(b, b, alpha) == \
        {-2: 1 / (p * q), -4: 1 / (p * p * q * q)}


def test_correlation_empty_initial(fair_coin):
    assert correlation(None, fair_coin.pattern("THH"), fair_coin) == {}


def test_correlation_matrix_three_way(three_way):
    cm = correlation_matrix(three_way)
    assert cm.at(1) == [
        [8, 4, 2],
        [2, 10, 4],
        [6, 2, 8],
    ]


def test_correlation_matrix_single(fair_coin):
    problem = RaceProblem(alphabet=fair_coin,
                          patterns=(fair_coin.pattern("THH"),))
    cm = correlation_matrix(problem)
    assert cm.m == 1
    assert cm.entry(0, 0) == correlation(
        fair_coin.pattern("THH"), fair_coin.pattern("THH"), fair_coin)


def test_initial_vector_three_way_cases(fair_coin, three_way):
    # A^(2)=HH with A^(3) not in the collection: A=HHH
    p = RaceProblem(alphabet=fair_coin, patterns=three_way.patterns,
                    initial=fair_coin.pattern("HHH"))
    assert [evaluate(t, 1) for t in initial_correlation_vector(p)] == [0, 2, 6]
    # A^(2)=HT: A=HHT would end with B3; use A=THT
    p = RaceProblem(alphabet=fair_coin, patterns=three_way.patterns,
                    initial=fair_coin.pattern("THT"))
    assert [evaluate(t, 1) for t in initial_correlation_vector(p)] == [2, 4, 0]
    # no initial pattern
    assert [evaluate(t, 1) for t in initial_correlation_vector(three_way)] == [0, 0, 0]


def test_self_correlation_has_full_overlap_term():
    rng = random.Random(7)
    for _ in range(30):
        prob = random_problem(rng)
        for b in prob.patterns:
            terms = correlation(b, b, prob.alphabet)
            assert terms[-len(b)] == 1 / pattern_prob(b, prob.alphabet)
            # every present coefficient is the reciprocal prefix probability
            for e, c in terms.items():
                prefix = Pattern(b.letters[:-e])
                assert c == 1 / pattern_prob(prefix, prob.alphabet)


def test_correlation_depends_only_on_suffix():
    rng = random.Random(13)
    checked = 0
    while checked < 50:
        prob = random_problem(rng, with_initial=True)
        a = prob.initial
        b = prob.patterns[0]
        if len(a) < len(b):
            # a shorter than b: truncating to its own length is a no-op,
            # but lengthening could add overlaps, so only shrink-or-equal
            # replacements are covered by the invariant
            a2 = a
        else:
            # same suffix of length len(b), arbitrary new head
            junk = tuple(rng.randrange(prob.alphabet.size)
                         for _ in range(rng.randint(0, 3)))
            a2 = Pattern(junk + a.letters[len(a) - len(b):])
        assert correlation(a, b, prob.alphabet) == \
            correlation(a2, b, prob.alphabet)
        checked += 1


def test_matrix_nonnegative_at_one():
    rng = random.Random(99)
    for _ in range(20):
        prob = random_problem(rng)
        grid = correlation_matrix(prob).at(1)
        for i, row in enumerate(grid):
            for j, v in enumerate(row):
                assert v >= 0
                if i == j:
                    assert v > 0


def reference_terms(a, b, alphabet):
    """The term map by slice comparison and a Fraction product per overlap."""
    if a is None:
        return {}
    terms = {}
    for k in range(1, min(len(a), len(b)) + 1):
        if a.letters[-k:] == b.letters[:k]:
            terms[-k] = 1 / pattern_prob(Pattern(b.letters[:k]), alphabet)
    return terms


@st.composite
def correlation_cases(draw):
    """(words, b, alphabet) on 1 or 4 letters; b is a random word or a
    repeated short period (aaaa, abab, ...), so has many borders; each
    word is None, random (often shorter than b), or a random head
    followed by all of b, by a prefix of b or by a suffix of b."""
    size = draw(st.sampled_from([1, 4]))
    weights = draw(st.lists(st.integers(1, 6), min_size=size, max_size=size))
    alphabet = Alphabet(tuple("abcd"[:size]),
                        tuple(Fraction(w, sum(weights)) for w in weights))
    letter = st.integers(0, size - 1)
    periodic = st.tuples(st.lists(letter, min_size=1, max_size=3), st.integers(1, 12)).map(
        lambda pr: (pr[0] * pr[1])[:pr[1]])
    b = Pattern(tuple(draw(st.lists(letter, min_size=1, max_size=10) | periodic)))
    head = st.lists(letter, max_size=5).map(tuple)
    cut = st.integers(1, len(b))
    word = st.one_of(
        st.none(),
        st.lists(letter, min_size=1, max_size=12).map(lambda w: Pattern(tuple(w))),
        head.map(lambda h: Pattern(h + b.letters)),
        st.tuples(head, cut).map(lambda hk: Pattern(hk[0] + b.letters[:hk[1]])),
        st.tuples(head, cut).map(lambda hk: Pattern(hk[0] + b.letters[-hk[1]:])),
    )
    return draw(st.lists(word, max_size=6)), b, alphabet


@settings(max_examples=300, deadline=None)
@given(correlation_cases())
@example(([Pattern((0,) * 6), Pattern((0, 0)), None],
          Pattern((0,) * 4), make_alphabet([("a", "1")])))
@example(([Pattern((1, 0, 1, 0, 1)), Pattern((0, 1, 0)), Pattern((2, 0, 1, 0, 1))],
          Pattern((0, 1, 0, 1)), make_alphabet([(c, "1/4") for c in "abcd"])))
def test_correlations_equal_slice_reference(case):
    words, b, alphabet = case
    assert correlations(words, b, alphabet) == [reference_terms(a, b, alphabet) for a in words]
    for a in words:
        assert correlation(a, b, alphabet) == reference_terms(a, b, alphabet)
