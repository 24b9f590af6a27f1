import random
from fractions import Fraction

from patternrace.correlation import correlation, evaluate
from patternrace.model import Pattern, RaceProblem, make_alphabet, pattern_prob

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
                prefix = Pattern(b.prefix(-e))
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
