from fractions import Fraction
from itertools import product

import pytest

from patternrace.model import (
    AlphabetError,
    Pattern,
    PatternError,
    RaceProblem,
    is_subpattern,
    make_alphabet,
    parse_rational,
    pattern_prob,
    validate_race,
)


def test_make_alphabet_fair_coin(fair_coin):
    assert fair_coin.symbols == ("H", "T")
    assert fair_coin.probs == (Fraction(1, 2), Fraction(1, 2))


def test_make_alphabet_single_letter():
    a = make_alphabet([("a", "1")])
    assert a.probs == (Fraction(1),)


def test_make_alphabet_bad_sum():
    with pytest.raises(AlphabetError, match="sum"):
        make_alphabet([("H", "1/3"), ("T", "1/3")])


def test_make_alphabet_duplicate_symbol():
    with pytest.raises(AlphabetError, match="duplicate"):
        make_alphabet([("H", "1/2"), ("H", "1/2")])


def test_make_alphabet_nonpositive_prob():
    with pytest.raises(AlphabetError, match="positive"):
        make_alphabet([("H", "0"), ("T", "1")])


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("0.5")


def test_pattern_prob(fair_coin):
    assert pattern_prob(fair_coin.pattern("THH"), fair_coin) == Fraction(1, 8)
    assert pattern_prob(fair_coin.pattern("H"), fair_coin) == Fraction(1, 2)
    skew = make_alphabet([("H", "1/3"), ("T", "2/3")])
    assert pattern_prob(skew.pattern("TH"), skew) == Fraction(2, 9)


def test_pattern_prob_concatenation(fair_coin):
    p = fair_coin.pattern("TH")
    q = fair_coin.pattern("HHT")
    pq = Pattern(p.letters + q.letters)
    assert pattern_prob(pq, fair_coin) == \
        pattern_prob(p, fair_coin) * pattern_prob(q, fair_coin)


def test_is_subpattern(fair_coin):
    th = fair_coin.pattern("TH")
    thh = fair_coin.pattern("THH")
    assert is_subpattern(th, thh)
    assert not is_subpattern(fair_coin.pattern("HH"), fair_coin.pattern("THT"))
    assert is_subpattern(thh, thh)


def test_empty_pattern_rejected():
    with pytest.raises(PatternError):
        Pattern(())


def test_validate_accepts_three_way(three_way):
    assert validate_race(three_way).ok


def test_validate_rejects_containment(fair_coin):
    problem = RaceProblem(
        alphabet=fair_coin,
        patterns=(fair_coin.pattern("TH"), fair_coin.pattern("THH")),
    )
    report = validate_race(problem)
    assert not report.ok
    codes = {v.code for v in report.violations}
    assert "mutual-containment" in codes
    assert any(v.indices == (0, 1) for v in report.violations)


def test_validate_initial_pattern_rules(fair_coin):
    # A=THH with B=HH: HH is not inside a1 a2 = TH, so this is valid.
    ok = RaceProblem(
        alphabet=fair_coin,
        patterns=(fair_coin.pattern("HH"),),
        initial=fair_coin.pattern("THH"),
    )
    assert validate_race(ok).ok
    # A=HHT with B=HH: HH sits inside a1 a2 = HH, invalid.
    bad = RaceProblem(
        alphabet=fair_coin,
        patterns=(fair_coin.pattern("HH"),),
        initial=fair_coin.pattern("HHT"),
    )
    report = validate_race(bad)
    assert not report.ok
    assert any(v.code == "initial-contains-pattern" for v in report.violations)


def test_validate_rejects_appended_containment(three_way, fair_coin):
    extended = RaceProblem(
        alphabet=fair_coin,
        patterns=three_way.patterns + (fair_coin.pattern("TH"),),
    )
    assert not validate_race(extended).ok


def test_validate_rejects_empty_collection(fair_coin):
    report = validate_race(RaceProblem(alphabet=fair_coin, patterns=()))
    assert any(v.code == "no-patterns" for v in report.violations)


def test_validate_caps(fair_coin):
    def report(*patterns):
        return validate_race(RaceProblem(alphabet=fair_coin, patterns=patterns))

    assert report(Pattern((0,) * 64)).ok
    assert [v.code for v in report(Pattern((0,) * 65)).violations] == ["pattern-too-long"]
    # distinct words of one length never contain each other
    assert report(*(Pattern(w) for w in product((0, 1), repeat=4))).ok
    many = [Pattern(w) for w in product((0, 1), repeat=5)][:17]
    assert [v.code for v in report(*many).violations] == ["too-many-patterns"]
