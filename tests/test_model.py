from fractions import Fraction
from itertools import product

import pytest

from patternrace.model import (
    AlphabetError,
    InvalidRaceError,
    Pattern,
    PatternError,
    RaceProblem,
    Violation,
    is_subpattern,
    make_alphabet,
    parse_rational,
    pattern_prob,
    validate_race,
)
from patternrace.oracle import build_automaton, martingale_check, monte_carlo
from patternrace.solver import series, solve_race


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


def test_race_problem_rejects_every_violation(fair_coin):
    # TH sits inside THH; TH and TT sit inside TTH, the head of the
    # initial word; the last pattern is past the length cap and uses a
    # letter the coin does not have.
    with pytest.raises(InvalidRaceError) as e:
        RaceProblem(
            alphabet=fair_coin,
            patterns=(fair_coin.pattern("TH"), fair_coin.pattern("THH"),
                      fair_coin.pattern("TT"), Pattern((2,) * 65)),
            initial=fair_coin.pattern("TTHT"),
        )
    report = e.value.report
    assert not report.ok
    assert [(v.code, v.indices) for v in report.violations] == [
        ("bad-pattern", (3,)),
        ("pattern-too-long", (3,)),
        ("mutual-containment", (0, 1)),
        ("initial-contains-pattern", (0,)),
        ("initial-contains-pattern", (2,)),
    ]
    assert str(e.value) == "; ".join(v.message for v in report.violations)


def test_validate_rejects_containment(fair_coin):
    with pytest.raises(InvalidRaceError) as e:
        RaceProblem(
            alphabet=fair_coin,
            patterns=(fair_coin.pattern("TH"), fair_coin.pattern("THH")),
        )
    report = e.value.report
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
    with pytest.raises(InvalidRaceError) as e:
        RaceProblem(
            alphabet=fair_coin,
            patterns=(fair_coin.pattern("HH"),),
            initial=fair_coin.pattern("HHT"),
        )
    report = e.value.report
    assert not report.ok
    assert any(v.code == "initial-contains-pattern" for v in report.violations)


def test_validate_rejects_appended_containment(three_way, fair_coin):
    with pytest.raises(InvalidRaceError) as e:
        RaceProblem(
            alphabet=fair_coin,
            patterns=three_way.patterns + (fair_coin.pattern("TH"),),
        )
    assert not e.value.report.ok


def test_validate_rejects_empty_collection(fair_coin):
    with pytest.raises(InvalidRaceError) as e:
        RaceProblem(alphabet=fair_coin, patterns=())
    assert any(v.code == "no-patterns" for v in e.value.report.violations)


def test_validate_caps(fair_coin):
    def problem(*patterns):
        return RaceProblem(alphabet=fair_coin, patterns=patterns)

    assert validate_race(problem(Pattern((0,) * 64))).ok
    with pytest.raises(InvalidRaceError) as e:
        problem(Pattern((0,) * 65))
    assert [v.code for v in e.value.report.violations] == ["pattern-too-long"]
    # distinct words of one length never contain each other
    assert validate_race(problem(*(Pattern(w) for w in product((0, 1), repeat=4)))).ok
    many = [Pattern(w) for w in product((0, 1), repeat=5)][:17]
    with pytest.raises(InvalidRaceError) as e:
        problem(*many)
    assert [v.code for v in e.value.report.violations] == ["too-many-patterns"]


# ---------------------------------------------------------------------------
# the records are tuples

RECORDS = {
    "Alphabet": lambda race: race.alphabet,
    "Pattern": lambda race: race.patterns[0],
    "RaceProblem": lambda race: race,
    "RaceSolution": solve_race,
    "SeriesTable": lambda race: series(race, 4),
    "PrefixAutomaton": build_automaton,
    "MonteCarloReport": lambda race: monte_carlo(build_automaton(race), 10),
    "MartingaleReport": lambda race: martingale_check(race, 0, Fraction(1, 2), 10),
    "Violation": lambda race: Violation("no-patterns", "at least one competing pattern"),
    "ValidationReport": validate_race,
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_set(three_way, name):
    record = RECORDS[name](three_way)
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = None


def test_records_are_tuples():
    p = Pattern((0, 1, 0))
    assert repr(p) == "Pattern(letters=(0, 1, 0))"
    assert repr(Violation("bad-initial", "initial pattern: x")) == \
        "Violation(code='bad-initial', message='initial pattern: x', indices=())"
    assert len(p) == 3
    assert list(p) == [(0, 1, 0)]
    assert p == ((0, 1, 0),)
