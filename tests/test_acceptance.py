"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from patternrace.cli import main
from patternrace.correlation import correlation
from patternrace.model import RaceProblem, make_alphabet
from patternrace.oracle import (
    build_automaton,
    exact_distribution,
    martingale_check,
    monte_carlo,
)
from patternrace.serialize import parse_rational_str
from patternrace.solver import series, solve_race

from absorbing_reference import absorbing_solve
from conftest import random_problem, rf_from_obj
from cramer_reference import (
    build_system,
    correlation_matrix,
    det_rf,
    fraction_det,
    replace_column,
)
from rf_field import RF
from single_reference import ONE_MINUS_ALPHA, single_expected
from test_solver import _b_variants, solve_linear_rf


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture
def coin():
    return make_alphabet([("H", "1/2"), ("T", "1/2")])


@pytest.fixture
def race3(coin):
    return RaceProblem(
        alphabet=coin,
        patterns=tuple(coin.pattern(s) for s in ("THH", "HTH", "HHT")),
    )


def with_initial(race3, coin, init):
    return RaceProblem(alphabet=coin, patterns=race3.patterns,
                       initial=coin.pattern(init))


def test_criterion_1_correlation_golden(coin):
    a = coin.pattern("THH")
    b = coin.pattern("THTH")
    assert correlation(a, a, coin) == {-3: 8}
    assert correlation(b, a, coin) == {-2: 4}
    assert correlation(a, b, coin) == {}
    assert correlation(b, b, coin) == {-2: 4, -4: 16}
    report(1, "correlation golden values exact")


def test_criterion_2_matrix_and_denominator(race3):
    grid = correlation_matrix(race3).at(1)
    assert grid == [[8, 4, 2], [2, 10, 4], [6, 2, 8]]
    ones = [Fraction(1)] * 3
    s = sum(fraction_det(replace_column(grid, j, ones)) for j in range(3))
    assert s == 96
    assert solve_race(race3).win_denominator == 96
    report(2, "matrix at alpha=1 and unit-column determinant sum 96")


def test_criterion_3_probability_triples(race3, coin):
    assert solve_race(race3).win_probs == \
        (Fraction(5, 12), Fraction(1, 3), Fraction(1, 4))
    cases = {
        "H": (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
        "HHH": (0, 0, 1),    # final two letters HH, final three not competing
        "THT": (Fraction(1, 3), Fraction(2, 3), 0),   # ends HT
        "TTH": (Fraction(2, 3), Fraction(1, 3), 0),   # ends TH
        "TTT": (Fraction(2, 3), Fraction(1, 3), 0),   # ends TT
        "T": (Fraction(2, 3), Fraction(1, 3), 0),
    }
    for init, expected in cases.items():
        sol = solve_race(with_initial(race3, coin, init))
        assert sol.win_probs == tuple(Fraction(e) for e in expected), init
    hh = solve_race(with_initial(race3, coin, "HHH"))
    assert hh.win_numerators == (0, 0, 96)
    for k, pat in enumerate(("THH", "HTH", "HHT")):
        sol = solve_race(with_initial(race3, coin, pat))
        assert sol.win_probs[k] == 1
    report(3, "all initial-pattern probability triples exact")


def test_criterion_4_single_expectations(coin):
    cases = [
        (None, "THH", 8),
        (None, "HTH", 10),
        ("THH", "THTH", 20),
    ]
    for init, pat, expected in cases:
        a = coin.pattern(init) if init else None
        b = coin.pattern(pat)
        assert single_expected(a, b, coin) == expected
        prob = RaceProblem(alphabet=coin, patterns=(b,), initial=a)
        _, oracle_expected = absorbing_solve(build_automaton(prob))
        assert oracle_expected == expected
    report(4, "single-pattern expectations 8, 10, 20 match the oracle")


def test_criterion_5_randomized_equivalence():
    rng = random.Random(2024)
    start = time.monotonic()
    n = 200
    for _ in range(n):
        prob = random_problem(rng)
        sol = solve_race(prob)
        wins, expected = absorbing_solve(build_automaton(prob))
        assert wins == sol.win_probs
        assert expected == sol.expected_tau
        t = series(prob, 40, sol)
        assert t == exact_distribution(build_automaton(prob), 40)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"randomized equivalence took {elapsed:.1f}s"
    report(5, f"{n} random problems, solver == oracle exactly, {elapsed:.1f}s")


def test_criterion_6_determinant_identities():
    rng = random.Random(4096)
    one_minus = ONE_MINUS_ALPHA
    one = RF.one()
    n = 100
    for i in range(n):
        prob = random_problem(rng)
        m = prob.num_patterns
        matrix, rhs = build_system(prob)
        rows, vrf = _b_variants(prob)
        ones = [one] * m
        det_b = det_rf(rows)
        det_b_ones = [det_rf(replace_column(rows, j, ones)) for j in range(m)]
        acc = one_minus * det_b
        for d in det_b_ones:
            acc = acc + d
        assert det_rf(matrix) == acc
        for k in range(m):
            bk = replace_column(rows, k, vrf)
            det_bk = det_rf(bk)
            acc_k = one_minus * det_bk
            for j in range(m):
                acc_k = acc_k + det_rf(replace_column(bk, j, ones))
            assert det_rf(replace_column(matrix, 1 + k, rhs)) == acc_k
        # direct elimination reproduces the determinant-ratio solution
        if i % 10 == 0:
            direct = solve_linear_rf(matrix, rhs)
            sol = solve_race(prob)
            assert direct[0] == sol.q_tau
            assert tuple(direct[1:]) == sol.g_per_pattern
    report(6, f"{n} random instances, Laplace-expansion identities exact")


def test_criterion_7_structural_invariants():
    rng = random.Random(777)
    one_minus = ONE_MINUS_ALPHA
    one = RF.one()
    for _ in range(40):
        prob = random_problem(rng)
        sol = solve_race(prob)
        acc = RF.zero()
        for g in sol.g_per_pattern:
            acc = acc + g
        assert acc == sol.g_total
        assert one_minus * sol.q_tau + sol.g_total == one
        assert sol.g_total(1) == 1
        assert sum(sol.win_probs) == 1
        assert all(p >= 0 for p in sol.win_probs)
        t = series(prob, 25, sol)
        for col in t.columns:
            assert all(c >= 0 for c in col)
        # the DP itself asserts mass conservation at every step
        exact_distribution(build_automaton(prob), 25)
    report(7, "structural invariants hold on 40 random solved instances")


def test_criterion_8_statistical(race3, coin):
    start = time.monotonic()
    reps = 10 ** 5
    mc = monte_carlo(build_automaton(race3), reps, seed=12345)
    assert mc.truncated == 0
    exact = (Fraction(5, 12), Fraction(1, 3), Fraction(1, 4))
    for freq, p in zip(mc.win_freqs, exact):
        sd = (float(p) * (1 - float(p)) / reps) ** 0.5
        assert abs(float(freq) - float(p)) <= 4 * sd

    race = RaceProblem(alphabet=coin, patterns=(coin.pattern("THTH"),),
                       initial=coin.pattern("THH"))
    rep = martingale_check(race, 0, Fraction(9, 10), reps=10 ** 4, seed=99)
    alpha = Fraction(9, 10)
    assert rep.y0 == (1 - alpha ** 3) / (1 - alpha)
    assert abs(rep.empirical_mean - float(rep.y0)) <= 4 * rep.std_error
    assert rep.violations == ()
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"statistical checks took {elapsed:.1f}s"
    report(8, f"Monte Carlo within 4 sigma, martingale bound held, {elapsed:.1f}s")


def test_criterion_9_cli_contract(tmp_path, capsys):
    obj = {
        "alphabet": [{"symbol": "H", "prob": "1/2"},
                     {"symbol": "T", "prob": "1/2"}],
        "patterns": ["THH", "HTH", "HHT"],
    }
    good = tmp_path / "good.json"
    good.write_text(json.dumps(obj))
    assert main(["race", str(good), "--oracle", "--series", "15"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle"]["agree"] is True
    assert tuple(parse_rational_str(p) for p in out["win_probs"]) == \
        (Fraction(5, 12), Fraction(1, 3), Fraction(1, 4))
    sol = solve_race(
        RaceProblem(
            alphabet=make_alphabet([("H", "1/2"), ("T", "1/2")]),
            patterns=tuple(
                make_alphabet([("H", "1/2"), ("T", "1/2")]).pattern(s)
                for s in ("THH", "HTH", "HHT")),
        ))
    assert rf_from_obj(out["q_tau"]) == sol.q_tau
    assert [parse_rational_str(c) for c in out["series"]["totals"]] == \
        list(series_totals(sol, 15))

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{broken")
    assert main(["race", str(corrupt)]) == 3
    capsys.readouterr()

    contained = tmp_path / "contained.json"
    contained.write_text(json.dumps(dict(obj, patterns=["TH", "THH"])))
    assert main(["race", str(contained)]) == 2
    capsys.readouterr()
    report(9, "CLI exit codes and JSON round-trip exact")


def series_totals(sol, n):
    from series_reference import power_series

    per = [power_series(g, n) for g in sol.g_per_pattern]
    return [sum(col[i] for col in per) for i in range(n + 1)]
