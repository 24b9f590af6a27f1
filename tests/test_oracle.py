import dataclasses
import importlib
import inspect
import os
import random
import struct
import threading
from fractions import Fraction

import pytest

from patternrace.correlation import correlation, evaluate
from patternrace.model import Pattern, RaceProblem, make_alphabet, pattern_prob
from patternrace.oracle import (
    Disagreement,
    OracleError,
    PrefixAutomaton,
    build_automaton,
    certify,
    exact_distribution,
    martingale_check,
    monte_carlo,
)
from patternrace.solver import SeriesTable, series, solve_race

import absorbing_reference
import martingale_reference
import monte_carlo_reference
from series_reference import per_pattern, tail_mass, totals
from patternrace import oracle as oracle_mod
from patternrace import solver as solver_mod

from conftest import corrupt_solution, random_problem


def one_pattern(alphabet, b, a=None):
    """The race of pattern b alone, from initial word a if given."""
    return RaceProblem(alphabet=alphabet, patterns=(alphabet.pattern(b),),
                       initial=None if a is None else alphabet.pattern(a))


# ---------------------------------------------------------------------------
# automaton

def test_automaton_single_letter(fair_coin):
    prob = RaceProblem(alphabet=fair_coin, patterns=(fair_coin.pattern("H"),))
    auto = build_automaton(prob)
    assert auto.states == ((),)
    eps = 0
    assert auto.transitions[eps][fair_coin.index("H")] == -1
    assert auto.transitions[eps][fair_coin.index("T")] == eps
    assert auto.start == eps


def test_automaton_three_way_states(three_way, fair_coin):
    auto = build_automaton(three_way)
    expected = {(), (fair_coin.index("T"),), (fair_coin.index("H"),),
                tuple(fair_coin.pattern("TH").letters),
                tuple(fair_coin.pattern("HT").letters),
                tuple(fair_coin.pattern("HH").letters)}
    assert set(auto.states) == expected
    assert all(len(row) == fair_coin.size for row in auto.transitions)


def test_automaton_start_after_initial(fair_coin):
    prob = RaceProblem(alphabet=fair_coin,
                       patterns=(fair_coin.pattern("THTH"),),
                       initial=fair_coin.pattern("THH"))
    auto = build_automaton(prob)
    # no suffix of THH is a prefix of THTH, so the start state is empty
    assert auto.states[auto.start] == ()


def test_automaton_absorbing_start(fair_coin, three_way):
    prob = RaceProblem(alphabet=fair_coin, patterns=three_way.patterns,
                       initial=fair_coin.pattern("HHT"))
    auto = build_automaton(prob)
    assert auto.start == -3  # pattern index 2 completed at the last letter


@pytest.mark.parametrize("with_initial", [False, True])
def test_automaton_equals_brute_force_random(with_initial):
    # Each code is computed from the word itself: the pattern it ends
    # with, else the state that is its longest suffix.  Validation is what
    # keeps a word from ending two patterns, and the initial word from
    # ending one before its last letter.
    def ends(word, p):
        return len(word) >= len(p) and word[len(word) - len(p):] == p

    rng = random.Random(611 + with_initial)
    absorbed = 0
    for _ in range(60):
        prob = random_problem(rng, with_initial=with_initial)
        pats = [p.letters for p in prob.patterns]
        auto = build_automaton(prob)
        assert auto.states[0] == ()
        assert set(auto.states) == {p[:i] for p in pats for i in range(len(p))}

        def code(word):
            ended = [k for k, p in enumerate(pats) if ends(word, p)]
            assert len(ended) <= 1, (word, ended)
            if ended:
                return -(ended[0] + 1)
            return auto.states.index(max((s for s in auto.states if ends(word, s)), key=len))

        for state, row in zip(auto.states, auto.transitions):
            assert row == tuple(code(state + (a,)) for a in range(prob.alphabet.size))
        word = () if prob.initial is None else prob.initial.letters
        assert all(code(word[:i]) >= 0 for i in range(len(word)))
        assert auto.start == code(word)
        absorbed += auto.start < 0
    if with_initial:
        assert absorbed  # the fold also ends on a completed pattern


# ---------------------------------------------------------------------------
# exact DP

def test_distribution_geometric(fair_coin):
    prob = RaceProblem(alphabet=fair_coin, patterns=(fair_coin.pattern("H"),))
    t = exact_distribution(build_automaton(prob), 8)
    assert totals(t)[0] == 0
    assert [totals(t)[n] for n in range(1, 9)] == \
        [Fraction(1, 2 ** n) for n in range(1, 9)]


def test_distribution_absorbing_start(fair_coin, three_way):
    prob = RaceProblem(alphabet=fair_coin, patterns=three_way.patterns,
                       initial=fair_coin.pattern("THH"))
    t = exact_distribution(build_automaton(prob), 3)
    assert per_pattern(t)[0][0] == 1
    assert tail_mass(t) == 0


def test_distribution_three_way_limits(three_way):
    t = exact_distribution(build_automaton(three_way), 80)
    absorbed = [sum(col) for col in per_pattern(t)]
    exact = (Fraction(5, 12), Fraction(1, 3), Fraction(1, 4))
    for got, want in zip(absorbed, exact):
        assert abs(got - want) <= tail_mass(t)


def test_distribution_tail_checked_against_live_mass(three_way, monkeypatch):
    # The printed tail and the DP's check share SeriesTable's derivation
    # of the tail from the absorbed columns, so the DP checks it against
    # the live mass it tracked itself.
    tail = SeriesTable.scaled_tail

    def wrong_tail(t):
        return tail(t) + 1

    exact_distribution(build_automaton(three_way), 5)
    monkeypatch.setattr(SeriesTable, "scaled_tail", wrong_tail)
    with pytest.raises(OracleError, match="tail"):
        exact_distribution(build_automaton(three_way), 5)


# ---------------------------------------------------------------------------
# absorbing chain and certificate vs closed form

def test_absorbing_three_way(three_way):
    wins, expected = absorbing_reference.absorbing_solve(build_automaton(three_way))
    assert wins == (Fraction(5, 12), Fraction(1, 3), Fraction(1, 4))
    assert expected == Fraction(31, 6)


def test_absorbing_single_patterns(fair_coin):
    prob = RaceProblem(alphabet=fair_coin, patterns=(fair_coin.pattern("HTH"),))
    wins, expected = absorbing_reference.absorbing_solve(build_automaton(prob))
    assert wins == (1,) and expected == 10
    prob = RaceProblem(alphabet=fair_coin,
                       patterns=(fair_coin.pattern("THTH"),),
                       initial=fair_coin.pattern("THH"))
    assert absorbing_reference.absorbing_solve(build_automaton(prob))[1] == 20


def _assert_certified(prob):
    """certify agrees, and the values it certified at alpha = 1, the
    printed ones, equal the Fraction reference's."""
    auto = build_automaton(prob)
    sol = solve_race(prob)
    assert certify(auto, sol, series(prob, 12, sol)) == (None, None)
    assert (sol.win_probs, sol.expected_tau) == absorbing_reference.absorbing_solve(auto)
    assert (tuple(g(1) for g in sol.g_per_pattern), sol.q_tau(1)) == \
        (sol.win_probs, sol.expected_tau)


@pytest.mark.parametrize("with_initial", [False, True])
@pytest.mark.parametrize("m", range(1, 7))
def test_certify_agrees_with_reference(m, with_initial):
    rng = random.Random(f"certify:{m}:{with_initial}")
    for _ in range(5):
        _assert_certified(random_problem(rng, with_initial=with_initial, m=m))


@pytest.mark.parametrize("initial", ["THH", "HTH", "HHT", "TTHTH"])
def test_certify_absorbed_start(fair_coin, three_way, initial):
    prob = RaceProblem(alphabet=fair_coin, patterns=three_way.patterns,
                       initial=fair_coin.pattern(initial))
    assert build_automaton(prob).start < 0
    _assert_certified(prob)


def test_certify_calls_no_solver_or_correlation_code(three_way, monkeypatch):
    prob = RaceProblem(alphabet=three_way.alphabet, patterns=three_way.patterns,
                       initial=three_way.alphabet.pattern("TH"))
    sol = solve_race(prob)
    table = series(prob, 12, sol)

    def forbidden(*args, **kwargs):
        raise AssertionError("certify reached solver or correlation code")

    # The package re-exports the function correlation under the module's
    # name, so the module is looked up by its full name.
    for module in (importlib.import_module("patternrace.correlation"), solver_mod):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__:
                monkeypatch.setattr(module, name, forbidden)
                if getattr(oracle_mod, name, None) is fn:
                    monkeypatch.setattr(oracle_mod, name, forbidden)
    assert certify(build_automaton(prob), sol, table) == (None, None)


@pytest.mark.parametrize("which, name", [
    ("q_tau", "q_tau"), ("g_total", "g_total"), ("g_1", "g_1 (THH)")])
def test_certify_names_a_corrupted_function(three_way, which, name):
    bad, index = corrupt_solution(solve_race(three_way), which)
    why, _ = certify(build_automaton(three_way), bad)
    assert (why.quantity, why.index) == (name, index)
    assert why.closed_form != why.oracle


def test_certify_names_a_wrong_printed_value(three_way):
    sol = solve_race(three_way)
    auto = build_automaton(three_way)
    bad = dataclasses.replace(sol, win_probs=(Fraction(1, 2),) + sol.win_probs[1:])
    why, _ = certify(auto, bad)
    assert (why.quantity, why.index, why.closed_form, why.oracle) == \
        ("win probability of THH", None, Fraction(1, 2), Fraction(5, 12))
    bad = dataclasses.replace(sol, expected_tau=Fraction(5))
    why, _ = certify(auto, bad)
    assert (why.quantity, why.oracle) == ("expected_tau", Fraction(31, 6))


def test_certify_names_a_corrupted_series_entry(three_way):
    # Every function is certified, so only the table comparison sees it.
    sol = solve_race(three_way)
    auto = build_automaton(three_way)
    assert certify(auto, sol) == (None, None)
    table = series(three_way, 8, sol)
    col = table.columns[0]
    bad = dataclasses.replace(table, columns=(col[:5] + (col[5] + 1,) + col[6:],)
                              + table.columns[1:])
    # P(tau = 5, THH wins) = 1/16 in the three-way coin race
    assert certify(auto, sol, bad) == (
        None, Disagreement("series per_pattern[0] (THH)", 5, Fraction(3, 32), Fraction(1, 16)))


def test_absorbing_solve_singular_chain(three_way):
    # A live state that every letter maps back to itself is never left.
    auto = PrefixAutomaton(problem=three_way, states=((),), transitions=((0, 0),),
                           start=0)
    with pytest.raises(OracleError):
        absorbing_reference.absorbing_solve(auto)


def test_solver_oracle_equivalence_random():
    rng = random.Random(101)
    for _ in range(40):
        prob = random_problem(rng)
        sol = solve_race(prob)
        wins, expected = absorbing_reference.absorbing_solve(build_automaton(prob))
        assert wins == sol.win_probs
        assert expected == sol.expected_tau
        t = series(prob, 30, sol)
        assert t == exact_distribution(build_automaton(prob), 30)


# ---------------------------------------------------------------------------
# Monte Carlo

def test_monte_carlo_rejects_zero_reps(three_way):
    with pytest.raises(ValueError):
        monte_carlo(build_automaton(three_way), 0)


@pytest.mark.parametrize("max_steps", [0, -5])
def test_simulators_reject_max_steps_below_one(three_way, fair_coin, max_steps):
    with pytest.raises(ValueError):
        monte_carlo(build_automaton(three_way), 10, max_steps=max_steps)
    with pytest.raises(ValueError):
        martingale_check(one_pattern(fair_coin, "THH"), 0, Fraction(1, 2), 10,
                         max_steps=max_steps)


def test_monte_carlo_determinism(three_way):
    r1 = monte_carlo(build_automaton(three_way), 2000, seed=42)
    r2 = monte_carlo(build_automaton(three_way), 2000, seed=42)
    assert r1 == r2
    r3 = monte_carlo(build_automaton(three_way), 2000, seed=43)
    assert r3 != r1


def test_monte_carlo_frequencies_sum(three_way):
    r = monte_carlo(build_automaton(three_way), 5000, seed=1)
    assert sum(r.win_freqs) == 1 - Fraction(r.truncated, r.reps)
    assert sum(r.histogram.values()) == r.completed


def test_monte_carlo_golden_samples(three_way):
    # Recorded from the seeded walk; any change to letter sampling or
    # per-replicate seeding shows here.
    r = monte_carlo(build_automaton(three_way), 2000, seed=42)
    assert r.win_counts == (799, 695, 506)
    assert r.histogram == {3: 755, 4: 375, 5: 252, 6: 172, 7: 112, 8: 105, 9: 63,
                           10: 49, 11: 32, 12: 23, 13: 21, 14: 12, 15: 5, 16: 14,
                           17: 3, 18: 2, 21: 2, 22: 1, 23: 1, 25: 1}
    abc = make_alphabet([("a", "1/7"), ("b", "2/7"), ("c", "4/7")])
    prob = RaceProblem(alphabet=abc,
                       patterns=tuple(abc.pattern(s) for s in ("ab", "cc", "bca")),
                       initial=abc.pattern("b"))
    r = monte_carlo(build_automaton(prob), 500, seed=5, max_steps=6)
    assert (r.win_counts, r.truncated) == ((41, 333, 75), 51)
    assert r.histogram == {2: 240, 3: 86, 4: 70, 5: 35, 6: 18}


def test_monte_carlo_matches_exact(three_way):
    reps = 20000
    r = monte_carlo(build_automaton(three_way), reps, seed=7)
    exact = (Fraction(5, 12), Fraction(1, 3), Fraction(1, 4))
    for freq, p in zip(r.win_freqs, exact):
        sd = (float(p) * (1 - float(p)) / reps) ** 0.5
        assert abs(float(freq) - float(p)) <= 4 * sd


@pytest.mark.parametrize("seed", [0, 42, -1, 10 ** 20])
def test_replicate_draws_equal_string_seeded_random(seed):
    # 700 draws run past the Mersenne Twister's first 624-word twist.
    indices = [0, 1, 999, 10 ** 7]
    for i, draw in zip(indices, oracle_mod._replicate_draws(seed, indices)):
        expected = random.Random(f"{seed}:{i}")
        assert [draw() for _ in range(700)] == [expected.random() for _ in range(700)]


@pytest.mark.parametrize("max_steps", [1, 2, 3, 4, 5, 6, None])
def test_monte_carlo_equals_reference_random(max_steps):
    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    rng = random.Random(f"monte-carlo:{max_steps}")
    for case in range(6):
        auto = build_automaton(random_problem(rng))
        seed = rng.choice([case, -case - 1, 10 ** 20])
        assert (monte_carlo(auto, 60, seed, **kwargs)
                == monte_carlo_reference.monte_carlo(auto, 60, seed, **kwargs))


def test_monte_carlo_equals_reference_absorbed_start(fair_coin):
    rng = random.Random(31)
    autos = [build_automaton(one_pattern(fair_coin, "HH", "THH"))]
    while len(autos) < 5:
        auto = build_automaton(random_problem(rng, with_initial=True))
        if auto.start < 0:
            autos.append(auto)
    for seed, auto in enumerate(autos):
        for max_steps in (1, 6):
            r = monte_carlo(auto, 30, seed, max_steps=max_steps)
            assert r == monte_carlo_reference.monte_carlo(auto, 30, seed, max_steps=max_steps)
            assert r.win_counts[-auto.start - 1] == 30 == r.completed
            assert r.histogram == {0: 30} and r.mean_tau == 0


# Three parts of uneven sizes: 2000, 2000 and 2001 replicates.
SPLIT_REPS = 3 * oracle_mod.MIN_PART_REPS + 1


def test_monte_carlo_in_parts_equals_reference(three_way, monkeypatch):
    auto = build_automaton(three_way)
    for seed in (0, -1, 10 ** 20):
        for kwargs in ({"max_steps": 3}, {}):
            expected = monte_carlo_reference.monte_carlo(auto, SPLIT_REPS, seed, **kwargs)
            for parts in (1, 2, 3):
                monkeypatch.setattr(oracle_mod, "_cpus", lambda: parts)
                assert len(oracle_mod._part_bounds(SPLIT_REPS)) == parts + 1
                assert monte_carlo(auto, SPLIT_REPS, seed, **kwargs) == expected


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fault", [None, "child dies", "fork fails"])
def test_monte_carlo_in_parts_reaps_every_child(three_way, monkeypatch, fault):
    auto = build_automaton(three_way)
    expected = monte_carlo_reference.monte_carlo(auto, SPLIT_REPS, 5)
    monkeypatch.setattr(oracle_mod, "_cpus", lambda: 3)
    parent, walk = os.getpid(), oracle_mod._walk

    def dying_walk(*args):
        if os.getpid() != parent:
            os._exit(1)
        return walk(*args)

    def failing_fork():
        raise OSError("no fork")

    if fault == "child dies":
        monkeypatch.setattr(oracle_mod, "_walk", dying_walk)
    elif fault == "fork fails":
        monkeypatch.setattr(os, "fork", failing_fork)
    assert monte_carlo(auto, SPLIT_REPS, 5) == expected
    assert_no_child_left()


def test_monte_carlo_in_parts_kills_children_when_its_own_walk_raises(three_way, monkeypatch):
    monkeypatch.setattr(oracle_mod, "_cpus", lambda: 3)
    parent, walk = os.getpid(), oracle_mod._walk

    def walk_raising_here(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return walk(*args)

    monkeypatch.setattr(oracle_mod, "_walk", walk_raising_here)
    with pytest.raises(KeyboardInterrupt):
        monte_carlo(build_automaton(three_way), SPLIT_REPS, 5)
    assert_no_child_left()


def test_monte_carlo_does_not_fork_with_another_thread_live(three_way, monkeypatch):
    auto = build_automaton(three_way)
    expected = monte_carlo_reference.monte_carlo(auto, SPLIT_REPS, 5)
    monkeypatch.setattr(oracle_mod, "_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with a second thread live"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert oracle_mod._part_bounds(SPLIT_REPS) == [0, SPLIT_REPS]
        assert monte_carlo(auto, SPLIT_REPS, 5) == expected
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_alone_equals_the_validated_one_pattern_race():
    rng = random.Random(8)
    for _ in range(10):
        prob = random_problem(rng)
        for k, b in enumerate(prob.patterns):
            assert prob.alone(k) == RaceProblem(alphabet=prob.alphabet, patterns=(b,),
                                                initial=prob.initial)


# ---------------------------------------------------------------------------
# martingale

def test_martingale_alpha_range(fair_coin):
    race = one_pattern(fair_coin, "H")
    with pytest.raises(ValueError):
        martingale_check(race, 0, Fraction(1), 10)
    with pytest.raises(ValueError):
        martingale_check(race, 0, Fraction(0), 10)


@pytest.mark.parametrize("pattern_index", [-1, 2])
def test_martingale_pattern_index_range(fair_coin, pattern_index):
    race = RaceProblem(alphabet=fair_coin,
                       patterns=(fair_coin.pattern("THH"), fair_coin.pattern("HTH")))
    with pytest.raises(ValueError, match="pattern_index"):
        martingale_check(race, pattern_index, Fraction(1, 2), 10)


def test_martingale_trivial_head(fair_coin):
    rep = martingale_check(one_pattern(fair_coin, "H"), 0, Fraction(1, 2), reps=2000, seed=3)
    assert rep.y0 == 0
    assert not rep.violations
    assert abs(rep.z_score) <= 4


def test_martingale_example_pair(fair_coin):
    alpha = Fraction(9, 10)
    rep = martingale_check(one_pattern(fair_coin, "THTH", "THH"), 0, alpha, reps=3000, seed=11)
    # (A*B) is identically zero for this pair
    assert rep.y0 == (1 - alpha ** 3) / (1 - alpha)
    assert not rep.violations
    assert rep.truncated == 0
    assert abs(rep.z_score) <= 4


def test_martingale_golden_sample(fair_coin):
    rep = martingale_check(one_pattern(fair_coin, "THTH", "THH"), 0, Fraction(9, 10),
                           reps=300, seed=11)
    assert rep.empirical_mean == 2.904729184592612
    assert rep.violations == ()


def gambler_by_gambler_net_gain(letters, b, alphabet, alpha):
    """Track every gambler's balance explicitly; returns the casino's
    net gain after each round.  Slow; only for short paths."""
    gains = []
    payments = Fraction(0)
    # gambler j (1-based) holds progress t: has matched the first t letters
    progress = {}
    for n, letter in enumerate(letters, start=1):
        payments += alpha ** (n - 1)
        progress[n] = 0
        nxt = {}
        for j, t in progress.items():
            if b.letters[t] == letter:
                nxt[j] = t + 1
        progress = {j: t for j, t in nxt.items() if t < len(b)}
        capital = Fraction(0)
        for j, t in nxt.items():
            stake = Fraction(alpha ** (j - 1))
            capital += stake / pattern_prob(Pattern(b.letters[:t]), alphabet)
        gains.append(payments - capital)
    return gains


def test_martingale_closed_form_matches_tracker(fair_coin):
    b = fair_coin.pattern("THTH")
    alpha = Fraction(2, 3)
    # a path that never completes the pattern
    letters = [fair_coin.index(c) for c in "THTTHTHH"[:-2] + "T"]
    tracked = gambler_by_gambler_net_gain(letters, b, fair_coin, alpha)
    # closed form: running history correlation prices the live gamblers
    for n in range(1, len(letters) + 1):
        hist = Pattern(tuple(letters[:n]))
        w = evaluate(correlation(hist, b, fair_coin), alpha)
        closed = (1 - alpha ** n) / (1 - alpha) - alpha ** n * w
        assert closed == tracked[n - 1]


def test_martingale_random_instances():
    rng = random.Random(77)
    checked = 0
    while checked < 5:
        prob = random_problem(rng)
        rep = martingale_check(prob, 0, Fraction(3, 5), reps=800, seed=checked)
        assert not rep.violations
        # rare patterns make the stopped value too skewed for a CLT check
        # at this sample size; assert the mean only for benign instances
        if rep.truncated == 0 and rep.bound <= 100:
            assert abs(rep.z_score) <= 5
        checked += 1


# ---------------------------------------------------------------------------
# martingale_check against the per-step exact reference

def _report_bits(rep):
    """Every field of a MartingaleReport, floats as their IEEE bytes, so
    that NaN equals NaN and 0.0 differs from -0.0."""
    return [struct.pack("<d", v) if isinstance(v, float) else v
            for v in dataclasses.astuple(rep)]


def _both(problem, k, alpha, reps, seed, max_steps=None):
    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    fast = martingale_check(problem, k, alpha, reps, seed=seed, **kwargs)
    ref = martingale_reference.martingale_check(problem, k, alpha, reps,
                                                seed=seed, **kwargs)
    assert _report_bits(fast) == _report_bits(ref)
    return ref


def _patch_pattern_prob(monkeypatch, value):
    for module in (oracle_mod, martingale_reference):
        monkeypatch.setattr(module, "pattern_prob", lambda b, alphabet: value)


@pytest.mark.parametrize("with_initial", [False, True])
def test_martingale_equals_reference_random(with_initial):
    rng = random.Random(505 + with_initial)
    for case in range(6):
        prob = random_problem(rng, with_initial=with_initial, m=1)
        alpha = rng.choice([Fraction(1, 3), Fraction(3, 5), Fraction(9, 10)])
        _both(prob, 0, alpha, reps=40, seed=case, max_steps=400)


@pytest.mark.parametrize("max_steps", [1, 3, 5])
def test_martingale_equals_reference_truncated(fair_coin, max_steps):
    ref = _both(one_pattern(fair_coin, "THTH", "TT"), 0, Fraction(2, 3), reps=60, seed=9,
                max_steps=max_steps)
    assert ref.truncated > 0


@pytest.mark.parametrize("prob", [None, Fraction(10 ** 6)])
def test_martingale_equals_reference_absorbed_start(fair_coin, monkeypatch, prob):
    if prob is not None:
        _patch_pattern_prob(monkeypatch, prob)
    ref = _both(one_pattern(fair_coin, "HH", "THH"), 0, Fraction(1, 2), reps=7, seed=1)
    assert len(ref.violations) == (0 if prob is None else 1 + 7)


def test_martingale_equals_reference_late_lower_threshold(fair_coin, monkeypatch):
    # With P(b) = 1 the bound is exactly 1 / (1 - alpha), so no net gain
    # exceeds it from above; a heavy live weight still drives it below
    # -bound after more than one letter.
    _patch_pattern_prob(monkeypatch, Fraction(1))
    ref = _both(one_pattern(fair_coin, "HHHH"), 0, Fraction(1, 2), reps=80, seed=2)
    assert any(step > 1 for _, step in ref.violations)


def test_last_exponent_matches_stepping():
    # Exact powers and their neighbours are where a float estimate of
    # log(r) / log(alpha) lands on the wrong side of an integer.
    def stepping(alpha, r):
        e = -1
        while alpha ** (e + 1) > r:
            e += 1
        return e

    for alpha in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(9, 10),
                  Fraction(1, 10 ** 9), Fraction(10 ** 9 - 1, 10 ** 9)):
        for e in (0, 1, 2, 5, 17, 40):
            for r in (alpha ** e, alpha ** e * Fraction(10 ** 12 + 1, 10 ** 12),
                      alpha ** e * Fraction(10 ** 12 - 1, 10 ** 12), Fraction(3, 2)):
                assert oracle_mod._last_exponent(alpha, r) == stepping(alpha, r), (alpha, r)
