import importlib
import random
from fractions import Fraction

import pytest

from patternrace.algebra import ONE_MINUS_ALPHA, LaurentPoly, RationalFunc, ipoly_trim
from patternrace.correlation import correlation_matrix, initial_correlation_vector
from patternrace.model import InvalidRaceError, RaceProblem
from patternrace.serialize import solution_to_obj
from patternrace.solver import (
    DegenerateCollectionError,
    fraction_free_solve,
    power_series,
    series,
    single_Q,
    single_expected,
    single_pgf,
    solve_race,
)

import cramer_reference
from conftest import random_problem
from cramer_reference import (
    build_system,
    cramer_solve,
    det_laurent,
    det_rf,
    fraction_det,
    replace_column,
)

ONE = RationalFunc.one()


def cofactor_det(matrix):
    """Independent determinant route: recursive cofactor expansion."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def solve_linear_rf(matrix, rhs):
    """Direct Gauss-Jordan elimination over the rational-function field."""
    n = len(matrix)
    a = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if not a[r][col].is_zero())
        a[col], a[piv] = a[piv], a[col]
        inv = ONE / a[col][col]
        a[col] = [c * inv for c in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                for c in range(col, n + 1):
                    a[r][c] = a[r][c] - f * a[col][c]
    return [a[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# single pattern

def test_single_pgf_geometric(fair_coin):
    g = single_pgf(None, fair_coin.pattern("H"), fair_coin)
    assert g == RationalFunc((0, 1), (2, -1))  # alpha/(2 - alpha)
    coeffs = power_series(g, 6)
    assert coeffs[0] == 0
    assert coeffs[1:] == [Fraction(1, 2 ** n) for n in range(1, 7)]


def test_single_pgf_initial_ends_with_pattern(fair_coin):
    a = fair_coin.pattern("TTHH")
    b = fair_coin.pattern("THH")
    assert single_pgf(a, b, fair_coin) == ONE
    assert single_Q(a, b, fair_coin) == RationalFunc.zero()
    assert single_expected(a, b, fair_coin) == 0


def test_single_pgf_precondition(fair_coin):
    with pytest.raises(InvalidRaceError):
        single_pgf(fair_coin.pattern("HHT"), fair_coin.pattern("HH"), fair_coin)


def test_single_Q_geometric(fair_coin):
    q = single_Q(None, fair_coin.pattern("H"), fair_coin)
    assert q == RationalFunc((2,), (2, -1))  # 2/(2 - alpha)
    assert q(1) == 2


def test_single_identity_random():
    rng = random.Random(5)
    one_minus = ONE_MINUS_ALPHA.to_rational_func()
    for _ in range(25):
        prob = random_problem(rng)
        b = prob.patterns[0]
        g = single_pgf(prob.initial, b, prob.alphabet)
        q = single_Q(prob.initial, b, prob.alphabet)
        assert one_minus * q + g == ONE
        assert g(1) == 1


def test_single_expected_values(fair_coin):
    assert single_expected(None, fair_coin.pattern("THH"), fair_coin) == 8
    assert single_expected(None, fair_coin.pattern("HTH"), fair_coin) == 10
    assert single_expected(fair_coin.pattern("THH"),
                           fair_coin.pattern("THTH"), fair_coin) == 20


def test_single_pgf_example_pair(fair_coin):
    g = single_pgf(fair_coin.pattern("THH"), fair_coin.pattern("THTH"), fair_coin)
    assert g(1) == 1
    q = single_Q(fair_coin.pattern("THH"), fair_coin.pattern("THTH"), fair_coin)
    assert q(1) == 20


# ---------------------------------------------------------------------------
# determinants

def test_det_rf_identity():
    for n in (1, 2, 3, 4):
        m = [[ONE if i == j else RationalFunc.zero() for j in range(n)]
             for i in range(n)]
        assert det_rf(m) == ONE


def test_det_rf_repeated_column():
    col = [RationalFunc((1, 2)), RationalFunc((3,))]
    m = [[col[0], col[0]], [col[1], col[1]]]
    assert det_rf(m) == RationalFunc.zero()


def test_fraction_det_matrix_at_one(three_way):
    grid = correlation_matrix(three_way).at(1)
    assert fraction_det(grid) == 496
    assert cofactor_det(grid) == 496


def test_det_laurent_matches_det_rf_random():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[LaurentPoly({e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for e in rng.sample(range(-4, 5), rng.randint(0, 3))})
              for _ in range(n)] for _ in range(n)]
        rf_m = [[e.to_rational_func() for e in row] for row in m]
        assert det_laurent(m) == det_rf(rf_m)
        assert det_rf(rf_m) == cofactor_det(rf_m)


# ---------------------------------------------------------------------------
# system and identities

def _b_variants(problem):
    corr = correlation_matrix(problem)
    v = initial_correlation_vector(problem)
    rows = [[e.to_rational_func() for e in row] for row in corr.entries]
    vrf = [lp.to_rational_func() for lp in v]
    return rows, vrf


def _a_matrix(problem):
    matrix, rhs = build_system(problem)
    return matrix, rhs


def test_build_system_shape_and_first_row(three_way):
    matrix, rhs = build_system(three_way)
    assert len(matrix) == 4 and all(len(r) == 4 for r in matrix)
    assert matrix[0][0] == RationalFunc((1, -1))
    assert matrix[0][1:] == [ONE] * 3
    assert all(matrix[i][0] == RationalFunc.const(-1) for i in range(1, 4))
    assert rhs[0] == ONE


def test_system_determinant_at_one(three_way):
    matrix, _ = build_system(three_way)
    det_a = det_rf(matrix)
    assert det_a(1) == 96  # equals the sum of unit-column determinants


def det_identity_case(problem):
    one_minus = ONE_MINUS_ALPHA.to_rational_func()
    matrix, rhs = build_system(problem)
    rows, vrf = _b_variants(problem)
    m = problem.num_patterns
    ones = [ONE] * m
    det_b = det_rf(rows)
    det_b_ones = [det_rf(replace_column(rows, j, ones)) for j in range(m)]
    # Laplace expansion of the full system matrix
    lhs = det_rf(matrix)
    rhs_val = one_minus * det_b
    for d in det_b_ones:
        rhs_val = rhs_val + d
    assert lhs == rhs_val
    # and of each column-replaced variant
    for k in range(m):
        a_k = replace_column(matrix, 1 + k, rhs)
        bk = replace_column(rows, k, vrf)
        det_bk = det_rf(bk)
        acc = one_minus * det_bk
        for j in range(m):
            acc = acc + det_rf(replace_column(bk, j, ones))
        assert det_rf(a_k) == acc
    # the first-column variant
    a_0 = replace_column(matrix, 0, rhs)
    acc = det_b
    for k in range(m):
        acc = acc - det_rf(replace_column(rows, k, vrf))
    assert det_rf(a_0) == acc
    return lhs


def test_determinant_identities_three_way(three_way):
    det_identity_case(three_way)


def test_direct_elimination_equals_cramer():
    rng = random.Random(31)
    for _ in range(15):
        problem = random_problem(rng)
        matrix, rhs = build_system(problem)
        direct = solve_linear_rf(matrix, rhs)
        sol = solve_race(problem)
        assert direct[0] == sol.q_tau
        assert tuple(direct[1:]) == sol.g_per_pattern


def test_unit_column_equals_plain_when_no_initial(three_way):
    # with no initial pattern, replacing the initial-correlation column k
    # by units reproduces the plain unit-column matrix
    rows, vrf = _b_variants(three_way)
    m = three_way.num_patterns
    ones = [ONE] * m
    for k in range(m):
        bk = replace_column(rows, k, vrf)  # zero column
        assert replace_column(bk, k, ones) == replace_column(rows, k, ones)


# ---------------------------------------------------------------------------
# solve_race

def test_solve_race_three_way_no_initial(three_way):
    sol = solve_race(three_way)
    assert sol.win_probs == (Fraction(5, 12), Fraction(1, 3), Fraction(1, 4))
    assert sol.expected_tau == Fraction(31, 6)
    assert sol.win_denominator == 96
    assert sol.g_total(1) == 1


def test_solve_race_three_way_initial_cases(fair_coin, three_way):
    cases = [
        ("H", (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))),
        ("HHH", (0, 0, 1)),        # A^(2)=HH, A^(3) not in the collection
        ("THT", (Fraction(1, 3), Fraction(2, 3), 0)),  # A^(2)=HT
        ("TTH", (Fraction(2, 3), Fraction(1, 3), 0)),  # A^(2)=TH
        ("TTT", (Fraction(2, 3), Fraction(1, 3), 0)),  # A^(2)=TT
        ("T", (Fraction(2, 3), Fraction(1, 3), 0)),
    ]
    for init, expected in cases:
        p = RaceProblem(alphabet=fair_coin, patterns=three_way.patterns,
                        initial=fair_coin.pattern(init))
        sol = solve_race(p)
        assert sol.win_probs == tuple(Fraction(e) for e in expected), init


def test_solve_race_intermediate_sums_hh_case(fair_coin, three_way):
    p = RaceProblem(alphabet=fair_coin, patterns=three_way.patterns,
                    initial=fair_coin.pattern("HHH"))
    sol = solve_race(p)
    assert sol.win_numerators == (0, 0, 96)
    assert sol.win_denominator == 96


def test_solve_race_initial_ending_with_pattern(fair_coin, three_way):
    for k, pat in enumerate(("THH", "HTH", "HHT")):
        p = RaceProblem(alphabet=fair_coin, patterns=three_way.patterns,
                        initial=fair_coin.pattern(pat))
        sol = solve_race(p)
        assert sol.win_probs[k] == 1
        assert sum(sol.win_probs) == 1
        assert sol.expected_tau == 0


def test_solve_race_m1_reduces_to_single(fair_coin):
    rng = random.Random(17)
    for _ in range(10):
        prob = random_problem(rng)
        single = RaceProblem(alphabet=prob.alphabet,
                             patterns=prob.patterns[:1],
                             initial=prob.initial)
        sol = solve_race(single)
        assert sol.g_total == single_pgf(prob.initial, prob.patterns[0],
                                         prob.alphabet)
        assert sol.q_tau == single_Q(prob.initial, prob.patterns[0],
                                     prob.alphabet)


def test_solve_race_permutation_invariance():
    rng = random.Random(23)
    for _ in range(10):
        prob = random_problem(rng)
        m = prob.num_patterns
        perm = list(range(m))
        rng.shuffle(perm)
        permuted = RaceProblem(alphabet=prob.alphabet,
                               patterns=tuple(prob.patterns[i] for i in perm),
                               initial=prob.initial)
        s1 = solve_race(prob)
        s2 = solve_race(permuted)
        assert s2.q_tau == s1.q_tau
        assert s2.g_total == s1.g_total
        assert s2.expected_tau == s1.expected_tau
        assert s2.win_probs == tuple(s1.win_probs[i] for i in perm)
        assert s2.g_per_pattern == tuple(s1.g_per_pattern[i] for i in perm)


def test_solution_invariants_random():
    rng = random.Random(41)
    one_minus = ONE_MINUS_ALPHA.to_rational_func()
    for _ in range(20):
        prob = random_problem(rng)
        sol = solve_race(prob)
        acc = RationalFunc.zero()
        for g in sol.g_per_pattern:
            acc = acc + g
        assert acc == sol.g_total
        assert one_minus * sol.q_tau + sol.g_total == ONE
        assert sol.g_total(1) == 1
        assert sum(sol.win_probs) == 1
        assert all(p >= 0 for p in sol.win_probs)
        assert sol.expected_tau == sol.q_tau(1)


def test_fraction_free_solve_matches_cofactor_random():
    # Sparse random systems: zero pivots force row swaps, and some are
    # singular.
    rng = random.Random(71)
    swapped = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        a = [[ipoly_trim([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
              if rng.random() < 0.6 else [] for _ in range(n + 1)] for _ in range(n)]
        rf = [[RationalFunc(tuple(e)) for e in row] for row in a]
        matrix, rhs = [row[:n] for row in rf], [row[n] for row in rf]
        leading_zero = not a[0][0]
        det, y = fraction_free_solve(a)
        expected = cofactor_det(matrix)
        if expected.is_zero():
            assert (det, y) == ([], None)
            continue
        swapped += leading_zero
        assert RationalFunc(tuple(det)) == expected
        for i in range(n):
            assert RationalFunc(tuple(y[i])) == \
                cofactor_det(replace_column(matrix, i, rhs))
    assert swapped


def _assert_matches_cramer(problem):
    fast = solve_race(problem)
    ref = cramer_solve(problem)
    assert fast == ref
    assert solution_to_obj(problem, fast) == solution_to_obj(problem, ref)


def test_solve_race_equals_cramer_reference():
    rng = random.Random(61)
    for m in range(1, 7):
        for with_initial in (False, True):
            for _ in range(3):
                _assert_matches_cramer(
                    random_problem(rng, with_initial=with_initial, m=m))


def test_solve_race_equals_cramer_initial_ending_with_pattern(fair_coin, three_way):
    for init in ("THH", "HTH", "HHT", "TTHH", "TTHTH"):
        _assert_matches_cramer(RaceProblem(alphabet=fair_coin,
                                           patterns=three_way.patterns,
                                           initial=fair_coin.pattern(init)))


def test_degenerate_collection_raises_on_both_paths(fair_coin, monkeypatch):
    # A repeated pattern makes two rows of the system equal.  Validation
    # rejects it, so it is bypassed to reach the solvers' own guard.
    for mod in (importlib.import_module("patternrace.solver"),
                importlib.import_module("patternrace.correlation"),
                cramer_reference):
        monkeypatch.setattr(mod, "require_valid", lambda problem: None)
    hh = fair_coin.pattern("HH")
    for initial in (None, fair_coin.pattern("TH")):
        prob = RaceProblem(alphabet=fair_coin, patterns=(hh, hh), initial=initial)
        for solve in (solve_race, cramer_solve):
            with pytest.raises(DegenerateCollectionError):
                solve(prob)


# ---------------------------------------------------------------------------
# series

def test_series_geometric(fair_coin):
    prob = RaceProblem(alphabet=fair_coin, patterns=(fair_coin.pattern("H"),))
    t = series(prob, 5)
    assert t.totals[0] == 0
    assert [t.totals[n] for n in range(1, 6)] == \
        [Fraction(1, 2 ** n) for n in range(1, 6)]
    assert t.tail_mass == Fraction(1, 32)


def test_series_initial_ends_with_pattern(fair_coin, three_way):
    p = RaceProblem(alphabet=fair_coin, patterns=three_way.patterns,
                    initial=fair_coin.pattern("HTH"))
    t = series(p, 4)
    assert t.per_pattern[1][0] == 1
    assert all(t.totals[n] == 0 for n in range(1, 5))
    assert t.tail_mass == 0


def test_series_nonnegative_random():
    rng = random.Random(57)
    for _ in range(15):
        prob = random_problem(rng)
        t = series(prob, 25)
        for col in t.per_pattern:
            assert all(c >= 0 for c in col)
        assert t.tail_mass >= 0
        assert all(t.totals[n] == sum(col[n] for col in t.per_pattern)
                   for n in range(26))
