import copy
import itertools
import random
from fractions import Fraction

import pytest

from patternrace.algebra import (
    RationalFunc,
    _exact_quotient,
    fraction_free_solve,
    ipoly_trim,
)
from patternrace.model import (
    InvalidRaceError,
    RaceProblem,
    is_subpattern,
    make_alphabet,
)
from patternrace.oracle import build_automaton, exact_distribution
from patternrace.serialize import solution_to_obj
from patternrace.solver import (
    InexactSeriesError,
    power_series,
    series,
    solve_race,
)

import series_reference
from series_reference import per_pattern, tail_mass, totals
from conftest import random_problem
from cramer_reference import (
    bareiss_det,
    build_system,
    correlation_matrix,
    cramer_solve,
    det_laurent,
    det_rf,
    fraction_det,
    initial_correlation_vector,
    replace_column,
)
from rf_field import RF, ipoly_mul, ipoly_sub
from single_reference import ONE_MINUS_ALPHA, laurent_rf, single_Q, single_expected, single_pgf

ONE = RF.one()


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
    coeffs = [Fraction(c, 2 ** i) for i, c in enumerate(power_series(g, 6, 2))]
    assert coeffs[0] == 0
    assert coeffs[1:] == [Fraction(1, 2 ** n) for n in range(1, 7)]


def test_single_pgf_initial_ends_with_pattern(fair_coin):
    a = fair_coin.pattern("TTHH")
    b = fair_coin.pattern("THH")
    assert single_pgf(a, b, fair_coin) == ONE
    assert single_Q(a, b, fair_coin) == RF.zero()
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
    one_minus = ONE_MINUS_ALPHA
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
        m = [[ONE if i == j else RF.zero() for j in range(n)]
             for i in range(n)]
        assert det_rf(m) == ONE


def test_det_rf_repeated_column():
    col = [RF((1, 2)), RF((3,))]
    m = [[col[0], col[0]], [col[1], col[1]]]
    assert det_rf(m) == RF.zero()


def test_fraction_det_matrix_at_one(three_way):
    grid = correlation_matrix(three_way).at(1)
    assert fraction_det(grid) == 496
    assert cofactor_det(grid) == 496


def test_det_laurent_matches_det_rf_random():
    rng = random.Random(21)

    def random_terms():
        terms = {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for e in rng.sample(range(-4, 5), rng.randint(0, 3))}
        # A term map holds no zero coefficients: det_laurent reads the
        # largest exponent as the leading term.
        return {e: c for e, c in terms.items() if c}

    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[random_terms() for _ in range(n)] for _ in range(n)]
        rf_m = [[laurent_rf(e) for e in row] for row in m]
        assert det_laurent(m) == det_rf(rf_m)
        assert det_rf(rf_m) == cofactor_det(rf_m)


# ---------------------------------------------------------------------------
# system and identities

def _b_variants(problem):
    corr = correlation_matrix(problem)
    v = initial_correlation_vector(problem)
    rows = [[laurent_rf(e) for e in row] for row in corr.entries]
    vrf = [laurent_rf(terms) for terms in v]
    return rows, vrf


def _a_matrix(problem):
    matrix, rhs = build_system(problem)
    return matrix, rhs


def test_build_system_shape_and_first_row(three_way):
    matrix, rhs = build_system(three_way)
    assert len(matrix) == 4 and all(len(r) == 4 for r in matrix)
    assert matrix[0][0] == RationalFunc((1, -1))
    assert matrix[0][1:] == [ONE] * 3
    assert all(matrix[i][0] == RF.const(-1) for i in range(1, 4))
    assert rhs[0] == ONE


def test_system_determinant_at_one(three_way):
    matrix, _ = build_system(three_way)
    det_a = det_rf(matrix)
    assert det_a(1) == 96  # equals the sum of unit-column determinants


def det_identity_case(problem):
    one_minus = ONE_MINUS_ALPHA
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
    one_minus = ONE_MINUS_ALPHA
    for _ in range(20):
        prob = random_problem(rng)
        sol = solve_race(prob)
        acc = RF.zero()
        for g in sol.g_per_pattern:
            acc = acc + g
        assert acc == sol.g_total
        # g_total shares q_tau = N/D's denominator: (D - (1 - alpha) N)/D
        n, d = sol.q_tau.inum, sol.q_tau.iden
        assert (sol.g_total.inum, sol.g_total.iden) == \
            (tuple(ipoly_sub(d, ipoly_mul([1, -1], n))), d)
        assert one_minus * sol.q_tau + sol.g_total == ONE
        assert sol.g_total(1) == 1
        assert sum(sol.win_probs) == 1
        assert all(p >= 0 for p in sol.win_probs)
        assert sol.expected_tau == sol.q_tau(1)


def _nonzero_terms(p):
    return [(e, c) for e, c in enumerate(p) if c]


def _check_fraction_free_solve(a, n, det_of):
    """Runs fraction_free_solve on the n x (n + r) system a, of dense
    int lists, given as nonzero terms.  The elimination does not pivot:
    if det_of, a reference determinant as a RationalFunc, is zero on a
    leading principal minor, the solve must raise ZeroDivisionError;
    otherwise det and every Cramer numerator must equal det_of of A and
    of A with a column replaced.  Either way the input must be left
    unchanged.  Returns whether the system was solved."""
    terms = [[_nonzero_terms(p) for p in row] for row in a]
    before = copy.deepcopy(terms)
    matrix = [row[:n] for row in a]
    if any(not det_of([row[:k] for row in matrix[:k]]).inum for k in range(1, n + 1)):
        with pytest.raises(ZeroDivisionError):
            fraction_free_solve(terms)
        assert terms == before
        return False
    det, ys = fraction_free_solve(terms)
    assert terms == before
    assert RationalFunc(tuple(det)) == det_of(matrix)
    assert len(ys) == len(a[0]) - n
    for c, y in enumerate(ys):
        rhs = [row[n + c] for row in a]
        for i in range(n):
            assert not y[i] or y[i][-1], "untrimmed"
            assert RationalFunc(tuple(y[i])) == det_of(replace_column(matrix, i, rhs))
    return True


def _sparse_poly(rng):
    """0-3 monomials with exponents up to 40 and coefficients up to 10**6
    in size."""
    p = [0] * 41
    for _ in range(rng.randint(0, 3)):
        p[rng.randint(0, 40)] = rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)
    return ipoly_trim(p)


def test_fraction_free_solve_matches_cofactor_random():
    # Random systems with r = 1, 2 and 3 right-hand columns: entries of
    # degree <= 2 checked against cofactor expansion over RF, and sparse
    # high-degree entries, as in a race system, against the dense
    # reference elimination.  Both kinds have systems with a zero
    # leading principal minor.
    def cofactor(m):
        return cofactor_det([[RF(tuple(e)) for e in row] for row in m])

    def dense(m):
        return RationalFunc(tuple(bareiss_det(m)))

    for r in (1, 2, 3):
        rng = random.Random(70 + r)
        small = [_check_fraction_free_solve(
                     [[ipoly_trim([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                       if rng.random() < 0.6 else [] for _ in range(n + r)]
                      for _ in range(n)], n, cofactor)
                 for n in (rng.randint(1, 4) for _ in range(80))]
        sparse = [_check_fraction_free_solve(
                      [[_sparse_poly(rng) for _ in range(n + r)] for _ in range(n)],
                      n, dense)
                  for n in (rng.randint(1, 5) for _ in range(30))]
        for outcomes in (small, sparse):
            assert any(outcomes) and not all(outcomes), r


def test_exact_quotient_of_the_kernel():
    # (3 + 2a^5)(a^2 - 7a^40) by a^2 - 7a^40, as the dense buffer the
    # elimination accumulates and the divisor's nonzero terms.
    divisor = [(2, 1), (40, -7)]
    buf = [0] * 46
    for e, c in ((2, 3), (7, 2), (40, -21), (45, -14)):
        buf[e] = c
    assert _exact_quotient(list(buf), divisor) == [(0, 3), (5, 2)]
    assert _exact_quotient([], divisor) == []
    with pytest.raises(ArithmeticError):
        _exact_quotient(buf[:-1] + [-13], divisor)  # leading term not divisible
    with pytest.raises(ArithmeticError):
        _exact_quotient([1] + buf[1:], divisor)  # nonzero remainder
    with pytest.raises(ArithmeticError):
        _exact_quotient([5], [(1, 1)])  # dividend of lower degree
    with pytest.raises(ZeroDivisionError):
        _exact_quotient(list(buf), [])
    with pytest.raises(ZeroDivisionError):
        _exact_quotient([], [])


def _assert_matches_cramer(problem):
    fast = solve_race(problem)
    ref = cramer_solve(problem)
    assert fast == ref
    assert solution_to_obj(problem, fast) == solution_to_obj(problem, ref)


def _leading_minors_at_one(problem):
    """Leading principal minors of A(1) of sizes 2..m+1, in Fractions from
    the reference correlation grid.  Row 0 of A(1) is (0, 1, ..., 1) and
    row i is (-1, B_i1(1), ..., B_im(1))."""
    grid = correlation_matrix(problem).at(1)
    m = len(grid)
    a1 = [[Fraction(0)] + [Fraction(1)] * m] + [[Fraction(-1)] + row for row in grid]
    return [fraction_det([row[:k] for row in a1[:k]]) for k in range(2, m + 2)]


def test_race_system_leading_minors_nonzero():
    # fraction_free_solve does not pivot, so solve_race needs every
    # leading principal minor of A(alpha) to be nonzero.  The 1 x 1 minor
    # is 1 - alpha; the (k+1)-minor is a row scale times det A of the
    # sub-race B_1..B_k, which is not zero if its value at alpha = 1 is
    # not.  A does not read the initial word, so none is drawn.
    rng = random.Random(7)
    problems = [random_problem(rng, with_initial=False, m=m)
                for m in range(1, 7) for _ in range(20)]
    for entries, length in (([("a", "1/2"), ("b", "1/2")], 3),
                            ([("a", "1/3"), ("b", "2/3")], 3),
                            ([("a", "1/2"), ("b", "1/3"), ("c", "1/6")], 2)):
        alphabet = make_alphabet(entries)
        words = [alphabet.pattern("".join(w)) for n in range(1, length + 1)
                 for w in itertools.product("abc"[:alphabet.size], repeat=n)]
        for m in (2, 3):
            for pats in itertools.permutations(words, m):
                if not any(is_subpattern(p, q) for p, q in
                           itertools.permutations(pats, 2)):
                    problems.append(RaceProblem(alphabet=alphabet, patterns=pats))
    assert len(problems) == 2334
    for problem in problems:
        assert all(_leading_minors_at_one(problem)), problem


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


# ---------------------------------------------------------------------------
# series

def test_series_geometric(fair_coin):
    prob = RaceProblem(alphabet=fair_coin, patterns=(fair_coin.pattern("H"),))
    t = series(prob, 5)
    assert totals(t)[0] == 0
    assert [totals(t)[n] for n in range(1, 6)] == \
        [Fraction(1, 2 ** n) for n in range(1, 6)]
    assert tail_mass(t) == Fraction(1, 32)


def test_series_initial_ends_with_pattern(fair_coin, three_way):
    p = RaceProblem(alphabet=fair_coin, patterns=three_way.patterns,
                    initial=fair_coin.pattern("HTH"))
    t = series(p, 4)
    assert per_pattern(t)[1][0] == 1
    assert all(totals(t)[n] == 0 for n in range(1, 5))
    assert tail_mass(t) == 0


def test_series_nonnegative_random():
    rng = random.Random(57)
    for _ in range(15):
        prob = random_problem(rng)
        t = series(prob, 25)
        for col in t.columns:
            assert all(c >= 0 for c in col)
        assert tail_mass(t) >= 0
        assert t.scaled_tail() == tail_mass(t) * t.d ** t.horizon
        assert all(Fraction(c, t.d ** n) == totals(t)[n]
                   for n, c in enumerate(t.scaled_totals()))


def _assert_three_tables_equal(prob, n):
    """series == the Fraction reference == the automaton DP, exactly."""
    sol = solve_race(prob)
    t = series(prob, n, sol)
    assert t.horizon == n
    assert (per_pattern(t), totals(t), tail_mass(t)) == series_reference.series_table(sol, n)
    assert t == exact_distribution(build_automaton(prob), n)
    return t


@pytest.mark.parametrize("with_initial", [False, True])
@pytest.mark.parametrize("m", range(1, 7))
def test_series_equals_reference_and_dp(m, with_initial):
    rng = random.Random(f"series:{m}:{with_initial}")
    for _ in range(5):
        prob = random_problem(rng, with_initial=with_initial, m=m)
        for n in (0, 1, 50):
            _assert_three_tables_equal(prob, n)


def test_series_single_letter_alphabet():
    # D = 1: every scaled coefficient is the probability itself.
    one = make_alphabet([("a", "1")])
    assert one.denominator == 1
    prob = RaceProblem(alphabet=one, patterns=(one.pattern("aaa"),))
    t = _assert_three_tables_equal(prob, 50)
    assert totals(t)[3] == 1 and sum(totals(t)) == 1 and tail_mass(t) == 0
    prob = RaceProblem(alphabet=one, patterns=(one.pattern("aaa"),),
                       initial=one.pattern("a"))
    t = _assert_three_tables_equal(prob, 1)
    assert totals(t) == (0, 0) and tail_mass(t) == 1


@pytest.mark.parametrize("initial", ["HTH", "THH"])
def test_series_start_already_absorbed(fair_coin, three_way, initial):
    prob = RaceProblem(alphabet=fair_coin, patterns=three_way.patterns,
                       initial=fair_coin.pattern(initial))
    for n in (0, 1, 50):
        t = _assert_three_tables_equal(prob, n)
        assert totals(t) == (1,) + (0,) * n and tail_mass(t) == 0


def test_power_series_wrong_scale_raises():
    # P(tau = n) has denominator 3**n here, so only a multiple of 3 scales
    # every coefficient to an integer.
    thirds = make_alphabet([("a", "1/3"), ("b", "2/3")])
    g = solve_race(RaceProblem(alphabet=thirds, patterns=(thirds.pattern("ab"),))).g_total
    assert power_series(g, 10, 3) == [
        3 ** i * c for i, c in enumerate(series_reference.power_series(g, 10))]
    for d in (1, 2, 4):
        with pytest.raises(InexactSeriesError):
            power_series(g, 10, d)


def test_power_series_short_windows():
    """A constant denominator leaves the recurrence an empty window, and
    a horizon below deg D stops before the window fills: both agree with
    the Fraction recurrence, and a scale that leaves a coefficient
    non-integer still raises, whether the window is empty or part full."""
    poly = RationalFunc([3, -1, 0, 7], [1])
    for n in (0, 2, 6):
        assert power_series(poly, n, 5) == [
            5 ** i * c for i, c in enumerate(series_reference.power_series(poly, n))]
    with pytest.raises(InexactSeriesError):
        power_series(RationalFunc([1, 1], [2]), 3, 5)
    # c_1 = 1/3, so 3 scales the first coefficients to integers and 2 does not.
    rf = RationalFunc([3], [3, -1, 0, 0, 5])
    for n in range(len(rf.iden) - 1):
        assert power_series(rf, n, 3) == [
            3 ** i * c for i, c in enumerate(series_reference.power_series(rf, n))]
    assert power_series(rf, 0, 2) == [1]
    with pytest.raises(InexactSeriesError):
        power_series(rf, 1, 2)
