"""Reference oracle: the race system solved by Cramer's rule.

This is the literal determinant-ratio form of the gambling-team
solution (Gerber & Li 1981): every numerator of (Q, g_1, ..., g_m) is a
separate determinant, and the alpha = 1 intermediates are sums of
unit-column determinants of the rational correlation grid.  It is slow
(m^2 + m + 1 determinants per problem) but independent of the single
fraction-free elimination in `patternrace.solver.solve_race`, which the
tests compare against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence

from patternrace.algebra import (
    ONE_MINUS_ALPHA,
    LaurentPoly,
    RationalFunc,
    ipoly_exact_div,
    ipoly_mul,
    ipoly_sub,
    poly_shift,
)
from patternrace.correlation import correlation_matrix, initial_correlation_vector
from patternrace.model import RaceProblem, require_valid
from patternrace.solver import DegenerateCollectionError, RaceSolution

_ZERO = Fraction(0)
_ONE = Fraction(1)


def det_rf(matrix: Sequence[Sequence[RationalFunc]]) -> RationalFunc:
    """Determinant over the rational-function field.

    Fraction-field Gaussian elimination; the pivot in each column is the
    nonzero candidate of minimal total polynomial degree.
    """
    n = len(matrix)
    a = [list(row) for row in matrix]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    sign = 1
    pivots = []
    for col in range(n):
        best_row = None
        best = None
        for r in range(col, n):
            e = a[r][col]
            if not e.is_zero():
                w = len(e.num) + len(e.den)
                if best is None or w < best:
                    best, best_row = w, r
        if best_row is None:
            return RationalFunc.zero()
        if best_row != col:
            a[col], a[best_row] = a[best_row], a[col]
            sign = -sign
        piv = a[col][col]
        pivots.append(piv)
        for r in range(col + 1, n):
            if not a[r][col].is_zero():
                f = a[r][col] / piv
                for c in range(col + 1, n):
                    a[r][c] = a[r][c] - f * a[col][c]
    det = RationalFunc.const(sign)
    for p in pivots:
        det = det * p
    return det


def fraction_det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix (plain Gaussian elimination)."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    det = _ONE
    for col in range(n):
        piv_row = next((r for r in range(col, n) if a[r][col]), None)
        if piv_row is None:
            return _ZERO
        if piv_row != col:
            a[col], a[piv_row] = a[piv_row], a[col]
            det = -det
        piv = a[col][col]
        det *= piv
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / piv
                for c in range(col + 1, n):
                    a[r][c] -= f * a[col][c]
    return det


def det_laurent(rows: Sequence[Sequence[LaurentPoly]]) -> RationalFunc:
    """Determinant of a Laurent-polynomial matrix as a RationalFunc.

    Each row is cleared to integer polynomial coefficients (multiply by
    alpha**depth and the lcm of coefficient denominators), the integer
    determinant is taken fraction-free (Bareiss), and the scaling is
    divided back out.
    """
    n = len(rows)
    scale = _ONE
    shift = 0
    imat: List[List[List[int]]] = []
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
        exps = [e for lp in row for e in lp.terms]
        d = max(0, -min(exps)) if exps else 0
        denoms = [c.denominator for lp in row for c in lp.terms.values()]
        l = lcm(*denoms) if denoms else 1
        irow = []
        for lp in row:
            if lp.terms:
                width = max(lp.terms) + d + 1
                coeffs = [0] * width
                for e, c in lp.terms.items():
                    coeffs[e + d] = int(c * l)
                irow.append(coeffs)
            else:
                irow.append([])
        imat.append(irow)
        scale *= l
        shift += d
    det = _bareiss(imat)
    if not det:
        return RationalFunc.zero()
    return RationalFunc(tuple(Fraction(c) for c in det),
                        poly_shift((scale,), shift))


def _bareiss(mat: List[List[List[int]]]) -> List[int]:
    n = len(mat)
    a = [[list(e) for e in row] for row in mat]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return []
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = ipoly_sub(ipoly_mul(a[k][k], a[i][j]),
                                ipoly_mul(a[i][k], a[k][j]))
                a[i][j] = ipoly_exact_div(num, prev)
            a[i][k] = []
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return [-c for c in d] if sign < 0 else d


def replace_column(rows: Sequence[Sequence], j: int, column: Sequence) -> list:
    return [
        [column[i] if c == j else row[c] for c in range(len(row))]
        for i, row in enumerate(rows)
    ]


def build_system(problem: RaceProblem):
    """Coefficient matrix and right-hand side of the race linear system.

    Unknown vector is (Q, g_1, ..., g_m).  First row (1-alpha, 1, ..., 1)
    with RHS 1; row i below has -1, the correlation row of B_i, and RHS
    the initial-pattern correlation against B_i.
    """
    require_valid(problem)
    corr = correlation_matrix(problem)
    v = initial_correlation_vector(problem)
    m = problem.num_patterns
    one = RationalFunc.one()
    matrix = [[RationalFunc((1, -1))] + [one] * m]
    for i in range(m):
        matrix.append([RationalFunc.const(-1)] +
                      [corr.entry(i, j).to_rational_func() for j in range(m)])
    rhs = [one] + [v[i].to_rational_func() for i in range(m)]
    return matrix, rhs


def cramer_solve(problem: RaceProblem) -> RaceSolution:
    """The race solution as determinant ratios, one determinant each."""
    require_valid(problem)
    corr = correlation_matrix(problem)
    v = initial_correlation_vector(problem)
    m = problem.num_patterns
    rows = [list(r) for r in corr.entries]
    ones_col = [LaurentPoly.one()] * m
    has_initial = any(not lp.is_zero() for lp in v)

    det_b = det_laurent(rows)
    det_b_ones = [det_laurent(replace_column(rows, j, ones_col)) for j in range(m)]

    if has_initial:
        det_bk = []
        g_numerators = []
        for k in range(m):
            bk_rows = replace_column(rows, k, v)
            dbk = det_laurent(bk_rows)
            det_bk.append(dbk)
            acc = ONE_MINUS_ALPHA.to_rational_func() * dbk
            for j in range(m):
                if j == k:
                    acc = acc + det_b_ones[k]
                else:
                    acc = acc + det_laurent(replace_column(bk_rows, j, ones_col))
            g_numerators.append(acc)
        q_numerator = det_b
        for dbk in det_bk:
            q_numerator = q_numerator - dbk
    else:
        g_numerators = list(det_b_ones)
        q_numerator = det_b

    denom = ONE_MINUS_ALPHA.to_rational_func() * det_b
    for d in det_b_ones:
        denom = denom + d
    if denom.is_zero():
        raise DegenerateCollectionError("system denominator is identically zero")

    q_tau = q_numerator / denom
    g_per = tuple(g / denom for g in g_numerators)
    g_total = RationalFunc.zero()
    for g in g_per:
        g_total = g_total + g

    # alpha = 1 path: plain rational determinants, no limits.
    grid1 = corr.at(1)
    v1 = [lp(1) for lp in v]
    ones1 = [_ONE] * m
    s = sum(fraction_det(replace_column(grid1, j, ones1)) for j in range(m))
    if s == 0:
        raise DegenerateCollectionError(
            "sum of unit-column determinants vanishes at alpha = 1")
    det_b1 = fraction_det(grid1)
    if has_initial:
        win_nums = []
        det_bk1 = []
        for k in range(m):
            bk1 = replace_column(grid1, k, v1)
            det_bk1.append(fraction_det(bk1))
            win_nums.append(sum(
                fraction_det(replace_column(bk1, j, ones1)) for j in range(m)))
        expected = (det_b1 - sum(det_bk1)) / s
    else:
        win_nums = [fraction_det(replace_column(grid1, j, ones1)) for j in range(m)]
        expected = det_b1 / s
    win_probs = tuple(w / s for w in win_nums)

    return RaceSolution(
        q_tau=q_tau,
        g_total=g_total,
        g_per_pattern=g_per,
        win_probs=win_probs,
        expected_tau=expected,
        win_numerators=tuple(win_nums),
        win_denominator=s,
    )
