"""Reference oracle: the absorbing-chain system solved in Fractions.

This is the first-step analysis of the prefix automaton as plain
Gauss-Jordan elimination over Fractions, one right-hand column per
pattern plus one for the expected number of steps.  It shares no code
with `patternrace.solver`, and the tests compare the closed form's win
probabilities and E[tau], and the values `patternrace.oracle.certify`
certifies, against it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from patternrace.oracle import OracleError, PrefixAutomaton

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _solve_fractions(matrix: List[List[Fraction]],
                     rhs: List[List[Fraction]]) -> List[List[Fraction]]:
    """Solve matrix @ X = rhs exactly; rhs holds one column per solve."""
    n = len(matrix)
    a = [list(matrix[i]) + list(rhs[i]) for i in range(n)]
    w = len(a[0])
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise OracleError("singular absorbing-chain system")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [c * inv for c in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                for c in range(col, w):
                    a[r][c] -= f * a[col][c]
    return [row[n:] for row in a]


def absorbing_solve(auto: PrefixAutomaton) -> Tuple[tuple, Fraction]:
    """First-step analysis: exact win probabilities and expected steps."""
    m = auto.problem.num_patterns
    if auto.start < 0:
        wins = tuple(_ONE if k == -auto.start - 1 else _ZERO for k in range(m))
        return wins, _ZERO
    probs = auto.problem.alphabet.probs

    reach = [auto.start]
    seen = {auto.start}
    for s in reach:
        for code in auto.transitions[s]:
            if code >= 0 and code not in seen:
                seen.add(code)
                reach.append(code)
    idx = {s: i for i, s in enumerate(reach)}
    t = len(reach)

    matrix = [[_ZERO] * t for _ in range(t)]
    rhs = [[_ZERO] * (m + 1) for _ in range(t)]
    for i, s in enumerate(reach):
        matrix[i][i] += 1
        rhs[i][m] = _ONE  # expected-steps column
        for a, pa in enumerate(probs):
            code = auto.transitions[s][a]
            if code < 0:
                rhs[i][-code - 1] += pa
            else:
                matrix[i][idx[code]] -= pa
    sol = _solve_fractions(matrix, rhs)
    row = sol[idx[auto.start]]
    return tuple(row[:m]), row[m]
