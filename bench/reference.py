"""The benchmark's own exact computations; nothing here imports patternrace.

A problem is a plain dict: ``weights`` maps each single-letter symbol to a
positive integer (its probability is weight / total), ``patterns`` is a
list of strings and ``initial`` a string or None.  Every value is exact.
"""

from __future__ import annotations

from fractions import Fraction

# A Mersenne prime far above every denominator the workloads produce;
# long series are compared modulo it instead of as Fractions.
PRIME = 2 ** 127 - 1


def probs(problem) -> dict:
    total = sum(problem["weights"].values())
    return {s: Fraction(w, total) for s, w in problem["weights"].items()}


def correlation(a: str, b: str, p: dict, alpha: Fraction = Fraction(1)) -> Fraction:
    """Correlation of the seen word a against the awaited word b at alpha:
    the sum over overlaps k (last k letters of a == first k of b) of
    alpha**-k / P(first k letters of b)."""
    total = Fraction(0)
    prefix = Fraction(1)
    for k in range(1, min(len(a), len(b)) + 1):
        prefix *= p[b[k - 1]]
        if a.endswith(b[:k]):
            total += 1 / (prefix * alpha ** k)
    return total


def solve(matrix, rhs):
    """Exact Gauss-Jordan solve of a small square Fraction system."""
    n = len(matrix)
    a = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n] for row in a]


def win_probs_and_mean(problem):
    """Win probabilities and expected waiting time from the gambling-team
    system of Li (1980) and Gerber & Li (1981) at alpha = 1: for every i,
    sum_j p_j (B_j * B_i) - E[tau] = A * B_i, and sum_j p_j = 1."""
    p = probs(problem)
    pats = problem["patterns"]
    a = problem["initial"] or ""
    m = len(pats)
    matrix = [[correlation(bj, bi, p) for bj in pats] + [Fraction(-1)] for bi in pats]
    rhs = [correlation(a, bi, p) for bi in pats]
    matrix.append([Fraction(1)] * m + [Fraction(0)])
    rhs.append(Fraction(1))
    x = solve(matrix, rhs)
    return x[:m], x[m]


def single_wait(problem, b: str) -> Fraction:
    """Expected wait for b alone after the initial word A: B*B - A*B."""
    p = probs(problem)
    return correlation(b, b, p) - correlation(problem["initial"] or "", b, p)


def martingale_y0(problem, b: str, alpha: Fraction) -> Fraction:
    """Initial value of the casino's net gain for pattern b given the
    initial word A of length l: (1 - alpha**l) / (1 - alpha) - alpha**l AB(alpha)."""
    a = problem["initial"] or ""
    al = alpha ** len(a)
    return (1 - al) / (1 - alpha) - al * correlation(a, b, probs(problem), alpha)


def enumerate_first_steps(problem, depth: int):
    """Pr(tau = t, pattern k wins) for t <= depth, by walking every word of
    up to depth letters after the initial word."""
    weights = problem["weights"]
    total = sum(weights.values())
    pats = problem["patterns"]
    acc = [[0] * (depth + 1) for _ in pats]
    stack = [(problem["initial"] or "", 0, 1)]
    while stack:
        text, t, w = stack.pop()
        for s, ws in weights.items():
            nt, nw = text + s, w * ws
            hit = next((k for k, b in enumerate(pats) if nt.endswith(b)), None)
            if hit is not None:
                acc[hit][t + 1] += nw
            elif t + 1 < depth:
                stack.append((nt, t + 1, nw))
    return [[Fraction(c, total ** t) for t, c in enumerate(col)] for col in acc]


def mod_prime(text: str) -> int:
    """A rational string 'p/q' or 'p' reduced modulo PRIME."""
    num, _, den = text.partition("/")
    value = int(num) % PRIME
    return value * pow(int(den) % PRIME, -1, PRIME) % PRIME if den else value


def first_series_mismatch(num, den, column):
    """First index n where column is not the n-th Taylor coefficient of
    num/den (all given as residues), or None.  Checks den * column == num
    modulo alpha**len(column)."""
    for n in range(len(column)):
        acc = num[n] if n < len(num) else 0
        for j in range(min(n, len(den) - 1) + 1):
            acc -= den[j] * column[n - j]
        if acc % PRIME:
            return n
    return None
