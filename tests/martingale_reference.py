"""Reference oracle: the casino net gain computed exactly at every step.

Each sampled letter evaluates x = (1 - alpha^e) / (1 - alpha) - alpha^e * w
in Fractions and compares |x| with the bound.  Replicate i builds
random.Random(f"{seed}:{i}") and walks the automaton letter by letter
into a list of the codes it visits, which is then checked code by code.
It shares no sampling, seeding or threshold code with
`patternrace.oracle.martingale_check`, so the tests compare the two
report for report.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

from patternrace.correlation import correlation, evaluate
from patternrace.model import Pattern, RaceProblem, pattern_prob
from patternrace.oracle import DEFAULT_MAX_STEPS, MartingaleReport, build_automaton

_ZERO = Fraction(0)


def martingale_check(problem: RaceProblem, pattern_index: int, alpha: Fraction,
                     reps: int, seed: int = 0,
                     max_steps: int = DEFAULT_MAX_STEPS) -> MartingaleReport:
    b, a, alphabet = problem.patterns[pattern_index], problem.initial, problem.alphabet
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    auto = build_automaton(RaceProblem(alphabet=alphabet, patterns=(b,), initial=a))

    one_minus = 1 - alpha
    bound = 1 / (one_minus * pattern_prob(b, alphabet))
    l = len(a) if a is not None else 0
    ab = evaluate(correlation(a, b, alphabet), alpha)
    bb = evaluate(correlation(b, b, alphabet), alpha)
    y0 = (1 - alpha ** l) / one_minus - alpha ** l * ab

    # Live-gambler weight per state: the correlation of the state word
    # against b prices every gambler still in the game.
    weights = []
    for s in auto.states:
        if s:
            weights.append(evaluate(correlation(Pattern(s), b, alphabet), alpha))
        else:
            weights.append(_ZERO)

    cum = list(accumulate(float(p) for p in alphabet.probs))
    cum[-1] = 1.0

    violations = []
    truncated = 0
    total = 0.0
    total_sq = 0.0
    n_obs = 0

    def record(y: Fraction):
        nonlocal total, total_sq, n_obs
        fy = float(y)
        total += fy
        total_sq += fy * fy
        n_obs += 1

    if abs(y0) > bound:
        violations.append((-1, 0))
    for i in range(reps):
        if auto.start < 0:
            y = (1 - alpha ** l) / one_minus - alpha ** l * bb
            if abs(y) > bound:
                violations.append((i, 0))
            record(y)
            continue
        rng = random.Random(f"{seed}:{i}")
        path = []
        code = auto.start
        while len(path) < max_steps and code >= 0:
            code = auto.transitions[code][bisect_right(cum, rng.random())]
            path.append(code)
        ap = alpha ** l
        for step, code in enumerate(path, 1):
            ap *= alpha
            w = bb if code < 0 else weights[code]
            x = (1 - ap) / one_minus - ap * w
            if abs(x) > bound:
                violations.append((i, step))
        if path and path[-1] < 0:
            record(x)
        else:
            truncated += 1

    if n_obs:
        mean = total / n_obs
        var = max(total_sq / n_obs - mean * mean, 0.0)
        se = math.sqrt(var / n_obs)
    else:
        mean, se = float("nan"), float("nan")
    diff = mean - float(y0)
    if se > 0:
        z = diff / se
    else:
        z = 0.0 if abs(diff) < 1e-12 else float("inf")
    return MartingaleReport(
        alpha=alpha, reps=reps, seed=seed, y0=y0,
        empirical_mean=mean, std_error=se, z_score=z,
        bound=bound, violations=tuple(violations), truncated=truncated,
    )
