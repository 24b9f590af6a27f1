"""Reference Monte Carlo: one fresh generator and one path list per replicate.

Replicate i builds random.Random(f"{seed}:{i}"), walks the automaton
letter by letter into a list of the codes it visits, and reads the
stopping time and winner off that list.  It shares no sampling or
seeding code with `patternrace.oracle.monte_carlo`, so the tests compare
the two report for report.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate

from patternrace.oracle import DEFAULT_MAX_STEPS, MonteCarloReport, PrefixAutomaton


def monte_carlo(auto: PrefixAutomaton, reps: int, seed: int = 0,
                max_steps: int = DEFAULT_MAX_STEPS) -> MonteCarloReport:
    cum = list(accumulate(float(p) for p in auto.problem.alphabet.probs))
    cum[-1] = 1.0

    wins = [0] * auto.problem.num_patterns
    hist: Counter = Counter()
    truncated = 0
    tau_sum = 0
    for i in range(reps):
        if auto.start < 0:
            wins[-auto.start - 1] += 1
            hist[0] += 1
            continue
        rng = random.Random(f"{seed}:{i}")
        path = []
        code = auto.start
        while len(path) < max_steps and code >= 0:
            code = auto.transitions[code][bisect_right(cum, rng.random())]
            path.append(code)
        if path[-1] < 0:
            wins[-path[-1] - 1] += 1
            hist[len(path)] += 1
            tau_sum += len(path)
        else:
            truncated += 1
    completed = reps - truncated
    return MonteCarloReport(
        reps=reps, seed=seed, max_steps=max_steps,
        win_counts=tuple(wins),
        win_freqs=tuple(Fraction(w, reps) for w in wins),
        truncated=truncated, completed=completed,
        mean_tau=Fraction(tau_sum, completed) if completed else None,
        histogram=dict(sorted(hist.items())),
    )
