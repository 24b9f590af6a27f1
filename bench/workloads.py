"""Seeded inputs of the three workloads.

Pass i of a run with seed s draws its problems from generators seeded with
(workload, s, i, slot), so one seed always gives the same files and no pass
repeats a problem that an earlier pass of the run solved.  Each slot fixes
the shape of one job (number of patterns, pattern lengths, letter weights)
so that every pass does the same kind of work; the letters of the patterns
and of the initial word are random.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import reference

SYMBOLS = "abcd"

# race_initial: the known-first-outcomes case.  (m, shortest, longest,
# letter weights); every problem has an initial word that ends with a
# proper prefix of one of its patterns, so the initial column is nonzero.
# One length per slot: ranges made pass times spread more (19 % against
# 12 % over ten passes).
RACE_INITIAL_SLOTS = [
    (4, 8, 8, (1, 2)),
    (5, 7, 7, (1, 2, 3)),
    (6, 6, 6, (2, 3)),
    (8, 6, 6, (1, 2)),
]
RACE_INITIAL_SERIES = 64

# race_series: no initial word, long exact distribution tables.
RACE_SERIES_SLOTS = [
    (3, 4, 7, (1, 1)),
    (4, 4, 7, (2, 3, 4)),
    (3, 4, 6, (1, 1, 1, 1)),
    (5, 4, 7, (1, 2)),
]
RACE_SERIES_HORIZON = 600

# simulate: (m, shortest, longest, letter weights) with an initial word.
# Replicates are sized from the exact expected waiting time E so that each
# job costs about the same whatever its patterns: a Monte Carlo replicate
# costs about 50 + E letter draws (seeding its generator is the 50), a
# martingale replicate about E + E**2 / 1000 (its exact value grows with
# the step, so later letters cost more).  The martingale follows the
# pattern with the shortest expected wait, which gives it the most
# replicates and so the steadiest cost.
SIMULATE_SLOTS = [
    (2, 4, 6, (1, 1)),
    (3, 3, 5, (1, 1, 2)),
]
SIMULATE_BUDGET = 1_200_000
MARTINGALE_BUDGET = 14_000
# The |z| <= 5 check on the martingale's mean needs enough replicates for
# the normal approximation: 18 replicates of a pattern with expected wait
# 540 read z = 6.6 from a correct program.  Problems are redrawn until
# some pattern waits at most this long, which gives at least 330.
MARTINGALE_MAX_WAIT = 40
MARTINGALE_ALPHA = Fraction(9, 10)


@dataclass
class Job:
    kind: str                 # "race", "simulate" or "martingale"
    argv: list                # arguments of patternrace.cli.main
    problem: dict             # the problem as reference.py reads it
    horizon: int = 0          # race: --series
    reps: int = 0             # simulate, martingale: --reps
    pattern_index: int = 0    # martingale: --pattern-index


def random_problem(rng: random.Random, m: int, lo: int, hi: int,
                   weights: tuple, with_initial: bool) -> dict:
    """Patterns of which none contains another, and optionally an initial
    word that contains no pattern but ends with a prefix of one."""
    symbols = SYMBOLS[:len(weights)]
    while True:
        pats = ["".join(rng.choice(symbols) for _ in range(rng.randint(lo, hi)))
                for _ in range(m)]
        if any(i != j and p in q for i, p in enumerate(pats)
               for j, q in enumerate(pats)):
            continue
        initial = None
        if with_initial:
            b = rng.choice(pats)
            initial = ("".join(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
                       + b[:rng.randint(1, len(b) - 1)])
            if any(p in initial for p in pats):
                continue
        return {"weights": dict(zip(symbols, weights)), "patterns": pats,
                "initial": initial}


def write_problem(problem: dict, path: str) -> None:
    total = sum(problem["weights"].values())
    obj = {
        "alphabet": [{"symbol": s, "prob": str(Fraction(w, total))}
                     for s, w in problem["weights"].items()],
        "patterns": problem["patterns"],
    }
    if problem["initial"] is not None:
        obj["initial"] = problem["initial"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _replicates(budget: int, replicate_cost: float) -> int:
    return max(1, round(budget / replicate_cost))


def make_pass(workload: str, seed: int, index: int, directory: str) -> list:
    """Write the problem files of one pass and return its jobs."""
    jobs = []
    slots = {"race_initial": RACE_INITIAL_SLOTS, "race_series": RACE_SERIES_SLOTS,
             "simulate": SIMULATE_SLOTS}[workload]
    for slot, (m, lo, hi, weights) in enumerate(slots):
        rng = random.Random(f"{workload}:{seed}:{index}:{slot}")
        while True:
            problem = random_problem(rng, m, lo, hi, weights,
                                     with_initial=workload != "race_series")
            if workload != "simulate":
                break
            waits = [reference.single_wait(problem, b) for b in problem["patterns"]]
            if min(waits) <= MARTINGALE_MAX_WAIT:
                break
        path = os.path.join(directory, f"p{index}-{slot}.json")
        write_problem(problem, path)
        if workload == "race_initial":
            jobs.append(Job("race", ["race", path, "--series", str(RACE_INITIAL_SERIES),
                                     "--oracle"], problem, horizon=RACE_INITIAL_SERIES))
        elif workload == "race_series":
            jobs.append(Job("race", ["race", path, "--series", str(RACE_SERIES_HORIZON),
                                     "--oracle"], problem, horizon=RACE_SERIES_HORIZON))
        else:
            _, wait = reference.win_probs_and_mean(problem)
            reps = _replicates(SIMULATE_BUDGET, 50 + float(wait))
            jobs.append(Job("simulate", ["simulate", path, "--reps", str(reps),
                                         "--seed", str(rng.randrange(10 ** 6))],
                            problem, reps=reps))
            k = waits.index(min(waits))
            reps = _replicates(MARTINGALE_BUDGET, float(waits[k]) + float(waits[k]) ** 2 / 1000)
            jobs.append(Job("martingale", ["martingale", path, "--pattern-index", str(k),
                                           "--alpha", str(MARTINGALE_ALPHA),
                                           "--reps", str(reps),
                                           "--seed", str(rng.randrange(10 ** 6))],
                            problem, reps=reps, pattern_index=k))
    return jobs


WORKLOADS = ("race_initial", "race_series", "simulate")
