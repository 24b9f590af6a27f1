"""Output checks: each job's emitted JSON against reference.py.

Every check returns a list of problems found; an empty list means the
output is correct.  They run outside the timed passes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import reference
from reference import mod_prime
from workloads import MARTINGALE_ALPHA

# Points where (1 - alpha) Q(alpha) + G(alpha) = 1 is checked exactly; the
# generating functions have no pole in the closed unit disc.
ALPHAS = (Fraction(1, 2), Fraction(1, 3), Fraction(7, 9))
# Brute-force enumeration walks at most this many words per problem.
ENUMERATION_WORDS = 4096
Z_LIMIT = 5


def _rf(obj):
    return [Fraction(c) for c in obj["num"]], [Fraction(c) for c in obj["den"]]


def _at(rf, alpha: Fraction) -> Fraction:
    num, den = rf
    return (sum(c * alpha ** i for i, c in enumerate(num))
            / sum(c * alpha ** i for i, c in enumerate(den)))


def check_race(job, out: dict) -> list:
    problem = job.problem
    errors = []
    wins = [Fraction(w) for w in out["win_probs"]]
    expected = Fraction(out["expected_tau"])
    ref_wins, ref_expected = reference.win_probs_and_mean(problem)
    if sum(wins) != 1:
        errors.append("win_probs do not sum to 1")
    if wins != ref_wins:
        errors.append("win_probs differ from the gambling-team system")
    if expected != ref_expected:
        errors.append("expected_tau differs from the gambling-team system")
    if out.get("oracle", {}).get("agree") is not True:
        errors.append("the program's own oracle disagrees")

    g = [_rf(o) for o in out["g_per_pattern"]]
    q, g_total = _rf(out["q_tau"]), _rf(out["g_total"])
    for k, gk in enumerate(g):
        if _at(gk, Fraction(1)) != wins[k]:
            errors.append(f"g_{k + 1}(1) != win_probs[{k}]")
    if _at(q, Fraction(1)) != expected:
        errors.append("Q(1) != expected_tau")
    for alpha in ALPHAS:
        total = _at(g_total, alpha)
        if total != sum(_at(gk, alpha) for gk in g):
            errors.append(f"G({alpha}) != sum of g_k({alpha})")
        if (1 - alpha) * _at(q, alpha) + total != 1:
            errors.append(f"(1 - alpha) Q + G != 1 at alpha = {alpha}")

    series = out["series"]
    columns = series["per_pattern"]
    n = job.horizon
    if series["horizon"] != n or any(len(col) != n + 1 for col in columns):
        return errors + ["series has the wrong horizon"]
    residues = [[mod_prime(c) for c in col] for col in columns]
    for k, col in enumerate(residues):
        gk = out["g_per_pattern"][k]
        bad = reference.first_series_mismatch(
            [mod_prime(c) for c in gk["num"]], [mod_prime(c) for c in gk["den"]], col)
        if bad is not None:
            errors.append(f"series column {k} is not the Taylor expansion of g_{k + 1}"
                          f" at index {bad}")
    for i, total in enumerate(series["totals"]):
        if (mod_prime(total) - sum(col[i] for col in residues)) % reference.PRIME:
            errors.append(f"totals[{i}] is not the sum of its row")
            break
    if Fraction(series["tail_mass"]) != 1 - sum(Fraction(t) for t in series["totals"]):
        errors.append("tail_mass != 1 - sum(totals)")

    depth = min(n, int(math.log(ENUMERATION_WORDS, len(problem["weights"]))))
    enumerated = reference.enumerate_first_steps(problem, depth)
    for k, col in enumerate(enumerated):
        if [Fraction(c) for c in columns[k][:depth + 1]] != col:
            errors.append(f"series column {k} differs from enumeration up to step {depth}")
    return errors


def check_simulate(job, out: dict) -> list:
    errors = []
    rows = out["patterns"]
    counts = [r["count"] for r in rows]
    if sum(counts) + out["truncated"] != job.reps or out["reps"] != job.reps:
        errors.append("win counts plus truncations != reps")
    if out["truncated"]:
        errors.append("replicates were truncated")
    if any(abs(r["z_score"]) > Z_LIMIT for r in rows):
        errors.append(f"a win frequency is more than {Z_LIMIT} standard errors off")
    ref_wins, ref_expected = reference.win_probs_and_mean(job.problem)
    if [Fraction(r["exact"]) for r in rows] != ref_wins:
        errors.append("exact win probabilities differ from the gambling-team system")
    if Fraction(out["exact_expected_tau"]) != ref_expected:
        errors.append("exact_expected_tau differs from the gambling-team system")
    hist = {int(t): c for t, c in out["histogram"].items()}
    if sum(hist.values()) != job.reps - out["truncated"]:
        errors.append("histogram does not count every completed replicate")
    elif Fraction(out["mean_tau"]) != Fraction(sum(t * c for t, c in hist.items()),
                                                sum(hist.values())):
        errors.append("mean_tau is not the histogram mean")
    return errors


def check_martingale(job, out: dict) -> list:
    errors = []
    if out["violations"]:
        errors.append("pathwise bound violated")
    if out["truncated"] or out["reps"] != job.reps:
        errors.append("replicates were truncated or lost")
    if not abs(out["z_score"]) <= Z_LIMIT:
        errors.append(f"mean stopped value is more than {Z_LIMIT} standard errors off")
    b = job.problem["patterns"][job.pattern_index]
    if Fraction(out["y0_exact"]) != reference.martingale_y0(job.problem, b, MARTINGALE_ALPHA):
        errors.append("y0_exact differs from the gambling-team value")
    return errors


CHECKS = {"race": check_race, "simulate": check_simulate, "martingale": check_martingale}


def check_job(job, rc, text: str) -> list:
    """Problems with one job's exit code and output."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        out = json.loads(text)
        return CHECKS[job.kind](job, out)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]
