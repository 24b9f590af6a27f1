"""Independent ground-truth engines.

The prefix automaton is the Markov chain embedding of the race: its
states are the proper pattern prefixes and its absorbing codes the
patterns.  build_automaton builds it once from a RaceProblem, which is
valid by construction; every engine then takes the automaton.  The one
exact engine is a dynamic program on integer masses scaled by powers of
the letter-probability denominator; certify runs it far enough to prove
every closed-form generating function equal to the chain's, sharing no
solver code.  A seeded Monte Carlo simulator and a direct simulation of
the casino-net-gain martingale are statistical cross-checks.  Both draw
replicate i's letters from random.Random(f"{seed}:{i}") through one
helper, which reseeds a single generator in place.  That seeding (the
Mersenne Twister's 624-word initialisation) is the floor of a
replicate's cost, which the sampling contract fixes; the walk is the
rest.  Both walk each replicate in the same tight loop, which keeps no
path and tallies a replicate only when it stops: monte_carlo its winner
and stopping step, martingale_check, which checks each code against its
threshold as it steps, its stopped value.  A replicate truncated at
max_steps adds to no tally, and every other reported number, such as
the truncated count or the mean stopping step, is derived from the
tally once.  monte_carlo splits its replicates into contiguous parts,
one per CPU the process may use, and walks each other part in a forked
child; its counts are integer sums, so the report does not depend on
the split.  martingale_check walks in one process, in replicate order,
because its float sums depend on the order.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import threading
from bisect import bisect_right
from collections import Counter, deque
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, islice, repeat
from operator import mul
from typing import Callable, Dict, Iterable, Iterator, NamedTuple, Optional

from .correlation import correlations, evaluate
from .model import Pattern, RaceProblem, pattern_prob
from .solver import RaceSolution, SeriesTable

DEFAULT_MAX_STEPS = 10 ** 6


class OracleError(RuntimeError):
    pass


class PrefixAutomaton(NamedTuple):
    """Deterministic automaton over proper pattern prefixes.

    Transition codes: a value >= 0 indexes the next live state; a value
    -(k+1) means pattern k just completed (absorbing).  The start code
    is the state reached after feeding the whole initial pattern.
    """

    problem: RaceProblem
    states: tuple            # tuple of letter tuples, states[0] == ()
    transitions: tuple       # transitions[state][letter] -> code
    start: int


def build_automaton(problem: RaceProblem) -> PrefixAutomaton:
    """The prefix automaton of a race.  Validation's mutual-containment
    rule keeps a pattern from ending another, so a letter completes at
    most one; its initial-contains-pattern rule lets the initial word
    complete one only at its last letter, so feeding it is a plain fold.
    """
    pats = [p.letters for p in problem.patterns]
    states = sorted({p[:i] for p in pats for i in range(len(p))},
                    key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(states)}

    def step(state: tuple, letter: int) -> int:
        cand = state + (letter,)
        for k, p in enumerate(pats):
            if cand[-len(p):] == p:
                return -(k + 1)
        # The empty suffix is states[0], so the longest state suffix exists.
        return next(index[cand[i:]] for i in range(len(cand) + 1) if cand[i:] in index)

    transitions = tuple(tuple(step(s, a) for a in range(problem.alphabet.size))
                        for s in states)

    start = index[()]
    for letter in problem.initial.letters if problem.initial is not None else ():
        start = transitions[start][letter]
    return PrefixAutomaton(problem=problem, states=tuple(states),
                           transitions=transitions, start=start)


def exact_distribution(auto: PrefixAutomaton, n: int) -> SeriesTable:
    """Exact DP over the automaton up to horizon n.

    With d the lcm of the letter-probability denominators, the mass at
    step t is carried as an integer scaled by d**t: each letter moves it
    with the integer weight d * p_a, and the table holds the absorbed
    integers.  The letters of a state that lead to one code move its mass
    as one, and the live masses sit in a list indexed by state.  Every
    step checks that the live and absorbed masses sum to d**t, and the
    table's tail is checked against the live mass left at step n.
    """
    if n < 0:
        raise ValueError("horizon must be >= 0")
    m = auto.problem.num_patterns
    d = auto.problem.alphabet.denominator
    weights = [int(p * d) for p in auto.problem.alphabet.probs]
    # moves[s]: (code, summed weight) once per code that state s reaches
    moves = []
    for row in auto.transitions:
        merged: Dict[int, int] = {}
        for code, w in zip(row, weights):
            merged[code] = merged.get(code, 0) + w
        moves.append(tuple(merged.items()))
    per = [[0] * (n + 1) for _ in range(m)]
    live = [0] * len(auto.states)
    if auto.start < 0:
        per[-auto.start - 1][0] = 1
        absorbed = 1
    else:
        absorbed = 0
        live[auto.start] = 1
    scale = 1
    for t in range(1, n + 1):
        scale *= d
        absorbed *= d
        nxt = [0] * len(live)
        for s, mass in enumerate(live):
            if not mass:
                continue
            for code, w in moves[s]:
                chunk = mass * w
                if code < 0:
                    per[-code - 1][t] += chunk
                    absorbed += chunk
                else:
                    nxt[code] += chunk
        live = nxt
        if sum(live) + absorbed != scale:
            raise OracleError("mass conservation violated in DP")
    table = SeriesTable(d, tuple(map(tuple, per)))
    # The live mass is the tail the DP tracked itself; the table derives
    # it from the absorbed columns.
    if table.scaled_tail() != sum(live):
        raise OracleError("DP tail disagrees with its absorbed columns")
    return table


class Disagreement(NamedTuple):
    """A closed form's first difference from the DP (index None: a printed value)."""
    quantity: str
    index: Optional[int]
    closed_form: Fraction
    oracle: Fraction


def certify(auto: PrefixAutomaton, solution: RaceSolution,
            table: Optional[SeriesTable] = None):
    """(the first Disagreement of a function or printed value, the first
    entry in which the closed-form table differs from the DP), each None
    when there is none; the second is None without a table.

    A chain generating function has numerator and denominator of degree
    <= t = len(auto.states) and denominator 1 at 0, so N/D, D(0) != 0,
    equals it if their series S agree on 0..h = t + max(deg N, deg D),
    checked as D S = N on scaled integers.  Only certified functions are
    evaluated at 1, where a wrong one may have a pole.  The DP runs to
    the larger of h and the table's horizon.
    """
    pats = [auto.problem.alphabet.format_pattern(p) for p in auto.problem.patterns]
    funcs = [("q_tau", solution.q_tau), ("g_total", solution.g_total)] + [
        (f"g_{k} ({p})", g) for k, (p, g) in enumerate(zip(pats, solution.g_per_pattern), 1)]
    h = len(auto.states) - 1 + max(len(c) for _, f in funcs for c in (f.inum, f.iden))
    n = 0 if table is None else table.horizon
    dp = exact_distribution(auto, max(n, h))
    d = dp.d
    series_why = None
    if table is not None:
        for k, (p, col, dp_col) in enumerate(zip(pats, table.columns, dp.columns)):
            if col != dp_col[:n + 1]:
                i = next(i for i, (c, o) in enumerate(zip(col, dp_col)) if c != o)
                series_why = Disagreement(f"series per_pattern[{k}] ({p})", i,
                                          Fraction(col[i], d ** i), Fraction(dp_col[i], d ** i))
                break
    powers = list(accumulate(repeat(d, h), mul, initial=1))
    totals = list(map(sum, islice(zip(*dp.columns), h + 1)))
    # d**i P(tau > i) = d (d**(i-1) P(tau > i-1)) - totals[i]
    live = list(accumulate([1 - totals[0], *totals[1:]], lambda x, t: x * d - t))
    for (name, f), s in zip(funcs, [live, totals, *dp.columns]):
        num = f.inum
        den = list(map(mul, f.iden, powers))
        window = deque(maxlen=len(den))
        for i in range(h + 1):
            window.appendleft(s[i])
            r = sum(map(mul, den, window))
            r -= num[i] * powers[i] if i < len(num) else 0
            if r:
                return Disagreement(name, i, Fraction(s[i] * den[0] - r, den[0] * powers[i]),
                                    Fraction(s[i], powers[i])), series_why
    values = [(f"win probability of {p}", w, g)
              for p, w, g in zip(pats, solution.win_probs, solution.g_per_pattern)]
    for name, printed, f in values + [("expected_tau", solution.expected_tau, solution.q_tau)]:
        value = f(1)
        if printed != value:
            return Disagreement(name, None, printed, value), series_why
    return None, series_why


# ---------------------------------------------------------------------------
# Monte Carlo

class MonteCarloReport(NamedTuple):
    reps: int
    seed: int
    max_steps: int
    win_counts: tuple
    win_freqs: tuple          # Fractions count/reps
    truncated: int
    completed: int
    mean_tau: Optional[Fraction]
    histogram: dict           # tau -> count, completed runs only


def _replicate_draws(seed: int, indices: Iterable[int]) -> Iterator[Callable[[], float]]:
    """For each replicate i of indices, in order, the draw callable of a
    generator in the state of random.Random(f"{seed}:{i}").

    A str seed hashes through sha512, so each replicate has its own
    stream, stable across runs and platforms and independent of run
    order.  random.Random.seed turns it into the int below (Python
    3.10-3.13) with the sha512 bound as random._sha512, and seeds the C
    generator with it; one generator reseeded that way in place skips
    building a Random per replicate.  Python 3.10-3.12 bind that global
    when random is imported, 3.13 only on the first str or bytes seed,
    so the generator is built from the str seed "" before it is read.
    Each yielded callable is the same bound method, valid until the
    next replicate is drawn.
    """
    rng = random.Random("")
    reseed, draw, sha512 = super(random.Random, rng).seed, rng.random, random._sha512
    for i in indices:
        b = f"{seed}:{i}".encode()
        reseed(int.from_bytes(b + sha512(b).digest(), "big"))
        yield draw


def _cumulative(probs) -> list:
    """Float cumulative letter probabilities, the last pinned to 1.0."""
    cum = list(accumulate(float(p) for p in probs))
    cum[-1] = 1.0
    return cum


# A forked part walks at least this many replicates.  Forking a child and
# collecting its tally took 1.7 ms in the median (p90 1.8-2.1 ms) in a
# 28 MB process, against 7-10 us per replicate (Python 3.11.7, shared
# 2-vCPU Xeon), so a part of 2,000 spends at most about a tenth of its
# time on the fork.
MIN_PART_REPS = 2000


def _cpus() -> int:
    """The number of CPUs this process may run on, 1 where the platform
    does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _part_bounds(reps: int) -> list:
    """Bounds of the contiguous parts that split range(reps): one part per
    CPU, each of at least MIN_PART_REPS replicates, or one part where
    there is no fork or another thread is live, since a forked child
    copies only the calling thread.
    """
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    n = max(1, min(_cpus(), reps // MIN_PART_REPS)) if forkable else 1
    return [reps * j // n for j in range(n + 1)]


def _walk(auto: PrefixAutomaton, seed: int, max_steps: int, lo: int, hi: int) -> tuple:
    """(win counts, stopping-step histogram) of replicates lo..hi-1 from a
    live start, as a list and a dict, which marshal carries.

    Each replicate samples the letter as the first index whose cumulative
    probability exceeds u = draw() (cum ends at 1.0 > u, so one always
    does) and records only the code it stopped at and the step at which
    it stopped; a replicate truncated at max_steps records nothing.
    """
    cum = _cumulative(auto.problem.alphabet.probs)
    transitions, start = auto.transitions, auto.start
    wins = [0] * auto.problem.num_patterns
    hist: Counter = Counter()
    steps = range(1, max_steps + 1)
    for draw in _replicate_draws(seed, range(lo, hi)):
        code = start
        for tau in steps:
            code = transitions[code][bisect_right(cum, draw())]
            if code < 0:
                wins[-code - 1] += 1
                hist[tau] += 1
                break
    return wins, dict(hist)


def _fork(walk: Callable[[int, int], tuple], lo: int, hi: int):
    """(pid, read end of its pipe) of a child that sends walk(lo, hi) with
    marshal and exits, or None when the pipe or the fork fails."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        # The child leaves by os._exit whatever is raised, so it never
        # returns into the caller or flushes output buffered before the fork.
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(marshal.dumps(walk(lo, hi)))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _in_parts(walk: Callable[[int, int], tuple], bounds: list) -> list:
    """walk(lo, hi) for each part lo..hi between consecutive bounds.

    The first part runs in this process, each other in a forked child.
    A part whose pipe or fork fails, or whose child dies or fails, is
    walked again here.  Every child is reaped before this returns or raises:
    if this process's own walk raises, its children are killed first.
    """
    parts = list(zip(bounds, bounds[1:]))
    here = parts[:1]
    pending = []  # (lo, hi, pid, read end) of each forked part
    try:
        for lo, hi in parts[1:]:
            child = _fork(walk, lo, hi)
            if child is None:
                here.append((lo, hi))
            else:
                pending.append((lo, hi, *child))
        results = [walk(lo, hi) for lo, hi in here]
        while pending:
            lo, hi, pid, pipe = pending[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del pending[0]
            results.append(marshal.loads(data) if status == 0 else walk(lo, hi))
        return results
    finally:
        if pending:
            import signal  # only on this path, to keep it off every run's imports
            for _, _, pid, pipe in pending:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def monte_carlo(auto: PrefixAutomaton, reps: int, seed: int = 0,
                max_steps: int = DEFAULT_MAX_STEPS) -> MonteCarloReport:
    """Seeded win counts and stopping-time histogram over reps replicates.

    The replicates run in the parts of _part_bounds(reps) and their counts
    add up, so the report is the same for every split.  A start already
    absorbed wins every replicate at tau = 0 without a draw.  The win
    counts and the histogram are the whole tally: the completed
    replicates are the wins, the truncated ones the rest, and mean_tau
    the histogram's mean.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")

    wins = [0] * auto.problem.num_patterns
    hist: Counter = Counter()
    if auto.start < 0:
        wins[-auto.start - 1] = reps
        hist[0] = reps
    else:
        walk = partial(_walk, auto, seed, max_steps)
        for part_wins, part_hist in _in_parts(walk, _part_bounds(reps)):
            wins = [a + b for a, b in zip(wins, part_wins)]
            hist.update(part_hist)
    completed = sum(wins)
    mean_tau = (Fraction(sum(t * c for t, c in hist.items()), completed)
                if completed else None)
    return MonteCarloReport(
        reps=reps, seed=seed, max_steps=max_steps,
        win_counts=tuple(wins),
        win_freqs=tuple(Fraction(w, reps) for w in wins),
        truncated=reps - completed, completed=completed,
        mean_tau=mean_tau, histogram=dict(sorted(hist.items())),
    )


# ---------------------------------------------------------------------------
# martingale simulation

class MartingaleReport(NamedTuple):
    alpha: Fraction
    reps: int
    seed: int
    y0: Fraction              # exact initial martingale value
    empirical_mean: float
    std_error: float
    z_score: float
    bound: Fraction           # pathwise |net gain| bound
    violations: tuple         # (replicate, step) pairs
    truncated: int


def _last_exponent(alpha: Fraction, r: Fraction) -> int:
    """Largest e >= 0 with alpha**e > r, or -1 when no e qualifies.

    alpha lies in (0, 1) and r > 0, so alpha**e falls with e and the
    qualifying exponents are 0..e.  A float estimate of log(r)/log(alpha)
    starts the search and exact comparisons correct it, so the cost
    follows the answer, not a step cap.
    """
    def log(q: Fraction) -> float:
        # Logs of the parts, since q itself may lie past the float range.
        return math.log(q.numerator) - math.log(q.denominator)

    if r >= 1:  # alpha**0
        return -1
    log_alpha = log(alpha)  # 0.0 once alpha is within rounding of 1
    e = max(int(log(r) / log_alpha), 0) if log_alpha < 0 else 0
    while e > 0 and alpha ** e <= r:
        e -= 1
    while alpha ** (e + 1) > r:
        e += 1
    return e


def martingale_check(problem: RaceProblem, pattern_index: int, alpha: Fraction,
                     reps: int, seed: int = 0,
                     max_steps: int = DEFAULT_MAX_STEPS) -> MartingaleReport:
    """Simulate the casino's net gain to the stopping time of pattern
    b = problem.patterns[pattern_index], played alone from the problem's
    initial word a.

    Checks the optional-stopping identity (initial value equals the mean
    stopped value, up to Monte Carlo error) and the pathwise bound on the
    absolute net gain along every sampled path.

    After exponent e = l + step, with l the length of the initial word a,
    the net gain is x(e) = K - alpha**e * (K + w), where K = 1/(1 - alpha)
    and w >= 0 is the weight of the current automaton code: the
    correlation of its word against b, or (B*B) once b has completed.
    The Alphabet's positive probabilities summing to 1 give P(b) <= 1, so
    x <= K <= K/P(b) = bound and only the lower side can fail: x < -bound
    holds exactly when e <= lo, a threshold found once per code in exact
    Fractions.  The walk then compares integers only, and the stopped
    value K - alpha**(l + tau) * (K + (B*B)) is built once per stopping
    exponent, so every reported value is the same as evaluating x in
    Fractions at every step.  Each replicate walks as in monte_carlo,
    checking each code against its threshold as it steps, so it keeps no
    path; a pass spends mostly the per-replicate seeding, the floor the
    sampling contract fixes.  A replicate that stops adds its stopped
    value to the float sums, in replicate order, and one observation;
    the truncated replicates are the rest.  The automaton is built on
    problem.alone(pattern_index), which validates nothing again.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if not 0 <= pattern_index < problem.num_patterns:
        raise ValueError(f"pattern_index must lie in 0..{problem.num_patterns - 1}")
    b, a, alphabet = problem.patterns[pattern_index], problem.initial, problem.alphabet
    auto = build_automaton(problem.alone(pattern_index))

    k = 1 / (1 - alpha)
    bound = k / pattern_prob(b, alphabet)
    l = len(a) if a is not None else 0
    # Weight per code: the correlation of each state word against b prices
    # every gambler still in the game.  The absorbing code is -1, so
    # appending (B*B) last lets lists indexed by code serve it as well.
    ab, *weights = [evaluate(terms, alpha) for terms in correlations(
        [a] + [Pattern(s) if s else None for s in auto.states] + [b], b, alphabet)]
    bb = weights[-1]
    y0 = k - alpha ** l * (k + ab)
    # Step s of a path at code c violates the bound iff s <= lo[c].
    lo = [_last_exponent(alpha, (k + bound) / (k + w)) - l for w in weights]

    @cache
    def stopped_value(e: int) -> float:
        return float(k - alpha ** e * (k + bb))

    cum = _cumulative(alphabet.probs)
    transitions, start = auto.transitions, auto.start

    violations = []
    n_obs = 0
    total = 0.0
    total_sq = 0.0

    if y0 < -bound:
        violations.append((-1, 0))
    if start < 0:
        # b completed inside the initial word: every replicate stops at
        # step 0 with the same value.
        if 0 <= lo[-1]:
            violations.extend((i, 0) for i in range(reps))
        fy = stopped_value(l)
        for _ in range(reps):
            total += fy
            total_sq += fy * fy
        n_obs = reps
    else:
        steps = range(1, max_steps + 1)
        for i, draw in enumerate(_replicate_draws(seed, range(reps))):
            code = start
            for step in steps:
                code = transitions[code][bisect_right(cum, draw())]
                if step <= lo[code]:
                    violations.append((i, step))
                if code < 0:
                    fy = stopped_value(l + step)
                    total += fy
                    total_sq += fy * fy
                    n_obs += 1
                    break

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
        bound=bound, violations=tuple(violations), truncated=reps - n_obs,
    )
