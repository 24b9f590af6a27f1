"""Compare the stdout of two patternrace checkouts on the benchmark's jobs.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are source checkouts, each with src/patternrace
and bench/.  The jobs are the benchmark's own: bench/workloads.make_pass
of this checkout writes the problem files of every workload, seeds 1-3
and passes 0-9 into one temporary directory and returns the jobs, so both
checkouts read the same bytes; each race job also runs once without
--series N, and each race_initial job once more as `race FILE --alpha
9/10`, which evaluates every generating function there, and once as
`race FILE --oracle --table`, which prints the plain-text summary with
its oracle agreement line, 840 jobs.
Each race_initial job also runs `correlate FILE --a INITIAL --b B
--alpha 9/10` for every pattern B, and once with the first pattern as
both A and B, so the correlation kernel is diffed directly: 810
correlate jobs.  Two more jobs, `race --series 1500` with and without
--oracle on letters 1/1000 and 999/1000, print integers of 4,501
digits, past Python's default int-to-str limit, so the Decimal path of
the printer is diffed too.  Each simulate and martingale job also runs
once more with --max-steps 3 and once with its --seed S negated as
-1 - S, so the truncated walks and negative seeds are diffed as well:
240 sampling jobs.  Each martingale job runs once more with --alpha 1/3,
and each race_initial job writes a copy of its problem whose initial
word is its first pattern, which starts absorbed, and runs `race COPY
--oracle --series 8` on it: 180 jobs.  The first race_initial job of
each seed also runs nine jobs that must fail: `race COPY --oracle` on
copies that repeat its first pattern, put a pattern inside another, put
the first pattern inside the initial word before its last letter (each
exit 2, with the validation report on stdout), add an unknown symbol
to the initial word, or drop "prob" from the first alphabet entry (each
exit 3), and `simulate FILE --reps 0`, `martingale FILE --alpha 1`,
`martingale FILE --pattern-index M` with M its number of patterns, and
`correlate FILE --alpha 0` (each exit 2): 27 jobs.  Four jobs evaluate at
a pole, which exits 2 with the pole's message on stderr: for each seed,
`race COPY --alpha W/(W - w)` on a copy of that first race_initial job
whose one pattern is its first letter, of weight w in a total W, and
once `race FILE --alpha 2` on the coin race THH, HTH, HHT from the
initial word H.  For each seed, that first race_initial job also
writes copies of its problem whose letters are renamed to '"', '\\',
U+00E9, U+2028 and a tab, so the writer's escape path is diffed: each
copy runs as `race COPY --series 8 --oracle`, `validate`, `correlate`
and `simulate --reps 50`, and `validate` on one more copy exits 3 with
a parse error that quotes those symbols, 39 jobs.  Two races past the
benchmark's sizes, whose systems are mostly zero coefficients, run as
`race FILE --oracle` and `race FILE --series 64 --oracle`: a 16 x 12
coin race and a 12 x 24 race on letters 1/6, 1/3, 1/2, each with a
5-letter initial word, 4 jobs.  Two jobs print long tables whose
entries share many factors with d, so the printer divides out gcd(C,
d**n) in several rounds: `race FILE --series 1500 --oracle` on the
README's 4 x 3 race on letters 1/2, 1/3, 1/6 from the initial word c
(d = 6), and on a 4-pattern race on letters 2/9, 1/3, 4/9 (d = 9), 2,148
jobs in all.  Each
checkout runs all jobs in one worker process with its own
bench/run.py: load_program imports patternrace.cli from that
checkout's src, and run_job calls it in-process with stdout captured,
as the benchmark does; the worker captures what run_job passes on to
stderr, which is the message of every job that exits nonzero.  The two
outputs are then compared job by job.
Exit status 0 means every job printed the same stdout and stderr with
the same exit code in both checkouts, and no job exited 1 in either: the CLI
never returns 1, so that code is an uncaught exception, and a crash on
both sides would otherwise pass as a match.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import pickle
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("race_initial", "race_series", "simulate")
SEEDS = (1, 2, 3)
PASSES = 10
# Denominators up to 1000**1500: 4,501 digits, past the 4,300-digit limit.
PAST_LIMIT = {"weights": {"a": 1, "b": 999}, "patterns": ["ab", "bba"], "initial": None}
PAST_LIMIT_HORIZON = 1500
ALPHA = "9/10"
# Shorter than most simulate patterns, so many replicates stop by truncation.
TRUNCATED_STEPS = 3
# A second martingale alpha, far from the benchmark's workloads.MARTINGALE_ALPHA.
SECOND_ALPHA = "1/3"
# --series of the race_initial copies that start absorbed.
ABSORBED_SERIES = 8
# A letter outside every benchmark alphabet.
UNKNOWN_SYMBOL = "z"
# The coin race THH, HTH, HHT from H, and a pole of its generating functions.
COIN_POLE = {"weights": {"H": 1, "T": 1}, "patterns": ["THH", "HTH", "HHT"],
             "initial": "H"}
COIN_POLE_ALPHA = "2"
# Races past the benchmark's sizes, whose systems are mostly zero
# coefficients: (m, pattern length, letter weights), each with a random
# 5-letter initial word, drawn from random.Random(f"large:{m}x{length}").
LARGE_RACES = ((16, 12, (1, 1)), (12, 24, (1, 2, 3)))
LARGE_INITIAL = 5
LARGE_SERIES = 64
# Races whose table entries share ever more factors with d as n grows:
# the README's 4 x 3 race from c, and one drawn from
# random.Random("composite:4x7") with the race_series slot (4, 4, 7).
COMPOSITE_RACES = (
    {"weights": {"a": 3, "b": 2, "c": 1}, "patterns": ["bab", "bbb", "cac", "baa"],
     "initial": "c"},
    {"weights": {"a": 2, "b": 3, "c": 4},
     "patterns": ["babbbab", "ccabcbc", "abaa", "cabac"], "initial": None},
)
COMPOSITE_SERIES = 1500
# Symbols that JSON output escapes or that are not ASCII, given in turn
# to the letters of the escape_jobs copies.
ESCAPE_SYMBOLS = ('"', "\\", "\u00e9", "\u2028", "\t")
ESCAPE_SERIES = 8
ESCAPE_REPS = 50


def bench_module(checkout: str, name: str):
    """Imports bench/<name>.py of checkout (which puts its bench/ on sys.path)."""
    bench = os.path.join(checkout, "bench")
    if not os.path.isfile(os.path.join(bench, f"{name}.py")):
        sys.exit(f"no {name}.py under {bench}")
    sys.path.insert(0, bench)
    return __import__(name)


def replaced(argv: list, flag: str, value: str) -> list:
    """argv with the value that follows flag replaced by value."""
    at = argv.index(flag) + 1
    return argv[:at] + [value] + argv[at + 1:]


def negated_seed(argv: list) -> list:
    """argv with its --seed S replaced by -1 - S, which is negative."""
    return replaced(argv, "--seed", str(-1 - int(argv[argv.index("--seed") + 1])))


def invalid_jobs(workloads, job) -> list:
    """Jobs on the problem of a race_initial job that exit 2 or 3: copies
    that repeat a pattern, put a pattern inside another, put one inside
    the initial word before its last letter, or add an unknown symbol to
    the initial word, a copy whose first alphabet entry has no "prob",
    and simulate, martingale and correlate with a flag out of range."""
    path, problem = job.argv[1], job.problem
    pats = problem["patterns"]
    copies = {
        "repeated": dict(problem, patterns=[pats[0], pats[0]]),
        "contained": dict(problem, patterns=[pats[0] + pats[1]] + pats[1:]),
        "initial-inside": dict(problem, initial=pats[0] + pats[0][0]),
        "unknown-symbol": dict(problem, initial=problem["initial"] + UNKNOWN_SYMBOL),
    }
    jobs = []
    for label, copy in copies.items():
        copy_path = f"{path[:-len('.json')]}-{label}.json"
        workloads.write_problem(copy, copy_path)
        jobs.append(workloads.Job("race", ["race", copy_path, "--oracle"], copy))
    obj = json.loads(read(path))
    del obj["alphabet"][0]["prob"]
    copy_path = f"{path[:-len('.json')]}-no-prob.json"
    with open(copy_path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    jobs.append(workloads.Job("race", ["race", copy_path, "--oracle"], problem))
    jobs.append(workloads.Job("simulate", ["simulate", path, "--reps", "0"], problem))
    jobs.append(workloads.Job(
        "martingale", ["martingale", path, "--alpha", "1", "--reps", "1"], problem))
    jobs.append(workloads.Job(
        "martingale", ["martingale", path, "--pattern-index", str(len(pats)),
                       "--alpha", "1/2", "--reps", "1"], problem))
    jobs.append(workloads.Job("correlate", ["correlate", path, "--a", pats[0],
                                            "--b", pats[0], "--alpha", "0"], problem))
    return jobs


def escape_jobs(workloads, job) -> list:
    """Copies of job's problem whose letters are renamed to
    ESCAPE_SYMBOLS, taken in turn until each names a letter of some
    copy, each run as `race COPY --series 8 --oracle`, `validate COPY`,
    `correlate COPY --a INITIAL --b B1 --alpha 9/10` and `simulate COPY
    --reps 50`; and `validate` on one more copy whose initial word ends
    with a symbol outside its alphabet, which exits 3 with a message
    that quotes the renamed initial word and that symbol."""
    problem, stem = job.problem, job.argv[1][:-len(".json")]
    letters = list(problem["weights"])
    jobs = []
    for start in range(0, len(ESCAPE_SYMBOLS), len(letters)):
        names = [ESCAPE_SYMBOLS[(start + i) % len(ESCAPE_SYMBOLS)]
                 for i in range(len(letters))]
        rename = str.maketrans(dict(zip(letters, names)))
        copy = {"weights": dict(zip(names, problem["weights"].values())),
                "patterns": [p.translate(rename) for p in problem["patterns"]],
                "initial": problem["initial"].translate(rename)}
        path = f"{stem}-escape{start}.json"
        workloads.write_problem(copy, path)
        first = copy["patterns"][0]
        jobs += [
            workloads.Job("race", ["race", path, "--series", str(ESCAPE_SERIES),
                                   "--oracle"], copy, horizon=ESCAPE_SERIES),
            workloads.Job("validate", ["validate", path], copy),
            workloads.Job("correlate", ["correlate", path, "--a", copy["initial"],
                                        "--b", first, "--alpha", ALPHA], copy),
            workloads.Job("simulate", ["simulate", path, "--reps", str(ESCAPE_REPS)],
                          copy, reps=ESCAPE_REPS),
        ]
        if not start:
            outside = ESCAPE_SYMBOLS[len(letters) % len(ESCAPE_SYMBOLS)]
            bad = dict(copy, initial=copy["initial"] + outside)
            path = f"{stem}-escape-unknown.json"
            workloads.write_problem(bad, path)
            jobs.append(workloads.Job("validate", ["validate", path], bad))
    return jobs


def pole_job(workloads, job):
    """`race COPY --alpha W/(W - w)` on a copy of job's problem whose one
    pattern is its first letter, of weight w in a total W, and which has
    no initial word: the generating functions of that race have the
    denominator 1 - (1 - w/W) alpha, which vanishes there."""
    problem = job.problem
    weights = problem["weights"]
    symbol, w = next(iter(weights.items()))
    total = sum(weights.values())
    copy = dict(problem, patterns=[symbol], initial=None)
    path = f"{job.argv[1][:-len('.json')]}-pole.json"
    workloads.write_problem(copy, path)
    return workloads.Job("race", ["race", path, "--alpha", str(Fraction(total, total - w))],
                         copy)


def large_jobs(workloads, directory: str) -> list:
    """`race FILE --oracle` and `race FILE --series 64 --oracle` on each
    of LARGE_RACES."""
    jobs = []
    for m, length, weights in LARGE_RACES:
        rng = random.Random(f"large:{m}x{length}")
        problem = workloads.random_problem(rng, m, length, length, weights,
                                           with_initial=False)
        symbols = list(problem["weights"])
        problem["initial"] = "".join(rng.choice(symbols) for _ in range(LARGE_INITIAL))
        path = os.path.join(directory, f"large-{m}x{length}.json")
        workloads.write_problem(problem, path)
        for series in ([], ["--series", str(LARGE_SERIES)]):
            jobs.append(workloads.Job("race", ["race", path, "--oracle"] + series, problem,
                                      horizon=LARGE_SERIES if series else 0))
    return jobs


def make_jobs(directory: str) -> list:
    """(workload, seed, pass, job) for every benchmark job, and for each
    race job the same job once more without --series N, so that the
    oracle also runs to its own horizon alone; for each race_initial job
    `race FILE --alpha 9/10`, `race FILE --oracle --table`, its
    correlate jobs and `race --oracle --series 8` on its absorbed copy;
    for each simulate and martingale job its --max-steps 3 and
    negated-seed runs, and for each martingale job its --alpha 1/3 run;
    the invalid_jobs, pole_job and escape_jobs of each seed's first
    race_initial job; then the coin race's pole job, the two past-limit
    jobs, the large_jobs and the COMPOSITE_RACES jobs."""
    workloads = bench_module(ROOT, "workloads")
    jobs = []
    for name in WORKLOADS:
        for seed in SEEDS:
            sub = os.path.join(directory, f"{name}-seed{seed}")
            os.makedirs(sub)
            for index in range(PASSES):
                pass_jobs = workloads.make_pass(name, seed, index, sub)
                if name == "race_initial" and index == 0:
                    jobs.extend((name, seed, index, bad)
                                for bad in invalid_jobs(workloads, pass_jobs[0]))
                    jobs.append((name, seed, index, pole_job(workloads, pass_jobs[0])))
                    jobs.extend((name, seed, index, escaped)
                                for escaped in escape_jobs(workloads, pass_jobs[0]))
                for job in pass_jobs:
                    jobs.append((name, seed, index, job))
                    if job.kind == "race":
                        at = job.argv.index("--series")
                        argv = job.argv[:at] + job.argv[at + 2:]
                        jobs.append((name, seed, index,
                                     dataclasses.replace(job, argv=argv, horizon=0)))
                    if job.kind in ("simulate", "martingale"):
                        jobs.append((name, seed, index, dataclasses.replace(
                            job, argv=job.argv + ["--max-steps", str(TRUNCATED_STEPS)])))
                        jobs.append((name, seed, index,
                                     dataclasses.replace(job, argv=negated_seed(job.argv))))
                    if job.kind == "martingale":
                        jobs.append((name, seed, index, dataclasses.replace(
                            job, argv=replaced(job.argv, "--alpha", SECOND_ALPHA))))
                    if name == "race_initial":
                        for extra in (["--alpha", ALPHA], ["--oracle", "--table"]):
                            jobs.append((name, seed, index, dataclasses.replace(
                                job, argv=job.argv[:2] + extra, horizon=0)))
                        path, pats = job.argv[1], job.problem["patterns"]
                        pairs = [(job.problem["initial"], b) for b in pats]
                        for a, b in pairs + [(pats[0], pats[0])]:
                            argv = ["correlate", path, "--a", a, "--b", b, "--alpha", ALPHA]
                            jobs.append((name, seed, index, dataclasses.replace(
                                job, kind="correlate", argv=argv, horizon=0)))
                        absorbed = dict(job.problem, initial=pats[0])
                        copy = path[:-len(".json")] + "-absorbed.json"
                        workloads.write_problem(absorbed, copy)
                        argv = ["race", copy, "--oracle", "--series", str(ABSORBED_SERIES)]
                        jobs.append((name, seed, index, workloads.Job(
                            "race", argv, absorbed, horizon=ABSORBED_SERIES)))
    path = os.path.join(directory, "coin-pole.json")
    workloads.write_problem(COIN_POLE, path)
    jobs.append(("pole", 0, 0, workloads.Job(
        "race", ["race", path, "--alpha", COIN_POLE_ALPHA], COIN_POLE)))
    path = os.path.join(directory, "past-limit.json")
    workloads.write_problem(PAST_LIMIT, path)
    for oracle in ([], ["--oracle"]):
        argv = ["race", path, "--series", str(PAST_LIMIT_HORIZON)] + oracle
        jobs.append(("past_limit", 0, 0, workloads.Job("race", argv, PAST_LIMIT,
                                                       horizon=PAST_LIMIT_HORIZON)))
    jobs.extend(("large", 0, 0, job) for job in large_jobs(workloads, directory))
    for number, problem in enumerate(COMPOSITE_RACES):
        path = os.path.join(directory, f"composite-{number}.json")
        workloads.write_problem(problem, path)
        argv = ["race", path, "--series", str(COMPOSITE_SERIES), "--oracle"]
        jobs.append(("composite", 0, 0, workloads.Job("race", argv, problem,
                                                      horizon=COMPOSITE_SERIES)))
    return jobs


def first_difference(a: str, b: str) -> str:
    for number, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {number}: {x[:80]!r} != {y[:80]!r}"
    return f"lengths {len(a)} != {len(b)}"


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def main(parent: str, change: str) -> int:
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as directory:
        jobs = make_jobs(os.path.join(directory, "inputs"))
        payload = pickle.dumps([job[3] for job in jobs])
        workers, outdirs = [], []
        for label, checkout in (("parent", parent), ("change", change)):
            outdir = os.path.join(directory, label)
            os.makedirs(outdir)
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--worker",
                 os.path.abspath(checkout), outdir],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            proc.stdin.write(payload)
            proc.stdin.close()
            workers.append(proc)
            outdirs.append(outdir)
        outputs = [proc.stdout.read() for proc in workers]
        exits = [proc.wait() for proc in workers]
        if any(exits):
            sys.exit(f"worker exit codes {exits}")
        results = [json.loads(out) for out in outputs]

        differ = crashed = 0
        codes: dict = {}
        for number, ((name, seed, index, job), rc_a, rc_b) in enumerate(
                zip(jobs, *results)):
            out_a, out_b = (read(os.path.join(d, f"{number}.out")) for d in outdirs)
            err_a, err_b = (read(os.path.join(d, f"{number}.err")) for d in outdirs)
            codes[rc_a] = codes.get(rc_a, 0) + 1
            if 1 in (rc_a, rc_b):
                crashed += 1
                print(f"CRASH {name} seed {seed} pass {index}: "
                      f"{' '.join(job.argv)}: exit {rc_a} and {rc_b}")
            if rc_a != rc_b or out_a != out_b or err_a != err_b:
                differ += 1
                detail = (f"exit {rc_a} != {rc_b}" if rc_a != rc_b
                          else first_difference(out_a, out_b) if out_a != out_b
                          else "stderr " + first_difference(err_a, err_b))
                print(f"DIFFER {name} seed {seed} pass {index}: "
                      f"{' '.join(job.argv)}: {detail}")
    print(json.dumps({"jobs": len(jobs), "differ": differ, "crashed": crashed,
                      "parent_exit_codes": {str(k): v for k, v in sorted(codes.items())}}))
    return 1 if differ or crashed else 0


def worker(checkout: str, directory: str) -> None:
    """Runs each pickled job with the checkout's bench/run.py, writes its
    stdout to directory/<job number>.out and what it wrote to stderr to
    <job number>.err, and prints the exit codes.  run_job passes on the
    stderr of a job that exits nonzero (its last 2,000 characters) and
    drops that of a job that exits 0."""
    run = bench_module(checkout, "run")
    cli = run.load_program()
    codes = []
    for number, job in enumerate(pickle.loads(sys.stdin.buffer.read())):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = run.run_job(cli, job)
        for suffix, text in ((".out", out), (".err", err.getvalue())):
            with open(os.path.join(directory, f"{number}{suffix}"), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
        codes.append(rc)
    json.dump(codes, sys.stdout)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        worker(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit("usage: python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR")
