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
--oracle --series 8` on it: 180 jobs, 2,072 jobs in all.  Each
checkout runs all jobs in one worker process with its own
bench/run.py: load_program imports patternrace.cli from that
checkout's src, and run_job calls it in-process with stdout captured,
as the benchmark does.  The two outputs are then compared job by job.
Exit status 0 means every job printed the same stdout with the
same exit code in both checkouts, and no job exited 1 in either: the CLI
never returns 1, so that code is an uncaught exception, and a crash on
both sides would otherwise pass as a match.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import tempfile

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


def make_jobs(directory: str) -> list:
    """(workload, seed, pass, job) for every benchmark job, and for each
    race job the same job once more without --series N, so that the
    oracle also runs to its own horizon alone; for each race_initial job
    `race FILE --alpha 9/10`, `race FILE --oracle --table`, its
    correlate jobs and `race --oracle --series 8` on its absorbed copy;
    for each simulate and martingale job its --max-steps 3 and
    negated-seed runs, and for each martingale job its --alpha 1/3 run;
    then the two past-limit jobs."""
    workloads = bench_module(ROOT, "workloads")
    jobs = []
    for name in WORKLOADS:
        for seed in SEEDS:
            sub = os.path.join(directory, f"{name}-seed{seed}")
            os.makedirs(sub)
            for index in range(PASSES):
                for job in workloads.make_pass(name, seed, index, sub):
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
    path = os.path.join(directory, "past-limit.json")
    workloads.write_problem(PAST_LIMIT, path)
    for oracle in ([], ["--oracle"]):
        argv = ["race", path, "--series", str(PAST_LIMIT_HORIZON)] + oracle
        jobs.append(("past_limit", 0, 0, workloads.Job("race", argv, PAST_LIMIT,
                                                       horizon=PAST_LIMIT_HORIZON)))
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
            codes[rc_a] = codes.get(rc_a, 0) + 1
            if 1 in (rc_a, rc_b):
                crashed += 1
                print(f"CRASH {name} seed {seed} pass {index}: "
                      f"{' '.join(job.argv)}: exit {rc_a} and {rc_b}")
            if rc_a != rc_b or out_a != out_b:
                differ += 1
                detail = (f"exit {rc_a} != {rc_b}" if rc_a != rc_b
                          else first_difference(out_a, out_b))
                print(f"DIFFER {name} seed {seed} pass {index}: "
                      f"{' '.join(job.argv)}: {detail}")
    print(json.dumps({"jobs": len(jobs), "differ": differ, "crashed": crashed,
                      "parent_exit_codes": {str(k): v for k, v in sorted(codes.items())}}))
    return 1 if differ or crashed else 0


def worker(checkout: str, directory: str) -> None:
    """Runs each pickled job with the checkout's bench/run.py, writes its
    stdout to directory/<job number>.out and prints the exit codes."""
    run = bench_module(checkout, "run")
    cli = run.load_program()
    codes = []
    for number, job in enumerate(pickle.loads(sys.stdin.buffer.read())):
        rc, out = run.run_job(cli, job)
        with open(os.path.join(directory, f"{number}.out"), "w", encoding="utf-8") as fh:
            fh.write(out)
        codes.append(rc)
    json.dump(codes, sys.stdout)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        worker(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit("usage: python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR")
