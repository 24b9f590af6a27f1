"""Benchmark of the patternrace command line, one workload per process.

    python3 bench/run.py --workload race_initial --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each job is one ``patternrace.cli.main`` call made in this
process with its output captured; a pass is the workload's list of jobs,
on problems that no earlier pass of the run solved.  Passes repeat until
``--seconds`` have gone by.  After every job a fixed reference loop of
stdlib arithmetic is timed, and each pass's time is divided by the mean of
the reference times around its jobs, since the host's speed drifts; after
every pass the outputs are checked (checks.py).  The last line of standard
output is the result as JSON.

``--trace 1`` alternates untraced passes with passes traced by tracing.py
and reports the per-layer metrics instead.  ``--steadiness`` runs two sets
of untraced runs per workload and compares them; ``--selftest`` shows that
the checks reject corrupted outputs.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import checks
import workloads
from tracing import Tracer

SETUP_SAMPLES = 21     # fresh processes timed for setup_s
# setup_s is reported at the host speed where the reference loop takes this
# long (its median on the host of README.md), so that host drift between
# two sets of runs does not read as a change in set-up time.
NOMINAL_REF_S = 0.1
STEADINESS_RUNS = 10
# Exit codes with which the program reports that its own answer is wrong:
# the closed form disagrees with the automaton oracle, or the martingale
# bound is violated.
WRONG_ANSWER_CODES = (4, 5)


def load_program():
    """Import patternrace.cli from the checkout, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "patternrace", "cli.py")):
        sys.exit(f"no patternrace sources under {SRC}")
    sys.path.insert(0, SRC)
    from patternrace import cli
    return cli


def reference_loop():
    """Fixed stdlib work of the kinds the program does: seeded generators
    walking a table, Fractions that grow step by step, harmonic sums and
    big-integer polynomial products.  Calls nothing in patternrace."""
    acc = 0
    for i in range(240):
        rng = random.Random(f"reference:{i}")
        state = 0
        for _ in range(400):
            u = rng.random()
            a = 0
            while u >= _CUMULATIVE[a]:
                a += 1
            state = _TABLE[state][a]
        acc += state
    x, p = Fraction(9, 10), Fraction(1)
    for _ in range(1200):
        p *= x
        acc += (1 - p) / (1 - x) - p * 3 > 5
    h = Fraction(0)
    for i in range(1, 2500):
        h += Fraction(1, i)
    coeffs = [3 ** k + 1 for k in range(200, 300)]
    product = [0] * (2 * len(coeffs) - 1)
    for i, c in enumerate(coeffs):
        for j, d in enumerate(coeffs):
            product[i + j] += c * d
    return acc, h, product


_CUMULATIVE = (0.2, 0.5, 1.0)
_TABLE = tuple(tuple((s * 3 + a) % 16 for a in range(3)) for s in range(16))


def timed_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def run_job(cli, job):
    """One CLI call with stdout captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(job.argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a traceback is a failed job, not a failed run
            rc = 1
            print(f"{type(e).__name__}: {e}", file=err)
    if rc:
        sys.stderr.write(err.getvalue()[-2000:])
    return rc, out.getvalue()


def inputs_dir(workload: str, seed: int) -> str:
    path = os.path.join(OUT, "inputs", f"{workload}-seed{seed}")
    os.makedirs(path, exist_ok=True)
    return path


def setup_probe(workload: str, seed: int) -> None:
    """What a workload process does before its first timed job: import
    patternrace.cli and write the inputs of pass 0.  Prints its duration
    and then the time of one reference loop."""
    t0 = perf_counter()
    load_program()
    workloads.make_pass(workload, seed, 0, inputs_dir(workload, seed))
    elapsed = perf_counter() - t0
    print(json.dumps([elapsed, timed_reference()]))


def measure_setup(workload: str, seed: int) -> list:
    """(seconds, reference seconds) from fresh set-up processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, __file__, "--setup-probe", "--workload",
                               workload, "--seed", str(seed)],
                              check=True, cwd=ROOT, capture_output=True, text=True)
        samples.append(json.loads(proc.stdout))
    return samples


def output_sizes(jobs, outputs) -> dict:
    """Sizes read from one pass's outputs."""
    degree = bits = steps = 0
    for job, text in zip(jobs, outputs):
        if not text:
            continue
        out = json.loads(text)
        if job.kind == "race":
            rfs = [out["q_tau"], out["g_total"]] + out["g_per_pattern"]
            degree = max(degree, len(out["q_tau"]["den"]) - 1)
            for rf in rfs:
                for c in rf["num"] + rf["den"]:
                    f = Fraction(c)
                    bits = max(bits, f.numerator.bit_length(), f.denominator.bit_length())
        elif job.kind == "simulate":
            steps += sum(int(t) * c for t, c in out["histogram"].items())
    return {"serialize.out_bytes": sum(len(t) for t in outputs),
            "solver.den_degree": degree, "solver.coeff_bits": bits,
            "oracle.monte_carlo.steps": steps}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    setup = None if trace else measure_setup(workload, seed)
    cli = load_program()
    directory = inputs_dir(workload, seed)
    tracer = Tracer() if trace else None
    passes, norms, traced, refs, per_layer = [], [], [], [], []
    attempted = failed = wrong = 0
    begin = perf_counter()
    index = 0
    while True:
        jobs = workloads.make_pass(workload, seed, index, directory)
        traced_pass = trace and index % 2 == 0
        if traced_pass:
            tracer.reset_pass()
            tracer.install()
        outputs = []
        elapsed = 0.0
        for job in jobs:
            if traced_pass:
                tracer.job_id = attempted + len(outputs)
            t0 = perf_counter()
            outputs.append(run_job(cli, job))
            elapsed += perf_counter() - t0
            refs.append(timed_reference())
        if traced_pass:
            tracer.remove()
        for job, (rc, text) in zip(jobs, outputs):
            attempted += 1
            errors = checks.check_job(job, rc, text)
            if errors:
                failed += 1
                wrong += rc == 0 or rc in WRONG_ANSWER_CODES
                print(f"FAILED {' '.join(job.argv)}: {'; '.join(errors)}", file=sys.stderr)
        texts = [text for _, text in outputs]
        if traced_pass:
            traced.append(elapsed)
            per_layer.append({**tracer.pass_metrics(), **output_sizes(jobs, texts)})
        else:
            passes.append(elapsed)
            norms.append(elapsed / statistics.mean(refs[-len(jobs):]))
        index += 1
        if perf_counter() - begin >= seconds and (not trace or index >= 2):
            break

    ref = statistics.median(refs)
    info = {"workload": workload, "seed": seed, "passes": index,
            "jobs_per_pass": len(jobs), "pass_s": statistics.median(passes),
            "host.ref_s": ref, "setup_samples_s": setup,
            "pass_samples_s": passes, "ref_samples_s": refs}
    if trace:
        values = {"host.ref_s": ref, "trace.pass_s": statistics.median(traced),
                  "trace.overhead_s": statistics.median(traced) - statistics.median(passes)}
        for name, metric in spec["per_layer"].items():
            if name in values:
                continue
            if metric["unit"] == "s":
                values[name] = statistics.median(p[name] for p in per_layer)
            else:  # counts and sizes repeat exactly for a seed: first traced pass
                values[name] = per_layer[0][name]
        metrics = spec["per_layer"]
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"))
    else:
        values = {"pass_norm": statistics.median(norms),
                  "setup_s": statistics.median(s / r for s, r in setup) * NOMINAL_REF_S,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = spec["end_to_end"]
    info["traced_pass_s"] = statistics.median(traced) if traced else None
    return {"info": info,
            "result": {"correct": wrong == 0, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": values[name], "unit": m["unit"]}
                                   for name, m in metrics.items()}}}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"workloads": [w["name"] for w in spec["workloads"]],
            "run_seconds": spec["run_seconds"],
            "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


# ---------------------------------------------------------------------------
# steadiness: two sets of runs of the same code

def steadiness(spec: dict, seconds: int, names: list) -> int:
    """Runs each workload STEADINESS_RUNS times on seeds 1..10 (set A),
    then on seeds 11..20 (set B), and compares the sets metric by metric:
    the spread (quartile distance over median) of each set, and how far
    B's median is from A's, both against the metric's bound."""
    runs = STEADINESS_RUNS
    report = {}
    ok = True
    for workload in names:
        sets = []
        for first in (1, runs + 1):
            results = []
            for seed in range(first, first + runs):
                proc = subprocess.run(
                    [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=True)
                results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            sets.append(results)
        shares = [sorted({r["failed"] / r["attempted"] for r in s}) for s in sets]
        rows = {}
        print(f"{workload}: failed shares {shares[0]} / {shares[1]}")
        ok &= shares[0] == shares[1] == [0.0]
        for name, metric in spec["end_to_end"].items():
            row = {}
            for label, results in zip("AB", sets):
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                row[label] = {"values": values, "q1": q1, "median": med, "q3": q3,
                              "spread": (q3 - q1) / med}
            worse = row["B"]["median"] / row["A"]["median"] - 1
            if metric["better"] == "higher":
                worse = -worse
            row["B_worse_by"] = worse
            row["bound"] = metric["bound"]
            steady = max(abs(worse), row["A"]["spread"], row["B"]["spread"]) <= metric["bound"]
            ok &= steady
            rows[name] = row
            print(f"  {name:12} A {row['A']['median']:.4f} [{row['A']['q1']:.4f}, "
                  f"{row['A']['q3']:.4f}] spread {row['A']['spread']:.3f} | "
                  f"B {row['B']['median']:.4f} [{row['B']['q1']:.4f}, {row['B']['q3']:.4f}] "
                  f"spread {row['B']['spread']:.3f} | B worse by {worse:+.3f}, "
                  f"bound {metric['bound']} {'ok' if steady else 'NOT STEADY'}")
        report[workload] = {"failed_shares": shares, "metrics": rows}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# self-test: the checks accept real outputs and reject corrupted ones

def _bump(text: str) -> str:
    return str(Fraction(text) + Fraction(1, 7))


CORRUPTIONS = {
    "race": [
        ("win_probs[0]", lambda o: o["win_probs"].__setitem__(0, _bump(o["win_probs"][0]))),
        ("expected_tau", lambda o: o.__setitem__("expected_tau", _bump(o["expected_tau"]))),
        ("q_tau.num[0]", lambda o: o["q_tau"]["num"].__setitem__(0, _bump(o["q_tau"]["num"][0]))),
        ("g_1.den[1]", lambda o: o["g_per_pattern"][0]["den"].__setitem__(
            1, _bump(o["g_per_pattern"][0]["den"][1]))),
        ("series column 0, last term", lambda o: o["series"]["per_pattern"][0].__setitem__(
            -1, _bump(o["series"]["per_pattern"][0][-1]))),
        ("series columns swapped", lambda o: o["series"]["per_pattern"].reverse()),
        ("totals[5]", lambda o: o["series"]["totals"].__setitem__(5, _bump(o["series"]["totals"][5]))),
        ("tail_mass", lambda o: o["series"].__setitem__("tail_mass",
                                                         _bump(o["series"]["tail_mass"]))),
        ("series truncated", lambda o: o["series"]["per_pattern"][0].pop()),
    ],
    "simulate": [
        ("count", lambda o: o["patterns"][0].__setitem__("count", o["patterns"][0]["count"] + 1)),
        ("z_score", lambda o: o["patterns"][0].__setitem__("z_score", 6.0)),
        ("exact", lambda o: o["patterns"][0].__setitem__("exact", _bump(o["patterns"][0]["exact"]))),
        ("truncated", lambda o: o.__setitem__("truncated", 1)),
        ("mean_tau", lambda o: o.__setitem__("mean_tau", _bump(o["mean_tau"]))),
    ],
    "martingale": [
        ("y0_exact", lambda o: o.__setitem__("y0_exact", _bump(o["y0_exact"]))),
        ("violations", lambda o: o["violations"].append([0, 1])),
        ("z_score", lambda o: o.__setitem__("z_score", float("nan"))),
        ("truncated", lambda o: o.__setitem__("truncated", 2)),
    ],
}


def selftest(names: list) -> int:
    cli = load_program()
    ok = True
    for workload in names:
        jobs = workloads.make_pass(workload, 1, 0, inputs_dir(workload, 1))
        for job in jobs:
            rc, text = run_job(cli, job)
            errors = checks.check_job(job, rc, text)
            print(f"{workload} {job.kind}: real output {'accepted' if not errors else errors}")
            ok &= not errors
            if checks.check_job(job, 1, text) == []:
                ok = False
                print("  nonzero exit code NOT rejected")
            for label, corrupt in CORRUPTIONS[job.kind]:
                out = json.loads(text)
                corrupt(out)
                errors = checks.check_job(job, 0, json.dumps(out))
                ok &= bool(errors)
                print(f"  {label}: {'rejected: ' + errors[0] if errors else 'NOT REJECTED'}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--steadiness", action="store_true",
                        help="two sets of runs per workload, compared against the bounds")
    parser.add_argument("--selftest", action="store_true",
                        help="show that the checks reject corrupted outputs")
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    load_program()
    spec = load_spec()
    names = [args.workload] if args.workload else spec["workloads"]
    if args.selftest:
        return selftest(names)
    seconds = args.seconds or spec["run_seconds"]
    if args.steadiness:
        return steadiness(spec, seconds, names)
    if not args.workload:
        parser.error("--workload is required")
    run = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1)
    print(json.dumps({"info": run["info"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
