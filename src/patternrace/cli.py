"""Command-line interface.

Exit codes are a stable contract: 0 success, 2 validation or usage
error, 3 parse error, 4 solver/oracle disagreement, 5 martingale bound
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

from . import oracle as oracle_mod
from . import solver as solver_mod
from .correlation import correlation, evaluate
from .model import InvalidRaceError, ValidationReport
from .serialize import (
    DEFAULT_DIGITS,
    MAX_DIGITS,
    ParseError,
    input_digest,
    load_problem,
    parse_pattern_spec,
    parse_rational_str,
    rational_str,
    solution_to_obj,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_MISMATCH = 4
EXIT_MARTINGALE = 5


class UsageError(ValueError):
    pass


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_report(report) -> int:
    _emit({
        "valid": report.ok,
        "violations": [
            {"code": v.code, "message": v.message, "indices": list(v.indices)}
            for v in report.violations
        ],
    })
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_validate(args) -> int:
    # An invalid problem raises InvalidRaceError in load_problem, and
    # main reports it.
    load_problem(args.input)
    return _emit_report(ValidationReport())


def cmd_race(args) -> int:
    if args.series is not None and args.series < 0:
        raise UsageError("--series horizon must be >= 0")
    if args.digits is not None and not 1 <= args.digits <= MAX_DIGITS:
        raise UsageError(f"--digits must be between 1 and {MAX_DIGITS}")
    problem, data = load_problem(args.input)
    digest = input_digest(data)
    sol = solver_mod.solve_race(problem)
    table = None
    if args.series is not None:
        table = solver_mod.series(problem, args.series, sol)
    out = solution_to_obj(problem, sol, digits=args.digits,
                          series_table=table, digest=digest)
    if args.alpha is not None:
        alpha = parse_rational_str(args.alpha)
        try:
            out["at_alpha"] = {
                "alpha": rational_str(alpha),
                "g_total": rational_str(sol.g_total(alpha)),
                "q_tau": rational_str(sol.q_tau(alpha)),
                "g_per_pattern": [rational_str(g(alpha)) for g in sol.g_per_pattern],
            }
        except ZeroDivisionError as e:
            raise UsageError(f"--alpha {args.alpha} is a pole: {e}") from None
    mismatch = False
    if args.oracle:
        auto = oracle_mod.build_automaton(problem)
        why, series_why = oracle_mod.certify(auto, sol, table)
        agree = why is None
        # Agreement certifies the printed values as g_k(1) and q_tau(1).
        oracle_out = {
            "win_probs": [rational_str(p) for p in sol.win_probs] if agree else None,
            "expected_tau": rational_str(sol.expected_tau) if agree else None,
            "agree": agree,
        }
        if table is not None:
            oracle_out["series_agree"] = series_why is None
        out["oracle"] = oracle_out
        # A function's disagreement is named before a series entry's.
        why = why or series_why
        mismatch = why is not None
        if mismatch:
            at = "" if why.index is None else f" coefficient {why.index}"
            print(f"oracle disagreement: {why.quantity}{at}: closed form "
                  f"{rational_str(why.closed_form)}, oracle {rational_str(why.oracle)}",
                  file=sys.stderr)
    if args.table:
        _print_race_table(out)
    else:
        _emit(out)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _print_race_table(out) -> None:
    print(f"expected waiting time: {out['expected_tau']}"
          f" = {out['expected_tau_decimal']}")
    print("pattern        win prob        decimal")
    for p, w, dec in zip(out["patterns"], out["win_probs"], out["win_probs_decimal"]):
        print(f"{p:<14} {w:<15} {dec}")
    if "oracle" in out:
        print(f"oracle agreement: {out['oracle']['agree']}")
    if "series" in out:
        s = out["series"]
        print(f"series horizon {s['horizon']}, tail mass {s['tail_mass']}")


def cmd_correlate(args) -> int:
    problem, _ = load_problem(args.input)
    alphabet = problem.alphabet
    # Multi-character symbols are written space-separated, as race
    # prints them.
    a, b = (parse_pattern_spec(spec if alphabet.single_char else spec.split(), alphabet)
            for spec in (args.a, args.b))
    terms = correlation(a, b, alphabet)
    out = {
        "a": args.a,
        "b": args.b,
        "terms": {str(e): rational_str(c) for e, c in sorted(terms.items())},
    }
    if args.alpha is not None:
        alpha = parse_rational_str(args.alpha)
        if alpha <= 0:
            raise UsageError("--alpha must be positive")
        out["value"] = rational_str(evaluate(terms, alpha))
    _emit(out)
    return EXIT_OK


def _check_sampling_args(args) -> None:
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    if args.max_steps < 1:
        raise UsageError("--max-steps must be >= 1")


def cmd_simulate(args) -> int:
    _check_sampling_args(args)
    problem, _ = load_problem(args.input)
    auto = oracle_mod.build_automaton(problem)
    report = oracle_mod.monte_carlo(auto, args.reps, seed=args.seed,
                                    max_steps=args.max_steps)
    sol = solver_mod.solve_race(problem)
    patterns = [problem.alphabet.format_pattern(p) for p in problem.patterns]
    rows = []
    for name, count, freq, exact in zip(patterns, report.win_counts,
                                        report.win_freqs, sol.win_probs):
        se = math.sqrt(float(exact) * (1 - float(exact)) / report.reps)
        z = (float(freq) - float(exact)) / se if se else 0.0
        rows.append({
            "pattern": name,
            "count": count,
            "frequency": rational_str(freq),
            "exact": rational_str(exact),
            "z_score": z,
        })
    _emit({
        "reps": report.reps,
        "seed": report.seed,
        "max_steps": report.max_steps,
        "truncated": report.truncated,
        "mean_tau": rational_str(report.mean_tau) if report.mean_tau is not None else None,
        "exact_expected_tau": rational_str(sol.expected_tau),
        "patterns": rows,
        "histogram": {str(k): v for k, v in report.histogram.items()},
    })
    return EXIT_OK


def _json_float(x: float):
    """JSON has no NaN or infinity; such a statistic is emitted as null."""
    return x if math.isfinite(x) else None


def cmd_martingale(args) -> int:
    _check_sampling_args(args)
    alpha = parse_rational_str(args.alpha)
    if not 0 < alpha < 1:
        raise UsageError("--alpha must lie strictly inside (0, 1)")
    problem, _ = load_problem(args.input)
    if not 0 <= args.pattern_index < problem.num_patterns:
        raise UsageError(f"--pattern-index out of range 0..{problem.num_patterns - 1}")
    report = oracle_mod.martingale_check(
        problem, args.pattern_index, alpha,
        reps=args.reps, seed=args.seed, max_steps=args.max_steps)
    _emit({
        "alpha": rational_str(report.alpha),
        "reps": report.reps,
        "seed": report.seed,
        "y0_exact": rational_str(report.y0),
        "empirical_mean": _json_float(report.empirical_mean),
        "std_error": _json_float(report.std_error),
        "z_score": _json_float(report.z_score),
        "bound": rational_str(report.bound),
        "violations": [list(v) for v in report.violations],
        "truncated": report.truncated,
    })
    return EXIT_MARTINGALE if report.violations else EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first main call, not
    at import.  parse_args leaves it unchanged, so every call may share
    it."""
    parser = argparse.ArgumentParser(
        prog="patternrace",
        description="Exact solver for pattern-occurrence races in i.i.d. letter streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a problem file")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("race", help="solve a race in closed form")
    p.add_argument("input")
    p.add_argument("--alpha", help="also evaluate the generating functions here")
    p.add_argument("--series", type=int, help="emit the exact distribution up to N")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the automaton oracle")
    p.add_argument("--table", action="store_true",
                   help="print a plain-text summary instead of JSON")
    p.add_argument("--digits", type=int, default=None,
                   help=f"decimal display precision, 1 to {MAX_DIGITS}"
                   f" (default {DEFAULT_DIGITS})")
    p.set_defaults(func=cmd_race)

    p = sub.add_parser("correlate", help="print a correlation polynomial")
    p.add_argument("input")
    p.add_argument("--a", required=True, help="already-seen pattern")
    p.add_argument("--b", required=True, help="awaited pattern")
    p.add_argument("--alpha", help="evaluate at this rational")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("simulate", help="seeded Monte Carlo cross-check")
    p.add_argument("input")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=oracle_mod.DEFAULT_MAX_STEPS)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("martingale", help="simulate the casino net-gain martingale")
    p.add_argument("input")
    p.add_argument("--pattern-index", type=int, default=0)
    p.add_argument("--alpha", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=oracle_mod.DEFAULT_MAX_STEPS)
    p.set_defaults(func=cmd_martingale)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidRaceError as e:
        return _emit_report(e.report)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
