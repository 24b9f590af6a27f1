"""Command-line interface.

Exit codes are a stable contract: 0 success, 2 validation or usage
error or a degenerate race system, 3 parse error, 4 solver/oracle
disagreement, 5 martingale bound violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import oracle as oracle_mod
from . import solver as solver_mod
from .model import validate_race
from .serialize import (
    ParseError,
    decimal_str,
    default_digits,
    input_digest,
    load_problem,
    parse_pattern_spec,
    parse_rational_str,
    rational_str,
    series_to_obj,
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


def _load_validated(path: str):
    problem = load_problem(path)
    report = validate_race(problem)
    if not report.ok:
        _emit({
            "valid": False,
            "violations": [
                {"code": v.code, "message": v.message, "indices": list(v.indices)}
                for v in report.violations
            ],
        })
        return None
    return problem


def cmd_validate(args) -> int:
    problem = load_problem(args.input)
    report = validate_race(problem)
    _emit({
        "valid": report.ok,
        "violations": [
            {"code": v.code, "message": v.message, "indices": list(v.indices)}
            for v in report.violations
        ],
    })
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_race(args) -> int:
    if args.series is not None and args.series < 0:
        raise UsageError("--series horizon must be >= 0")
    if args.digits is not None and args.digits < 1:
        raise UsageError("--digits must be >= 1")
    problem = _load_validated(args.input)
    if problem is None:
        return EXIT_VALIDATION
    sol = solver_mod.solve_race(problem)
    table = None
    if args.series is not None:
        table = solver_mod.series(problem, args.series, sol)
    out = solution_to_obj(problem, sol, digits=args.digits,
                          series_table=table, digest=input_digest(args.input))
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
        wins, expected = oracle_mod.absorbing_solve(problem)
        agree = (wins == sol.win_probs and expected == sol.expected_tau)
        oracle_out = {
            "win_probs": [rational_str(p) for p in wins],
            "expected_tau": rational_str(expected),
            "agree": agree,
        }
        if table is not None:
            dp = oracle_mod.exact_distribution(problem, table.horizon)
            series_agree = (dp.per_pattern == table.per_pattern
                            and dp.tail_mass == table.tail_mass)
            oracle_out["series_agree"] = series_agree
            agree = agree and series_agree
        out["oracle"] = oracle_out
        mismatch = not agree
    if args.table:
        _print_race_table(problem, sol, out)
    else:
        _emit(out)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _print_race_table(problem, sol, out) -> None:
    fmt = problem.alphabet.format_pattern
    print(f"expected waiting time: {rational_str(sol.expected_tau)}"
          f" = {decimal_str(sol.expected_tau)}")
    print("pattern        win prob        decimal")
    for p, w in zip(problem.patterns, sol.win_probs):
        print(f"{fmt(p):<14} {rational_str(w):<15} {decimal_str(w)}")
    if "oracle" in out:
        print(f"oracle agreement: {out['oracle']['agree']}")
    if "series" in out:
        s = out["series"]
        print(f"series horizon {s['horizon']}, tail mass {s['tail_mass']}")


def cmd_correlate(args) -> int:
    problem = load_problem(args.input)
    a = parse_pattern_spec(args.a, problem.alphabet)
    b = parse_pattern_spec(args.b, problem.alphabet)
    from .correlation import correlation

    lp = correlation(a, b, problem.alphabet)
    out = {
        "a": args.a,
        "b": args.b,
        "terms": {str(e): rational_str(c) for e, c in sorted(lp.terms.items())},
    }
    if args.alpha is not None:
        alpha = parse_rational_str(args.alpha)
        if alpha <= 0:
            raise UsageError("--alpha must be positive")
        out["value"] = rational_str(lp(alpha))
    _emit(out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    problem = _load_validated(args.input)
    if problem is None:
        return EXIT_VALIDATION
    report = oracle_mod.monte_carlo(problem, args.reps, seed=args.seed,
                                    max_steps=args.max_steps)
    wins, expected = oracle_mod.absorbing_solve(problem)
    patterns = [problem.alphabet.format_pattern(p) for p in problem.patterns]
    rows = []
    for name, count, freq, exact in zip(patterns, report.win_counts,
                                        report.win_freqs, wins):
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
        "exact_expected_tau": rational_str(expected),
        "patterns": rows,
        "histogram": {str(k): v for k, v in report.histogram.items()},
    })
    return EXIT_OK


def _json_float(x: float):
    """JSON has no NaN or infinity; such a statistic is emitted as null."""
    return x if math.isfinite(x) else None


def cmd_martingale(args) -> int:
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    alpha = parse_rational_str(args.alpha)
    if not 0 < alpha < 1:
        raise UsageError("--alpha must lie strictly inside (0, 1)")
    problem = _load_validated(args.input)
    if problem is None:
        return EXIT_VALIDATION
    if not 0 <= args.pattern_index < problem.num_patterns:
        raise UsageError(f"--pattern-index out of range 0..{problem.num_patterns - 1}")
    b = problem.patterns[args.pattern_index]
    report = oracle_mod.martingale_check(
        b, problem.initial, problem.alphabet, alpha,
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


def build_parser() -> argparse.ArgumentParser:
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
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="table", action="store_false", default=False)
    fmt.add_argument("--table", dest="table", action="store_true")
    p.add_argument("--digits", type=int, default=None,
                   help=f"decimal display precision (default {default_digits()})")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except solver_mod.DegenerateCollectionError as e:
        print(f"degenerate collection: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
