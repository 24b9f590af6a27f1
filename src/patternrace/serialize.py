"""Problem/result file schemas.

Rationals cross the boundary as strings ("31/6"), never floats, so a
round-trip reproduces every exact value bit for bit.  Decimal fields are
presentation only.
"""

from __future__ import annotations

import decimal
import hashlib
import json
import os
from fractions import Fraction
from typing import Optional, Union

from . import __version__
from .algebra import RationalFunc
from .model import (
    Alphabet,
    AlphabetError,
    Pattern,
    PatternError,
    RaceProblem,
    make_alphabet,
    parse_rational,
)
from .solver import RaceSolution, SeriesTable

DIGITS_ENV = "PATTERNRACE_DIGITS"
DEFAULT_DIGITS = 12


class ParseError(ValueError):
    pass


def default_digits() -> int:
    raw = os.environ.get(DIGITS_ENV)
    if raw is None:
        return DEFAULT_DIGITS
    try:
        n = int(raw)
    except ValueError:
        return DEFAULT_DIGITS
    return n if n > 0 else DEFAULT_DIGITS


def rational_str(x: Fraction) -> str:
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        # Past sys.get_int_max_str_digits(); Decimal conversion is exact
        # and not subject to that limit.
        num, den = (str(decimal.Decimal(v)) for v in (x.numerator, x.denominator))
        return num if x.denominator == 1 else f"{num}/{den}"


def parse_rational_str(text: Union[str, int]) -> Fraction:
    if isinstance(text, float):
        raise ParseError(f"floats are not accepted as rationals: {text!r}")
    try:
        return parse_rational(text)
    except (ValueError, TypeError) as e:
        raise ParseError(str(e)) from None


def decimal_str(x: Fraction, digits: Optional[int] = None) -> str:
    digits = digits or default_digits()
    ctx = decimal.Context(prec=digits)
    d = ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    return str(d)


def parse_pattern_spec(spec, alphabet: Alphabet) -> Pattern:
    try:
        return alphabet.pattern(spec)
    except (PatternError, TypeError) as e:
        raise ParseError(f"bad pattern {spec!r}: {e}") from None


def parse_problem(text: str) -> RaceProblem:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    return problem_from_obj(obj)


def problem_from_obj(obj) -> RaceProblem:
    if not isinstance(obj, dict):
        raise ParseError("problem file must be a JSON object")
    if "alphabet" not in obj or "patterns" not in obj:
        raise ParseError("problem file needs 'alphabet' and 'patterns'")
    for key in ("alphabet", "patterns"):
        if not isinstance(obj[key], list):
            raise ParseError(f"'{key}' must be a JSON list")
    entries = []
    for item in obj["alphabet"]:
        if not isinstance(item, dict) or "symbol" not in item or "prob" not in item:
            raise ParseError("alphabet entries need 'symbol' and 'prob'")
        entries.append((item["symbol"], parse_rational_str(item["prob"])))
    try:
        alphabet = make_alphabet(entries)
    except (AlphabetError, ValueError) as e:
        raise ParseError(f"bad alphabet: {e}") from None
    patterns = tuple(parse_pattern_spec(p, alphabet) for p in obj["patterns"])
    if not patterns:
        raise ParseError("at least one competing pattern required")
    initial = obj.get("initial")
    init_pattern = None
    if initial is not None:
        init_pattern = parse_pattern_spec(initial, alphabet)
    return RaceProblem(alphabet=alphabet, patterns=patterns, initial=init_pattern)


def load_problem(path: str) -> RaceProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    return parse_problem(text)


def input_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# result serialization

def rf_to_obj(rf: RationalFunc) -> dict:
    return {
        "num": [rational_str(c) for c in rf.num],
        "den": [rational_str(c) for c in rf.den],
    }


def rf_from_obj(obj) -> RationalFunc:
    return RationalFunc(
        tuple(parse_rational_str(c) for c in obj["num"]),
        tuple(parse_rational_str(c) for c in obj["den"]),
    )


def series_to_obj(table: SeriesTable) -> dict:
    return {
        "horizon": table.horizon,
        "per_pattern": [
            [rational_str(c) for c in col] for col in table.per_pattern
        ],
        "totals": [rational_str(c) for c in table.totals],
        "tail_mass": rational_str(table.tail_mass),
    }


def solution_to_obj(problem: RaceProblem, sol: RaceSolution,
                    digits: Optional[int] = None,
                    series_table: Optional[SeriesTable] = None,
                    digest: Optional[str] = None) -> dict:
    digits = digits or default_digits()
    fmt = problem.alphabet.format_pattern
    out = {
        "metadata": {
            "tool": "patternrace",
            "version": __version__,
            "input_digest": digest,
        },
        "patterns": [fmt(p) for p in problem.patterns],
        "initial": fmt(problem.initial) if problem.initial is not None else None,
        "win_probs": [rational_str(p) for p in sol.win_probs],
        "win_probs_decimal": [decimal_str(p, digits) for p in sol.win_probs],
        "expected_tau": rational_str(sol.expected_tau),
        "expected_tau_decimal": decimal_str(sol.expected_tau, digits),
        "q_tau": rf_to_obj(sol.q_tau),
        "g_total": rf_to_obj(sol.g_total),
        "g_per_pattern": [rf_to_obj(g) for g in sol.g_per_pattern],
        "win_numerators": [rational_str(w) for w in sol.win_numerators],
        "win_denominator": rational_str(sol.win_denominator),
    }
    if series_table is not None:
        out["series"] = series_to_obj(series_table)
    return out
