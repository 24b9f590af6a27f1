"""Problem/result file schemas.

Rationals cross the boundary as strings ("31/6"), never floats, so a
round-trip reproduces every exact value bit for bit.  Decimal fields are
presentation only.

load_problem returns the bytes it parsed along with the problem, and
input_digest hashes them; only race prints that digest, so only race
loads hashlib.
"""

from __future__ import annotations

import decimal
import json
from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import mul
from typing import Optional, Tuple, Union

from . import __version__
from .algebra import RationalFunc
from .model import (
    Alphabet,
    AlphabetError,
    Pattern,
    PatternError,
    RaceProblem,
    int_str,
    parse_rational,
    rational_str,
)
from .solver import RaceSolution, SeriesTable

DEFAULT_DIGITS = 12
# Largest decimal display precision accepted; the decimal context
# allocates memory in proportion to it.
MAX_DIGITS = 10_000
# Largest --series horizon accepted; the printed table grows about as
# its square (the README gives measured costs at the cap).
MAX_SERIES = 5_000


class ParseError(ValueError):
    pass


def parse_rational_str(text: Union[str, int]) -> Fraction:
    # bool is an int subclass: JSON true would otherwise read as 1.
    if isinstance(text, (bool, float)):
        raise ParseError(f"{type(text).__name__}s are not accepted as rationals: {text!r}")
    try:
        return parse_rational(text)
    except (ValueError, TypeError) as e:
        raise ParseError(str(e)) from None


def decimal_str(x: Fraction, digits: Optional[int] = None) -> str:
    digits = digits or DEFAULT_DIGITS
    ctx = decimal.Context(prec=digits)
    d = ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    return str(d)


def parse_pattern_spec(spec, alphabet: Alphabet) -> Pattern:
    # Alphabet.pattern would read any iterable, so a JSON object would
    # pass as the list of its keys.
    if not isinstance(spec, (str, list)):
        raise ParseError(f"bad pattern {spec!r}: not a string or a list of symbols")
    try:
        return alphabet.pattern(spec)
    except (PatternError, TypeError) as e:
        raise ParseError(f"bad pattern {spec!r}: {e}") from None


def parse_problem(text: str) -> RaceProblem:
    try:
        obj = json.loads(text)
    except ValueError as e:
        # JSONDecodeError, or an integer literal past
        # sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    return problem_from_obj(obj)


def problem_from_obj(obj) -> RaceProblem:
    if not isinstance(obj, dict):
        raise ParseError("problem file must be a JSON object")
    if "alphabet" not in obj or "patterns" not in obj:
        raise ParseError("problem file needs 'alphabet' and 'patterns'")
    for key in ("alphabet", "patterns"):
        if not isinstance(obj[key], list):
            raise ParseError(f"'{key}' must be a JSON list")
    symbols, probs = [], []
    for item in obj["alphabet"]:
        if not isinstance(item, dict) or "symbol" not in item or "prob" not in item:
            raise ParseError("alphabet entries need 'symbol' and 'prob'")
        symbols.append(item["symbol"])
        probs.append(parse_rational_str(item["prob"]))
    try:
        alphabet = Alphabet(tuple(symbols), tuple(probs))
    except AlphabetError as e:
        raise ParseError(f"bad alphabet: {e}") from None
    patterns = tuple(parse_pattern_spec(p, alphabet) for p in obj["patterns"])
    initial = obj.get("initial")
    init_pattern = None
    if initial is not None:
        init_pattern = parse_pattern_spec(initial, alphabet)
    return RaceProblem(alphabet=alphabet, patterns=patterns, initial=init_pattern)


def load_problem(path: str) -> Tuple[RaceProblem, bytes]:
    """The problem in the file at path, and the bytes it was parsed from.
    The file is read once, so a digest of those bytes cannot come from a
    pipe drained meanwhile or a file replaced since."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8: {e}") from None
    return parse_problem(text), data


def input_digest(data: bytes) -> str:
    """The sha256 hex digest of data, as metadata.input_digest prints it."""
    # Imported here: hashlib's libcrypto costs megabytes of memory and ms of import.
    import hashlib
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# result serialization

# A string list goes out this many strings a write, never whole.
_CHUNK = 64
# The bytes a JSON string holds unescaped: printable ASCII but '"' and '\\'.
_PLAIN = bytes(b for b in range(0x20, 0x7F) if b not in b'"\\')
# JSON's text for the scalars whose repr is not JSON.
_JSON_REPR = {"None": "null", "True": "true", "False": "false",
              "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_json(obj, write, pad: str = "\n") -> None:
    """Write obj through write exactly as json.dump(obj, fp, indent=2)
    writes it.  A chunk of a string list that one C-level scan finds
    free of anything to escape is joined as it stands; any other chunk
    is escaped string by string."""
    inner = pad + "  "
    if isinstance(obj, str):
        write(encode_basestring_ascii(obj))
    elif obj is None or type(obj) in (bool, int, float):
        text = repr(obj)
        write(_JSON_REPR.get(text, text))
    elif not isinstance(obj, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    elif not obj:
        write("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        for i, (key, value) in enumerate(obj.items()):
            write(("," if i else "{") + inner + encode_basestring_ascii(key) + ": ")
            write_json(value, write, inner)
        write(pad + "}")
    else:
        sep = "," + inner
        write("[" + inner)
        if set(map(type, obj)) == {str}:
            joint = '"' + sep + '"'
            for at in range(0, len(obj), _CHUNK):
                chunk = obj[at:at + _CHUNK]
                raw = "".join(chunk)
                text = ('"' + joint.join(chunk) + '"'
                        if raw.isascii() and not raw.encode().translate(None, _PLAIN)
                        else sep.join(map(encode_basestring_ascii, chunk)))
                write(sep + text if at else text)
        else:
            for i, value in enumerate(obj):
                write(sep if i else "")
                write_json(value, write, inner)
        write(pad + "]")


def rf_to_obj(rf: RationalFunc) -> dict:
    """Both coefficient lists of rf with its denominator made monic,
    each c / lc printed as rational_str prints Fraction(c, lc), from the
    integer pair: lc = iden[-1] > 0, so one gcd puts c / lc in lowest
    terms."""
    lc = rf.iden[-1]

    def show(c: int) -> str:
        g = gcd(c, lc)
        num = int_str(c // g)
        return num if g == lc else f"{num}/{int_str(lc // g)}"

    return {"num": [show(c) for c in rf.inum], "den": [show(c) for c in rf.iden]}


# A round of the table printer takes at most s levels, d**s below this:
# one CPython digit, so each pass over an entry is short.
_SMALL_POWER = 2 ** 30


def scaled_printer(d: int, horizon: int):
    """A function show(c, n) that prints c / d**n, 0 <= n <= horizon, as
    rational_str prints Fraction(c, d**n), without building the Fraction.

    gcd(c, d**n) is divided out of c and d**n in rounds, each of k =
    min(s, levels left) levels, s >= 1 the largest with d**s < 2**30 (or
    1): a round divides out h = gcd(c mod d**k, d**k).  It stops when h =
    1, when no levels are left, or when every prime of d still divides
    d**k // h, since no prime of d is then left in c.  That test, d |
    (d**k // h)**e with e the bit length of d, never factors d, an lcm the
    user supplies, and is cached, as are the denominator strings, for
    as long as show lives.
    """
    powers = list(accumulate(repeat(d, horizon), mul, initial=1))
    s = 1
    while s < horizon and powers[s + 1] < _SMALL_POWER:
        s += 1
    covers = cache(lambda q: pow(q, d.bit_length(), d) == 0)
    dens = {1: ""}

    def show(c: int, n: int) -> str:
        if not c:
            return "0"
        den, left = powers[n], n
        while left:
            k = min(left, s)
            dk = powers[k]
            h = gcd(c % dk, dk)
            if h == 1:
                break
            c //= h
            den //= h
            left -= k
            if covers(dk // h):
                break
        tail = dens.get(den)
        if tail is None:
            tail = dens[den] = "/" + int_str(den)
        return int_str(c) + tail

    return show


def series_to_obj(table: SeriesTable) -> dict:
    """The table printed straight from its scaled integers."""
    show = scaled_printer(table.d, table.horizon)
    totals = table.scaled_totals()
    return {
        "horizon": table.horizon,
        "per_pattern": [
            [show(c, n) for n, c in enumerate(col)] for col in table.columns
        ],
        "totals": [show(c, n) for n, c in enumerate(totals)],
        "tail_mass": show(table.scaled_tail(totals), table.horizon),
    }


def solution_to_obj(problem: RaceProblem, sol: RaceSolution,
                    digits: Optional[int] = None,
                    series_table: Optional[SeriesTable] = None,
                    digest: Optional[str] = None) -> dict:
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
