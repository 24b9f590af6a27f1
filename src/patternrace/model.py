"""Problem data model: alphabets, patterns, and validated race problems."""

from __future__ import annotations

import copy
import decimal
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

# Caps on the number and length of the patterns; the cost of the exact
# race solve grows with both.
MAX_PATTERN_LEN = 64
MAX_PATTERNS = 16

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


class AlphabetError(ValueError):
    pass


class PatternError(ValueError):
    pass


class InvalidRaceError(ValueError):
    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(v.message for v in report.violations))
        self.report = report


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        # Past sys.get_int_max_str_digits(); Decimal parsing is exact
        # and not subject to that limit.
        return int(decimal.Decimal(digits))


def parse_rational(text: Union[str, int, Fraction]) -> Fraction:
    """Parse 'p/q' or an integer literal into an exact Fraction."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = _parse_int(m.group(1))
    den = _parse_int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(num, den)


def int_str(v: int) -> str:
    try:
        return str(v)
    except ValueError:
        # Past sys.get_int_max_str_digits(); Decimal conversion is exact
        # and not subject to that limit.
        return str(decimal.Decimal(v))


def rational_str(x: Fraction) -> str:
    num = int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{int_str(x.denominator)}"


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbols with exact positive probabilities summing to 1."""

    symbols: tuple
    probs: tuple

    def __post_init__(self):
        if not self.symbols:
            raise AlphabetError("alphabet must have at least one symbol")
        if len(self.symbols) != len(self.probs):
            raise AlphabetError("symbols and probabilities differ in length")
        for s in self.symbols:
            if not isinstance(s, str) or not s:
                raise AlphabetError(f"symbol must be a non-empty string: {s!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise AlphabetError("duplicate symbol in alphabet")
        for s, p in zip(self.symbols, self.probs):
            if p <= 0:
                raise AlphabetError(
                    f"probability of {s!r} must be positive, got {rational_str(p)}")
        total = sum(self.probs)
        if total != 1:
            raise AlphabetError(f"probabilities sum to {rational_str(total)}, not 1")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def denominator(self) -> int:
        """The lcm of the probability denominators: d * p is an integer
        for every letter probability p."""
        return lcm(*(p.denominator for p in self.probs))

    @property
    def single_char(self) -> bool:
        return all(len(s) == 1 for s in self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise PatternError(f"unknown symbol {symbol!r}") from None

    def pattern(self, spec: Union[str, Sequence[str]]) -> "Pattern":
        """Build a Pattern from symbol tokens, or from a plain string
        when every alphabet symbol is a single character."""
        if isinstance(spec, str):
            if not self.single_char:
                raise PatternError(
                    "string shorthand needs single-character symbols; "
                    "pass a list of tokens instead"
                )
            tokens = list(spec)
        else:
            tokens = list(spec)
        return Pattern(tuple(self.index(t) for t in tokens))

    def format_pattern(self, p: "Pattern") -> str:
        sep = "" if self.single_char else " "
        return sep.join(self.symbols[i] for i in p.letters)


def make_alphabet(entries: Iterable) -> Alphabet:
    """Build an Alphabet from (symbol, probability-string) pairs."""
    symbols = []
    probs = []
    for symbol, prob in entries:
        symbols.append(symbol)
        probs.append(parse_rational(prob))
    return Alphabet(tuple(symbols), tuple(probs))


@dataclass(frozen=True)
class Pattern:
    """Non-empty sequence of symbol indices into some Alphabet."""

    letters: tuple

    def __post_init__(self):
        if not self.letters:
            raise PatternError("pattern must be non-empty")
        for i in self.letters:
            if not isinstance(i, int) or i < 0:
                raise PatternError(f"bad symbol index {i!r}")

    def __len__(self):
        return len(self.letters)

    def check_alphabet(self, alphabet: Alphabet) -> None:
        for i in self.letters:
            if i >= alphabet.size:
                raise PatternError(f"symbol index {i} out of range for alphabet")


def pattern_prob(p: Pattern, alphabet: Alphabet) -> Fraction:
    """Probability that len(p) i.i.d. letters spell out p."""
    p.check_alphabet(alphabet)
    out = Fraction(1)
    for i in p.letters:
        out *= alphabet.probs[i]
    return out


def is_subpattern(p: Pattern, q: Pattern) -> bool:
    """True iff p occurs as a contiguous run inside q."""
    return _occurs(p.letters, q.letters)


def _occurs(needle: tuple, haystack: tuple) -> bool:
    n = len(needle)
    return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))


@dataclass(frozen=True)
class RaceProblem:
    """Alphabet, optional initial pattern, and competing patterns.

    Valid by construction: the constructor runs validate_race and raises
    InvalidRaceError, carrying the whole report, on any violation, so
    every engine can take a RaceProblem as checked."""

    alphabet: Alphabet
    patterns: tuple
    initial: Optional[Pattern] = None

    def __post_init__(self):
        report = validate_race(self)
        if not report.ok:
            raise InvalidRaceError(report)

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)

    def alone(self, k: int) -> "RaceProblem":
        """Pattern k racing alone from the same initial word.  Each of its
        invariants is one this race has already checked, so it is built
        without running validate_race again."""
        race = copy.copy(self)
        object.__setattr__(race, "patterns", (self.patterns[k],))
        return race


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    indices: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_race(problem: RaceProblem) -> ValidationReport:
    """Check every race invariant; all violations are collected, none thrown."""
    out = []
    pats = problem.patterns
    if not pats:
        out.append(Violation("no-patterns", "at least one competing pattern required"))
    if len(pats) > MAX_PATTERNS:
        out.append(Violation("too-many-patterns",
                             f"{len(pats)} patterns exceeds cap {MAX_PATTERNS}"))
    for k, p in enumerate(pats):
        try:
            p.check_alphabet(problem.alphabet)
        except PatternError as e:
            out.append(Violation("bad-pattern", f"B{k + 1}: {e}", (k,)))
        if len(p) > MAX_PATTERN_LEN:
            out.append(Violation("pattern-too-long",
                                 f"B{k + 1} length {len(p)} exceeds cap {MAX_PATTERN_LEN}",
                                 (k,)))
    for i, p in enumerate(pats):
        for j, q in enumerate(pats):
            if i != j and is_subpattern(p, q):
                out.append(Violation(
                    "mutual-containment",
                    f"B{i + 1} is a subpattern of B{j + 1}", (i, j)))
    if problem.initial is not None:
        a = problem.initial
        try:
            a.check_alphabet(problem.alphabet)
        except PatternError as e:
            out.append(Violation("bad-initial", f"initial pattern: {e}"))
        head = a.letters[:-1]
        for k, p in enumerate(pats):
            if len(p.letters) <= len(head) and _occurs(p.letters, head):
                out.append(Violation(
                    "initial-contains-pattern",
                    f"B{k + 1} occurs inside the initial pattern before its last letter",
                    (k,)))
    return ValidationReport(tuple(out))
