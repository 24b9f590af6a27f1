"""Exact solver for occurrence and competition of patterns in i.i.d.
letter sequences, with independent automaton and Monte Carlo oracles."""

__version__ = "0.1.0"

from .algebra import RationalFunc
from .model import (
    Alphabet,
    Pattern,
    RaceProblem,
    is_subpattern,
    make_alphabet,
    pattern_prob,
    validate_race,
)
from .correlation import correlation
from .solver import (
    RaceSolution,
    SeriesTable,
    series,
    solve_race,
)
from .oracle import (
    MartingaleReport,
    MonteCarloReport,
    PrefixAutomaton,
    build_automaton,
    certify,
    exact_distribution,
    martingale_check,
    monte_carlo,
)

__all__ = [
    "Alphabet",
    "MartingaleReport",
    "MonteCarloReport",
    "Pattern",
    "PrefixAutomaton",
    "RaceProblem",
    "RaceSolution",
    "RationalFunc",
    "SeriesTable",
    "build_automaton",
    "certify",
    "correlation",
    "exact_distribution",
    "is_subpattern",
    "make_alphabet",
    "martingale_check",
    "monte_carlo",
    "pattern_prob",
    "series",
    "solve_race",
    "validate_race",
]
