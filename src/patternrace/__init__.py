"""Exact solver for occurrence and competition of patterns in i.i.d.
letter sequences, with independent automaton and Monte Carlo oracles."""

__version__ = "0.1.0"

from .algebra import LaurentPoly, RationalFunc
from .model import (
    Alphabet,
    Pattern,
    RaceProblem,
    is_subpattern,
    make_alphabet,
    pattern_prob,
    validate_race,
)
from .correlation import (
    CorrMatrix,
    correlation,
    correlation_matrix,
    initial_correlation_vector,
    overlap_indicator,
)
from .solver import (
    DegenerateCollectionError,
    RaceSolution,
    SeriesTable,
    series,
    single_Q,
    single_expected,
    single_pgf,
    solve_race,
)
from .oracle import (
    DistributionTable,
    MartingaleReport,
    MonteCarloReport,
    PrefixAutomaton,
    absorbing_solve,
    build_automaton,
    exact_distribution,
    martingale_check,
    monte_carlo,
)

__all__ = [
    "Alphabet",
    "CorrMatrix",
    "DegenerateCollectionError",
    "DistributionTable",
    "LaurentPoly",
    "MartingaleReport",
    "MonteCarloReport",
    "Pattern",
    "PrefixAutomaton",
    "RaceProblem",
    "RaceSolution",
    "RationalFunc",
    "SeriesTable",
    "absorbing_solve",
    "build_automaton",
    "correlation",
    "correlation_matrix",
    "exact_distribution",
    "initial_correlation_vector",
    "is_subpattern",
    "make_alphabet",
    "martingale_check",
    "monte_carlo",
    "overlap_indicator",
    "pattern_prob",
    "series",
    "single_Q",
    "single_expected",
    "single_pgf",
    "solve_race",
    "validate_race",
]
