"""Certified two-sided bounds for mixed principal eigenvalues of
one-dimensional elliptic operators a(x) f'' + b(x) f' on (0, D).

The library computes the positivity criterion constant, basic and improved
two-sided estimates, monotone approximating sequences for both sides, the
centered sequence for the double-Neumann spectral gap, and validates every
bound against an independent finite-volume eigensolver.
"""

__version__ = "0.1.0"

from .bounds import BoundsReport, compute_report, delta
from .errors import (
    ConfigError,
    DegenerationError,
    DomainError,
    EigenboundError,
    HypothesisViolationError,
    LexError,
    ParseError,
    RangeError,
)
from .expr import parse_expression
from .iterate import IterationTrace, eta_sequence, lower_sequence, upper_sequence_dn, upper_sequence_nd
from .measures import (
    MeasureTable,
    ProblemSpec,
    Tolerances,
    build_tables,
    dual_table,
    hypothesis_check,
    make_problem,
    truncate,
)
from .oracle import (
    EigenSolution,
    eigen_residuals,
    fd_eigensolve,
    infinite_domain_limit,
    solve_on_table,
)

__all__ = [
    "__version__",
    "BoundsReport",
    "ConfigError",
    "DegenerationError",
    "DomainError",
    "EigenboundError",
    "EigenSolution",
    "HypothesisViolationError",
    "IterationTrace",
    "LexError",
    "MeasureTable",
    "ParseError",
    "ProblemSpec",
    "RangeError",
    "Tolerances",
    "build_tables",
    "compute_report",
    "delta",
    "dual_table",
    "eigen_residuals",
    "eta_sequence",
    "fd_eigensolve",
    "hypothesis_check",
    "infinite_domain_limit",
    "lower_sequence",
    "make_problem",
    "parse_expression",
    "solve_on_table",
    "truncate",
    "upper_sequence_dn",
    "upper_sequence_nd",
]
