"""Typed exceptions for the bound pipeline.

The pipeline must distinguish "the query is outside the proven regimes"
from "a numeric method failed to converge"; the CLI maps these onto
distinct exit codes (3 and 4 respectively, usage errors being 2).
"""


class DomainError(ValueError):
    """An argument violates an operation's mathematical preconditions."""


class RegimeError(DomainError):
    """(n, a, d) satisfies neither the low nor the high regime."""


class NonConvergenceError(RuntimeError):
    """A series, quadrature or maximizer failed to reach its tolerance."""


class BracketError(NonConvergenceError):
    """Bracket expansion failed to enclose an interior maximum."""


class ResolutionError(ValueError):
    """A grid cannot resolve the requested function (raise N or L)."""


class DecayError(ResolutionError):
    """Samples do not decay at the box boundary; norms would alias."""


def check_dimension(d: float) -> None:
    """Raise DomainError unless d is a positive integer (nan and inf are not)."""
    if not (d >= 1 and d // 1 == d):  # inf // 1 is nan
        raise DomainError(f"dimension must be a positive integer, got {d}")
