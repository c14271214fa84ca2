"""Typed exceptions for the bound pipeline, and the domain checks that
raise them: check_dimension and the regime of a query (classify_regime).

The pipeline must distinguish "the query is outside the proven regimes"
from "a numeric method failed to converge"; the CLI maps these onto
distinct exit codes (3 and 4 respectively, usage errors being 2).
"""

import enum
import math


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


class Regime(enum.Enum):
    LOW = "low"
    HIGH = "high"


def classify_regime(n: float, a: float, d: int) -> Regime:
    """Low iff 0 <= n <= d/2 < a; High iff n >= a > d/2; else RegimeError."""
    check_dimension(d)
    if not (math.isfinite(n) and math.isfinite(a)):
        raise DomainError(f"n and a must be finite numbers, got n={n}, a={a}")
    half_d = d / 2.0
    if 0.0 <= n <= half_d < a:
        return Regime.LOW
    if n >= a > half_d:
        return Regime.HIGH
    raise RegimeError(
        f"(n={n}, a={a}, d={d}) is in neither regime: "
        f"need 0 <= n <= d/2 < a or n >= a > d/2"
    )
