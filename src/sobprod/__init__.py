"""sobprod: certified bounds for the sharp constants K(n, a, d) in the
Sobolev pointwise-product inequalities

    |fg|_n <= K |f|_a |g|_n                         (0 <= n <= d/2 < a)
    |fg|_n <= K max(|f|_a |g|_n, |f|_n |g|_a)       (n >= a > d/2)

together with a grid/DFT oracle that validates every analytic formula
against independent discrete norms.
"""

from .bounds import (
    BoundQuery,
    BoundReport,
    Regime,
    best_bounds,
    classify_regime,
    e_const,
    e_product_coeff,
    ground_lower,
    lattice_coeffs,
    s_const,
    upper_bound,
    upper_bound_weak,
    upper_bound_weak2,
)
from .bessel_lb import BesselTrial, bessel_lower, bessel_ratio
from .errors import (
    BracketError,
    DecayError,
    DomainError,
    NonConvergenceError,
    RegimeError,
    ResolutionError,
)
from .fourier_lb import (
    GaussianTrial,
    fourier_bound_at,
    fourier_lower,
    fourier_lower_scan,
    gaussian_norm_sq,
    r_const,
    v_coeff,
)
from .numerics import MaximizerResult, QuadratureResult, integrate_semiline, maximize_scalar

__version__ = "0.1.0"

__all__ = [
    "BoundQuery",
    "BoundReport",
    "Regime",
    "best_bounds",
    "classify_regime",
    "e_const",
    "e_product_coeff",
    "ground_lower",
    "lattice_coeffs",
    "s_const",
    "upper_bound",
    "upper_bound_weak",
    "upper_bound_weak2",
    "BesselTrial",
    "bessel_lower",
    "bessel_ratio",
    "GaussianTrial",
    "fourier_bound_at",
    "fourier_lower",
    "fourier_lower_scan",
    "gaussian_norm_sq",
    "r_const",
    "v_coeff",
    "MaximizerResult",
    "QuadratureResult",
    "integrate_semiline",
    "maximize_scalar",
    "BracketError",
    "DecayError",
    "DomainError",
    "NonConvergenceError",
    "RegimeError",
    "ResolutionError",
    "__version__",
]
