"""Regime classification, combinatorial coefficients, upper bounds and the
ground lower bound for the sharp product-inequality constants, plus the
aggregation of every method into one certified interval.

Conventions: K(n, a, d) is the smallest constant with

    low regime   (0 <= n <= d/2 < a):   |fg|_n <= K |f|_a |g|_n
    high regime  (n >= a > d/2):        |fg|_n <= K max(|f|_a |g|_n, |f|_n |g|_a)

where |.|_m is the Sobolev H^m norm.  Queries outside both regimes raise
RegimeError; nothing is proven there.  The classification itself
(classify_regime) lives in errors, so that the method modules, which
bounds imports, can use it too.

The upper bound is S(a, d) times a binomial sum over the N + 1 lattice
points j n/N (N = ceil(n)).  In the high regime every point of
[a/2, n - a/2] carries the plateau coefficient P = (16/27)^(d/4), the
minimum of E, and the points above n - a/2 mirror those below a/2, so

    sum_j C(N, j) c_j = P 2^N + 2 sum_{j n/N < a/2} C(N, j) (E(j n/N) - P)

with non-negative corrections: O(a) terms in log space, whatever n is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import bessel_lb, fourier_lb, specfun
from .errors import (
    DomainError,
    NonConvergenceError,
    Regime,
    RegimeError,
    check_dimension,
    classify_regime,
)
from .specfun import _exp_or_inf, _xlogx

__all__ = [
    "Regime",
    "BoundQuery",
    "LatticeCoefficient",
    "BoundReport",
    "classify_regime",
    "s_const",
    "e_const",
    "lattice_coeffs",
    "e_product_coeff",
    "upper_bound",
    "log_upper_bound",
    "upper_bound_weak",
    "upper_bound_weak2",
    "ground_lower",
    "best_bounds",
]

_LN_16_27 = math.log(16.0) - math.log(27.0)
# the Bessel method costs ~n quadratures and is exponentially dominated by
# the Fourier bound well before this cap
_BESSEL_MAX_N = 150.0


@dataclass(frozen=True)
class BoundQuery:
    """A validated (n, a, d) triple together with its regime."""

    n: float
    a: float
    d: int
    regime: Regime = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "regime", classify_regime(self.n, self.a, self.d))


@dataclass(frozen=True)
class LatticeCoefficient:
    ell: float
    coeff: int


def _n_plus(n: float) -> int:
    """Smallest integer >= n (integer approximation from above)."""
    return int(math.ceil(n))


def s_const(a: float, d: int) -> float:
    """S(a, d) = (4 pi)^(-d/4) sqrt(Gamma(a - d/2) / Gamma(a)), a > d/2."""
    check_dimension(d)
    if not a > d / 2.0:
        raise DomainError(f"s_const requires a > d/2, got a={a}, d={d}")
    return math.exp(_log_s_const(a, d))


def _log_s_const(a: float, d: int) -> float:
    return -(d / 4.0) * math.log(4.0 * math.pi) + 0.5 * (
        specfun.ln_gamma(a - d / 2.0) - specfun.ln_gamma(a)
    )


def e_const(ell: float, a: float, d: int) -> float:
    """E(ell, a, d), the imbedding-product coefficient on 0 <= ell <= a.

    Equals 1 exactly at the endpoints and (16/27)^(d/4) at ell = a/2,
    its minimum.
    """
    if not a > d / 2.0:
        raise DomainError(f"e_const requires a > d/2, got a={a}, d={d}")
    if not 0.0 <= ell <= a:
        raise DomainError(f"e_const requires 0 <= ell <= a, got ell={ell}, a={a}")
    if ell == 0.0 or ell == a:
        return 1.0
    if ell == a / 2.0:
        return math.exp(_LN_16_27 * d / 4.0)
    x = ell / (2.0 * a)
    log_ratio = (
        _xlogx(x)
        + _xlogx(0.5 - x)
        - _xlogx(0.5 + x)
        - _xlogx(1.0 - x)
    )
    return math.exp((d / 2.0) * log_ratio)


def lattice_coeffs(n: float) -> list[LatticeCoefficient]:
    """Lattice points j n/n+ (j = 0..n+) with binomials C(n+, j).

    For n = 0 the lattice is the single point 0 with coefficient 1.
    The coefficients sum to 2^(n+).
    """
    if n < 0.0 or math.isnan(n):
        raise DomainError(f"lattice_coeffs requires n >= 0, got {n}")
    npl = _n_plus(n)
    if npl == 0:
        return [LatticeCoefficient(0.0, 1)]
    step = n / npl
    return [LatticeCoefficient(j * step, math.comb(npl, j)) for j in range(npl + 1)]


def e_product_coeff(n: float, ell: float, a: float, d: int) -> float:
    """Per-lattice-point coefficient of the upper-bound sum.

    Low regime: E(ell, a, d).  High regime: E(ell, a, d) below a/2, the
    plateau (16/27)^(d/4) on [a/2, n - a/2], and E(n - ell, a, d) above.
    """
    regime = classify_regime(n, a, d)
    if not 0.0 <= ell <= n:
        raise DomainError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
    if regime is Regime.LOW:
        return e_const(ell, a, d)
    if ell < a / 2.0:
        return e_const(ell, a, d)
    if ell <= n - a / 2.0:
        return math.exp(_LN_16_27 * d / 4.0)
    return e_const(n - ell, a, d)


def log_upper_bound(n: float, a: float, d: int) -> float:
    """log of the upper bound S(a, d) sum_j C(N, j) c_j (N = n+); finite
    for every admissible (n, a, d).

    High regime: the plateau form of the module docstring,

        log U = log S + N log 2 + log P + log1p(2 acc / P),

    where acc sums C(N, j) 2^-N (E(j n/N) - P) >= 0 over the lattice points
    below a/2: at most min(a, 5 sqrt(N)) + 2 terms, so the cost does not
    grow with n.  The low regime has at most ceil(d/2) + 1 lattice points,
    summed directly in log space.
    """
    if classify_regime(n, a, d) is Regime.LOW:
        return _log_s_const(a, d) + specfun.log_sum_exp(
            [math.log(p.coeff) + math.log(e_product_coeff(n, p.ell, a, d))
             for p in lattice_coeffs(n)]
        )
    npl = _n_plus(n)
    step = n / npl
    half_a = a / 2.0
    log_plateau = _LN_16_27 * d / 4.0
    plateau = math.exp(log_plateau)
    log_2n = npl * math.log(2.0)
    # the points more than 5 sqrt(N) below N/2 carry binomial mass below
    # exp(-50) together (Hoeffding), far under the rounding of P; skipping
    # them also keeps ln_gamma(N + 1) out of the sum when it would overflow
    j_lo = max(0, math.ceil(npl / 2.0 - 5.0 * math.sqrt(npl)))
    j_hi = math.ceil(half_a * (npl / n)) + 1
    acc = math.fsum(
        math.exp(specfun.log_binomial(npl, j) - log_2n) * (e_const(j * step, a, d) - plateau)
        for j in range(j_lo, j_hi)
        if j * step < half_a
    )
    return _log_s_const(a, d) + log_2n + log_plateau + math.log1p(2.0 * acc / plateau)


def upper_bound(n: float, a: float, d: int) -> float:
    """Upper bound S(a,d) * sum over the lattice of binom+ * E-coefficient:
    exp(log_upper_bound), so O(a) work in the high regime, and inf where
    the bound leaves the double range."""
    return _exp_or_inf(log_upper_bound(n, a, d))


def upper_bound_weak(n: float, a: float, d: int) -> float:
    """Weaker bound S(a,d) 2^(n+) (every E-coefficient replaced by 1)."""
    classify_regime(n, a, d)
    return _exp_or_inf(_log_s_const(a, d) + _n_plus(n) * math.log(2.0))


def _a_n(n: float, a: float) -> int:
    ratio = 1.0 if n == 0.0 else _n_plus(n) / n
    return _n_plus(ratio * a / 2.0)


def u_coeff(n: float, a: float, d: int) -> float:
    """The u(n, a, d) factor of the second weak bound; tends to 1 as n
    grows, and is inf where it leaves the double range."""
    return _exp_or_inf(_log_u_coeff(n, a, d))


def _log_u_coeff(n: float, a: float, d: int) -> float:
    """log u = log1p((P^-1 - 1) C(N, k) 2^-(N - a_n)) with P = (16/27)^(d/4),
    k = N - a_n + 1; the binomial stays in logs, so this is finite where u
    itself is beyond the double range (a close to n, N from about 2050)."""
    npl = _n_plus(n)
    an = _a_n(n, a)
    k = npl - an + 1
    if k < 0 or k > npl:
        raise DomainError(
            f"u_coeff: inner binomial index {k} outside [0, {npl}] "
            f"(non-integer n made a_n too large)"
        )
    lg = specfun.log_binomial(npl, k) - (npl - an) * math.log(2.0)
    x = math.log(math.exp(_LN_16_27 * (-d / 4.0)) - 1.0) + lg
    # log(1 + e^x), with e^x kept in range for large x
    return x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))


def upper_bound_weak2(n: float, a: float, d: int) -> float:
    """High-regime weak bound (16/27)^(d/4) S(a,d) u(n,a,d) 2^(n+)."""
    if classify_regime(n, a, d) is not Regime.HIGH:
        raise RegimeError(f"weak2 bound needs the high regime, got (n={n}, a={a}, d={d})")
    return _exp_or_inf(
        _LN_16_27 * d / 4.0
        + _log_s_const(a, d)
        + _n_plus(n) * math.log(2.0)
        + _log_u_coeff(n, a, d)
    )


def ground_lower(a: float, d: int) -> float:
    """The n-independent lower bound S(a, d), valid in both regimes."""
    return s_const(a, d)


@dataclass(frozen=True)
class BoundReport:
    """Certified interval [lower, upper] for K(n, a, d) with per-method detail."""

    query: BoundQuery
    upper: float
    upper_weak: float
    upper_weak2: float | None
    lower_ground: float
    lower_bessel: float | None
    lower_fourier: float | None
    lower: float
    method_of_best_lower: str
    sharp: bool
    log2_upper_over_n: float | None
    log2_lower_over_n: float | None
    metadata: dict = field(default_factory=dict)


def best_bounds(query: BoundQuery, rel_tol: float = 1e-8) -> BoundReport:
    """Aggregate the upper bound and every lower bound.

    n = 0 short-circuits to the exact constant S(a, d) (the upper and
    ground bounds coincide there, so the constant is sharp).  rel_tol is
    the Bessel maximization's tolerance.  A lower bound that fails
    numerically is recorded as absent, never fatal.
    """
    n, a, d = query.n, query.a, query.d
    meta: dict = {}
    if n == 0.0:
        exact = s_const(a, d)
        return BoundReport(
            query=query,
            upper=exact,
            upper_weak=upper_bound_weak(n, a, d),
            upper_weak2=None,
            lower_ground=exact,
            lower_bessel=None,
            lower_fourier=None,
            lower=exact,
            method_of_best_lower="exact",
            sharp=True,
            log2_upper_over_n=None,
            log2_lower_over_n=None,
            metadata=meta,
        )

    log_up = log_upper_bound(n, a, d)
    upper = _exp_or_inf(log_up)
    weak = upper_bound_weak(n, a, d)
    weak2: float | None = None
    if query.regime is Regime.HIGH:
        try:
            weak2 = upper_bound_weak2(n, a, d)
        except DomainError as exc:
            meta["weak2_unavailable"] = str(exc)

    ground = ground_lower(a, d)
    lowers: dict[str, float] = {"ground": ground}

    bessel: float | None = None
    if query.regime is Regime.HIGH:
        if n > _BESSEL_MAX_N:
            meta["bessel_unavailable"] = (
                f"skipped for n > {_BESSEL_MAX_N:g}: the fourier bound "
                "dominates exponentially and the trial maximization costs ~n "
                "quadratures"
            )
        else:
            try:
                bessel, lam_star, warns = bessel_lb.bessel_lower_detail(n, a, d, rel_tol)
                lowers["bessel"] = bessel
                meta["bessel_lambda_star"] = lam_star
                if warns:
                    meta["bessel_warnings"] = list(warns)
            except NonConvergenceError as exc:
                meta["bessel_unavailable"] = str(exc)

    fourier: float | None = None
    log_fourier = math.nan
    if query.regime is Regime.HIGH or n >= 0.5:
        try:
            # the fourier bound leaves the double range first; its log stays finite
            log_fourier = fourier_lb._log_fourier_lower(n, a, d)
            fourier = _exp_or_inf(log_fourier)
            lowers["fourier"] = fourier
            p_star, sigma_star = fourier_lb.optimal_trial_parameters(n, a, d)
            meta["fourier_p_star"] = p_star
            meta["fourier_sigma_star"] = sigma_star
        except (DomainError, NonConvergenceError) as exc:
            meta["fourier_unavailable"] = str(exc)

    method = max(lowers, key=lambda k: lowers[k])
    lower = lowers[method]
    log_lower = log_fourier if method == "fourier" else math.log(lower)
    return BoundReport(
        query=query,
        upper=upper,
        upper_weak=weak,
        upper_weak2=weak2,
        lower_ground=ground,
        lower_bessel=bessel,
        lower_fourier=fourier,
        lower=lower,
        method_of_best_lower=method,
        sharp=False,
        log2_upper_over_n=log_up / math.log(2.0) / n,
        log2_lower_over_n=log_lower / math.log(2.0) / n,
        metadata=meta,
    )
