"""Lower bounds from Gaussian-regularized Fourier characters.

The trial family is exp(i p x_1) exp(-(sigma/2) |x|^2).  Its squared H^n
norm is an explicit Gaussian integral; sandwiching it between closed
lower/upper estimates and choosing p ~ sqrt(n + a), sigma ~ 1/(n + a)
yields the closed-form bound

    K(n, a, d) >= R(a, d) v(n, a, d) 2^n / (n + a)^(a/2 + d/4)

valid for 1/2 <= n <= d/2 < a and for n >= a > d/2, together with a
weaker n-uniform variant and the fully parameter-explicit bound behind
it.  A scan over the trial parameterization measures how close the
closed-form choice sits to the parametric optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import Regime, _exp_or_inf, _xlogx, classify_regime
from .errors import DomainError, NonConvergenceError, check_dimension
from .numerics import integrate_semiline

__all__ = [
    "GaussianTrial",
    "r_const",
    "v_coeff",
    "fourier_lower",
    "fourier_lower_weak",
    "gaussian_norm_sq",
    "fourier_bound_at",
    "fourier_lower_scan",
    "optimal_trial_parameters",
]


@dataclass(frozen=True)
class GaussianTrial:
    """Modulated Gaussian exp(i p x_1 - (sigma/2)|x|^2); p, sigma > 0."""

    p: float
    sigma: float
    d: int

    def __post_init__(self) -> None:
        check_dimension(self.d)
        if not (self.p > 0.0 and self.sigma > 0.0):
            raise DomainError(
                f"trial needs p, sigma > 0, got p={self.p}, sigma={self.sigma}"
            )


def r_const(a: float, d: int) -> float:
    """R(a, d) = e^(-a/2) (2 pi)^(-d/4) sqrt(E(d/2) E(a - d/2))."""
    check_dimension(d)
    if not a > d / 2.0:
        raise DomainError(f"r_const requires a > d/2, got a={a}, d={d}")
    return math.exp(_log_r_const(a, d))


def _log_r_const(a: float, d: int) -> float:
    """log R(a, d); finite where R itself leaves the double range (large a)."""
    return (
        -a / 2.0
        - (d / 4.0) * math.log(2.0 * math.pi)
        + 0.5 * (_xlogx(d / 2.0) + _xlogx(a - d / 2.0))
    )


def _require_fourier_regime(n: float, a: float, d: int) -> Regime:
    regime = classify_regime(n, a, d)
    if regime is Regime.LOW and n < 0.5:
        raise DomainError(
            f"fourier bound needs n >= 1/2 in the low regime, got n={n}"
        )
    return regime


def v_coeff(n: float, a: float, d: int) -> float:
    """v(n, a, d): the finite-n factor of the closed-form bound; tends to 1.

    Written in t = 1/(n + a), so that no term overflows at finite n.
    """
    _require_fourier_regime(n, a, d)
    t = 1.0 / (n + a)
    nt2 = n * t * t
    dat2 = d * a * t * t
    base = 1.0 - 0.5 * d * t + 0.25 * d * dat2 * nt2
    ex = ((4.0 * a - d) * d * nt2 + 2.0 * a * dat2) / (8.0 - 4.0 * d * nt2) - a * dat2 / (
        4.0 - 2.0 * dat2
    )
    return base ** (d / 4.0) * math.exp(ex)


def _log_fourier_lower(n: float, a: float, d: int) -> float:
    """log of fourier_lower; finite where the bound leaves the double range."""
    log_v = math.log(v_coeff(n, a, d))  # v_coeff checks (n, a, d) first
    return (
        _log_r_const(a, d)
        + log_v
        + n * math.log(2.0)
        - (a / 2.0 + d / 4.0) * math.log(n + a)
    )


def fourier_lower(n: float, a: float, d: int) -> float:
    """Closed-form lower bound R v 2^n / (n + a)^(a/2 + d/4) (log-safe)."""
    return _exp_or_inf(_log_fourier_lower(n, a, d))


def fourier_lower_weak(n: float, a: float, d: int) -> float:
    """High-regime weak variant with v replaced by (1 - d/(2a))^(d/4)."""
    if classify_regime(n, a, d) is not Regime.HIGH:
        raise DomainError(
            f"the weak fourier bound is stated for the high regime only, "
            f"got (n={n}, a={a}, d={d})"
        )
    return _exp_or_inf(
        _log_r_const(a, d)
        + (d / 4.0) * math.log(1.0 - d / (2.0 * a))
        + n * math.log(2.0)
        - (a / 2.0 + d / 4.0) * math.log(n + a)
    )


# ---------------------------------------------------------------------------
# exact trial norms
# ---------------------------------------------------------------------------


def _gauss_even_moment(q: int, sigma: float) -> float:
    """int t^(2q) exp(-t^2/sigma) dt = Gamma(q + 1/2) sigma^(q + 1/2)."""
    return math.exp(math.lgamma(q + 0.5) + (q + 0.5) * math.log(sigma))


def _norm_sq_integer(trial: GaussianTrial, n: int) -> float:
    """Exact moment expansion of sigma^-d int (1 + (k1+p)^2 + r^2)^n e^(-|k|^2/sigma)."""
    p, sigma, d = trial.p, trial.sigma, trial.d
    # shifted-line moments: A_j = int (k1 + p)^(2j) e^(-k1^2/sigma) dk1
    a_mom = []
    for j in range(n + 1):
        acc = 0.0
        for m in range(j + 1):
            acc += (
                math.comb(2 * j, 2 * m)
                * p ** (2 * (j - m))
                * _gauss_even_moment(m, sigma)
            )
        a_mom.append(acc)
    # radial moments over the remaining d-1 coordinates
    if d == 1:
        r_mom = [1.0 if l == 0 else 0.0 for l in range(n + 1)]
    else:
        dm1 = (d - 1) / 2.0
        r_mom = [
            math.pi**dm1
            * math.exp(
                math.lgamma(l + dm1) - math.lgamma(dm1) + (l + dm1) * math.log(sigma)
            )
            for l in range(n + 1)
        ]
    total = 0.0
    for i in range(n + 1):
        for j in range(n + 1 - i):
            l = n - i - j
            mult = math.factorial(n) / (
                math.factorial(i) * math.factorial(j) * math.factorial(l)
            )
            total += mult * a_mom[j] * r_mom[l]
    return total / sigma**d


def _norm_sq_quadrature(trial: GaussianTrial, n: float, rel_tol: float) -> float:
    """Nested adaptive quadrature for non-integer n (any d in {1, 2, 3})."""
    p, sigma, d = trial.p, trial.sigma, trial.d

    if d == 1:

        def half_line(sign: float) -> float:
            def f(k1: float) -> float:
                k = sign * k1
                return (1.0 + (k + p) ** 2) ** n * math.exp(-k * k / sigma)

            res = integrate_semiline(f, rel_tol=rel_tol)
            if not res.converged:
                raise NonConvergenceError("gaussian norm quadrature did not converge")
            return res.value

        return (half_line(1.0) + half_line(-1.0)) / sigma

    angular = (
        2.0
        * math.pi ** ((d - 1) / 2.0)
        / math.exp(math.lgamma((d - 1) / 2.0))
    )

    def inner(k1: float) -> float:
        base = 1.0 + (k1 + p) ** 2

        def f(r: float) -> float:
            return r ** (d - 2) * (base + r * r) ** n * math.exp(-r * r / sigma)

        res = integrate_semiline(f, rel_tol=rel_tol * 0.1)
        if not res.converged:
            raise NonConvergenceError("gaussian norm inner quadrature did not converge")
        return res.value

    def half_line(sign: float) -> float:
        def f(k1: float) -> float:
            k = sign * k1
            return inner(k) * math.exp(-k * k / sigma)

        res = integrate_semiline(f, rel_tol=rel_tol)
        if not res.converged:
            raise NonConvergenceError("gaussian norm outer quadrature did not converge")
        return res.value

    return angular * (half_line(1.0) + half_line(-1.0)) / sigma**d


def gaussian_norm_sq(trial: GaussianTrial, n: float, rel_tol: float = 1e-10) -> float:
    """Squared H^n norm of the modulated Gaussian trial.

    Integer n uses the exact closed moment expansion; non-integer n falls
    back to (nested) adaptive quadrature.  At n = 0 this is (pi/sigma)^(d/2)
    independently of p.
    """
    if n < 0.0 or math.isnan(n):
        raise DomainError(f"gaussian_norm_sq requires n >= 0, got {n}")
    if n == int(n):
        return _norm_sq_integer(trial, int(n))
    return _norm_sq_quadrature(trial, n, rel_tol)


# ---------------------------------------------------------------------------
# the parameter-explicit bound and the scan
# ---------------------------------------------------------------------------


def fourier_bound_at(p: float, sigma: float, n: float, a: float, d: int) -> float:
    """The explicit (p, sigma)-dependent lower bound behind the closed form.

    Requires max(n, a) sigma / p^2 < 1 (so the Gaussian upper estimates of
    the trial norms converge) and the usual regime constraints.
    """
    _require_fourier_regime(n, a, d)
    if not (p > 0.0 and sigma > 0.0):
        raise DomainError(f"need p, sigma > 0, got p={p}, sigma={sigma}")
    ratio = max(n, a) * sigma / (p * p)
    if not ratio < 1.0:
        raise DomainError(
            f"precondition max(n, a) * sigma / p^2 < 1 violated: "
            f"max({n}, {a}) * {sigma} / {p}^2 = {ratio:.6g}"
        )
    sn = n * sigma / (p * p)
    sa = a * sigma / (p * p)
    return _exp_or_inf(
        -(d / 4.0) * math.log(2.0 * math.pi)
        + (d / 4.0) * (math.log1p(-sn) + math.log1p(-sa))
        - (n * n * sigma / (2.0 * p * p)) / (1.0 - sn)
        - (a * a * sigma / (2.0 * p * p)) / (1.0 - sa)
        - (n + a) / (2.0 * p * p)
        + (d / 4.0) * math.log(sigma)
        - a * math.log(p)
        + n * math.log(2.0)
    )


def optimal_trial_parameters(n: float, a: float, d: int) -> tuple[float, float]:
    """(p, sigma) realizing the closed-form bound: the lam = a - d/2,
    mu = d/2 point of the trial parameterization."""
    lam = a - d / 2.0
    mu = d / 2.0
    p = math.sqrt(n + a) / math.sqrt(lam)  # (n + a)/lam can overflow
    sigma = (mu / lam) / (n + a)
    return p, sigma


def fourier_lower_scan(
    n: float,
    a: float,
    d: int,
    n_lam: int = 21,
    n_mu: int = 21,
    spread: float = 4.0,
) -> tuple[float, float, float]:
    """Maximize the parametric bound on a log grid around the closed-form
    optimum; returns (best, p_star, sigma_star).

    The grid contains the closed-form point exactly (odd grids, centered),
    so best >= fourier_lower(n, a, d) up to rounding.  Ties resolve
    lexicographically on (p, sigma) for determinism.
    """
    _require_fourier_regime(n, a, d)
    if n_lam < 1 or n_mu < 1 or spread <= 1.0:
        raise DomainError("scan grid needs n_lam, n_mu >= 1 and spread > 1")
    lam0 = a - d / 2.0
    mu0 = d / 2.0
    lams = _log_grid(lam0, spread, n_lam)
    mus = [min(m, a * (1.0 - 1e-6)) for m in _log_grid(mu0, spread, n_mu)]
    best: tuple[float, float, float] | None = None
    for lam in lams:
        for mu in mus:
            p = math.sqrt((n + a) / lam)
            sigma = (mu / lam) / (n + a)
            try:
                val = fourier_bound_at(p, sigma, n, a, d)
            except DomainError:
                continue
            if (
                best is None
                or val > best[0]
                or (val == best[0] and (p, sigma) < (best[1], best[2]))
            ):
                best = (val, p, sigma)
    assert best is not None  # the center point is always admissible
    return best


def _log_grid(center: float, spread: float, count: int) -> list[float]:
    if count == 1:
        return [center]
    lo = center / spread
    ratio = spread ** (2.0 / (count - 1))
    pts = [lo * ratio**i for i in range(count)]
    pts[(count - 1) // 2] = center  # odd grids contain the center exactly
    return pts
