"""Lower bounds from the rescaled Bessel-potential trial family.

The trial function with rescale factor lam has Fourier transform
proportional to (1 + |k|^2/lam^2)^(-n); its H^q norms (q = n and q = a)
are the radial integrals

    |f|_q^2 = 2 pi^(d/2) / (Gamma(d/2) lam^d)
              * int_0^inf s^(d-1) (1 + lam^2 s^2)^q / (1 + s^2)^(2n) ds.

Substituting t = s^2 and then t = u/(1 - u) gives Euler's integral for
the Gauss hypergeometric (DLMF 15.6.1):

    |f|_q^2 = pi^(d/2) / (Gamma(d/2) lam^d) * B(d/2, 2n - q - d/2)
              * F(-q, d/2; 2n - q; 1 - lam^2),

where 2n - q - d/2 > 0 because q <= n and n > d/2.  For integer q the
series terminates; it is summed as the equivalent finite Beta sum (the
binomial expansion of (1 + lam^2 t)^q, every term positive).  For
non-integer q, F is one hyp2f1_with_error call certified to 1e-12
relative, or NonConvergenceError.  For lam > 1 the argument is negative
and F goes through the Pfaff map, whose series needs O(lam^2) terms.
Over random q in (d/2, n], n <= 25, it certifies every lam in [0.05, 100]
tried, bar n within about 0.01 of d/2; from lam ~ 300 on it stops
certifying for most (q, n, d).  The maximizations of the benchmark
workloads try lam up to 20.

The squared trial gives

    |f^2|_n^2 = 2 pi^(d/2) / (Gamma(d/2) lam^d)
                * Gamma(2n - d/2)^2 / Gamma(2n)^2
                * int_0^inf s^(d-1) (1 + 4 lam^2 s^2)^n
                  F(2n - d/2, n, n + 1/2; -s^2)^2 ds.

The integral is truncated where an analytic tail bound drops below 1e-12
of a coarse first pass, at a power of two; integrands assemble in log
space so the (1 + 4 lam^2 s^2)^n growth never overflows.  The norms and
the ratio stay in logs at every n: at the lam a maximization tries,
|f^2|_n^2 leaves the double range from about n = 110 on and the H^q
norms at larger n.

At non-integer n the integral is taken directly, on lam-free quadrature
rules that every lam of a maximization shares (bessel_direct).

For integer n the lam-dependence factors out of the integral: the
maximization reuses the n + 1 lam-free moments of the binomial expansion
of (1 + 4 lam^2 s^2)^n, which share one quadrature rule and read F,
certified at every node, from the same code (bessel_direct).

The lower bound maximizes the ratio |f^2|_n / (|f|_a |f|_n) over lam;
every lam-free log-Gamma term of the norms is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import specfun
from .bounds import _exp_or_inf
from .errors import DomainError, NonConvergenceError, check_dimension
# integrate_semiline is not called here; the import stays because
# benchmarks/test_benchmark.py checks that its tracer wraps this by-name copy
from .numerics import integrate_semiline, maximize_scalar  # noqa: F401

__all__ = [
    "BesselTrial",
    "bessel_norm_n",
    "bessel_norm_a",
    "bessel_square_norm",
    "bessel_ratio",
    "bessel_lower",
    "bessel_lower_detail",
]

_TAIL_FRACTION = 1e-12
_NORM_REL_TOL = 1e-12  # certified relative accuracy of |f|_q^2 at non-integer q
# the Euler-form series needs O(lam^2) terms: at lam = 100 the default 500 000
# leaves 65-73 of 1000 random (q, n, d) uncertified, 750 000 none
_NORM_MAX_TERMS = 750_000
_BRACKET = (0.2, 5.0)  # initial lam bracket of the maximization, expanded as needed


@dataclass(frozen=True)
class BesselTrial:
    """Rescaled Bessel-potential trial function: lam > 0, n > d/2."""

    lam: float
    n: float
    d: int

    def __post_init__(self) -> None:
        check_dimension(self.d)
        if not self.lam > 0.0:
            raise DomainError(f"trial rescale factor must be positive, got {self.lam}")
        if not self.n > self.d / 2.0:
            raise DomainError(
                f"trial needs n > d/2 for H^n membership, got n={self.n}, d={self.d}"
            )


def _is_integer(x: float) -> bool:
    return abs(x - round(x)) <= 1e-12 * max(1.0, abs(x))


# The lam-free log-Gamma terms below are cached: a maximization evaluates
# every norm at each of its lam, with the same (n, a, d).


@lru_cache(maxsize=16)
def _log_norm_const(d: int) -> float:
    return (d / 2.0) * math.log(math.pi) - specfun.ln_gamma(d / 2.0)


def _log_norm_prefactor(lam: float, d: int) -> float:
    return _log_norm_const(d) - d * math.log(lam)


@lru_cache(maxsize=16)
def _beta_sum_terms(q: int, n: float, d: int) -> tuple[float, ...]:
    """log C(q, ell) + log B(ell + d/2, 2n - d/2 - ell) for ell = 0..q."""
    return tuple(
        lb
        + (
            specfun.ln_gamma(ell + d / 2.0)
            + specfun.ln_gamma(2.0 * n - d / 2.0 - ell)
            - specfun.ln_gamma(2.0 * n)
        )
        for ell, lb in enumerate(specfun.log_binomials(q))
    )


@lru_cache(maxsize=16)
def _log_euler_beta(q: float, n: float, d: int) -> float:
    """log B(d/2, 2n - q - d/2), the lam-free factor of the Euler form."""
    return (
        specfun.ln_gamma(d / 2.0)
        + specfun.ln_gamma(2.0 * n - q - d / 2.0)
        - specfun.ln_gamma(2.0 * n - q)
    )


def _log_norm_sq(lam: float, q: float, n: float, d: int) -> float:
    """log |f|_q^2: the Beta sum for integer q, else one Euler-form 2F1 (see
    module notes)."""
    if _is_integer(q):
        log_lam = math.log(lam)
        lse = specfun.log_sum_exp(
            [
                term + 2.0 * ell * log_lam
                for ell, term in enumerate(_beta_sum_terms(int(round(q)), n, d))
            ]
        )
        return _log_norm_prefactor(lam, d) + lse
    val, err = specfun.hyp2f1_with_error(
        -q, d / 2.0, 2.0 * n - q, 1.0 - lam * lam, _NORM_REL_TOL, _NORM_MAX_TERMS
    )
    if not err <= _NORM_REL_TOL * val:
        raise NonConvergenceError(
            f"H^q norm not certified to {_NORM_REL_TOL:g} at (lam={lam}, q={q}, n={n}, "
            f"d={d}): error bound {err:.3g} on 2F1 value {val:.6g}"
        )
    return _log_norm_prefactor(lam, d) + _log_euler_beta(q, n, d) + math.log(val)


def bessel_norm_n(trial: BesselTrial, log: bool = False) -> float:
    """Squared H^n norm of the trial function, or its log with log."""
    return bessel_norm_a(trial, trial.n, log)


def bessel_norm_a(trial: BesselTrial, a: float, log: bool = False) -> float:
    """Squared H^a norm of the trial function, d/2 < a <= n, or with log its
    log: that of the float norm, and where the norm leaves the double range
    the log of the Beta sum or Euler form itself."""
    n, d = trial.n, trial.d
    if not (d / 2.0 < a <= n):
        raise DomainError(f"need d/2 < a <= n, got a={a}, n={n}, d={d}")
    log_sq = _log_norm_sq(trial.lam, a, n, d)
    norm = _exp_or_inf(log_sq)
    if not log:
        return norm
    return math.log(norm) if norm < math.inf else log_sq


# ---------------------------------------------------------------------------
# |f^2|_n^2 : hypergeometric integrand with analytic tail control
# ---------------------------------------------------------------------------


def _hyp_params(n: float, d: int) -> tuple[float, float, float]:
    return 2.0 * n - d / 2.0, n, n + 0.5


@lru_cache(maxsize=16)
def _log_cf_asymptotic(n: float, d: int) -> float:
    """log of C with F(a, b, c; -s^2) ~ C s^(-2n) for large s (a > b here)."""
    a, b, c = _hyp_params(n, d)
    return (
        specfun.ln_gamma(c)
        + specfun.ln_gamma(a - b)
        - specfun.ln_gamma(a)
        - specfun.ln_gamma(c - b)
    )


def _square_tail_cutoff(
    n: float, d: int, log_growth: float, log_coarse: float, decay: float | None = None
) -> float:
    """Truncation point S with analytic tail bound below 1e-12 of the integral.

    The integrand tail is bounded by growth * C^2 * s^(-1 - decay), with
    decay = 2n - d for |f^2|_n^2 (growth carries the (2 lam)^(2n)-type
    factor in log form) and 4n - d - 2j for the moment j, so
    tail(S) = 2 * growth * C^2 * S^(-decay) / decay.  S is rounded up to a
    power of two (at least 64, clamped to 1e13): any larger S keeps the
    bound, and lam-free ends let the lam of one maximization share one
    quadrature rule (see module notes).
    """
    if decay is None:
        decay = 2.0 * n - d
    log_c2 = 2.0 * _log_cf_asymptotic(n, d)
    log_target = math.log(_TAIL_FRACTION) + log_coarse
    log_s = (
        log_target + math.log(decay) - math.log(2.0) - log_growth - log_c2
    ) / -decay
    log2_s = min(max(log_s / math.log(2.0), 6.0), 44.0)
    return min(2.0 ** math.ceil(log2_s), 1e13)


def bessel_square_norm(
    trial: BesselTrial, rel_tol: float = 1e-9, log: bool = False
) -> float:
    """Squared H^n norm of the squared trial function, or its log with log.

    Integer n goes through cached lam-independent moments (the binomial
    expansion of (1 + 4 lam^2 s^2)^n), other n through the direct
    integral on lam-free quadrature rules.  The log stays finite where
    the norm leaves the double range (from about n = 110 on).
    """
    from . import bessel_direct  # deferred: bessel_direct imports this module

    n, d, lam = trial.n, trial.d, trial.lam
    if _is_integer(n):
        m = int(round(n))
        log_lam = math.log(4.0 * lam * lam)
        log_moments = bessel_direct.log_square_moments(m, d, rel_tol)
        lse = specfun.log_sum_exp(
            [
                lb + j * log_lam + log_moments[j]
                for j, lb in enumerate(specfun.log_binomials(m))
            ]
        )
        log_sq = _log_square_prefactor(lam, n, d) + lse
    else:
        log_sq = bessel_direct.log_square_norm(lam, n, d, rel_tol)
    return log_sq if log else _exp_or_inf(log_sq)


@lru_cache(maxsize=16)
def _log_square_const(n: float, d: int) -> float:
    return 2.0 * (specfun.ln_gamma(2.0 * n - d / 2.0) - specfun.ln_gamma(2.0 * n))


def _log_square_prefactor(lam: float, n: float, d: int) -> float:
    """log of 2 pi^(d/2) Gamma(2n - d/2)^2 / (Gamma(d/2) lam^d Gamma(2n)^2)."""
    return math.log(2.0) + _log_norm_prefactor(lam, d) + _log_square_const(n, d)


# ---------------------------------------------------------------------------
# ratio and maximization
# ---------------------------------------------------------------------------


def bessel_ratio(lam: float, n: float, a: float, d: int, rel_tol: float = 1e-9) -> float:
    """|f^2|_n / (|f|_a |f|_n) for the trial at rescale factor lam."""
    if not (n >= a and a > d / 2.0):
        raise DomainError(f"bessel ratio needs n >= a > d/2, got (n={n}, a={a}, d={d})")
    trial = BesselTrial(lam, n, d)
    # in logs: from about n = 110 on the norms alone leave the double range
    log_sq = bessel_square_norm(trial, rel_tol=rel_tol, log=True)
    log_na = bessel_norm_a(trial, a, log=True)
    return math.exp(0.5 * (log_sq - log_na - bessel_norm_n(trial, log=True)))


def bessel_lower_detail(
    n: float, a: float, d: int, rel_tol: float = 1e-8
) -> tuple[float, float, tuple[str, ...]]:
    """(bound, lam_star, warnings): supremum over lam of the trial ratio."""
    if not (n >= a and a > d / 2.0):
        raise DomainError(f"bessel bound needs n >= a > d/2, got (n={n}, a={a}, d={d})")
    ratio_tol = max(rel_tol * 1e-1, 1e-11)
    res = maximize_scalar(
        lambda lam: bessel_ratio(lam, n, a, d, rel_tol=ratio_tol), _BRACKET, rel_tol=rel_tol
    )
    return res.max_value, res.argmax, res.warnings


def bessel_lower(n: float, a: float, d: int, rel_tol: float = 1e-8) -> tuple[float, float]:
    """Best Bessel-trial lower bound and its maximizing rescale factor."""
    bound, lam_star, _ = bessel_lower_detail(n, a, d, rel_tol=rel_tol)
    return bound, lam_star
