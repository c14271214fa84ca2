"""Reference formulas that the library no longer uses, kept for the tests
to check the library's closed forms against.

e_power                  E(s) = s^s with E(0) = 1
imbedding_constant       sharp-form imbedding constants S_{r, n, d} of H^n into
                         L^r; products of them give e_const and s_const
v_general                the finite-n correction v(mu, n, a, d) of the Fourier
                         bound at any trial width mu; v_coeff is its mu = d/2 case
square_norm_direct       the squared Bessel trial's norm as the direct integral,
                         at any n; the reference for the moments at integer n
square_norm_closed_form  the squared Bessel trial's norm in closed form for the
                         worked cases (n, d) = (1, 1), (2, 2), (2, 3)
"""

import math

from sobprod import specfun
from sobprod.bessel_direct import _log_direct_integral, _square_tail_cutoff
from sobprod.bessel_lb import BesselTrial, _log_square_prefactor
from sobprod.errors import DomainError, NonConvergenceError, check_dimension
from sobprod.numerics import integrate_semiline
from sobprod.specfun import _exp_or_inf, ln_gamma


def e_power(s: float) -> float:
    """E(s) = s^s for s > 0, with the continuous endpoint value E(0) = 1."""
    if s < 0.0 or math.isnan(s):
        raise DomainError(f"e_power requires s >= 0, got {s}")
    if s == 0.0:
        return 1.0
    return math.exp(s * math.log(s))


def _imbedding_admissible(r: float, n: float, d: int) -> bool:
    if n == 0.0:
        return r == 2.0
    if n < d / 2.0:
        return 2.0 <= r < d / (d / 2.0 - n)
    if n == d / 2.0:
        return 2.0 <= r < math.inf
    return 2.0 <= r  # n > d/2 admits r = inf too


def imbedding_constant(r: float, n: float, d: int) -> float:
    """Sharp-form imbedding constant S_{r, n, d} of H^n into L^r.

    r may be any real in [2, inf] (math.inf accepted).  Outside the
    admissible (n, r) pairs a DomainError is raised.
    """
    check_dimension(d)
    if n < 0.0 or math.isnan(n):
        raise DomainError(f"imbedding_constant requires n >= 0, got {n}")
    if r < 2.0 or math.isnan(r):
        raise DomainError(f"imbedding_constant requires r >= 2, got {r}")
    if r == 2.0:
        return 1.0
    if math.isinf(r):
        if n <= d / 2.0:
            raise DomainError(f"r = inf requires n > d/2 (n={n}, d={d})")
        return math.exp(
            -(d / 4.0) * math.log(4.0 * math.pi)
            + 0.5 * (ln_gamma(n - d / 2.0) - ln_gamma(n))
        )
    if not _imbedding_admissible(r, n, d):
        raise DomainError(f"(n={n}, r={r}, d={d}) outside the admissible imbedding range")
    g = n / (1.0 - 2.0 / r)
    val = (
        -(d / 4.0 - d / (2.0 * r)) * math.log(4.0 * math.pi)
        + (0.5 - 1.0 / r) * (ln_gamma(g - d / 2.0) - ln_gamma(g))
    )
    e_ratio = (d / 2.0) * (
        math.log(e_power(1.0 / r)) - math.log(e_power(1.0 - 1.0 / r))
    )
    return math.exp(val + e_ratio)


def v_general(mu: float, n: float, a: float, d: int) -> float:
    """v(mu, n, a, d): the finite-n correction at trial width parameter mu."""
    na = n + a
    # na**4 raises OverflowError from n ~ 1e77 on; the product overflows to
    # inf instead, so the term goes to 0
    base = 1.0 - mu / na + mu * mu * a * n / ((na * na) * (na * na))
    ex = ((2.0 * a - mu) * mu * n + mu * a * a) / (2.0 * na * na - 2.0 * mu * n) - (
        mu * a * a
    ) / (2.0 * na * na - 2.0 * mu * a)
    return base ** (d / 4.0) * math.exp(ex)


def square_norm_direct(lam: float, n: float, d: int, rel_tol: float) -> float:
    """|f^2|_n^2 as the direct integral, at any n (the reference for the
    moments at integer n); inf beyond the double range."""
    return _exp_or_inf(_log_direct_integral(lam, n, d, rel_tol, _log_square_prefactor(lam, n, d)))


def square_norm_closed_form(trial: BesselTrial) -> float:
    """Independent closed-form |f^2|_n^2 for the worked cases.

    (n, d) = (1, 1) and (2, 3): the squared trial is itself a rescaled
    trial, giving rational expressions in lam.  (2, 2): quadrature of the
    ArcSinh closed form of F(3, 2, 5/2; -s^2) (the hypergeometric series
    substitutes only below s = 0.05, where the ArcSinh form cancels badly
    and contributes under 0.1% of the integral).
    """
    lam, n, d = trial.lam, trial.n, trial.d
    pi = math.pi
    if (n, d) == (1.0, 1):
        return pi**2 / 4.0 * (2.0 * lam + 1.0 / (2.0 * lam))
    if (n, d) == (2.0, 3):
        return pi**3 / 64.0 * (10.0 * lam + 1.0 / lam + 1.0 / (8.0 * lam**3))
    if (n, d) == (2.0, 2):

        def f_cf(s: float) -> float:
            if s < 0.05:
                return specfun.hyp2f1(3.0, 2.0, 2.5, -s * s)
            s2 = s * s
            return 3.0 * (2.0 * s2 - 1.0) / (16.0 * s2 * (1.0 + s2) ** 2) + (
                3.0 * (1.0 + 4.0 * s2) * math.asinh(s)
            ) / (16.0 * s**3 * (1.0 + s2) ** 2.5)

        lam2_4 = 4.0 * lam * lam

        def integrand(s: float) -> float:
            if s <= 0.0:
                return 0.0
            v = f_cf(s)
            return s * (1.0 + lam2_4 * s * s) ** 2 * v * v

        coarse = integrate_semiline(integrand, rel_tol=1e-6, upper=50.0)
        cutoff = _square_tail_cutoff(
            2.0, 2, 4.0 * math.log(2.0 * lam), math.log(max(coarse.value, 1e-300)), 2.0
        )
        res = integrate_semiline(integrand, rel_tol=1e-10, upper=cutoff)
        if not res.converged:
            raise NonConvergenceError("ArcSinh closed-form quadrature did not converge")
        return 2.0 * pi / (9.0 * lam * lam) * res.value
    raise DomainError(f"no worked-case closed form for (n, d) = ({n}, {d})")
