"""Reference formulas that the library no longer uses, kept for the tests
to check the library's closed forms against.

imbedding_constant  sharp-form imbedding constants S_{r, n, d} of H^n into
                    L^r; products of them give e_const and s_const
v_general           the finite-n correction v(mu, n, a, d) of the Fourier
                    bound at any trial width mu; v_coeff is its mu = d/2 case
"""

import math

from sobprod.errors import DomainError, check_dimension
from sobprod.specfun import e_power, ln_gamma


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
