import math

import pytest


def rel_err(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), 1e-300)


@pytest.fixture(scope="session")
def mp():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    return mpmath.mp


def assert_rel(got: float, ref: float, tol: float, label: str = "") -> None:
    err = rel_err(got, ref)
    assert err <= tol, f"{label} rel error {err:.3e} > {tol:.1e} (got {got!r}, ref {ref!r})"


def assert_abs(got: float, ref: float, tol: float, label: str = "") -> None:
    err = abs(got - ref)
    assert err <= tol, f"{label} abs error {err:.3e} > {tol:.1e} (got {got!r}, ref {ref!r})"


def log2(x: float) -> float:
    return math.log2(x)


def mp_bessel_norm_sq(mp, lam: float, q: float, n: float, d: int) -> float:
    """|f|_q^2 of the Bessel trial by mpmath quadrature of its defining radial
    integral, independent of the Beta-sum and Euler forms of the library.

    The head is int_0^1; the tail int_1^inf, where the integrand falls like
    s^(-1-beta) with beta = 4n - 2q - d > 0, is mapped by s = v^(-1/beta)
    onto (0, 1] with a bounded integrand.  Breakpoints sit where
    lam s = 1.
    """
    lam, q, n = mp.mpf(lam), mp.mpf(q), mp.mpf(n)
    beta = 4 * n - 2 * q - d
    head = mp.quad(
        lambda s: s ** (d - 1) * (1 + (lam * s) ** 2) ** q / (1 + s * s) ** (2 * n),
        [0, 1 / lam, 1] if lam > 1 else [0, 1],
    )
    tail = mp.quad(
        lambda v: (v ** (2 / beta) + lam**2) ** q / (v ** (2 / beta) + 1) ** (2 * n),
        [0, lam**beta, 1] if lam < 1 else [0, 1],
    ) / beta
    half_d = mp.mpf(d) / 2
    return float(2 * mp.pi**half_d / (mp.gamma(half_d) * lam**d) * (head + tail))
