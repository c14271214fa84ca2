"""The integral of |f^2|_n^2 for the Bessel trial (see bessel_lb),

    log int_0^inf s^(d-1) (1 + 4 lam^2 s^2)^n F(2n - d/2, n, n + 1/2; -s^2)^2 ds,

at any n (log_square_integral): through its lam-free moments at integer
n, directly at other n.

The integral is truncated where an analytic tail bound drops below 1e-12
of a coarse first pass, at a power of two (_square_tail_cutoff);
integrands assemble in log space so the (1 + 4 lam^2 s^2)^n growth never
overflows.

Every lam of a maximization reads the same quadrature rules.  A rule
(_rule) is a set of GK15 panels of one interval of t = s/(1 + s) -- the
coarse pass over s in (0, 50) or a fine pass up to a power-of-two cutoff
-- together with the lam-free part of the log integrand at its nodes,
(d - 1) log s + 2 log F plus the log Jacobian.  Its panels are those of
one adaptive pass over the sum of the integrands at lam = 1/4, 1, 4 and
16, each bisected once more.  The 41 nodes that locate the integrand's
peak are kept the same way (_scan), and a few rules are kept at a time.
A lam then costs one array pass exp(lfree + n log(1 + 4 lam^2 s^2) - lmax)
and the per-panel Kronrod/Gauss error estimate; where that misses the
tolerance, the lam bisects the failing panels on its own, so its value
depends on lam alone.

F = F(2n - d/2, n, n + 1/2; -s^2) is certified to its rel_tol at every
node of a rule (_log_f).  From s = 3 on it comes from the 1/z connection
formula (DLMF 15.8.2): two short series in -1/s^2, or where n - d/2 is an
integer the logarithmic case (DLMF 15.8.8), each bounded by the supremum
of its later term ratios and by its roundoff.  Below s = 3, and wherever
that bound misses rel_tol (the two terms cancel where n - d/2 is close to
an integer), F comes from the Pfaff series, summed for all nodes at once
(specfun.hyp2f1_rows).

At integer n the n + 1 lam-free moments of the binomial expansion of
(1 + 4 lam^2 s^2)^n share the panels of one adaptive pass per (n, d)
(log_square_moments), with F from the same _log_f.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import specfun
from .errors import NonConvergenceError
from .numerics import gk15_nodes, gk15_panels, integrate_panels

__all__ = ["log_square_integral", "log_square_moments"]

_U = 2.0**-53  # unit roundoff
_S_CONNECT = 3.0  # F from the 1/z connection formula from here on
_F_MAX_TERMS = 600_000  # Pfaff series terms per node below _S_CONNECT
_SERIES_BLOCK = 32
_MOMENT_BLOCK = 2**13  # array elements of the moments evaluated at once
_TAIL_FRACTION = 1e-12  # bound on the truncated tail, relative to the integral


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
    n: float, d: int, log_growth: float, log_coarse: float, decay: float
) -> float:
    """Truncation point S with analytic tail bound below 1e-12 of the integral.

    The integrand tail is bounded by growth * C^2 * s^(-1 - decay), with
    decay = 2n - d for the integral at one lam (growth carries the
    (2 lam)^(2n)-type factor in log form) and 4n - d - 2j for the moment
    j, so tail(S) = 2 * growth * C^2 * S^(-decay) / decay.  S is rounded
    up to a power of two (at least 64, clamped to 1e13): any larger S
    keeps the bound, and lam-free ends let the lam of one maximization
    share one quadrature rule (see module notes).
    """
    log_c2 = 2.0 * _log_cf_asymptotic(n, d)
    log_target = math.log(_TAIL_FRACTION) + log_coarse
    log_s = (
        log_target + math.log(decay) - math.log(2.0) - log_growth - log_c2
    ) / -decay
    log2_s = min(max(log_s / math.log(2.0), 6.0), 44.0)
    return min(2.0 ** math.ceil(log2_s), 1e13)


def _ln_gamma_err(x: float) -> float:
    """Bound on the absolute error of specfun.ln_gamma(x): the Lanczos
    truncation (below 2e-15 relative in Gamma) plus the roundings of its
    terms."""
    extra = 0.0
    if x < 0.5:
        extra, x = 4.0 * _U * abs(math.log(x)), x + 1.0
    t = x + 6.5
    return 4e-15 + extra + 4.0 * _U * (abs((x - 0.5) * math.log(t)) + t)


def _series_tail(
    a: float, b: float, c: float, x: np.ndarray, k: int, t_k: np.ndarray
) -> np.ndarray:
    """Bound on sum_{j>k} |t_j| for rows of F(a, b; c; -x) whose term t_k
    is the last one summed (inf where there is none yet).

    As in specfun._decimal_tail: once a + k, b + k and c + k are positive,
    each factor (p + j)/(q + j) of the term ratio is monotone in j, so its
    supremum over j >= k is max(1, (p + k)/(q + k)); with rho that
    supremum of |t_{j+1}/t_j|, the tail is at most |t_k| rho / (1 - rho).
    """
    ak, bk, ck, k1 = a + k, b + k, c + k, k + 1.0
    if min(ak, bk, ck) <= 0.0:
        return np.where(t_k == 0.0, 0.0, np.inf)
    sup = min(max(1.0, ak / ck) * max(1.0, bk / k1), max(1.0, ak / k1) * max(1.0, bk / ck))
    rho = x * sup * (1.0 + 8.0 * _U)
    with np.errstate(divide="ignore"):
        tail = np.abs(t_k) * rho / (1.0 - rho) * (1.0 + 8.0 * _U)
    return np.where(t_k == 0.0, 0.0, np.where(rho < 1.0, tail, np.inf))


class _Series(NamedTuple):
    """Rows of a series sum_k t_k, with sum_k w_k t_k where weights are given."""

    value: np.ndarray
    tail: np.ndarray  # bound on the terms not summed (_series_tail)
    roundoff: np.ndarray  # bound on the float error of the summed terms
    terms: np.ndarray  # index of the last summed term
    absum: np.ndarray  # sum_k |t_k|
    weighted: np.ndarray
    weighted_roundoff: np.ndarray


def _neg_series(
    a: float,
    b: float,
    c: float,
    x: np.ndarray,
    rel_tol: float,
    weights: np.ndarray | None = None,
) -> _Series:
    """Rows of F(a, b; c; -x) for 0 < x <= 1/9, with weights (w_0, w_1, ...)
    also sum_k w_k t_k.

    Each row is summed in blocks until its _series_tail meets rel_tol/8 of
    its sum, its terms leave the float range, or len(weights) - 1 terms
    are summed (512 + 4 (|a| + |b|) without weights).  Each term comes
    from the one before through a ratio with about ten roundings, so the
    float error of K + 1 summed terms is at most 11 (K + 1) u sum_k |t_k|.
    """
    cap = len(weights) - 1 if weights is not None else 512 + int(4 * (abs(a) + abs(b)))
    rows = x.shape[0]
    total, absum, term = np.ones(rows), np.ones(rows), np.ones(rows)
    w0 = 1.0 if weights is None else weights[0]
    wtotal, wabsum = np.full(rows, w0), np.full(rows, abs(w0))
    tail, count = np.full(rows, np.inf), np.zeros(rows)
    live = np.arange(rows)
    k0 = 0
    while live.size and k0 < cap:
        block = min(_SERIES_BLOCK, cap - k0)
        k = np.arange(k0, k0 + block, dtype=float)
        ratios = -((a + k) * (b + k) / ((c + k) * (1.0 + k))) * x[live, None]
        with np.errstate(over="ignore", invalid="ignore"):
            terms = term[live, None] * np.cumprod(ratios, axis=1)
            total[live] += terms.sum(axis=1)
            absum[live] += np.abs(terms).sum(axis=1)
            if weights is not None:
                wterms = terms * weights[k0 + 1 : k0 + 1 + block]
                wtotal[live] += wterms.sum(axis=1)
                wabsum[live] += np.abs(wterms).sum(axis=1)
        k0 += block
        term[live], count[live] = terms[:, -1], k0
        tail[live] = _series_tail(a, b, c, x[live], k0, terms[:, -1])
        blown = ~(absum[live] <= 1e290)
        met = tail[live] <= rel_tol / 8.0 * np.abs(total[live])
        live = live[~(blown | met)]
    tail[~(absum <= 1e290)] = np.inf
    scale = 11.0 * (count + 1.0) * _U
    return _Series(total, tail, scale * absum, count, absum, wtotal, scale * wabsum)


def _log_f_pfaff(n: float, d: int, s: np.ndarray, rel_tol: float) -> np.ndarray:
    """log F at nodes s through the Pfaff series (specfun.hyp2f1_rows)."""
    a, b, c = _hyp_params(n, d)
    vals, errs = specfun.hyp2f1_rows(a, b, c, -s * s, rel_tol, _F_MAX_TERMS)
    bad = ~((errs <= rel_tol * vals) & (vals >= 1e-290))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NonConvergenceError(
            f"hypergeometric integrand not certified to {rel_tol:g} at s={s[i]:.6g} "
            f"for (n={n}, d={d}): error bound {errs[i]:.3g} on value {vals[i]:.6g}"
        )
    return np.log(vals)


def _connection_sum(
    n: float, d: int, x: np.ndarray, ln_s: np.ndarray, rel_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Q and a bound on its error, where F = C s^(-2n) Q (C of
    _log_cf_asymptotic), from the 1/z connection formula (DLMF 15.8.2):

        Q = F(n, 1/2; 1 - delta; -x) + r s^(-2 delta) F(2n - d/2, delta + 1/2; delta + 1; -x)

    with x = 1/s^2, delta = n - d/2 and, by the reflection formula,
    r = -cot(pi delta) Gamma(delta + 1/2) Gamma(2n - d/2) Gamma(1/2)
        / (Gamma(n) Gamma(delta + 1) Gamma(delta)).
    Where delta is an integer the two terms have poles that cancel; that
    case is _connection_sum_log.  Near an integer they cancel in part, and
    the error bound grows accordingly.
    """
    delta = n - d / 2.0
    eps = delta - round(delta)
    ser2 = _neg_series(n, 0.5, 1.0 - delta, x, rel_tol)
    ser1 = _neg_series(2.0 * n - d / 2.0, delta + 0.5, delta + 1.0, x, rel_tol)
    s2, e2 = ser2.value, ser2.tail + ser2.roundoff
    s1, e1 = ser1.value, ser1.tail + ser1.roundoff
    cot = math.cos(math.pi * eps) / math.sin(math.pi * eps)
    args = (delta + 0.5, 2.0 * n - d / 2.0, 0.5, n, delta + 1.0, delta)
    lg = [specfun.ln_gamma(v) for v in args]
    log_r = math.log(abs(cot)) + lg[0] + lg[1] + lg[2] - lg[3] - lg[4] - lg[5]
    eps_r = sum(_ln_gamma_err(v) for v in args) + 8.0 * _U * (abs(log_r) + 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        log_rs = log_r - 2.0 * delta * ln_s
        big_r = -math.copysign(1.0, cot) * np.exp(log_rs)
        t1 = big_r * s1
        q = s2 + t1
        q_err = (
            e2
            + np.abs(big_r) * e1
            + np.abs(t1) * (eps_r + 8.0 * _U * np.abs(log_rs))
            + 2.0 * _U * (np.abs(s2) + np.abs(t1))
        )
    return q, q_err


def _connection_sum_log(
    n: float, m: int, x: np.ndarray, ln_s: np.ndarray, rel_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Q of _connection_sum where delta = m >= 1 is an integer (DLMF 15.8.8).

    With c - a = 1/2 every digamma at a half-integer or integer point is
    a finite sum, and

        Q = sum_{k<m} a_k x^k + b_0 x^m sum_k t_k (2 ln s + c_k),

    a_0 = 1, a_{k+1} = a_k (n + k)(k + 1/2) / ((k + 1)(m - k - 1)),
    b_0 = Gamma(m + 1/2) Gamma(n + m) / (sqrt(pi) Gamma(n) Gamma(m) m!),
    t_k the terms of F(n + m, m + 1/2; m + 1; -x) and
    c_k = psi(1 + m + k) - psi(m + k + 1/2) + psi(1 + k) - psi(n + m + k),
    whose two differences are monotone in k.
    """
    cap = 512 + int(4 * (2 * n + 2 * m))
    k = np.arange(cap, dtype=float)
    psi_nm = specfun.digamma(n + m)
    diff1 = specfun.digamma(1.0 + m) - specfun.digamma(0.5 + m) + np.concatenate(
        ([0.0], np.cumsum(1.0 / (1.0 + m + k) - 1.0 / (0.5 + m + k)))
    )
    diff2 = specfun.digamma(1.0) - psi_nm + np.concatenate(
        ([0.0], np.cumsum(1.0 / (1.0 + k) - 1.0 / (n + m + k)))
    )
    ser = _neg_series(n + m, m + 0.5, m + 1.0, x, rel_tol, weights=diff1 + diff2)
    last = ser.terms.astype(int)
    # c_j for j >= k lies within the two differences at k; c_k carries the
    # digamma errors and those of a k-term cumulative sum
    c_sup = np.abs(diff1[last]) + np.abs(diff2[last])
    c_err = 1e-14 * (4.0 + abs(psi_nm)) + 4.0 * _U * (last + 1.0) * (3.0 + np.log1p(last))
    lsum = 2.0 * ln_s * ser.value + ser.weighted
    lsum_err = (
        2.0 * ln_s * (ser.tail + ser.roundoff)
        + ser.tail * c_sup
        + ser.weighted_roundoff
        + c_err * ser.absum
    )

    coeffs = [1.0]
    for j in range(m - 1):
        coeffs.append(coeffs[-1] * (n + j) * (j + 0.5) / ((j + 1.0) * (m - j - 1.0)))
    head = np.zeros_like(x)
    for coef in reversed(coeffs):
        head = head * x + coef
    head_err = 16.0 * (m + 1) * _U * head

    lg_args = (m + 0.5, n + m, m + 1.0, float(m), 0.5, n)
    lg = [specfun.ln_gamma(v) for v in lg_args]
    log_b0 = lg[0] + lg[1] - lg[2] - lg[3] - lg[4] - lg[5]
    eps_b0 = sum(_ln_gamma_err(v) for v in lg_args) + 8.0 * _U * (abs(log_b0) + m + 2.0)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        scale = np.exp(log_b0 + m * np.log(x))
        t2 = scale * lsum
        q = head + t2
        q_err = (
            head_err
            + scale * lsum_err
            + np.abs(t2) * (eps_b0 + 8.0 * _U * np.abs(m * np.log(x)))
            + 2.0 * _U * (head + np.abs(t2))
        )
    return q, q_err


def _log_f_connection(
    n: float, d: int, s: np.ndarray, rel_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """(log F, bound on its error) at nodes s >= _S_CONNECT from the
    connection formula.

    The bound counts the series truncation and roundoff, the errors of
    the Gamma-function coefficients and the log-space assembly; it is inf
    where the sum is not positive or its series did not converge.  A
    relative error e of F moves log F by at most e / (1 - e).
    """
    delta = n - d / 2.0
    x = 1.0 / (s * s)
    ln_s = np.log(s)
    if delta == round(delta):
        q, q_err = _connection_sum_log(n, int(round(delta)), x, ln_s, rel_tol)
    else:
        q, q_err = _connection_sum(n, d, x, ln_s, rel_tol)
    a, b, c = _hyp_params(n, d)
    log_c = _log_cf_asymptotic(n, d)
    eps_c = sum(_ln_gamma_err(v) for v in (c, a - b, a, c - b))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = log_c - 2.0 * n * ln_s + np.log(q)
        rel = q_err / q + eps_c + 8.0 * _U * (2.0 * n * np.abs(ln_s) + abs(log_c) + 1.0)
        bound = rel / (1.0 - rel)
    return log_f, np.where((q > 0.0) & np.isfinite(log_f) & (rel < 0.5), bound, np.inf)


def _log_f(n: float, d: int, s: np.ndarray, rel_tol: float) -> np.ndarray:
    """log F(2n - d/2, n, n + 1/2; -s^2) at the nodes s > 0, each value
    certified to rel_tol relative: the connection formula from
    _S_CONNECT on, the Pfaff series below it and wherever the connection
    formula misses rel_tol.  Raises NonConvergenceError where neither
    certifies."""
    out = np.empty(s.shape)
    todo = np.ones(s.shape, dtype=bool)
    far = np.flatnonzero(s >= _S_CONNECT)
    if far.size:
        log_f, err = _log_f_connection(n, d, s[far], rel_tol)
        ok = err <= rel_tol
        out[far[ok]] = log_f[ok]
        todo[far[ok]] = False
    if todo.any():
        out[todo] = _log_f_pfaff(n, d, s[todo], rel_tol)
    return out


# ---------------------------------------------------------------------------
# lam-free quadrature rules of the direct integral
# ---------------------------------------------------------------------------


class _Rule(NamedTuple):
    """GK15 panels [lo, hi] of t = s/(1 + s) with, at their nodes, s^2 and
    lfree = (d - 1) log s + 2 log F + log(ds/dt): everything of the log
    integrand but n log(1 + 4 lam^2 s^2)."""

    lo: np.ndarray
    hi: np.ndarray
    s2: np.ndarray
    lfree: np.ndarray


def _lfree(n: float, d: int, f_tol: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s^2, lfree) of _Rule at nodes t."""
    s = t / (1.0 - t)
    log_f = _log_f(n, d, s.ravel(), f_tol).reshape(s.shape)
    return s * s, (d - 1.0) * np.log(s) + 2.0 * log_f - 2.0 * np.log1p(-t)


_SCAN = 10.0 ** (-3.0 + 5.0 * np.arange(41) / 40.0)  # nodes locating the peak


@lru_cache(maxsize=4)
def _scan(n: float, d: int, f_tol: float) -> np.ndarray:
    """(d - 1) log s + 2 log F at the scan nodes."""
    lfree = (d - 1.0) * np.log(_SCAN) + 2.0 * _log_f(n, d, _SCAN, f_tol)
    lfree.flags.writeable = False  # shared by every caller of the cache
    return lfree


def _log_peak(n: float, d: int, f_tol: float, lam: float) -> float:
    """Largest log integrand over the scan nodes: the scale of the integrand."""
    growth = n * np.log1p(4.0 * lam * lam * _SCAN * _SCAN)
    return float(np.max(_scan(n, d, f_tol) + growth))


def _panel_fn(n: float, d: int, f_tol: float, lams: tuple[float, ...]):
    """numerics.integrate_panels' panel for the sum over lams of the
    integrand at lam scaled by its peak: F at the 15 nodes of each panel is
    evaluated as one array."""
    peaks = [(lam * lam, _log_peak(n, d, f_tol, lam)) for lam in lams]

    def panel(ends: list[tuple[float, float]]) -> list[tuple[float, float]]:
        lo, hi = np.array(ends).T
        s2, lfree = _lfree(n, d, f_tol, gk15_nodes(lo, hi))
        vals = sum(np.exp(lfree + n * np.log1p(4.0 * l2 * s2) - lmax) for l2, lmax in peaks)
        return list(zip(*(v.tolist() for v in gk15_panels(vals, lo, hi))))

    return panel


# rescale factors whose integrands the panels of a rule resolve: they span
# the lam a maximization tries, from its initial bracket (0.2, 5) to lam*
# of about 27 at n = 150
_LAM_REF = (0.25, 1.0, 4.0, 16.0)


@lru_cache(maxsize=8)
def _rule(n: float, d: int, f_tol: float, upper: float, tol: float) -> _Rule:
    """The lam-free rule of the interval s in (0, upper) at tolerance tol.

    Its panels are those the adaptive pass over the sum of the integrands
    at _LAM_REF ends with, each bisected once more, so that the lam in
    between meet tol on them too.
    """
    panel = _panel_fn(n, d, f_tol, _LAM_REF)
    t_hi = upper / (1.0 + upper)
    first = (0.0, t_hi, *panel([(0.0, t_hi)])[0])
    _, panels = integrate_panels(panel, [first], tol, batch=True)
    lo, hi = np.array(sorted(p[:2] for p in panels)).T
    mid = 0.5 * (lo + hi)
    lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
    rule = _Rule(lo, hi, *_lfree(n, d, f_tol, gk15_nodes(lo, hi)))
    for arr in rule:
        arr.flags.writeable = False  # shared by every caller of the cache
    return rule


def _rule_integral(
    n: float, d: int, f_tol: float, upper: float, tol: float, lam: float, lmax: float
) -> tuple[float, bool]:
    """(integral, converged) of the integrand at lam scaled by exp(-lmax)
    over s in (0, upper): one array pass over the rule's nodes, and where
    its error estimate misses tol, adaptive bisection of its panels."""
    rule = _rule(n, d, f_tol, upper, tol)
    vals = np.exp(rule.lfree + n * np.log1p(4.0 * lam * lam * rule.s2) - lmax)
    kron, err = gk15_panels(vals, rule.lo, rule.hi)
    total = float(kron.sum())
    if float(err.sum()) <= tol * abs(total):
        return total, True
    panels = list(zip(rule.lo.tolist(), rule.hi.tolist(), kron.tolist(), err.tolist()))
    res, _ = integrate_panels(_panel_fn(n, d, f_tol, (lam,)), panels, tol, batch=True)
    return res.value, res.converged


def _log_direct_integral(
    lam: float, n: float, d: int, rel_tol: float, log_prefactor: float
) -> float:
    """log_prefactor + log of the integral at lam, taken directly on the
    lam-free rules (at any n)."""
    f_tol = rel_tol * 1e-2
    lmax = _log_peak(n, d, f_tol, lam)
    coarse, _ = _rule_integral(n, d, f_tol, 50.0, 1e-6, lam, lmax)
    cutoff = _square_tail_cutoff(
        n, d, 2.0 * n * math.log(2.0 * lam), lmax + math.log(max(coarse, 1e-300)), 2.0 * n - d
    )
    fine, converged = _rule_integral(n, d, f_tol, cutoff, rel_tol, lam, lmax)
    if not converged:
        raise NonConvergenceError(
            f"square-norm quadrature did not converge (lam={lam}, n={n}, d={d})"
        )
    return log_prefactor + lmax + math.log(fine)


def log_square_integral(
    lam: float, n: float, d: int, rel_tol: float, log_prefactor: float
) -> float:
    """log_prefactor + log int_0^inf s^(d-1) (1 + 4 lam^2 s^2)^n F^2 ds.

    At integer n (specfun.is_near_integer) the integral is the binomial
    sum over the cached lam-free moments (log_square_moments), at other n
    the direct integral on the lam-free rules.  log_prefactor, a constant
    factor of the caller's in logs, is added first: the direct path sums
    log_prefactor + lmax + log(fine), lmax the scale of the integrand, and
    another order would move the last bits of every result.
    """
    if not specfun.is_near_integer(n):
        return _log_direct_integral(lam, n, d, rel_tol, log_prefactor)
    m = int(round(n))
    log_lam = math.log(4.0 * lam * lam)
    log_moments = log_square_moments(m, d, rel_tol)
    lse = specfun.log_sum_exp(
        [lb + j * log_lam + log_moments[j] for j, lb in enumerate(specfun.log_binomials(m))]
    )
    return log_prefactor + lse


@lru_cache(maxsize=64)
def log_square_moments(n: int, d: int, rel_tol: float) -> tuple[float, ...]:
    """log M_j of the lam-free moments M_j = int s^(d-1+2j) F^2 ds, j = 0..n,
    of |f^2|_n^2 at integer n.

    All n + 1 moments share the panels of one adaptive pass, driven by the
    weighted sums of the moments' own GK15 values and error estimates, each
    moment scaled by its peak over the scan nodes.  The pass runs over s in
    (0, 50) at 1e-6, then on from its panels up to the largest of the
    moments' tail cutoffs, each moment weighted by 1/(its coarse value) and
    the tolerance by 1/(2 (n + 1)), so that each one meets rel_tol.  Every
    panel keeps its per-moment values, so F is summed once per node, and
    every moment is checked against rel_tol on its own.
    """
    f_tol = rel_tol * 1e-2
    log_scan2 = 2.0 * np.log(_SCAN)
    scale = np.array([np.max(_scan(n, d, f_tol) + j * log_scan2) for j in range(n + 1)])
    kept = {}  # panel ends -> per-moment GK15 values and error estimates

    def moments(ends: list[tuple[float, float]]) -> None:
        lo, hi = np.array(ends).T
        s2, lfree = _lfree(n, d, f_tol, gk15_nodes(lo, hi))
        log_s2 = np.log(s2)
        kron, err = np.empty((n + 1, len(ends))), np.empty((n + 1, len(ends)))
        step = max(1, _MOMENT_BLOCK // lfree.size)
        for j0 in range(0, n + 1, step):
            j = np.arange(j0, min(j0 + step, n + 1))
            vals = np.exp(lfree + j[:, None, None] * log_s2 - scale[j, None, None])
            ends_j = (np.tile(lo, j.size), np.tile(hi, j.size))
            k, e = gk15_panels(vals.reshape(-1, 15), *ends_j)
            kron[j], err[j] = k.reshape(j.size, -1), e.reshape(j.size, -1)
        kept.update(zip(ends, zip(kron.T, err.T)))

    def weighted(end: tuple[float, float], weight: np.ndarray) -> tuple[float, float]:
        return tuple(float((x * weight).sum()) for x in kept[end])

    def run(weight: np.ndarray, panels: list, lo: float, hi: float, tol: float):
        """The final panels of the adaptive pass over the moments weighted by
        weight, from panels and the new panel (lo, hi), with the per-moment
        sums of their values and error estimates."""

        def panel(ends: list[tuple[float, float]]) -> list[tuple[float, float]]:
            moments(ends)
            return [weighted(end, weight) for end in ends]

        start = [(a, b, *weighted((a, b), weight)) for a, b, *_ in panels]
        start.append((lo, hi, *panel([(lo, hi)])[0]))
        _, panels = integrate_panels(panel, start, tol, batch=True)
        return panels, *(sum(x) for x in zip(*(kept[p[:2]] for p in sorted(panels))))

    t_50 = 50.0 / 51.0
    coarse, values, _ = run(np.ones(n + 1), [], 0.0, t_50, 1e-6)
    cutoff = max(
        _square_tail_cutoff(n, d, 0.0, c + math.log(v), 4.0 * n - d - 2.0 * j)
        for j, (c, v) in enumerate(zip(scale.tolist(), values.tolist()))
    )
    tol = rel_tol / (2 * n + 2)
    _, values, errs = run(1.0 / values, coarse, t_50, cutoff / (1.0 + cutoff), tol)
    for j, (value, err) in enumerate(zip(values.tolist(), errs.tolist())):
        if not err <= rel_tol * value:
            raise NonConvergenceError(
                f"moment quadrature did not converge (n={n}, d={d}, j={j}): "
                f"error estimate {err:.3g} on value {value:.6g}"
            )
    return tuple((scale + np.log(values)).tolist())
