"""Self-contained real special functions and Sobolev imbedding constants.

Everything here is double-precision math with no dependencies beyond
numpy (used to block-sum hypergeometric series and to run K_nu over an
array of arguments) and the standard library.  The one exception is
hyp2f1 at negative arguments: when both float Pfaff branches lose the
requested accuracy to cancellation, a branch is re-summed with the
stdlib decimal module.  Libraries such as scipy/mpmath appear solely in
the test suite as independent references.

Contents:
  ln_gamma            log Gamma via a Lanczos approximation (g=7, 9 terms)
  log_binomial        log C(m, j) from three ln_gamma values
  log_binomials       log C(m, j) for j = 0..m, cached per m
  log_sum_exp         log of a sum of exponentials, overflow-safe
  digamma             psi(x) for x > 0 (recurrence + asymptotic series)
  hyp2f1              Gauss 2F1 for z < 1, negative z through the Pfaff map,
                      cancelling branches re-summed in decimal
  hyp2f1_rows         hyp2f1_with_error over an array of negative z, each
                      Pfaff branch summed for all of them at once
  bessel_k            Macdonald function K_nu (Temme series + continued
                      fraction, upward recurrence in the order) at a float
                      or an array of x, the fraction run on the whole array
"""

from __future__ import annotations

import decimal
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "ln_gamma",
    "log_binomial",
    "log_binomials",
    "log_sum_exp",
    "hyp2f1",
    "hyp2f1_rows",
    "digamma",
    "bessel_k",
]


# ---------------------------------------------------------------------------
# log Gamma
# ---------------------------------------------------------------------------

# Lanczos coefficients, g = 7, 9 terms. Relative error of exp(ln_gamma)
# is a few ulp over the whole positive axis.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.9189385332046727417803297364056176


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0.0 or math.isnan(x):
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    if x < 0.5:
        # recurrence keeps the Lanczos sum on its accurate range
        return ln_gamma(x + 1.0) - math.log(x)
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (x + i - 1.0)
    t = x + _LANCZOS_G - 0.5
    return _LN_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(acc)


def log_binomial(m: int, j: int) -> float:
    """log C(m, j) for integers 0 <= j <= m."""
    return ln_gamma(m + 1.0) - ln_gamma(j + 1.0) - ln_gamma(m - j + 1.0)


@lru_cache(maxsize=16)
def log_binomials(m: int) -> tuple[float, ...]:
    """log C(m, j) for j = 0..m."""
    return tuple(log_binomial(m, j) for j in range(m + 1))


def log_sum_exp(logs: list[float]) -> float:
    """log sum exp(x) over logs, shifted by the largest so no term overflows."""
    m = max(logs)
    return m + math.log(sum(math.exp(x - m) for x in logs))


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0: the recurrence psi(x) =
    psi(x + 1) - 1/x up to x >= 20, then the asymptotic series, whose
    first omitted term is below 1e-17 there."""
    if not x > 0.0 or math.isnan(x):
        raise DomainError(f"digamma requires x > 0, got {x}")
    shift = 0.0
    while x < 20.0:
        shift += 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    series = r * (
        1.0 / 12.0
        - r * (1.0 / 120.0 - r * (1.0 / 252.0 - r * (1.0 / 240.0 - r / 132.0)))
    )
    return math.log(x) - 0.5 / x - series - shift


# ---------------------------------------------------------------------------
# Gauss hypergeometric
# ---------------------------------------------------------------------------

_HYP_BLOCK = 4096
_ROWS_BUDGET = 2**13  # array elements of one block of _hyp_series_rows
_EPS = 2.220446049250313e-16
_ROUNDOFF = 32.0 * _EPS  # float roundoff estimate per unit of sum|t_k|


def _pochhammer_terminates(x: float) -> int | None:
    """Return m >= 0 if (x)_k vanishes for all k > m (x a non-positive integer)."""
    if x > 0.0:
        return None
    r = round(x)
    if abs(x - r) <= 1e-12 * max(1.0, abs(x)):
        return int(-r)
    return None


def _hyp_series(
    a: float, b: float, c: float, w: float, rtol: float, max_terms: int
) -> tuple[float, float, float, int]:
    """Float partial sum of F(a, b, c; w) = sum_k (a)_k (b)_k / ((c)_k k!) w^k.

    For 0 <= w <= 1, summed in numpy blocks until the error of the float
    pass (below) meets rtol or max_terms terms are summed.  Once its
    roundoff term alone exceeds rtol/2 the series cancels and more terms
    cannot help: the pass then stops as soon as the truncation tail meets
    rtol, the term count a decimal re-sum starts from.  The tail is
    geometric from the last term ratio when that is below one, else the
    algebraic 4 |t_K| K / delta for delta = c - a - b > 0, since
    |t_k| ~ C k^(-1-delta).  Both are estimates from the last block, not
    bounds over every later term: while the ratio still rises toward w the
    geometric one can fall short of the true tail.

    Returns (value, tail, absum, terms): absum is sum|t_k| (inf once it
    leaves the float range) and terms the index of the last summed term.
    The error of the float pass is tail + _ROUNDOFF * absum; the roundoff
    term detects catastrophic cancellation, and it too is an estimate,
    since each term carries the roundings of all earlier ratios.  A
    terminating series has no tail, but it is float arithmetic and can
    cancel all the same.
    """
    nterm = _pochhammer_terminates(a)
    nterm_b = _pochhammer_terminates(b)
    if nterm is None or (nterm_b is not None and nterm_b < nterm):
        nterm = nterm_b
    delta = c - a - b

    total = 1.0
    absum = 1.0
    term = 1.0
    k0 = 0
    tail = math.inf
    block_size = 64  # grows geometrically; short series stay cheap
    while k0 < max_terms:
        block = min(block_size, max_terms - k0)
        block_size = min(4 * block_size, _HYP_BLOCK)
        if nterm is not None:
            block = min(block, nterm - k0 + 1)
        k = np.arange(k0, k0 + block, dtype=float)
        ratios = (a + k) * (b + k) / ((c + k) * (1.0 + k)) * w
        terms = term * np.cumprod(ratios)
        total += float(terms.sum())
        absum += float(np.abs(terms).sum())
        term = float(terms[-1])
        k0 += block
        if not math.isfinite(term) or absum > 1e290:
            return total, math.inf, math.inf, k0
        if (nterm is not None and k0 > nterm) or term == 0.0:
            tail = 0.0
            break
        rho = abs(ratios[-1])
        if rho < 1.0:
            tail = abs(term) * rho / (1.0 - rho)
        elif delta > 0.0 and k0 > max(64, 4.0 * (abs(a) + abs(b))):
            tail = 4.0 * abs(term) * k0 / delta
        else:
            tail = math.inf
        target = rtol * max(abs(total), 1e-300)
        roundoff = _ROUNDOFF * absum
        # stop once the whole error meets rtol; a branch whose roundoff
        # alone takes half of it cancels, and stops on its tail as the
        # decimal re-sum expects
        if tail + roundoff <= target or (roundoff > target / 2.0 and tail <= target):
            break
    return total, tail, absum, k0


def _hyp_series_rows(
    a: float, b: float, c: float, w: np.ndarray, rtol: float, max_terms: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_hyp_series at every argument of w, summed as rows of one array.

    Row i holds exactly the floats _hyp_series(a, b, c, w[i], rtol,
    max_terms) holds: the rows take the same blocks, and each row leaves
    the sum at the block where the scalar pass stops.  Returns the four
    outputs of _hyp_series as arrays.
    """
    nterm = _pochhammer_terminates(a)
    nterm_b = _pochhammer_terminates(b)
    if nterm is None or (nterm_b is not None and nterm_b < nterm):
        nterm = nterm_b
    delta = c - a - b
    rows = w.shape[0]
    total, absum, term = np.ones(rows), np.ones(rows), np.ones(rows)
    tail, count = np.full(rows, math.inf), np.zeros(rows, dtype=int)
    live = np.arange(rows)
    k0 = 0
    block_size = 64
    while k0 < max_terms and live.size:
        block = min(block_size, max_terms - k0)
        block_size = min(4 * block_size, _HYP_BLOCK)
        if nterm is not None:
            block = min(block, nterm - k0 + 1)
        k = np.arange(k0, k0 + block, dtype=float)
        k0 += block
        stop = []
        # the live rows go in parts, so that a block's arrays stay small
        for part in np.array_split(live, -(-live.size * block // _ROWS_BUDGET)):
            ratios = (a + k) * (b + k) / ((c + k) * (1.0 + k)) * w[part, None]
            terms = term[part, None] * np.cumprod(ratios, axis=1)
            tot = total[part] + terms.sum(axis=1)
            asum = absum[part] + np.abs(terms).sum(axis=1)
            last = terms[:, -1]
            total[part], absum[part], term[part], count[part] = tot, asum, last, k0
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                blown = ~np.isfinite(last) | (asum > 1e290)
                ended = (nterm is not None and k0 > nterm) | (last == 0.0)
                rho = np.abs(ratios[:, -1])
                if delta > 0.0 and k0 > max(64, 4.0 * (abs(a) + abs(b))):
                    far = 4.0 * np.abs(last) * k0 / delta
                else:
                    far = math.inf
                tl = np.where(rho < 1.0, np.abs(last) * rho / (1.0 - rho), far)
                tl = np.where(ended, 0.0, tl)
                target = rtol * np.maximum(np.abs(tot), 1e-300)
                roundoff = _ROUNDOFF * asum
                met = (tl + roundoff <= target) | ((roundoff > target / 2.0) & (tl <= target))
            tl[blown] = math.inf
            absum[part[blown]] = math.inf
            tail[part] = tl
            stop.append(blown | ended | met)
        live = live[~np.concatenate(stop)]
    return total, tail, absum, count


# Decimal re-sum of a cancelling Pfaff branch.  A decimal term costs about
# the same at any precision up to ~150 digits, so the term count sets the
# cost; both limits keep a re-sum within the cost of the float passes.
_RESUM_MAX_TERMS = 4096
_RESUM_MIN_DIGITS = 28  # also the precision of the prefactor, which does not cancel
_RESUM_MAX_DIGITS = 120
_RESUM_TRAPS = [
    decimal.Overflow,
    decimal.Underflow,
    decimal.InvalidOperation,
    decimal.DivisionByZero,
]
# the sum or difference of two decimals converted from floats is exact at
# this precision, so the re-sum starts from the exact parameters
_EXACT = decimal.Context(prec=decimal.MAX_PREC, traps=_RESUM_TRAPS)
# term-count estimates need few digits, and ln costs more with each one
_ROUGH = decimal.Context(prec=12, traps=_RESUM_TRAPS)


def _resum_digits(series: tuple[float, float, float, int], rel_tol: float) -> int | None:
    """Working precision for a decimal re-sum of a float pass, or None.

    The decimal roundoff bound 12 (N + 1) u sum|t_k| (see _pfaff_resum)
    must stay below rel_tol/8 of the sum, so the digits grow with the
    amplification sum|t_k| / |sum| the float pass measured.  Once the
    float roundoff may reach an eighth of the float sum, that measurement
    only says the amplification is large, and the ceiling is used.
    Returns None when the measured amplification needs more digits than
    the ceiling.
    """
    value, _, absum, terms = series
    if 8.0 * terms * _EPS * absum >= abs(value):
        return _RESUM_MAX_DIGITS
    amp = 2.0 * absum / abs(value)
    n_est = 4 * (terms + 16)  # the rigorous tail may need more terms
    digits = math.ceil(math.log10(480.0 * n_est * amp / rel_tol)) + 3
    if digits > _RESUM_MAX_DIGITS:
        return None
    return max(digits, _RESUM_MIN_DIGITS)


def _decimal_tail(
    t: decimal.Decimal,
    k: int,
    a: decimal.Decimal,
    b: decimal.Decimal,
    c: decimal.Decimal,
    w: decimal.Decimal,
    u: decimal.Decimal,
) -> tuple[decimal.Decimal, decimal.Decimal] | None:
    """Bound sum_{j>k} |t_j| given t = t_k, as (bound, rho), or None.

    The ratio t_{j+1}/t_j = (a+j)(b+j)/((c+j)(1+j)) w.  Past every sign
    change each factor (x+j)/(y+j) is monotone in j, so its supremum over
    j >= k is max(1, (x+k)/(y+k)).  With rho that supremum of the ratio,
    the tail is at most |t_k| rho/(1 - rho).  Unlike the float pass's
    estimate from the last ratio, this holds while the ratio still rises
    toward w.  rho is rounded up past the roundings of w and of its own
    formula (unit roundoff u), and 1 - rho is exact, so the bound holds
    also for w within a few ulp of one.
    """
    D = decimal.Decimal
    if t == 0:
        return D(0), D(0)
    ak, bk, ck, k1 = a + k, b + k, c + k, D(k + 1)
    if ak <= 0 or bk <= 0 or ck <= 0:
        return None
    one = D(1)
    sup = min(
        max(one, ak / ck) * max(one, bk / k1),
        max(one, ak / k1) * max(one, bk / ck),
    )
    rho = w * sup * (1 + 8 * u)
    if rho >= 1:
        return None
    return abs(t) * rho / _EXACT.subtract(one, rho), rho


def _pfaff_resum(
    a_out: float,
    kept: float,
    c: float,
    z: float,
    series: tuple[float, float, float, int],
    rel_tol: float,
    max_terms: int,
) -> tuple[float, float] | None:
    """(1 - z)^(-kept) F(c - a_out, kept, c; z/(z-1)) re-summed in decimal.

    For a float Pfaff branch (``series``) whose truncation tail met
    rel_tol while its roundoff term did not.  c - a_out and W = z/(z - 1)
    are formed from the exact decimal values of the float inputs.  At
    precision p (unit roundoff u = 5e-p) each term is nine roundings from
    its predecessor and each partial sum one more, so the sum of N + 1
    terms is within 12 (N + 1) u sum|t_k| of the exact partial sum.
    Terms are added until the tail bound of _decimal_tail is below
    rel_tol/2 of the sum, at most min(max_terms, _RESUM_MAX_TERMS) of
    them; the pass gives up as soon as the geometric decay of the tail
    predicts more.

    Returns (value, abs_error_bound) when the bound meets rel_tol, else
    None.  The bound counts the decimal roundoff, the truncation tail,
    the decimal prefactor and product, and the final rounding to float.
    """
    digits = _resum_digits(series, rel_tol)
    terms = series[3]
    limit = min(max_terms, _RESUM_MAX_TERMS)
    if digits is None or terms >= limit:
        return None
    D = decimal.Decimal
    u = D(5).scaleb(-digits)
    try:
        with decimal.localcontext(decimal.Context(prec=digits, traps=_RESUM_TRAPS)):
            zd = D(z)
            a_ = _EXACT.subtract(D(c), D(a_out))
            b_, c_ = D(kept), D(c)
            w = zd / _EXACT.subtract(zd, D(1))
            t = total = absum = D(1)
            k, stop = 0, terms
            while True:
                while k < stop and t != 0:
                    t = t * ((a_ + k) * (b_ + k)) * w / ((c_ + k) * (k + 1))
                    total += t
                    absum += abs(t)
                    k += 1
                roundoff = 12 * (k + 1) * u * absum
                target = D(rel_tol) * abs(total)
                if roundoff > target / 8:
                    return None  # the cancellation outgrew the precision
                bound = _decimal_tail(t, k, a_, b_, c_, w, u)
                if bound is None:
                    return None
                tail, rho = bound
                if tail <= target / 2:
                    break
                # geometric decay predicts how many more terms the tail needs
                more = _ROUGH.divide(_ROUGH.ln(target / 2 / tail), _ROUGH.ln(rho))
                stop = k + max(int(more) + 1, 16)
                if stop > limit:
                    return None
        with decimal.localcontext(
            decimal.Context(prec=_RESUM_MIN_DIGITS, traps=_RESUM_TRAPS)
        ):
            ln_pref = -b_ * _EXACT.subtract(D(1), zd).ln()
            pref = ln_pref.exp()
            value = pref * total
            err = abs(pref) * (roundoff + tail) + abs(value) * (
                2 * abs(ln_pref) + 4
            ) * D(5).scaleb(-_RESUM_MIN_DIGITS)
    except decimal.DecimalException:
        return None
    val = float(value)
    if not math.isfinite(val):
        return None
    # 1e-6 covers the roundings inside the tail and error formulas
    err_f = float(err) * (1.0 + 1e-6) + abs(val) * _EPS + 5e-324
    if err_f > rel_tol * max(abs(val), 1e-300):
        return None
    return val, err_f


def _pfaff_candidates(a: float, b: float, c: float) -> list[tuple[float, float]]:
    """Pfaff branches (a_out, kept), each (1 - z)^(-kept) F(c - a_out, kept, c;
    z/(z - 1)), in the order hyp2f1_with_error tries them."""
    candidates = [(a, b), (b, a)]
    # a terminating branch is short and has no truncation error; try it first
    if _pochhammer_terminates(c - b) is not None and _pochhammer_terminates(c - a) is None:
        candidates.reverse()
    return candidates


def _pfaff_value(
    a: float, b: float, c: float, z: float, kept: float, sval: float, err: float
) -> tuple[float, float]:
    """(1 - z)^(-kept) times a Pfaff series value and its error bound.

    The prefactor is assembled in log space, since (1 - z)^(-kept) alone
    can under- or overflow.
    """
    ln_pref = -kept * math.log1p(-z)
    if sval != 0.0 and math.isfinite(sval):
        try:
            val = math.copysign(math.exp(ln_pref + math.log(abs(sval))), sval)
        except OverflowError:
            raise NonConvergenceError(
                f"hyp2f1 value leaves the double range for "
                f"(a,b,c,z)=({a},{b},{c},{z}): log|F| ~ {ln_pref + math.log(abs(sval)):.6g}"
            ) from None
    else:
        val = 0.0
    if err != 0.0 and math.isfinite(err):
        try:
            err = math.exp(ln_pref + math.log(err))
        except OverflowError:
            err = math.inf  # a bound beyond the double range meets no rel_tol
    return val, err


def hyp2f1_with_error(
    a: float,
    b: float,
    c: float,
    z: float,
    rel_tol: float = 1e-12,
    max_terms: int = 500_000,
) -> tuple[float, float]:
    """F(a, b, c; z) for z < 1, returned as (value, abs_error_bound).

    For 0 <= z < 1 the defining series is summed directly in float.  For
    z < 0 the Pfaff transformation F(a,b,c;z) = (1-z)^(-b) F(c-a, b, c;
    z/(z-1)) maps the argument into [0, 1); both Pfaff branches are
    candidates, summed in float first and accepted when the float error
    (truncation plus a roundoff term that detects cancellation) meets
    rel_tol.  A terminating branch is tried first.

    When neither float branch meets rel_tol, a branch whose truncation
    tail met it and whose roundoff term did not is re-summed in decimal
    arithmetic (_pfaff_resum), at a precision chosen from the cancellation
    the float pass measured.  The re-summed value is returned when its
    bound, which counts decimal roundoff, a rigorous truncation tail and
    the final rounding to float, meets rel_tol.  Otherwise the better
    float branch is returned with its bound, which then exceeds rel_tol.
    """
    if math.isnan(z) or z >= 1.0:
        raise DomainError(f"hyp2f1 requires z < 1, got z={z}")
    if _pochhammer_terminates(c) is not None:
        raise DomainError(f"hyp2f1: c must not be a non-positive integer, got c={c}")
    if z == 0.0:
        return 1.0, 0.0
    if 0.0 < z < 1.0:
        val, tail, absum, _ = _hyp_series(a, b, c, z, rel_tol, max_terms)
        return val, tail + _ROUNDOFF * absum
    w = z / (z - 1.0)
    best: tuple[float, float] | None = None
    resum = []
    for a_out, kept in _pfaff_candidates(a, b, c):
        ser = _hyp_series(c - a_out, kept, c, w, rel_tol, max_terms)
        sval, tail, absum, terms = ser
        val, err = _pfaff_value(a, b, c, z, kept, sval, tail + _ROUNDOFF * absum)
        if err <= rel_tol * max(abs(val), 1e-300):
            return val, err
        if best is None or err < best[1]:
            best = (val, err)
        if 0.0 < abs(sval) < math.inf and tail <= rel_tol * abs(sval):
            resum.append((terms, a_out, kept, ser))
    for _, a_out, kept, ser in sorted(resum):  # fewer terms first
        out = _pfaff_resum(a_out, kept, c, z, ser, rel_tol, max_terms)
        if out is not None:
            return out
    assert best is not None
    return best


def hyp2f1_rows(
    a: float,
    b: float,
    c: float,
    z: np.ndarray,
    rel_tol: float = 1e-12,
    max_terms: int = 500_000,
) -> tuple[np.ndarray, np.ndarray]:
    """hyp2f1_with_error at every argument of the array z < 0, as
    (values, abs_error_bounds), each entry the same float the scalar call
    returns.

    The Pfaff branches are tried in the scalar call's order, each summed
    at once for the arguments the branches before it left uncertified
    (_hyp_series_rows).  An argument where both miss rel_tol takes the
    scalar call, for its decimal re-sum.
    """
    if not np.all(z < 0.0):
        raise DomainError("hyp2f1_rows takes negative arguments only")
    if _pochhammer_terminates(c) is not None:
        raise DomainError(f"hyp2f1: c must not be a non-positive integer, got c={c}")
    w = z / (z - 1.0)
    vals, errs = np.empty(z.shape), np.empty(z.shape)
    todo = np.arange(z.shape[0])
    for a_out, kept in _pfaff_candidates(a, b, c):
        sval, tail, absum, _ = _hyp_series_rows(
            c - a_out, kept, c, w[todo], rel_tol, max_terms
        )
        missed = []
        for i, zi in enumerate(z[todo].tolist()):
            val, err = _pfaff_value(
                a, b, c, zi, kept, float(sval[i]), float(tail[i] + _ROUNDOFF * absum[i])
            )
            vals[todo[i]], errs[todo[i]] = val, err
            missed.append(not err <= rel_tol * max(abs(val), 1e-300))
        todo = todo[np.array(missed, dtype=bool)]
    for i in todo.tolist():
        vals[i], errs[i] = hyp2f1_with_error(a, b, c, float(z[i]), rel_tol, max_terms)
    return vals, errs


def hyp2f1(
    a: float,
    b: float,
    c: float,
    z: float,
    rel_tol: float = 1e-12,
    max_terms: int = 500_000,
) -> float:
    """Gauss hypergeometric F(a, b, c; z) for z < 1.

    Negative arguments are evaluated through the Pfaff transformation so
    the series converges, with a decimal re-sum of a branch that cancels
    (see hyp2f1_with_error); raises NonConvergenceError when the requested
    relative tolerance cannot be certified within max_terms.
    """
    val, err = hyp2f1_with_error(a, b, c, z, rel_tol, max_terms)
    if err > rel_tol * max(abs(val), 1e-300):
        raise NonConvergenceError(
            f"hyp2f1 not converged to rel_tol={rel_tol} for "
            f"(a,b,c,z)=({a},{b},{c},{z}); error bound {err:.3g} on value {val:.6g}"
        )
    return val


# ---------------------------------------------------------------------------
# Macdonald function K_nu
# ---------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015328606065120900824024


def _temme_gam12(mu: float) -> tuple[float, float]:
    """gam1 = (1/Gamma(1-mu) - 1/Gamma(1+mu))/(2 mu) and
    gam2 = (1/Gamma(1-mu) + 1/Gamma(1+mu))/2 for |mu| <= 1/2."""
    if abs(mu) > 0.02:
        rp = math.exp(-ln_gamma(1.0 + mu))
        rm = math.exp(-ln_gamma(1.0 - mu))
        return (rm - rp) / (2.0 * mu), (rm + rp) / 2.0
    # small-mu Taylor of gam1 (even series; coefficients from 1/Gamma(1+x))
    m2 = mu * mu
    gam1 = -_EULER_GAMMA + m2 * (
        0.0420026350340952355
        + m2 * (0.0421977345555443367 - m2 * 0.0072189432466630995)
    )
    rp = math.exp(-ln_gamma(1.0 + mu))
    rm = math.exp(-ln_gamma(1.0 - mu)) if mu != 0.0 else 1.0
    return gam1, (rm + rp) / 2.0


def _bessel_k_pair_small(mu: float, x: float) -> tuple[float, float]:
    """Temme's series: (K_mu(x), K_{mu+1}(x)) for |mu| <= 1/2, 0 < x <= 2."""
    x2 = 0.5 * x
    pimu = math.pi * mu
    fact = 1.0 if abs(pimu) < 1e-15 else pimu / math.sin(pimu)
    d = -math.log(x2)
    e = mu * d
    fact2 = 1.0 if abs(e) < 1e-15 else math.sinh(e) / e
    gam1, gam2 = _temme_gam12(mu)
    ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    total = ff
    ee = math.exp(e)
    p = 0.5 * ee * math.exp(ln_gamma(1.0 + mu))
    q = 0.5 / ee * math.exp(ln_gamma(1.0 - mu))
    cfac = 1.0
    x2sq = x2 * x2
    total1 = p
    mu2 = mu * mu
    for i in range(1, 1000):
        ff = (i * ff + p + q) / (i * i - mu2)
        cfac *= x2sq / i
        p /= i - mu
        q /= i + mu
        dl = cfac * ff
        total += dl
        dl1 = cfac * (p - i * ff)
        total1 += dl1
        if abs(dl) < abs(total) * 1e-17:
            return total, total1 * 2.0 / x
    raise NonConvergenceError(f"bessel_k Temme series stalled at x={x}")


def _bessel_k_pair_cf(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thompson-Barnett CF2: (K_mu(x), K_{mu+1}(x)) for |mu| <= 1/2 and an
    array x > 2.  The recurrence runs on all elements at once; each element
    leaves it at the iteration where it converges, so every value equals a
    run of the recurrence on that element alone."""
    mu2 = mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = np.zeros_like(x), np.ones_like(x)
    a1 = 0.25 - mu2
    q, cc = np.full_like(x, a1), a1
    a = -a1
    s = 1.0 + q * delh
    h_out, s_out = np.empty_like(x), np.empty_like(x)
    rows = np.arange(x.size)  # output index of each element still iterating
    for i in range(2, 10000):
        a -= 2 * (i - 1)
        cc = -a * cc / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q = q + cc * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        done = np.abs(dels / s) < 1e-16
        if done.any():
            h_out[rows[done]] = h[done]
            s_out[rows[done]] = s[done]
            left = ~done
            if not left.any():
                break
            rows, b, d, delh, h, q, q1, q2, s = (
                v[left] for v in (rows, b, d, delh, h, q, q1, q2, s)
            )
    else:
        raise NonConvergenceError(f"bessel_k continued fraction stalled at x={x[rows[0]]}")
    h = a1 * h_out
    exp_x = np.array([math.exp(-t) for t in x.tolist()])
    kmu = np.sqrt(math.pi / (2.0 * x)) * exp_x / s_out
    k1 = kmu * (mu + x + 0.5 - h) / x
    return kmu, k1


def bessel_k(nu: float, x):
    """Modified Bessel function of the third kind (Macdonald) K_nu(x).

    nu >= 0, x > 0.  x is a float or an array of floats; an array gives an
    array of the same shape whose every element equals the float call on
    it.  Relative error is well below 1e-10 for nu in [0, 5] and x in
    (0, 50].  Values exceeding the double range raise OverflowError (the
    x -> 0+ singularity for nu > 0).
    """
    if math.isnan(nu) or nu < 0.0:
        raise DomainError(f"bessel_k requires nu >= 0, got {nu}")
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    bad = ~(flat > 0.0)
    if bad.any():
        raise DomainError(f"bessel_k requires x > 0, got {flat[bad][0]}")
    nl = int(nu + 0.5)
    mu = nu - nl  # in [-1/2, 1/2]
    kmu, k1 = np.empty_like(flat), np.empty_like(flat)
    small = flat <= 2.0
    for i in np.flatnonzero(small):
        kmu[i], k1[i] = _bessel_k_pair_small(mu, float(flat[i]))
    if not small.all():
        kmu[~small], k1[~small] = _bessel_k_pair_cf(mu, flat[~small])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(nl):
            kmu, k1 = k1, (mu + i + 1.0) * 2.0 / flat * k1 + kmu
    overflow = ~np.isfinite(kmu)
    if overflow.any():
        raise OverflowError(f"bessel_k({nu}, {flat[overflow][0]}) exceeds double range")
    return float(kmu[0]) if xs.ndim == 0 else kmu.reshape(xs.shape)
