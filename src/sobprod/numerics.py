"""Semi-infinite adaptive quadrature and bracketed scalar maximization.

The quadrature maps (0, inf) onto (0, 1) with s = t/(1-t) and applies an
adaptive Gauss-Kronrod 7-15 rule, bisecting the interval with the largest
error estimate.  Everything is deterministic: identical inputs produce
bit-identical results, and the evaluation count is reported.

One adaptive core (integrate_panels) serves integrate_semiline, whose f
takes one point at a time, and callers that evaluate the 15 nodes of
many panels as one array (gk15_nodes, gk15_panels) and start from a
panel set of their own.

The maximizer runs a coarse log-spaced pre-scan (which also flags
multimodality), expands the bracket geometrically until an interior
maximum is enclosed, then golden-section refines.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError, NonConvergenceError

__all__ = [
    "QuadratureResult",
    "MaximizerResult",
    "integrate_semiline",
    "integrate_panels",
    "gk15_nodes",
    "gk15_panels",
    "maximize_scalar",
]

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (positive half; QUADPACK dqk15)
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    converged: bool
    evaluations: int


@dataclass(frozen=True)
class MaximizerResult:
    argmax: float
    max_value: float
    bracket: tuple[float, float]
    converged: bool
    warnings: tuple[str, ...] = field(default_factory=tuple)


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7-15 panel; returns (kronrod_value, error_estimate).

    The error estimate follows QUADPACK dqk15: the raw |K15 - G7|
    difference is rescaled against the panel's total variation proxy
    resasc, which keeps the estimate honest next to (near-)singular
    behaviour.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = [0.0] * 15  # [center, minus_0..minus_6, plus_0..plus_6]
    vals[0] = f(mid)
    gauss = _WG[3] * vals[0]
    kron = _WGK[7] * vals[0]
    for i in range(7):
        x = half * _XGK[i]
        f1 = f(mid - x)
        f2 = f(mid + x)
        vals[1 + i] = f1
        vals[8 + i] = f2
        kron += _WGK[i] * (f1 + f2)
        if i % 2 == 1:  # Kronrod nodes 1,3,5 are the Gauss-7 nodes
            gauss += _WG[i // 2] * (f1 + f2)
    reskh = 0.5 * kron
    resasc = _WGK[7] * abs(vals[0] - reskh)
    for i in range(7):
        resasc += _WGK[i] * (abs(vals[1 + i] - reskh) + abs(vals[8 + i] - reskh))
    kron *= half
    gauss *= half
    resasc *= abs(half)
    err = abs(kron - gauss)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return kron, max(err, 5e-16 * abs(kron))


# _gk15's 15 nodes in its order (centre, minus side, plus side) with their
# Kronrod and Gauss-7 weights, for panels evaluated as one array
_X15 = np.array([0.0, *(-x for x in _XGK[:7]), *_XGK[:7]])
_WK15 = np.array([_WGK[7], *_WGK[:7], *_WGK[:7]])
_WG15 = np.array(
    [_WG[3]] + 2 * [_WG[i // 2] if i % 2 == 1 else 0.0 for i in range(7)]
)


def gk15_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 15 Gauss-Kronrod nodes of each panel [lo, hi], one row per panel."""
    return 0.5 * (lo + hi)[:, None] + (0.5 * (hi - lo))[:, None] * _X15


def gk15_panels(
    vals: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_gk15 for many panels at once, from the integrand at gk15_nodes.

    Returns (kronrod_values, error_estimates) with _gk15's error model.
    """
    half = 0.5 * (hi - lo)
    kron_raw = (vals * _WK15).sum(axis=1)
    reskh = 0.5 * kron_raw
    resasc = (np.abs(vals - reskh[:, None]) * _WK15).sum(axis=1) * np.abs(half)
    kron = kron_raw * half
    err = np.abs(kron - (vals * _WG15).sum(axis=1) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return kron, np.maximum(err, 5e-16 * np.abs(kron))


Panel = tuple[float, float, float, float]  # (lo, hi, value, error estimate)


def integrate_panels(
    panel: Callable[[list[tuple[float, float]]], list[tuple[float, float]]],
    panels: list[Panel],
    rel_tol: float,
    max_intervals: int = 4000,
    batch: bool = False,
) -> tuple[QuadratureResult, list[Panel]]:
    """Adaptive bisection from a set of GK15 panels, driven by their error
    estimates.

    panel(ends) returns (value, error estimate) of each panel (lo, hi) in
    ends; panels holds the starting panels with theirs.  Each step
    bisects the panel of largest error and evaluates both halves in one
    call.  With batch, a step also bisects every other panel whose error
    exceeds its share tol / (number of panels), so one call of panel
    evaluates a whole level.  Returns the result and the final panels,
    in no particular order.
    """
    heap: list[tuple[float, int, float, float, float, float]] = []
    total = 0.0
    total_err = 0.0
    counter = -1
    for lo, hi, val, e in panels:
        counter += 1
        heapq.heappush(heap, (-e, counter, lo, hi, val, e))
        total += val
        total_err += e
    evals = 15 * len(panels)
    stalled: list[Panel] = []
    stalled_err = 0.0  # error on intervals already at floating resolution
    n_intervals = len(panels)
    while heap and n_intervals < max_intervals:
        tol = rel_tol * max(abs(total), 1e-300)
        if total_err <= tol:
            break
        if stalled_err > tol:
            break  # unreachable accuracy: resolution-limited intervals dominate
        popped = [heapq.heappop(heap)]
        while (
            batch
            and heap
            and -heap[0][0] > tol / n_intervals
            and n_intervals + len(popped) < max_intervals
        ):
            popped.append(heapq.heappop(heap))
        split, ends = [], []
        for item in popped:
            lo, hi = item[2], item[3]
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:  # cannot split further
                stalled_err += item[5]
                stalled.append(item[2:])
                continue
            split.append((lo, mid, hi, item[4], item[5]))
            ends += ((lo, mid), (mid, hi))
        if not split:
            continue
        halves = panel(ends)
        evals += 15 * len(ends)
        for i, (lo, mid, hi, val, e) in enumerate(split):
            v1, e1 = halves[2 * i]
            v2, e2 = halves[2 * i + 1]
            total += (v1 + v2) - val
            total_err += (e1 + e2) - e
            n_intervals += 1
            counter += 1
            heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
            counter += 1
            heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
    tol = rel_tol * max(abs(total), 1e-300)
    final = [item[2:] for item in heap] + stalled
    return QuadratureResult(total, total_err, total_err <= tol, evals), final


def integrate_semiline(
    f: Callable[[float], float],
    rel_tol: float = 1e-10,
    upper: float | None = None,
    max_intervals: int = 4000,
) -> QuadratureResult:
    """Integrate f over (0, inf), or (0, upper) when a cutoff is given.

    Uses the substitution s = t/(1-t), which compresses heavy polynomial
    tails into a finite interval; adaptive bisection then resolves both
    the mapped tail and any integrable endpoint behaviour near s = 0.
    Non-convergence is flagged in the result, never silent.
    """
    if upper is not None:
        if upper <= 0.0:
            raise DomainError(f"upper cutoff must be positive, got {upper}")
        t_hi = upper / (1.0 + upper)
    else:
        t_hi = 1.0

    def g(t: float) -> float:
        om = 1.0 - t
        if om < 1e-300:  # s beyond ~1e300; measure-zero sliver of the map
            return 0.0
        s = t / om
        return f(s) / (om * om)

    def panel(ends: list[tuple[float, float]]) -> list[tuple[float, float]]:
        return [_gk15(g, lo, hi) for lo, hi in ends]

    first = (0.0, t_hi, *_gk15(g, 0.0, t_hi))
    return integrate_panels(panel, [first], rel_tol, max_intervals)[0]


def _golden_section(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float,
    max_iter: int = 200,
) -> tuple[float, float, bool]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= rel_tol * max(abs(a), abs(b), 1e-30):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x), b - a <= rel_tol * max(abs(a), abs(b), 1e-30)


def maximize_scalar(
    f: Callable[[float], float],
    initial_bracket: tuple[float, float],
    rel_tol: float = 1e-8,
    scan_points: int = 33,
    max_expansions: int = 60,
) -> MaximizerResult:
    """Maximize a scalar objective on (0, inf) near the given bracket.

    The bracket is expanded (hi doubled, lo halved, alternating) until the
    best point of a log-spaced scan is interior; multiple interior local
    maxima in the scan are reported as a warning rather than resolved.
    """
    lo, hi = initial_bracket
    if not (0.0 < lo < hi):
        raise DomainError(f"need 0 < lo < hi, got {initial_bracket}")
    warnings: list[str] = []

    xs: list[float] = []
    ys: list[float] = []

    def scan() -> int:
        nonlocal xs, ys
        ratio = (hi / lo) ** (1.0 / (scan_points - 1))
        xs = [lo * ratio**i for i in range(scan_points)]
        xs[-1] = hi
        ys = [f(x) for x in xs]
        return max(range(scan_points), key=lambda i: ys[i])

    best = scan()
    expansions = 0
    while best in (0, scan_points - 1):
        if expansions >= max_expansions:
            raise BracketError(
                f"no interior maximum within ({lo}, {hi}) after "
                f"{expansions} bracket expansions"
            )
        if best == scan_points - 1:
            hi *= 2.0
        else:
            lo *= 0.5
        expansions += 1
        best = scan()

    n_local = sum(
        1
        for i in range(1, scan_points - 1)
        if ys[i] > ys[i - 1] and ys[i] > ys[i + 1]
    )
    if n_local > 1:
        warnings.append(
            f"pre-scan found {n_local} interior local maxima on ({lo:g}, {hi:g}); "
            "refining the best one only"
        )

    x, fx, ok = _golden_section(f, xs[best - 1], xs[best + 1], rel_tol)
    if not ok:
        raise NonConvergenceError(
            f"golden-section did not reach rel_tol={rel_tol} on ({lo}, {hi})"
        )
    return MaximizerResult(
        argmax=x,
        max_value=fx,
        bracket=(lo, hi),
        converged=True,
        warnings=tuple(warnings),
    )
