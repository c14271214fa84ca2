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
multimodality), extends the scan along the same log lattice until an
interior maximum is enclosed, then refines by Brent's method seeded with
the best scan point and its two neighbours.
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


# the 15 nodes (centre, minus side, plus side) with their Kronrod and
# Gauss-7 weights, for panels evaluated as one array
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
    """One Gauss-Kronrod 7-15 rule per panel, from the integrand at gk15_nodes.

    Returns (kronrod_values, error_estimates).  The error estimate follows
    QUADPACK dqk15: the raw |K15 - G7| difference is rescaled against the
    panel's total variation proxy resasc, which keeps the estimate honest
    next to (near-)singular behaviour.
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
        lo, hi = np.array(ends).T
        vals = np.array([[g(t) for t in row] for row in gk15_nodes(lo, hi).tolist()])
        return list(zip(*(v.tolist() for v in gk15_panels(vals, lo, hi))))

    first = (0.0, t_hi, *panel([(0.0, t_hi)])[0])
    return integrate_panels(panel, [first], rel_tol, max_intervals)[0]


_CGOLD = 0.5 * (3.0 - math.sqrt(5.0))  # golden-section fraction of Brent's method
_SCAN_POINTS = 33  # log-spaced points of the maximizer's first scan


def _brent(
    g: Callable[[float], float],
    a: float,
    b: float,
    seed: tuple[tuple[float, float], ...],
    rel_tol: float,
    max_iter: int = 200,
) -> tuple[float, float, bool]:
    """Minimize g on (a, b) by Brent's method (Brent 1973, ch. 5).

    seed holds three points of (a, b) with their values of g, the best
    first; they stand in for the points Brent's method would otherwise
    spend its first evaluations on.  Each step takes the parabola through
    the three best points, or a golden-section step where the parabola
    leaves the bracket or does not shrink fast enough.  Stops once the
    bracket is within rel_tol * |x| of the best point x, and returns
    (x, g(x), converged).
    """
    (x, gx), (w, gw), (v, gv) = seed
    d = e = b - a  # the scan steps stand in for the steps before the first
    for _ in range(max_iter):
        xm = 0.5 * (a + b)
        tol1 = 0.25 * rel_tol * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):  # b - a <= rel_tol * |x|
            return x, gx, True
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (gx - gv)
            q = (x - v) * (gx - gw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, xm - x)
        if not parabolic:
            e = (a - x) if x >= xm else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        gu = g(u)
        if gu <= gx:
            if u >= x:
                a = x
            else:
                b = x
            v, gv, w, gw, x, gx = w, gw, x, gx, u, gu
        else:
            if u < x:
                a = u
            else:
                b = u
            if gu <= gw or w == x:
                v, gv, w, gw = w, gw, u, gu
            elif gu <= gv or v == x or v == w:
                v, gv = u, gu
    return x, gx, False


def maximize_scalar(
    f: Callable[[float], float],
    initial_bracket: tuple[float, float],
    rel_tol: float = 1e-8,
    max_expansions: int = 60,
) -> MaximizerResult:
    """Maximize a scalar objective on (0, inf) near the given bracket.

    f is scanned on _SCAN_POINTS log-spaced points from lo to hi.  While
    the best scan point is an end of the scan, the scan is extended past
    that end by the next points of the same log lattice, enough to double
    hi or halve lo (a coarser lattice extends a bracket narrower than a
    factor 2); values already computed are kept.  Multiple interior
    local maxima on the scan are reported as a warning rather than
    resolved.  Brent's method then refines between the best point's two
    neighbours, seeded with the three of them, to a bracket of rel_tol
    times the argmax, and the best point evaluated is returned.
    """
    lo, hi = initial_bracket
    if not (0.0 < lo < hi):
        raise DomainError(f"need 0 < lo < hi, got {initial_bracket}")
    warnings: list[str] = []

    ratio = (hi / lo) ** (1.0 / (_SCAN_POINTS - 1))
    xs = [lo * ratio**i for i in range(_SCAN_POINTS)]
    xs[-1] = hi
    ys = [f(x) for x in xs]
    # an expansion steps by the scan's ratio, or by 2^(1/(_SCAN_POINTS - 1))
    # from a bracket narrower than a factor 2, so that doubling hi or halving
    # lo takes at most _SCAN_POINTS - 1 new points
    grow = max(ratio, 2.0 ** (1.0 / (_SCAN_POINTS - 1)))
    step = math.ceil(math.log(2.0) / math.log(grow))

    def best_index() -> int:
        return max(range(len(xs)), key=lambda i: ys[i])

    best = best_index()
    expansions = 0
    while best in (0, len(xs) - 1):
        if expansions >= max_expansions:
            raise BracketError(
                f"no interior maximum within ({xs[0]}, {xs[-1]}) after "
                f"{expansions} bracket expansions"
            )
        if best == len(xs) - 1:
            new = [xs[-1] * grow**k for k in range(1, step + 1)]
            xs += new
            ys += [f(x) for x in new]
        else:
            new = [xs[0] / grow**k for k in range(step, 0, -1)]
            xs = new + xs
            ys = [f(x) for x in new] + ys
        expansions += 1
        best = best_index()
    lo, hi = xs[0], xs[-1]

    n_local = sum(
        1
        for i in range(1, len(xs) - 1)
        if ys[i] > ys[i - 1] and ys[i] > ys[i + 1]
    )
    if n_local > 1:
        warnings.append(
            f"pre-scan found {n_local} interior local maxima on ({lo:g}, {hi:g}); "
            "refining the best one only"
        )

    neighbours = sorted((best - 1, best + 1), key=lambda i: -ys[i])
    seed = tuple((xs[i], -ys[i]) for i in (best, *neighbours))
    x, gx, ok = _brent(lambda u: -f(u), xs[best - 1], xs[best + 1], seed, rel_tol)
    if not ok:
        raise NonConvergenceError(
            f"Brent refinement did not reach rel_tol={rel_tol} on ({lo}, {hi})"
        )
    return MaximizerResult(
        argmax=x,
        max_value=-gx,
        bracket=(lo, hi),
        converged=True,
        warnings=tuple(warnings),
    )
