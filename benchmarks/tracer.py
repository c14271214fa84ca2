"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces public functions of the sobprod modules with
timing wrappers under every name a caller can look them up by, including
by-name imports such as ``bessel_lb.integrate_semiline``.  Nothing under
``src/`` changes and nothing is installed unless a traced run asks for it.

Each wrapped call opens a span (name, start, end, parent, op id) kept in
memory.  Hot leaves (``hyp2f1_with_error``, ``bessel_k``,
``e_product_coeff``) run tens of thousands of times per op, so their calls
and seconds are summed on the enclosing span instead of stored one by one.
``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs opened as spans; the layer is the module name
SPANS = (
    ("cli", "main"),
    ("bounds", "best_bounds"),
    ("bounds", "upper_bound"),
    ("bounds", "log_upper_bound"),
    ("bounds", "lattice_coeffs"),
    ("bessel_lb", "bessel_lower_detail"),
    ("bessel_lb", "bessel_ratio"),
    ("bessel_lb", "bessel_square_norm"),
    ("bessel_lb", "bessel_norm_a"),
    ("fourier_lb", "fourier_lower"),
    ("fourier_lb", "gaussian_norm_sq"),
    ("numerics", "integrate_semiline"),
    ("numerics", "maximize_scalar"),
    ("oracle", "sobolev_norm"),
    ("oracle", "product_ratio"),
    ("oracle", "sample_bessel_trial"),
    ("oracle", "sample_gaussian_trial"),
    ("oracle", "random_search_lower"),
)
LEAVES = (
    ("specfun", "hyp2f1_with_error"),
    ("specfun", "bessel_k"),
    ("bounds", "e_product_coeff"),
)

_BOTH = "bound-mix and crossover-sweep; zero calls on large-n"
# (metric, unit, end-to-end metrics it should move, where)
LAYER_METRICS = (
    ("specfun.hyp2f1_with_error.calls", "count", "op_p50_s, op_tail_s, rows_per_s", _BOTH),
    ("specfun.hyp2f1_with_error.s", "s", "op_p50_s, op_tail_s, rows_per_s", _BOTH),
    ("numerics.integrate_semiline.calls", "count", "op_p50_s, op_tail_s, rows_per_s", _BOTH),
    ("numerics.integrate_semiline.evals", "count", "op_p50_s, op_tail_s, rows_per_s", _BOTH),
    ("numerics.integrate_semiline.s", "s", "op_p50_s, op_tail_s, rows_per_s", _BOTH),
    ("numerics.integrate_semiline.self_s", "s", "op_p50_s, op_tail_s, rows_per_s", _BOTH),
    ("numerics.integrate_semiline.unconverged", "count", "op_p50_s, op_tail_s, rows_per_s", _BOTH),
    ("numerics.maximize_scalar.calls", "count", "op_tail_s",
     "bound-mix (each evaluation a full quadrature); little on crossover-sweep"),
    ("numerics.maximize_scalar.evals", "count", "op_tail_s",
     "bound-mix (each evaluation a full quadrature); little on crossover-sweep"),
    ("numerics.maximize_scalar.s", "s", "op_tail_s",
     "bound-mix (each evaluation a full quadrature); little on crossover-sweep"),
    ("bessel_lb.bessel_ratio.calls", "count", "op_tail_s",
     "bound-mix (each evaluation a full quadrature); little on crossover-sweep"),
    ("bessel_lb.bessel_lower_detail.calls", "count", "op_p50_s, rows_per_s", _BOTH),
    ("bessel_lb.bessel_lower_detail.s", "s", "op_p50_s, rows_per_s", _BOTH),
    ("bessel_lb.bessel_square_norm.s", "s", "op_p50_s, rows_per_s", _BOTH),
    ("bessel_lb.bessel_square_norm.self_s", "s", "op_p50_s, rows_per_s", _BOTH),
    ("bessel_lb.bessel_norm_a.s", "s", "op_p50_s, rows_per_s", _BOTH),
    ("bessel_lb.useful_frac", "1", "rows_per_s", "crossover-sweep; 0 when no Bessel run"),
    ("bessel_lb.wasted_s", "s", "rows_per_s", "crossover-sweep; near zero on bound-mix"),
    ("bounds.upper_bound.s", "s", "rows_per_s, op_tail_s", "large-n; negligible elsewhere"),
    ("bounds.log_upper_bound.s", "s", "rows_per_s, op_tail_s", "large-n; negligible elsewhere"),
    ("bounds.lattice_coeffs.s", "s", "rows_per_s, op_tail_s", "large-n; negligible elsewhere"),
    ("bounds.e_product_coeff.calls", "count", "rows_per_s, op_tail_s",
     "large-n; negligible elsewhere"),
    ("bounds.best_bounds.calls", "count", "op_p50_s", "cheap strata of bound-mix"),
    ("bounds.best_bounds.self_s", "s", "op_p50_s", "cheap strata of bound-mix"),
    ("cli.main.calls", "count", "op_p50_s", "cheap strata of bound-mix"),
    ("cli.main.self_s", "s", "op_p50_s", "cheap strata of bound-mix"),
    ("fourier_lb.fourier_lower.s", "s", "op_p50_s", "large-n and oracle"),
    ("fourier_lb.gaussian_norm_sq.calls", "count", "op_p50_s", "large-n and oracle"),
    ("fourier_lb.gaussian_norm_sq.s", "s", "op_p50_s", "large-n and oracle"),
    ("oracle.sobolev_norm.calls", "count", "op_p50_s, op_tail_s, peak_rss_mb", "oracle only"),
    ("oracle.sobolev_norm.s", "s", "op_p50_s, op_tail_s, peak_rss_mb", "oracle only"),
    ("oracle.sobolev_norm.bytes", "B", "op_p50_s, op_tail_s, peak_rss_mb",
     "oracle only; computed: 16 B per complex grid sample read"),
    ("oracle.product_ratio.calls", "count", "op_p50_s, op_tail_s, peak_rss_mb", "oracle only"),
    ("oracle.sample_bessel_trial.s", "s", "op_p50_s, op_tail_s, peak_rss_mb", "oracle only"),
    ("oracle.sample_gaussian_trial.s", "s", "op_p50_s, op_tail_s, peak_rss_mb", "oracle only"),
    ("oracle.random_search_lower.s", "s", "op_p50_s, op_tail_s, peak_rss_mb", "oracle only"),
    ("specfun.bessel_k.calls", "count", "op_p50_s, op_tail_s, peak_rss_mb", "oracle only"),
    ("specfun.bessel_k.s", "s", "op_p50_s, op_tail_s, peak_rss_mb", "oracle only"),
    ("trace.overhead_frac", "1", "-", "every workload"),
)


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op, attrs]``; ``parent`` is the
    index of the enclosing span or -1, and ``attrs["leaf"]`` maps a hot
    leaf's name to ``[calls, seconds]`` summed over calls made directly
    inside the span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, {}])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        tracer = self
        prepare = _PREPARERS.get(name)
        annotate = _ANNOTATORS.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                if prepare is not None:
                    args = prepare(tracer.spans[idx][5], args)
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(tracer.spans[idx][5], args, result)
                return result
            finally:
                tracer._close(idx)

        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if stack:
                    agg = spans[stack[-1]][5].setdefault("leaf", {}).setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package: str = "sobprod") -> None:
        """Wrap every traced function under every name it is bound to in
        the already-imported modules of ``package``."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for targets, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
            for mod_name, fn_name in targets:
                orig = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
                wrapped = make(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def _count_objective(attrs: dict, args: tuple) -> tuple:
    """Wrap the objective passed to maximize_scalar so that its evaluations
    are counted on the maximizer's span."""
    objective = args[0]
    attrs["evals"] = 0

    def f(x):
        attrs["evals"] += 1
        return objective(x)

    return (f,) + args[1:]


def _note_quadrature(attrs: dict, args, result) -> None:
    attrs["evals"] = result.evaluations
    attrs["unconverged"] = not result.converged


def _note_report(attrs: dict, args, report) -> None:
    attrs["bessel_ran"] = report.lower_bessel is not None
    attrs["bessel_won"] = report.method_of_best_lower == "bessel"


def _note_grid_bytes(attrs: dict, args, result) -> None:
    grid = args[0].grid
    attrs["bytes"] = 16 * grid.points_per_axis ** grid.d


_PREPARERS = {"numerics.maximize_scalar": _count_objective}
_ANNOTATORS = {
    "numerics.integrate_semiline": _note_quadrature,
    "bounds.best_bounds": _note_report,
    "oracle.sobolev_norm": _note_grid_bytes,
}


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans
    (the union of their intervals, clipped to the span) and by hot-leaf
    calls made directly inside it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, _, _, attrs) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        covered += sum(s for _, s in attrs.get("leaf", {}).values())
        out.append(max(0.0, (end - start) - covered))
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics (all of LAYER_METRICS but trace.overhead_frac)."""
    m: dict[str, float] = {name: 0.0 for name, *_ in LAYER_METRICS if name != "trace.overhead_frac"}
    selfs = self_times(spans)
    for idx, (name, start, end, parent, _, attrs) in enumerate(spans):
        _add(m, f"{name}.calls", 1)
        # inclusive time counts only the outermost span of a name, so nested
        # calls (the Gaussian norm's inner quadrature) are not counted twice
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            _add(m, f"{name}.s", end - start)
        _add(m, f"{name}.self_s", selfs[idx])
        for key in ("evals", "bytes"):
            if key in attrs:
                _add(m, f"{name}.{key}", attrs[key])
        if attrs.get("unconverged"):
            _add(m, f"{name}.unconverged", 1)
        for leaf, (calls, secs) in attrs.get("leaf", {}).items():
            _add(m, f"{leaf}.calls", calls)
            _add(m, f"{leaf}.s", secs)
    runs = [i for i, s in enumerate(spans) if s[0] == "bounds.best_bounds" and s[5].get("bessel_ran")]
    useful = [i for i in runs if spans[i][5]["bessel_won"]]
    m["bessel_lb.useful_frac"] = len(useful) / len(runs) if runs else 0.0
    lost = set(runs) - set(useful)
    m["bessel_lb.wasted_s"] = sum(
        s[2] - s[1] for s in spans if s[0] == "bessel_lb.bessel_lower_detail" and s[3] in lost
    )
    return m


def _add(m: dict[str, float], key: str, value: float) -> None:
    if key in m:
        m[key] += value
