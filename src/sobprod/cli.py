"""Command-line front end: certified intervals, the reference table, sweeps
and the grid oracle, with text / JSON / CSV output.

Exit codes are a stable contract:
    0  success
    2  usage error (malformed flags, unknown preset, bad ranges)
    3  regime error ((n, a, d) outside both proven regimes)
    4  numeric failure (non-convergence, grid resolution, failed validation)

JSON output is one object per row, validating against the schema shipped
at sobprod/data/output_record.schema.json.  Machine-readable formats omit
wall-clock time unless --timing is passed, so fixed-seed runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from . import bounds, oracle
from .bounds import BoundQuery, BoundReport
from .errors import (
    DomainError,
    NonConvergenceError,
    RegimeError,
    ResolutionError,
)

__all__ = ["main"]

_EXIT_USAGE = 2
_EXIT_REGIME = 3
_EXIT_NUMERIC = 4

# (d, a, n) rows of the reference table with the brackets printed in the source
_PAPER_TABLE = (
    (1, 1.0, 0.0, 0.71, 0.72),
    (1, 1.0, 1.0, 0.84, 1.42),
    (2, 2.0, 0.0, 0.27, 0.28),
    (2, 2.0, 1.0, 0.27, 0.50),
    (2, 2.0, 2.0, 0.36, 1.00),
    (3, 2.0, 0.0, 0.19, 0.20),
    (3, 2.0, 1.0, 0.19, 0.34),
    (3, 2.0, 2.0, 0.24, 0.67),
)

_CSV_FIELDS = [
    "n",
    "a",
    "d",
    "regime",
    "upper",
    "upper_weak",
    "upper_weak2",
    "lower_ground",
    "lower_bessel",
    "lower_fourier",
    "lower",
    "method_of_best_lower",
    "sharp",
    "log2_upper_over_n",
    "log2_lower_over_n",
    "printed_lower",
    "printed_upper",
    "bessel_lambda_star",
    "fourier_p_star",
    "fourier_sigma_star",
    "error",
]


def _finite(x: float | None) -> float | None:
    """x, or None (JSON null) where x is not finite: a bound beyond the
    double range, or a log2 field the magnitudes of n leave undefined."""
    return x if x is not None and math.isfinite(x) else None


def _log2_text(x: float | None) -> str:
    return "undefined" if x is None else f"{x:.6f}"


def _printed(x: float, rounding) -> float | None:
    """x rounded to two decimals by floor or ceil; None beyond the double range."""
    scaled = x * 100.0
    return rounding(scaled) / 100.0 if math.isfinite(scaled) else None


def _record_from_report(command: str, report: BoundReport) -> dict:
    q = report.query
    return {
        "command": command,
        "query": {"n": q.n, "a": q.a, "d": q.d, "regime": q.regime.value},
        "upper": _finite(report.upper),
        "upper_weak": _finite(report.upper_weak),
        "upper_weak2": _finite(report.upper_weak2),
        "lower_ground": _finite(report.lower_ground),
        "lower_bessel": _finite(report.lower_bessel),
        "lower_fourier": _finite(report.lower_fourier),
        "lower": _finite(report.lower),
        "method_of_best_lower": report.method_of_best_lower,
        "sharp": report.sharp,
        "log2_upper_over_n": _finite(report.log2_upper_over_n),
        "log2_lower_over_n": _finite(report.log2_lower_over_n),
        "printed_lower": _printed(report.lower, math.floor),
        "printed_upper": _printed(report.upper, math.ceil),
        "metadata": dict(report.metadata),
    }


def _emit(records: list[dict], fmt: str, out: io.TextIOBase, timing_ms: float | None) -> None:
    if timing_ms is not None:
        for r in records:
            r["wall_time_ms"] = timing_ms
    if fmt == "json":
        for r in records:
            out.write(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n")
        return
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for r in records:
            row = {k: r.get(k) for k in _CSV_FIELDS}
            row.update({k: r["query"].get(k) for k in ("n", "a", "d", "regime")})
            meta = r.get("metadata", {})
            for k in ("bessel_lambda_star", "fourier_p_star", "fourier_sigma_star"):
                row[k] = meta.get(k)
            row = {k: ("" if v is None else repr(v) if isinstance(v, float) else v) for k, v in row.items()}
            writer.writerow(row)
        return
    # text
    for r in records:
        q = r["query"]
        if r.get("error"):
            out.write(f"n={q['n']:g} a={q['a']:g} d={q['d']}  error: {r['error']}\n")
            continue
        if r.get("printed_lower") is None or r.get("printed_upper") is None:
            out.write(
                f"n={q['n']:g} a={q['a']:g} d={q['d']}  "
                f"{_log2_text(r['log2_lower_over_n'])} <= log2(K)/n <= "
                f"{_log2_text(r['log2_upper_over_n'])}  "
                f"(bounds beyond the double range, "
                f"best lower: {r['method_of_best_lower']})\n"
            )
        elif r.get("sharp"):
            out.write(
                f"n={q['n']:g} a={q['a']:g} d={q['d']}  K = {r['lower']:.6f} (sharp)"
                f"  [{r['printed_lower']:.2f} < K < {r['printed_upper']:.2f}]\n"
            )
        else:
            out.write(
                f"n={q['n']:g} a={q['a']:g} d={q['d']}  "
                f"{r['printed_lower']:.2f} < K < {r['printed_upper']:.2f}  "
                f"(computed [{r['lower']:.6f}, {r['upper']:.6f}], "
                f"best lower: {r['method_of_best_lower']})\n"
            )
        if timing_ms is not None:
            out.write(f"  wall time: {timing_ms:.1f} ms\n")


def _cmd_bound(args: argparse.Namespace, out: io.TextIOBase) -> int:
    t0 = time.perf_counter()
    query = BoundQuery(args.n, args.a, args.d)
    report = bounds.best_bounds(query, args.rel_tol)
    rec = _record_from_report("bound", report)
    ms = (time.perf_counter() - t0) * 1e3 if args.timing else None
    _emit([rec], args.format, out, ms)
    return 0


def _cmd_table(args: argparse.Namespace, out: io.TextIOBase) -> int:
    if args.preset != "paper":
        raise DomainError(f"unknown table preset {args.preset!r}")
    t0 = time.perf_counter()
    records = []
    for d, a, n, plo, pup in _PAPER_TABLE:
        report = bounds.best_bounds(BoundQuery(n, a, d), args.rel_tol)
        rec = _record_from_report("table", report)
        rec["paper_lower"] = plo
        rec["paper_upper"] = pup
        records.append(rec)
    ms = (time.perf_counter() - t0) * 1e3 if args.timing else None
    _emit(records, args.format, out, ms)
    return 0


def _cmd_sweep(args: argparse.Namespace, out: io.TextIOBase) -> int:
    if args.n_step <= 0.0:
        raise DomainError(f"--n-step must be positive, got {args.n_step}")
    t0 = time.perf_counter()
    records = []
    n = args.n_from
    while n <= args.n_to + 1e-12:
        try:
            report = bounds.best_bounds(BoundQuery(n, args.a, args.d), args.rel_tol)
            records.append(_record_from_report("sweep", report))
        except RegimeError as exc:
            if not args.skip_invalid:
                records.append(
                    {
                        "command": "sweep",
                        "query": {"n": n, "a": args.a, "d": args.d, "regime": None},
                        "error": str(exc),
                    }
                )
        n = round(n + args.n_step, 12)
    ms = (time.perf_counter() - t0) * 1e3 if args.timing else None
    _emit(records, args.format, out, ms)
    return 0


def _oracle_checks(args: argparse.Namespace, grid: oracle.Grid) -> tuple[list[dict], bool]:
    """Cross-check grid norms and ratios against the analytic values."""
    from . import bessel_lb, fourier_lb

    n, a, d = args.n, args.a, args.d
    query = BoundQuery(n, a, d)
    report = bounds.best_bounds(query, args.rel_tol)
    checks: list[dict] = []

    def add(
        name: str, value: float, reference: float, tol: float, envelope: bool = False
    ) -> None:
        if envelope:  # value <= reference (1 + tol), with no relative error
            rel, passed = None, value <= reference * (1.0 + tol)
        else:
            rel = abs(value - reference) / max(abs(reference), 1e-300)
            passed = rel <= tol
        checks.append(
            {
                "name": name,
                "passed": bool(passed),
                "value": value,
                "reference": reference,
                "rel_error": rel,
                "tolerance": tol,
            }
        )

    # gaussian trial norm (all d): exact closed form for integer exponents
    p0, sigma0 = 3.0, max(50.0 / grid.half_width**2, 0.25)
    gf = oracle.sample_gaussian_trial(p0, sigma0, d, grid)
    for exponent in sorted({0.0, min(2.0, math.floor(n)) if n >= 1 else 0.0, float(int(a))}):
        ref = math.sqrt(
            fourier_lb.gaussian_norm_sq(fourier_lb.GaussianTrial(p0, sigma0, d), exponent)
        )
        add(f"gaussian_norm_n{exponent:g}", oracle.sobolev_norm(gf, exponent), ref, 0.005)

    if query.regime is bounds.Regime.HIGH and n > d / 2.0:
        lam = report.metadata.get("bessel_lambda_star", 1.4)
        bt = oracle.sample_bessel_trial(lam, n, d, grid)
        if d <= 2:
            # d = 3 grids are capped at 128 points per axis; the kinked
            # trial's spectral tail is then under-resolved, so only the
            # validity envelope is checked there
            ref = math.sqrt(bessel_lb.bessel_norm_n(bessel_lb.BesselTrial(lam, n, d)))
            add("bessel_norm", oracle.sobolev_norm(bt, n), ref, 0.01)
        ratio = oracle.product_ratio(bt, bt, n, a)
        add("witness_ratio_within_upper", ratio, report.upper, 0.02, envelope=True)
        if report.lower_bessel is not None and d <= 2:
            add("witness_ratio_vs_bessel_bound", ratio, report.lower_bessel, 0.02)
    gr = oracle.product_ratio(gf, gf, n, a)
    add("gaussian_ratio_within_upper", gr, report.upper, 0.02, envelope=True)
    ok = all(c["passed"] for c in checks)
    return checks, ok


def _cmd_oracle(args: argparse.Namespace, out: io.TextIOBase) -> int:
    t0 = time.perf_counter()
    n_pts = args.grid_n
    if args.d == 3 and n_pts is not None and n_pts > 128:
        print("warning: d=3 grids are capped at 128 points per axis", file=sys.stderr)
    grid = oracle.default_grid(args.d, n_pts, args.grid_l)
    meta = {
        "grid_points_per_axis": grid.points_per_axis,
        "grid_half_width": grid.half_width,
        "seed": args.seed,
    }
    if args.mode == "validate":
        checks, ok = _oracle_checks(args, grid)
        rec = {
            "command": "oracle-validate",
            "query": {"n": args.n, "a": args.a, "d": args.d,
                      "regime": bounds.classify_regime(args.n, args.a, args.d).value},
            "checks": checks,
            "metadata": meta,
        }
        ms = (time.perf_counter() - t0) * 1e3 if args.timing else None
        if args.format == "text":
            for c in checks:
                status = "PASS" if c["passed"] else "FAIL"
                detail = (
                    f"rel_error={c['rel_error']:.3g} tol={c['tolerance']:g}"
                    if c["rel_error"] is not None
                    else f"value={c['value']:.6g} bound={c['reference']:.6g}"
                )
                out.write(f"{status} {c['name']}: {detail}\n")
            out.write("all checks passed\n" if ok else "validation FAILED\n")
        else:
            _emit([rec], args.format, out, ms)
        if not ok:
            raise NonConvergenceError("oracle validation failed")
        return 0
    # search
    meta["budget"] = args.budget
    best, witness = oracle.random_search_lower(
        args.n, args.a, args.d, budget=args.budget, seed=args.seed
    )
    report = bounds.best_bounds(BoundQuery(args.n, args.a, args.d), args.rel_tol)
    rec = {
        "command": "oracle-search",
        "query": {"n": args.n, "a": args.a, "d": args.d,
                  "regime": bounds.classify_regime(args.n, args.a, args.d).value},
        "best_ratio": best,
        "witness": witness,
        "upper": report.upper,
        "lower": report.lower,
        "metadata": meta,
    }
    ms = (time.perf_counter() - t0) * 1e3 if args.timing else None
    if args.format == "text":
        out.write(
            f"best empirical ratio {best:.6f} for n={args.n:g} a={args.a:g} d={args.d} "
            f"(analytic interval [{report.lower:.6f}, {report.upper:.6f}])\n"
            f"witness: {json.dumps(witness, sort_keys=True)}\n"
        )
    else:
        _emit([rec], args.format, out, ms)
    if best > report.upper * 1.02:
        raise NonConvergenceError(
            f"empirical ratio {best} exceeds upper bound {report.upper} beyond "
            "the 2% discretization envelope"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobprod",
        description="Certified bounds for the sharp constants in Sobolev "
        "pointwise-product inequalities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--rel-tol", type=float, default=1e-8,
                       help="relative tolerance for maximizations/quadratures")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock time (breaks byte-determinism)")

    p_bound = sub.add_parser("bound", help="certified interval for one (n, a, d)")
    p_bound.add_argument("--n", type=float, required=True)
    p_bound.add_argument("--a", type=float, required=True)
    p_bound.add_argument("--d", type=int, required=True)
    common(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_table = sub.add_parser("table", help="reproduce the reference interval table")
    p_table.add_argument("--preset", default="paper")
    common(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_sweep = sub.add_parser("sweep", help="bounds over a range of n at fixed (a, d)")
    p_sweep.add_argument("--a", type=float, required=True)
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--n-from", type=float, required=True)
    p_sweep.add_argument("--n-to", type=float, required=True)
    p_sweep.add_argument("--n-step", type=float, default=1.0)
    p_sweep.add_argument("--skip-invalid", action="store_true",
                         help="drop out-of-regime rows instead of recording errors")
    common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="grid/DFT cross-checks and random search")
    p_oracle.add_argument("--n", type=float, required=True)
    p_oracle.add_argument("--a", type=float, required=True)
    p_oracle.add_argument("--d", type=int, required=True)
    p_oracle.add_argument("--mode", choices=("validate", "search"), default="validate")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--budget", type=int, default=200)
    p_oracle.add_argument("--grid-n", type=int, default=None,
                          help="points per axis (power of two)")
    p_oracle.add_argument("--grid-l", type=float, default=None, help="box half width")
    common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None, out: io.TextIOBase | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    stream = out if out is not None else sys.stdout
    try:
        return args.func(args, stream)
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return _EXIT_REGIME
    except (NonConvergenceError, ResolutionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
