"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.

Criterion 7's lower-bound envelope is provably unattainable from the
implemented closed-form bounds at five of its nine points (see the
expected-failure test and the companion that pins everything that does
hold); all other criteria pass.
"""

import io
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sobprod import bounds, oracle
from sobprod.bessel_lb import (
    BesselTrial,
    bessel_lower,
    bessel_norm_a,
)
from sobprod.bounds import BoundQuery, best_bounds, e_const, lattice_coeffs, s_const
from sobprod.cli import main as cli_main
from sobprod.fourier_lb import GaussianTrial, gaussian_norm_sq
from sobprod.oracle import (
    default_grid,
    product_ratio,
    sample_bessel_trial,
    sample_gaussian_trial,
    sobolev_norm,
)

from conftest import assert_rel, mp_bessel_norm_sq, rel_err
from reference_formulas import imbedding_constant, square_norm_closed_form, square_norm_direct

PI = math.pi


@contextmanager
def criterion(num: int, name: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if budget_s is not None and dt >= budget_s:
            print(f"ACCEPTANCE {num} {name}: FAIL (runtime {dt:.2f}s >= {budget_s}s)")
            raise AssertionError(f"criterion {num} runtime {dt:.2f}s exceeds {budget_s}s")
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"ACCEPTANCE {num} {name}: FAIL ({dt:.2f}s)")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS ({dt:.2f}s)")


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = cli_main(list(argv), out=buf)
    return code, buf.getvalue()


def test_criterion_1_exact_constants():
    with criterion(1, "exact constants"):
        cases = [
            ((1.0, 1), 1.0 / math.sqrt(2.0)),
            ((2.0, 2), 1.0 / (2.0 * math.sqrt(PI))),
            ((2.0, 3), 1.0 / (2.0 * math.sqrt(2.0 * PI))),
        ]
        s_const(1.0, 1)  # warm-up outside the timed window
        for (a, d), expected in cases:
            t0 = time.perf_counter()
            rep = best_bounds(BoundQuery(0.0, a, d))
            dt = time.perf_counter() - t0
            assert rep.sharp and rep.lower == rep.upper
            assert_rel(rep.lower, expected, 1e-12, f"K(0,{a},{d})")
            assert dt < 1e-3, f"exact constant took {dt * 1e3:.3f} ms"


def test_criterion_2_paper_table():
    with criterion(2, "reference table brackets", budget_s=30.0):
        code, text = run_cli("table", "--preset", "paper", "--format", "json")
        assert code == 0
        rows = {(r["query"]["d"], r["query"]["a"], r["query"]["n"]): r
                for r in map(json.loads, text.splitlines())}
        expected = {
            (1, 1.0, 1.0): (0.84, 1.42),
            (2, 2.0, 1.0): (0.27, 0.50),
            (2, 2.0, 2.0): (0.36, 1.00),
            (3, 2.0, 1.0): (0.19, 0.34),
            (3, 2.0, 2.0): (0.24, 0.67),
        }
        for key, (plo, pup) in expected.items():
            row = rows[key]
            assert row["lower"] >= plo, (key, row["lower"], plo)
            assert row["upper"] <= pup, (key, row["upper"], pup)
            # printed two-decimal bracket must agree with the source bracket
            assert row["printed_lower"] >= plo - 1e-12
            assert row["printed_upper"] <= pup + 1e-12


def test_criterion_3_bessel_maximizers():
    exact_111 = math.sqrt(9.0 + math.sqrt(97.0)) / (2.0 * math.sqrt(2.0))
    cases = [
        ((1.0, 1.0, 1), lambda lam: abs(lam - exact_111) < 1e-4),
        ((2.0, 2.0, 2), lambda lam: 1.30 <= lam <= 1.40),
        ((2.0, 2.0, 3), lambda lam: 1.26 <= lam <= 1.36),
    ]
    with criterion(3, "bessel maximizers"):
        for (n, a, d), check in cases:
            t0 = time.perf_counter()
            _, lam_star = bessel_lower(n, a, d)
            dt = time.perf_counter() - t0
            assert check(lam_star), f"lam*({n},{a},{d}) = {lam_star}"
            assert dt < 10.0, f"maximizer ({n},{a},{d}) took {dt:.2f}s"


def test_criterion_4_closed_form_vs_quadrature(mp):
    with criterion(4, "closed forms vs quadrature"):
        for n in (1, 2, 3):
            for a in (1, 2):
                for d in (1, 2, 3):
                    if not (n >= a and a > d / 2.0 and n > d / 2.0):
                        continue
                    for lam in (0.5, 1.0, 2.0):
                        s = bessel_norm_a(BesselTrial(lam, float(n), d), float(a))
                        q = mp_bessel_norm_sq(mp, lam, a, n, d)
                        assert rel_err(s, q) <= 1e-8, (n, a, d, lam)
        trial = BesselTrial(1.35, 2.0, 2)
        general = square_norm_direct(trial.lam, trial.n, trial.d, 1e-9)
        closed = square_norm_closed_form(trial)
        assert rel_err(general, closed) <= 1e-7


def test_criterion_5_gaussian_sandwich():
    with criterion(5, "gaussian norm sandwich"):
        for n in (0.5, 1.0, 2.0, 3.7):
            for p in (3.0, 10.0):
                for sigma in (0.1, 0.5):
                    if n * sigma / p**2 >= 1.0:
                        continue
                    for d in (1, 2, 3):
                        val = gaussian_norm_sq(GaussianTrial(p, sigma, d), n)
                        lo = PI ** (d / 2.0) * p ** (2 * n) / sigma ** (d / 2.0)
                        sn = n * sigma / p**2
                        hi = lo * math.exp(n * n * sigma / p**2 / (1 - sn) + n / p**2) / (
                            1 - sn
                        ) ** (d / 2.0)
                        assert lo * (1 - 1e-9) <= val <= hi * (1 + 1e-9), (n, p, sigma, d)


def test_criterion_6_identity_suite():
    with criterion(6, "identity suite"):
        for n in (0.0, 0.5, 1.0, 1.5, 2.0, 7.3, 12.0):
            pts = lattice_coeffs(n)
            assert sum(p.coeff for p in pts) == 2 ** math.ceil(n)
        for a, d in [(1.0, 1), (2.0, 2), (2.0, 3), (3.3, 2)]:
            assert e_const(0.0, a, d) == 1.0
            assert e_const(a, a, d) == 1.0
            assert rel_err(e_const(a / 2.0, a, d), (16.0 / 27.0) ** (d / 4.0)) <= 1e-12
        for d in (1, 2, 3):
            for a in (d / 2.0 + 0.6, math.floor(d / 2) + 1.0, 3.0):
                for ell in (0.0, a / 4.0, a / 2.0, 3.0 * a / 4.0, a):
                    r1 = math.inf if ell == 0.0 else 2.0 * a / ell
                    r2 = math.inf if ell == a else 2.0 * a / (a - ell)
                    lhs = imbedding_constant(r1, a - ell, d) * imbedding_constant(r2, ell, d)
                    rhs = e_const(ell, a, d) * s_const(a, d)
                    assert rel_err(lhs, rhs) <= 1e-10, (ell, a, d)
                lhs = imbedding_constant(4.0, a / 2.0, d) ** 2
                rhs = (16.0 / 27.0) ** (d / 4.0) * s_const(a, d)
                assert rel_err(lhs, rhs) <= 1e-10, ("S4", a, d)


def _trend_reports():
    out = {}
    for d in (1, 2, 3):
        a = float(d // 2 + 1)
        for n in (20.0, 40.0, 60.0):
            out[(d, n)] = best_bounds(BoundQuery(n, a, d))
    return out


@pytest.mark.xfail(
    strict=True,
    reason="unattainable envelope: the best analytic lower bound has "
    "normalized deficit (a/2 + d/4) log2(n + a) - log2(R v), which "
    "exceeds 10 at (d, n) = (2, 40), (2, 60), (3, 20), (3, 40), (3, 60), "
    "so [1 - 10/n, 1 + 10/n] cannot contain log2(lower)/n there",
)
def test_criterion_7_asymptotic_trend_full():
    with criterion(7, "asymptotic trend (full 10/n envelope)", budget_s=60.0):
        reps = _trend_reports()
        failures = []
        for (d, n), rep in reps.items():
            lo_edge, hi_edge = 1.0 - 10.0 / n, 1.0 + 10.0 / n
            if not lo_edge <= rep.log2_upper_over_n <= hi_edge:
                failures.append((d, n, "upper", rep.log2_upper_over_n))
            if not lo_edge <= rep.log2_lower_over_n <= hi_edge:
                failures.append((d, n, "lower", rep.log2_lower_over_n))
        for d in (1, 2, 3):
            widths = [
                abs(reps[(d, n)].log2_upper_over_n - reps[(d, n)].log2_lower_over_n)
                for n in (20.0, 40.0, 60.0)
            ]
            if not widths[0] > widths[1] > widths[2]:
                failures.append((d, None, "width", widths))
        assert not failures, f"envelope violations: {failures}"


def test_criterion_7_asymptotic_trend_attainable():
    with criterion(7, "asymptotic trend (attainable checks)", budget_s=60.0):
        reps = _trend_reports()
        attainable_lower = {(1, 20.0), (1, 40.0), (1, 60.0), (2, 20.0)}
        for (d, n), rep in reps.items():
            lo_edge, hi_edge = 1.0 - 10.0 / n, 1.0 + 10.0 / n
            assert lo_edge <= rep.log2_upper_over_n <= hi_edge, (d, n)
            if (d, n) in attainable_lower:
                assert lo_edge <= rep.log2_lower_over_n <= hi_edge, (d, n)
        for d in (1, 2, 3):
            widths = [
                abs(reps[(d, n)].log2_upper_over_n - reps[(d, n)].log2_lower_over_n)
                for n in (20.0, 40.0, 60.0)
            ]
            assert widths[0] > widths[1] > widths[2], f"bracket not shrinking, d={d}"


def test_criterion_8_oracle_consistency():
    with criterion(8, "oracle consistency", budget_s=300.0):
        lam_star = math.sqrt(9.0 + math.sqrt(97.0)) / (2.0 * math.sqrt(2.0))
        g1 = default_grid(1)
        bt = sample_bessel_trial(lam_star, 1.0, 1, g1)
        analytic = math.sqrt(
            bessel_norm_a(BesselTrial(lam_star, 1.0, 1), 1.0)
        )
        assert rel_err(sobolev_norm(bt, 1.0), analytic) <= 0.01

        for d in (1, 2):
            g = default_grid(d)
            f = sample_gaussian_trial(3.0, 0.5, d, g)
            for n in (0.0, 1.0, 2.0):
                ref = math.sqrt(gaussian_norm_sq(GaussianTrial(3.0, 0.5, d), n))
                assert rel_err(sobolev_norm(f, n), ref) <= 0.01, (d, n)

        ratio_111 = product_ratio(bt, bt, 1.0, 1.0)
        assert ratio_111 >= 0.83

        # full regime matrix: every empirical ratio within upper * 1.02
        grids = {
            1: default_grid(1),
            2: oracle.Grid(2, 20.0, 256),
            3: oracle.Grid(3, 18.0, 64),
        }
        for d in (1, 2, 3):
            g = grids[d]
            sigma = max(46.0 / g.half_width**2 * 1.1, 0.2)
            gauss = sample_gaussian_trial(3.0, sigma, d, g)
            for a in (float(d // 2 + 1), d / 2.0 + 0.7):
                for n in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
                    try:
                        query = BoundQuery(n, a, d)
                    except Exception:
                        continue
                    up = bounds.upper_bound(n, a, d)
                    assert product_ratio(gauss, gauss, n, a) <= up * 1.02, (d, a, n)
                    if (
                        query.regime is bounds.Regime.HIGH
                        and n > d / 2.0
                        and d <= 2
                    ):
                        w = sample_bessel_trial(1.4, n, d, g)
                        assert product_ratio(w, w, n, a) <= up * 1.02, (d, a, n)


def test_criterion_9_determinism():
    with criterion(9, "determinism of machine-readable output"):
        commands = [
            ("bound", "--n", "2", "--a", "2", "--d", "2", "--format", "json"),
            ("bound", "--n", "2", "--a", "2", "--d", "3", "--format", "csv"),
            ("table", "--preset", "paper", "--format", "json"),
            ("sweep", "--a", "2", "--d", "2", "--n-from", "2", "--n-to", "8",
             "--n-step", "3", "--format", "csv"),
            ("oracle", "--n", "1", "--a", "1", "--d", "1", "--mode", "search",
             "--seed", "7", "--budget", "30", "--format", "json"),
            ("oracle", "--n", "1", "--a", "1", "--d", "1", "--mode", "validate",
             "--format", "json"),
        ]
        for argv in commands:
            out1 = run_cli(*argv)
            out2 = run_cli(*argv)
            assert out1 == out2, f"non-deterministic output for {argv}"
