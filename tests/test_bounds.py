import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sobprod import bounds
from sobprod.bounds import (
    BoundQuery,
    Regime,
    best_bounds,
    classify_regime,
    e_const,
    e_product_coeff,
    ground_lower,
    lattice_coeffs,
    s_const,
    u_coeff,
    upper_bound,
    upper_bound_weak,
    upper_bound_weak2,
)
from sobprod.errors import DomainError, RegimeError

from conftest import assert_rel

SQRT2 = math.sqrt(2.0)
PLATEAU = {d: (16.0 / 27.0) ** (d / 4.0) for d in (1, 2, 3)}


class TestRegime:
    def test_examples(self):
        assert classify_regime(1.0, 1.0, 1) is Regime.HIGH
        assert classify_regime(0.0, 2.0, 3) is Regime.LOW
        with pytest.raises(RegimeError):
            classify_regime(1.0, 2.0, 1)  # gap case d/2 < n < a

    def test_boundaries(self):
        assert classify_regime(1.0, 2.0, 2) is Regime.LOW  # n = d/2
        assert classify_regime(2.0, 2.0, 2) is Regime.HIGH  # n = a
        with pytest.raises(RegimeError):
            classify_regime(0.5, 1.0, 2)  # a = d/2

    def test_query_object(self):
        q = BoundQuery(2.0, 2.0, 3)
        assert q.regime is Regime.HIGH
        with pytest.raises(RegimeError):
            BoundQuery(1.5, 2.0, 1)

    @pytest.mark.parametrize("d", [math.nan, math.inf, 1.5, 0])
    def test_dimension_must_be_positive_integer(self, d):
        with pytest.raises(DomainError):
            BoundQuery(2.0, 1.0, d)


class TestSConst:
    @pytest.mark.parametrize(
        "a,d,expected",
        [
            (1.0, 1, 1.0 / SQRT2),
            (2.0, 2, 1.0 / (2.0 * math.sqrt(math.pi))),
            (2.0, 3, 1.0 / (2.0 * math.sqrt(2.0 * math.pi))),
        ],
    )
    def test_reference_values(self, a, d, expected):
        assert_rel(s_const(a, d), expected, 1e-13)

    def test_domain(self):
        with pytest.raises(Exception):
            s_const(1.0, 2)  # a = d/2


class TestEConst:
    def test_endpoints_exact(self):
        for a, d in [(1.0, 1), (2.0, 2), (3.3, 3)]:
            assert e_const(0.0, a, d) == 1.0
            assert e_const(a, a, d) == 1.0

    def test_midpoint(self):
        for d in (1, 2, 3):
            assert_rel(e_const(1.0, 2.0, d), PLATEAU[d], 1e-13)

    def test_worked_value(self):
        assert_rel(e_const(1.0, 2.0, 2), 4.0 * math.sqrt(3.0) / 9.0, 1e-13)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.7, max_value=6.0),
        st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=120, deadline=None)
    def test_range_between_plateau_and_one(self, frac, a, d):
        assume(a > d / 2.0 + 1e-9)
        val = e_const(frac * a, a, d)
        assert PLATEAU[d] - 1e-12 <= val <= 1.0 + 1e-12


class TestLattice:
    def test_integer(self):
        pts = lattice_coeffs(2.0)
        assert [(p.ell, p.coeff) for p in pts] == [(0.0, 1), (1.0, 2), (2.0, 1)]

    def test_zero(self):
        assert [(p.ell, p.coeff) for p in lattice_coeffs(0.0)] == [(0.0, 1)]

    def test_fractional(self):
        pts = lattice_coeffs(1.5)
        assert [p.ell for p in pts] == [0.0, 0.75, 1.5]
        assert sum(p.coeff for p in pts) == 4

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 1.5, 2.0, 7.3, 12.0])
    def test_sum_is_power_of_two(self, n):
        pts = lattice_coeffs(n)
        assert sum(p.coeff for p in pts) == 2 ** math.ceil(n)

    @given(st.floats(min_value=0.0, max_value=40.0))
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, n):
        pts = lattice_coeffs(n)
        coeffs = [p.coeff for p in pts]
        assert coeffs == coeffs[::-1]


class TestEProductCoeff:
    def test_high_middle_branch(self):
        assert_rel(e_product_coeff(2.0, 1.0, 2.0, 2), PLATEAU[2], 1e-13)

    def test_high_first_branch(self):
        assert e_product_coeff(2.0, 0.0, 2.0, 2) == 1.0

    def test_high_third_branch(self):
        assert e_product_coeff(2.0, 2.0, 2.0, 3) == 1.0

    def test_low_is_plain_coefficient(self):
        assert_rel(e_product_coeff(1.0, 1.0, 2.0, 2), e_const(1.0, 2.0, 2), 1e-15)


class TestUpperBounds:
    def test_111(self):
        assert_rel(upper_bound(1.0, 1.0, 1), SQRT2, 1e-13)

    def test_222(self):
        assert_rel(upper_bound(2.0, 2.0, 2), 0.99850292746146288, 1e-12)

    def test_122_closed_form(self):
        expected = (1.0 + 4.0 * math.sqrt(3.0) / 9.0) / (2.0 * math.sqrt(math.pi))
        assert_rel(upper_bound(1.0, 2.0, 2), expected, 1e-13)

    def test_123_closed_form(self):
        expected = (1.0 + 8.0 / 3.0**2.25) / (2.0 * math.sqrt(2.0 * math.pi))
        assert_rel(upper_bound(1.0, 2.0, 3), expected, 1e-13)

    def test_weak_111_coincides(self):
        # all E-coefficients are 1 there, so weak == full == sqrt(2)
        assert_rel(upper_bound_weak(1.0, 1.0, 1), SQRT2, 1e-13)
        assert_rel(upper_bound_weak(1.0, 1.0, 1), upper_bound(1.0, 1.0, 1), 1e-13)

    def test_weak2_222(self):
        assert_rel(u_coeff(2.0, 2.0, 2), 1.1495190528383290, 1e-12)
        assert_rel(upper_bound_weak2(2.0, 2.0, 2), 0.99850292746146288, 1e-12)

    def test_u_tends_to_one(self):
        assert u_coeff(60.0, 2.0, 2) - 1.0 < 1e-8

    def test_weak2_regime_guard(self):
        with pytest.raises(RegimeError):
            upper_bound_weak2(1.0, 2.0, 2)

    @staticmethod
    def _full_lattice_log_upper(n, a, d):
        """log of S(a, d) sum_j C(N, j) c_j over every lattice point."""
        npl = math.ceil(n)
        total = math.fsum(
            math.comb(npl, j) / 2**npl * e_product_coeff(n, p.ell, a, d)
            for j, p in enumerate(lattice_coeffs(n))
        )
        return math.log(s_const(a, d)) + npl * math.log(2.0) + math.log(total)

    @staticmethod
    def _plateau_cases():
        rng = random.Random(20261018)
        cases = []
        for d in (1, 2, 3):
            # n = a puts lattice points at a/2 and n - a/2; a close to n
            # leaves a plateau of one point or none
            cases += [(2.0, 2.0, d), (24.0, 24.0, d), (40.0, 40.0, d),
                      (39.5, 39.4999, d), (7.25, 7.25, d)]
            cases += [(n, 2.0, d) for n in (49.0, 50.0, 51.0, 80.0)]
            for _ in range(40):
                a = rng.uniform(d / 2.0 + 1e-3, 40.0)
                n = rng.uniform(a, 400.0)
                cases.append((float(math.ceil(n)) if rng.random() < 0.5 else n, a, d))
        return cases

    def test_log_upper_bound_matches_full_lattice_sum(self):
        # the O(a) plateau form against the sum over all n+ + 1 points
        for n, a, d in self._plateau_cases():
            got = bounds.log_upper_bound(n, a, d)
            want = self._full_lattice_log_upper(n, a, d)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, a, d, got, want)

    @given(
        st.sampled_from([1, 2, 3]),
        st.floats(min_value=0.01, max_value=6.0),
        st.floats(min_value=0.0, max_value=8.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_orderings(self, d, a, n):
        try:
            regime = classify_regime(n, a, d)
        except RegimeError:
            assume(False)
        up = upper_bound(n, a, d)
        assert ground_lower(a, d) <= up * (1.0 + 1e-12)
        assert up <= upper_bound_weak(n, a, d) * (1.0 + 1e-12)
        if regime is Regime.HIGH:
            try:
                w2 = upper_bound_weak2(n, a, d)
            except Exception:
                return
            assert up <= w2 * (1.0 + 1e-12)


class TestBestBounds:
    def test_exact_at_n_zero(self):
        rep = best_bounds(BoundQuery(0.0, 2.0, 2))
        assert rep.sharp
        assert rep.lower == rep.upper
        assert_rel(rep.lower, 1.0 / (2.0 * math.sqrt(math.pi)), 1e-13)
        assert rep.method_of_best_lower == "exact"

    def test_low_regime_interval(self):
        rep = best_bounds(BoundQuery(1.0, 2.0, 3))
        assert 0.19 <= rep.lower <= rep.upper <= 0.34

    def test_high_regime_interval_bessel_best(self):
        rep = best_bounds(BoundQuery(2.0, 2.0, 3))
        assert 0.24 <= rep.lower <= rep.upper <= 0.67
        assert rep.method_of_best_lower == "bessel"
        assert rep.lower_bessel is not None and rep.lower_fourier is not None
        assert rep.lower == max(
            rep.lower_ground, rep.lower_bessel, rep.lower_fourier
        )

    def test_fourier_skipped_below_half_in_low_regime(self):
        rep = best_bounds(BoundQuery(0.25, 2.0, 2))
        assert rep.lower_fourier is None

    def test_bessel_skipped_beyond_cost_cap(self):
        rep = best_bounds(BoundQuery(200.0, 2.0, 2))
        assert rep.lower_bessel is None
        assert "bessel_unavailable" in rep.metadata
        assert rep.method_of_best_lower == "fourier"


class TestReportInvariants:
    @pytest.mark.parametrize(
        "n,a,d",
        [
            (0.0, 1.0, 1),
            (0.5, 1.0, 1),
            (1.0, 1.0, 1),
            (3.0, 1.3, 1),
            (1.7, 1.2, 1),
            (0.0, 2.0, 2),
            (1.0, 1.4, 2),
            (2.0, 2.0, 2),
            (6.0, 2.0, 2),
            (1.5, 2.0, 3),
            (2.0, 2.0, 3),
            (3.0, 2.5, 3),
        ],
    )
    def test_report_orderings(self, n, a, d):
        rep = best_bounds(BoundQuery(n, a, d))
        assert 0.0 < rep.lower <= rep.upper * (1.0 + 1e-12)
        assert rep.lower_ground <= rep.lower
        assert rep.upper <= rep.upper_weak * (1.0 + 1e-12)
        if rep.upper_weak2 is not None:
            assert rep.upper <= rep.upper_weak2 * (1.0 + 1e-12)
        available = [
            v
            for v in (rep.lower_ground, rep.lower_bessel, rep.lower_fourier)
            if v is not None
        ]
        assert rep.lower == max(available)


class TestAsymptoticTrend:
    """Large-n trend of log2(bound)/n toward 1.

    A [1 - 10/n, 1 + 10/n] envelope cannot hold for the lower bound at
    every (d, n) here: the best analytic lower bound has normalized
    deficit (a/2 + d/4) log2(n + a) - log2(R v), which exceeds 10 at
    (d, n) = (2, 40), (2, 60), (3, 20), (3, 40), (3, 60).  The full
    envelope check is kept (expected-failure) in the acceptance suite;
    this test asserts everything that actually holds.
    """

    @staticmethod
    def _points():
        out = {}
        for d in (1, 2, 3):
            a = float(d // 2 + 1)
            for n in (20.0, 40.0, 60.0):
                rep = best_bounds(BoundQuery(n, a, d))
                out[(d, n)] = rep
        return out

    def test_trend_holds_where_attainable(self):
        reps = self._points()
        attainable = {(1, 20.0), (1, 40.0), (1, 60.0), (2, 20.0)}
        for (d, n), rep in reps.items():
            lo_edge, hi_edge = 1.0 - 10.0 / n, 1.0 + 10.0 / n
            assert lo_edge <= rep.log2_upper_over_n <= hi_edge, (d, n, "upper")
            if (d, n) in attainable:
                assert lo_edge <= rep.log2_lower_over_n <= hi_edge, (d, n, "lower")
            # the trend itself: the lower bound converges toward 1 from below
            assert rep.log2_lower_over_n <= rep.log2_upper_over_n

        for d in (1, 2, 3):
            widths = [
                abs(reps[(d, n)].log2_upper_over_n - reps[(d, n)].log2_lower_over_n)
                for n in (20.0, 40.0, 60.0)
            ]
            assert widths[0] > widths[1] > widths[2], f"bracket not shrinking at d={d}"
