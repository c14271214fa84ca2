import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from sobprod import numerics
from sobprod.errors import BracketError
from sobprod.numerics import integrate_semiline, maximize_scalar

from conftest import assert_rel


class TestIntegrateSemiline:
    def test_exponential(self):
        res = integrate_semiline(lambda s: math.exp(-s), rel_tol=1e-12)
        assert res.converged
        assert_rel(res.value, 1.0, 1e-12)
        assert res.abs_error_estimate <= 1e-12 * max(1.0, abs(res.value)) * 10
        assert res.evaluations > 0

    def test_rational(self):
        res = integrate_semiline(lambda s: s / (1.0 + s * s) ** 2, rel_tol=1e-12)
        assert res.converged
        assert_rel(res.value, 0.5, 1e-12)

    def test_beta_moment(self):
        # s^(d-1) / (1 + s^2)^(2n) at d = 2, n = 2 integrates to B(1, 3)/2 = 1/6
        res = integrate_semiline(lambda s: s / (1.0 + s * s) ** 4, rel_tol=1e-12)
        assert res.converged
        assert_rel(res.value, 1.0 / 6.0, 1e-12)

    def test_deterministic_bit_identical(self):
        f = lambda s: math.exp(-0.5 * s * s) * (1.0 + s)
        r1 = integrate_semiline(f, rel_tol=1e-11)
        r2 = integrate_semiline(f, rel_tol=1e-11)
        assert r1.value == r2.value
        assert r1.abs_error_estimate == r2.abs_error_estimate
        assert r1.evaluations == r2.evaluations

    def test_divergent_flagged(self):
        res = integrate_semiline(lambda s: 1.0 / (1.0 + s), rel_tol=1e-10, max_intervals=400)
        assert not res.converged

    def test_truncated_upper(self):
        res = integrate_semiline(lambda s: math.exp(-s), rel_tol=1e-12, upper=5.0)
        assert res.converged
        assert_rel(res.value, 1.0 - math.exp(-5.0), 1e-12)

    def test_endpoint_singularity(self):
        res = integrate_semiline(lambda s: math.exp(-s) / math.sqrt(s), rel_tol=1e-9)
        assert res.converged
        assert_rel(res.value, math.sqrt(math.pi), 1e-9)

    def test_converged_implies_error_within_tolerance(self):
        res = integrate_semiline(lambda s: math.exp(-s) * math.sin(s) ** 2, rel_tol=1e-10)
        assert res.converged
        assert res.abs_error_estimate <= 1e-10 * max(1.0, abs(res.value))

    def test_array_panels_match_scalar_panels(self):
        # the scalar _gk15 is the reference; the array form sums in another
        # order, so values agree to a few ulp
        lo = np.array([0.0, 0.3, 0.9, 2.0])
        hi = np.array([0.3, 0.9, 2.0, 7.5])
        f = lambda t: np.exp(-t) * np.sin(3.0 * t) ** 2 + 1.0 / (1.0 + t)
        kron, err = numerics.gk15_panels(f(numerics.gk15_nodes(lo, hi)), lo, hi)
        for i in range(len(lo)):
            ref_k, ref_e = numerics._gk15(lambda t: float(f(t)), lo[i], hi[i])
            assert_rel(kron[i], ref_k, 1e-14)
            assert_rel(err[i], ref_e, 1e-6)

    def test_batched_panels_from_a_panel_set(self):
        # starting from four panels and bisecting a level per call gives the
        # integral the scalar protocol gives
        def panel(ends):
            lo, hi = np.array(ends).T
            t = numerics.gk15_nodes(lo, hi)
            kron, err = numerics.gk15_panels(np.exp(-t) / np.sqrt(t), lo, hi)
            return list(zip(kron.tolist(), err.tolist()))

        edges = [0.0, 0.5, 1.0, 4.0, 30.0]
        start = [(a, b, *panel([(a, b)])[0]) for a, b in zip(edges, edges[1:])]
        res, panels = numerics.integrate_panels(panel, start, 1e-11, batch=True)
        assert res.converged
        assert_rel(res.value, math.sqrt(math.pi) * math.erf(math.sqrt(30.0)), 1e-11)
        panels.sort()
        assert panels[0][0] == 0.0 and panels[-1][1] == 30.0
        assert all(p[1] == q[0] for p, q in zip(panels, panels[1:]))

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_gamma_family_closed_form(self, p, q):
        # int_0^inf s^p exp(-q s) ds = Gamma(p + 1) / q^(p + 1)
        res = integrate_semiline(lambda s: s**p * math.exp(-q * s), rel_tol=1e-11)
        assert res.converged
        exact = math.gamma(p + 1.0) / q ** (p + 1.0)
        assert_rel(res.value, exact, 1e-10, f"gamma family p={p}, q={q}")


class TestMaximizeScalar:
    def test_parabola(self):
        res = maximize_scalar(lambda x: -((x - 2.0) ** 2), (0.1, 10.0))
        assert res.converged
        assert abs(res.argmax - 2.0) < 1e-6

    def test_power_exponential_profile(self):
        # x^(a/2 - d/4) exp(-x/2) with a = 2, d = 2 peaks at a - d/2 = 1
        res = maximize_scalar(lambda x: math.sqrt(x) * math.exp(-0.5 * x), (0.1, 10.0))
        assert abs(res.argmax - 1.0) < 1e-6

    def test_bessel_case_ratio(self):
        # closed-form (n, a, d) = (1, 1, 1) trial ratio; argmax has the
        # exact radical form sqrt(9 + sqrt(97))/(2 sqrt(2))
        k = lambda lam: math.sqrt(2.0 * lam + 0.5 / lam) / (lam + 1.0 / lam)
        res = maximize_scalar(k, (0.2, 5.0))
        exact = math.sqrt(9.0 + math.sqrt(97.0)) / (2.0 * math.sqrt(2.0))
        assert abs(res.argmax - exact) < 1e-7
        assert res.max_value == pytest.approx(0.8427991190195141, rel=1e-9)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_argmax_invariant_under_positive_scaling(self, c):
        k = lambda lam: math.sqrt(2.0 * lam + 0.5 / lam) / (lam + 1.0 / lam)
        base = maximize_scalar(k, (0.2, 5.0)).argmax
        scaled = maximize_scalar(lambda x: c * k(x), (0.2, 5.0)).argmax
        assert abs(base - scaled) <= 1e-6 * base

    def test_bracket_expansion(self):
        evals = []

        def f(x):
            evals.append(x)
            return -((math.log(x) - math.log(40.0)) ** 2)

        res = maximize_scalar(f, (0.2, 5.0))
        assert_rel(res.argmax, 40.0, 1e-6)
        assert res.bracket[1] > 5.0  # hi was expanded
        # each expansion extends the 33-point lattice by the 7 next points
        # (ratio 25^(1/32), ratio^7 >= 2) and recomputes none of the old ones
        ratio = 25.0 ** (1.0 / 32.0)
        k = round(math.log(res.bracket[1] / 5.0) / math.log(ratio)) / 7
        assert k >= 1 and k == int(k)
        assert_rel(res.bracket[1], 0.2 * ratio ** (32 + 7 * k), 1e-13)
        assert len(evals) <= 33 + 7 * k + 25
        assert len(set(evals)) == len(evals)

    def test_narrow_bracket_expansion_cost(self):
        # from (1, 1.01) the scan's own lattice would need 2229 points to
        # double hi; the extension steps by 2^(1/32) instead
        evals = []

        def f(x):
            evals.append(x)
            return -((math.log(x) - math.log(5.0)) ** 2)

        res = maximize_scalar(f, (1.0, 1.01))
        assert_rel(res.argmax, 5.0, 1e-6)
        assert len(evals) <= 33 + 3 * 32 + 25

    def test_bracket_expansion_downward(self):
        res = maximize_scalar(
            lambda x: -((math.log(x) - math.log(0.01)) ** 2), (0.2, 5.0)
        )
        assert_rel(res.argmax, 0.01, 1e-6)
        assert res.bracket[0] < 0.2 < 5.0 == res.bracket[1]

    def test_bracket_failure_distinct(self):
        with pytest.raises(BracketError):
            maximize_scalar(lambda x: x / (1.0 + x), (0.5, 2.0), max_expansions=6)

    def test_multimodal_warning(self):
        res = maximize_scalar(
            lambda x: math.sin(3.0 * math.log(x)) + 0.02 * math.log(x), (0.05, 200.0)
        )
        assert res.warnings and "local maxima" in res.warnings[0]

    def test_multimodal_warning_after_expansion(self):
        # a lower local maximum at 1 inside (0.2, 5) and the global one at
        # 20, which only the expanded scan encloses
        f = lambda x: 0.3 * math.exp(-(math.log(x) ** 2) / 0.05) + math.exp(
            -(math.log(x / 20.0) ** 2) / 2.0
        )
        res = maximize_scalar(f, (0.2, 5.0))
        assert_rel(res.argmax, 20.0, 1e-6)
        assert res.bracket[1] > 20.0
        assert res.warnings and "2 interior local maxima" in res.warnings[0]
