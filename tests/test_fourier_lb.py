import math

import pytest

from sobprod.bounds import upper_bound
from sobprod.errors import DomainError
from sobprod.fourier_lb import (
    GaussianTrial,
    fourier_bound_at,
    fourier_lower,
    fourier_lower_scan,
    fourier_lower_weak,
    gaussian_norm_sq,
    optimal_trial_parameters,
    r_const,
    v_coeff,
)

from conftest import assert_rel
from reference_formulas import v_general

PI = math.pi

HIGH_TRIPLES = [(1.0, 1.0, 1), (2.0, 2.0, 2), (2.0, 2.0, 3), (5.0, 2.0, 2), (3.0, 2.5, 3)]

# frozen with 30-digit quadrature of the defining Gaussian integrals
FROZEN_NORMS = [
    ((3.0, 0.5, 1), 2.0, 286.22561610942737),
    ((3.0, 0.5, 2), 2.0, 750.84064420796058),
    ((3.0, 0.5, 3), 2.0, 1967.7168925936948),
    ((3.0, 0.1, 2), 3.0, 34107.831617052881),
    ((10.0, 0.5, 2), 1.0, 637.74330867872803),
    ((3.0, 0.5, 1), 0.5, 7.9372839136530577),
    ((3.0, 0.5, 2), 3.7, 55224.52665264199),
    ((3.0, 0.1, 3), 0.5, 559.75590281737584),
]


class TestRConst:
    def test_values(self):
        assert_rel(r_const(1.0, 1), 0.27088988830679884, 1e-13)
        assert_rel(r_const(2.0, 2), math.exp(-1.0) / math.sqrt(2.0 * PI), 1e-13)

    def test_continuous_at_a_to_half_d(self):
        # E(a - d/2) -> E(0) = 1 continuously, so r_const has a finite limit
        limit = math.exp(-0.25) / (2.0 * PI) ** 0.25 * math.sqrt(0.5**0.5)
        assert_rel(r_const(0.5 + 1e-12, 1), limit, 1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            r_const(1.0, 2)


class TestVCoeff:
    def test_tends_to_one(self):
        assert abs(v_coeff(1e4, 2.0, 2) - 1.0) < 1e-3

    def test_value_111(self):
        assert_rel(v_coeff(1.0, 1.0, 1), 1.0412034012856017, 1e-13)

    def test_weak_floor_in_high_regime(self):
        for n, a, d in HIGH_TRIPLES:
            assert v_coeff(n, a, d) >= (1.0 - d / (2.0 * a)) ** (d / 4.0) - 1e-12

    def test_dual_path_mu_specialization(self):
        for n, a, d in HIGH_TRIPLES + [(1.0, 3.0, 2)]:
            assert_rel(v_coeff(n, a, d), v_general(d / 2.0, n, a, d), 1e-12)

    def test_regime_guard(self):
        with pytest.raises(DomainError):
            v_coeff(0.25, 2.0, 2)  # low regime below n = 1/2


class TestFourierLower:
    def test_value_111(self):
        assert_rel(fourier_lower(1.0, 1.0, 1), 0.33541761858244499, 1e-12)

    def test_dominated_by_bessel_at_111(self):
        from sobprod.bessel_lb import bessel_lower

        bound, _ = bessel_lower(1.0, 1.0, 1)
        assert fourier_lower(1.0, 1.0, 1) <= bound

    def test_large_n_trend(self):
        val = fourier_lower(60.0, 2.0, 2)
        assert 0.8 < math.log2(val) / 60.0 < 1.0

    def test_weak_below_full(self):
        for n, a, d in HIGH_TRIPLES:
            assert fourier_lower_weak(n, a, d) <= fourier_lower(n, a, d)

    def test_below_upper(self):
        for n, a, d in HIGH_TRIPLES + [(1.0, 2.0, 2), (0.5, 2.0, 3)]:
            assert fourier_lower(n, a, d) <= upper_bound(n, a, d) * (1.0 + 1e-12)

    def test_not_applicable_below_half(self):
        with pytest.raises(DomainError):
            fourier_lower(0.25, 2.0, 2)


class TestGaussianNorm:
    def test_n_zero_gaussian_integral(self):
        for d in (1, 2, 3):
            got = gaussian_norm_sq(GaussianTrial(2.0, 0.5, d), 0.0)
            assert_rel(got, (PI / 0.5) ** (d / 2.0), 1e-13)
            # independent of p
            assert_rel(got, gaussian_norm_sq(GaussianTrial(7.0, 0.5, d), 0.0), 1e-13)

    @pytest.mark.parametrize("spec,n,ref", FROZEN_NORMS)
    def test_frozen_references(self, spec, n, ref):
        p, sigma, d = spec
        got = gaussian_norm_sq(GaussianTrial(p, sigma, d), n)
        assert_rel(got, ref, 1e-9, f"gaussian norm {spec} n={n}")

    def test_integer_closed_form_vs_quadrature(self):
        # perturb n by an irrational epsilon to force the quadrature path
        for p, sigma, d, n in [(3.0, 0.5, 1, 2.0), (3.0, 0.5, 2, 2.0), (3.0, 0.1, 3, 1.0)]:
            closed = gaussian_norm_sq(GaussianTrial(p, sigma, d), n)
            quad_lo = gaussian_norm_sq(GaussianTrial(p, sigma, d), n - 1e-9)
            assert_rel(closed, quad_lo, 1e-6, "closed vs quadrature continuity")

    def test_sandwich_matrix(self):
        # Bernoulli lower and Gaussian-integral upper estimates of the norm
        for n in (0.5, 1.0, 2.0, 3.7):
            for p in (3.0, 10.0):
                for sigma in (0.1, 0.5):
                    if n * sigma / p**2 >= 1.0:
                        continue
                    for d in (1, 2, 3):
                        val = gaussian_norm_sq(GaussianTrial(p, sigma, d), n)
                        lo = PI ** (d / 2.0) * p ** (2.0 * n) / sigma ** (d / 2.0)
                        sn = n * sigma / p**2
                        hi = (
                            PI ** (d / 2.0)
                            * math.exp(n * n * sigma / p**2 / (1.0 - sn) + n / p**2)
                            / (1.0 - sn) ** (d / 2.0)
                            * p ** (2.0 * n)
                            / sigma ** (d / 2.0)
                        )
                        assert lo * (1.0 - 1e-9) <= val <= hi * (1.0 + 1e-9), (
                            f"sandwich failed at n={n}, p={p}, sigma={sigma}, d={d}: "
                            f"{lo} <= {val} <= {hi}"
                        )

    def test_squaring_identity_on_norms(self):
        # (f_{p,sigma})^2 = f_{2p,2sigma}: its norm feeds the numerator of
        # the exact trial ratio
        p, sigma, d = 3.0, 0.4, 2
        sq = gaussian_norm_sq(GaussianTrial(2.0 * p, 2.0 * sigma, d), 2.0)
        assert sq > 0.0  # smoke: the rescaled trial is the square's transform


class TestFourierBoundAt:
    def test_reproduces_closed_form_exactly(self):
        for n, a, d in HIGH_TRIPLES + [(1.0, 2.0, 2), (20.0, 2.0, 3)]:
            p, sigma = optimal_trial_parameters(n, a, d)
            assert_rel(
                fourier_bound_at(p, sigma, n, a, d),
                fourier_lower(n, a, d),
                1e-12,
                f"paper choice ({n},{a},{d})",
            )

    def test_precondition_violation_names_constraint(self):
        with pytest.raises(DomainError, match="sigma / p"):
            fourier_bound_at(1.0, 2.0, 2.0, 2.0, 2)

    def test_below_upper_bound(self):
        for n, a, d in HIGH_TRIPLES:
            for p_fac, s_fac in [(0.5, 0.5), (1.0, 1.0), (2.0, 1.5), (3.0, 0.25)]:
                p0, s0 = optimal_trial_parameters(n, a, d)
                p, sigma = p0 * p_fac, s0 * s_fac
                if max(n, a) * sigma / p**2 >= 1.0:
                    continue
                assert fourier_bound_at(p, sigma, n, a, d) <= upper_bound(n, a, d) * (
                    1.0 + 1e-9
                )

    def test_bounded_by_exact_trial_ratio(self):
        # the parametric bound is derived by sandwiching exact norms, so the
        # exact-norm ratio must dominate it
        n, a, d = 2.0, 2.0, 2
        p, sigma = optimal_trial_parameters(n, a, d)
        num = math.sqrt(gaussian_norm_sq(GaussianTrial(2 * p, 2 * sigma, d), n))
        den = math.sqrt(
            gaussian_norm_sq(GaussianTrial(p, sigma, d), n)
        ) * math.sqrt(gaussian_norm_sq(GaussianTrial(p, sigma, d), a))
        assert fourier_bound_at(p, sigma, n, a, d) <= (num / den) * (1.0 + 1e-9)


class TestScan:
    def test_degenerate_grid_is_closed_form(self):
        best, p, sigma = fourier_lower_scan(1.0, 1.0, 1, n_lam=1, n_mu=1)
        assert_rel(best, fourier_lower(1.0, 1.0, 1), 1e-12)

    def test_scan_dominates_closed_form(self):
        for n, a, d in [(2.0, 2.0, 2), (20.0, 2.0, 2), (1.0, 2.0, 3)]:
            best, _, _ = fourier_lower_scan(n, a, d)
            assert best >= fourier_lower(n, a, d) - 1e-12

    def test_gain_is_bounded(self):
        for n, a, d in [(1.0, 1.0, 1), (2.0, 2.0, 2), (20.0, 2.0, 2), (2.0, 2.0, 3)]:
            best, _, _ = fourier_lower_scan(n, a, d)
            ratio = best / fourier_lower(n, a, d)
            assert 1.0 - 1e-12 <= ratio <= 1.5
