import math
import random

import numpy as np
import pytest

from sobprod import bessel_direct, specfun
from sobprod.bessel_lb import (
    BesselTrial,
    bessel_lower,
    bessel_lower_detail,
    bessel_norm_a,
    bessel_norm_n,
    bessel_ratio,
    bessel_square_norm,
)
from sobprod.bounds import upper_bound
from sobprod.errors import DomainError, NonConvergenceError

from conftest import assert_rel, mp_bessel_norm_sq
from reference_formulas import square_norm_closed_form, square_norm_direct

PI = math.pi

# closed norms of the three worked cases, |f|_n^2 as functions of lam
CLOSED_NORM_SQ = {
    (1.0, 1): lambda lam: PI / 2.0 * (lam + 1.0 / lam),
    (2.0, 2): lambda lam: PI / 3.0 * (lam * lam + 1.0 + 1.0 / lam**2),
    (2.0, 3): lambda lam: PI**2 / 8.0 * (5.0 * lam + 2.0 / lam + 1.0 / lam**3),
}

LAMBDA_STAR_111 = math.sqrt(9.0 + math.sqrt(97.0)) / (2.0 * math.sqrt(2.0))


class TestTrialValidation:
    def test_membership_constraint(self):
        with pytest.raises(DomainError):
            BesselTrial(1.0, 0.5, 1)  # n = d/2
        with pytest.raises(DomainError):
            BesselTrial(0.0, 2.0, 1)

    def test_norm_a_domain(self):
        t = BesselTrial(1.0, 2.0, 2)
        with pytest.raises(DomainError):
            bessel_norm_a(t, 3.0)  # a > n
        with pytest.raises(DomainError):
            bessel_norm_a(t, 1.0)  # a = d/2


class TestNorms:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.2, 2.0])
    @pytest.mark.parametrize("nd", sorted(CLOSED_NORM_SQ))
    def test_closed_forms(self, nd, lam):
        n, d = nd
        got = bessel_norm_n(BesselTrial(lam, n, d))
        assert_rel(got, CLOSED_NORM_SQ[nd](lam), 1e-12, f"norm^2 {nd} lam={lam}")

    def test_unit_lambda_values(self):
        assert_rel(bessel_norm_n(BesselTrial(1.0, 1.0, 1)), PI, 1e-12)
        assert_rel(bessel_norm_n(BesselTrial(1.0, 2.0, 2)), PI, 1e-12)

    def test_norm_a_reduces_to_norm_n(self):
        t = BesselTrial(1.3, 2.0, 3)
        assert bessel_norm_a(t, 2.0) == bessel_norm_n(t)

    def test_norm_a_closed_form(self):
        lam = 0.8
        got = bessel_norm_a(BesselTrial(lam, 2.0, 3), 2.0)
        assert_rel(got, CLOSED_NORM_SQ[(2.0, 3)](lam), 1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "n,a,d",
        [
            (1, 1, 1),
            (2, 1, 1),
            (2, 2, 1),
            (3, 1, 1),
            (3, 2, 1),
            (2, 2, 2),
            (3, 2, 2),
            (2, 2, 3),
            (3, 2, 3),
        ],
    )
    def test_series_vs_quadrature_matrix(self, mp, n, a, d, lam):
        # the integer-exponent Beta sum against mpmath quadrature of the
        # defining radial integral
        got = bessel_norm_a(BesselTrial(lam, float(n), d), float(a))
        ref = mp_bessel_norm_sq(mp, lam, a, n, d)
        assert_rel(got, ref, 1e-12, f"series/quadrature ({n},{a},{d},{lam})")

    def test_noninteger_n_against_mpmath(self, mp):
        got = bessel_norm_n(BesselTrial(0.7, 1.6, 1))
        assert_rel(got, mp_bessel_norm_sq(mp, 0.7, 1.6, 1.6, 1), 1e-12)

    def test_noninteger_exponent_against_mpmath(self, mp):
        got = bessel_norm_a(BesselTrial(1.2, 3.0, 2), 2.4)
        assert_rel(got, mp_bessel_norm_sq(mp, 1.2, 2.4, 3.0, 2), 1e-12)

    def test_noninteger_exponent_box_against_mpmath(self, mp):
        # the Euler form at non-integer q over the rescale factors a
        # maximization reaches: lam log-uniform in [0.05, 20]
        rng = random.Random(7)
        for _ in range(200):
            d = rng.choice((1, 2, 3))
            n = rng.uniform(d / 2.0, 25.0)
            q = rng.uniform(d / 2.0, n)
            lam = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            got = bessel_norm_a(BesselTrial(lam, n, d), q)
            assert_rel(got, mp_bessel_norm_sq(mp, lam, q, n, d), 1e-11, f"{(lam, q, n, d)}")

    def test_far_rescale_factor_is_not_certified(self):
        # the Pfaff series of the Euler form needs O(lam^2) terms; past its
        # term limit the norm raises instead of returning an uncertified value
        with pytest.raises(NonConvergenceError, match="not certified"):
            bessel_norm_n(BesselTrial(1e4, 7.3, 2))

    def test_unrescaled_against_direct_k_space_quadrature(self):
        # lam = 1: |f|_n^2 = (2 pi^(d/2)/Gamma(d/2)) int r^(d-1) (1+r^2)^(-n) dr
        from sobprod.numerics import integrate_semiline

        for n, d in [(1.5, 2), (2.0, 3)]:
            direct = integrate_semiline(
                lambda r: r ** (d - 1) * (1.0 + r * r) ** (-n), rel_tol=1e-12
            )
            assert direct.converged
            pref = 2.0 * PI ** (d / 2.0) / math.exp(specfun.ln_gamma(d / 2.0))
            got = bessel_norm_n(BesselTrial(1.0, n, d))
            assert_rel(got, pref * direct.value, 1e-10, f"k-space check (n={n}, d={d})")


class TestSquareNorm:
    @pytest.mark.parametrize("lam", [0.6, 1.0, 1.2, 2.0])
    def test_case_11_rescaling_identity(self, lam):
        # f^2 = sqrt(pi/2) f_(2 lam), so |f^2|_1^2 = (pi^2/4)(2 lam + 1/(2 lam))
        got = bessel_square_norm(BesselTrial(lam, 1.0, 1))
        assert_rel(got, PI**2 / 4.0 * (2.0 * lam + 0.5 / lam), 1e-9)
        assert_rel(got, square_norm_closed_form(BesselTrial(lam, 1.0, 1)), 1e-9)

    @pytest.mark.parametrize("lam", [0.6, 1.0, 1.2, 2.0])
    def test_case_23_rescaling_identity(self, lam):
        got = bessel_square_norm(BesselTrial(lam, 2.0, 3))
        ref = PI**3 / 64.0 * (10.0 * lam + 1.0 / lam + 1.0 / (8.0 * lam**3))
        assert_rel(got, ref, 1e-9)

    def test_case_22_general_vs_arcsinh(self):
        trial = BesselTrial(1.35, 2.0, 2)
        general = square_norm_direct(trial.lam, trial.n, trial.d, 1e-9)
        closed = square_norm_closed_form(trial)
        assert_rel(general, closed, 1e-7, "ArcSinh dual path")
        # frozen independent reference (series/FFT evaluation of the integral)
        assert_rel(general, 1.6164435946241, 1e-8)

    @pytest.mark.parametrize(
        "n,d,lam",
        [
            (2, 1, 1.2),
            (3, 1, 1.6),
            (2, 2, 0.8),
            (2, 2, 2.0),
            (3, 2, 1.5),
            (4, 2, 1.7),
            (2, 3, 1.1),
            (3, 3, 1.4),
            (6, 2, 2.2),
            (10, 1, 2.5),
        ],
    )
    def test_integer_n_against_mpmath(self, mp, n, d, lam):
        # the moment path against mpmath quadrature of the defining integral;
        # the tail s > 1, where the integrand falls like s^(-1-beta) with
        # beta = 2n - d, is mapped by s = v^(-1/beta) onto (0, 1]
        lam_, n_, hd = mp.mpf(lam), mp.mpf(n), mp.mpf(d) / 2

        def g(s):
            f = mp.hyp2f1(2 * n_ - hd, n_, n_ + 0.5, -s * s)
            return s ** (d - 1) * (1 + 4 * lam_**2 * s**2) ** n_ * f**2

        beta = 2 * n_ - d
        head = mp.quad(g, [0, 1 / (2 * lam_), 1] if 2 * lam > 1 else [0, 1])
        tail = mp.quad(lambda v: g(v ** (-1 / beta)) * v ** (-1 / beta - 1), [0, 1]) / beta
        pref = 2 * mp.pi**hd / (mp.gamma(hd) * lam_**d)
        ref = pref * (mp.gamma(2 * n_ - hd) / mp.gamma(2 * n_)) ** 2 * (head + tail)
        got = bessel_square_norm(BesselTrial(lam, float(n), d))
        assert_rel(got, float(ref), 1e-12, f"moments vs mpmath ({n},{d},{lam})")

    def test_moment_path_matches_direct(self):
        for lam, n, d in [(0.8, 2.0, 2), (1.35, 2.0, 2), (1.5, 3.0, 1), (1.2, 2.0, 3)]:
            trial = BesselTrial(lam, n, d)
            fast = bessel_square_norm(trial)  # moment route for integer n
            slow = square_norm_direct(lam, n, d, 1e-9)
            assert_rel(fast, slow, 1e-8, f"moments vs direct ({lam},{n},{d})")

    def test_rational_reduction_d1_n1(self):
        # F(3/2, 1, 3/2; -s^2) = (1 + s^2)^(-1) exactly
        for s in [0.3, 1.0, 5.0, 20.0]:
            assert_rel(
                specfun.hyp2f1(1.5, 1.0, 1.5, -s * s), 1.0 / (1.0 + s * s), 1e-12
            )

    def test_rational_reduction_d3_n2(self):
        # F(5/2, 2, 5/2; -s^2) = (1 + s^2)^(-2) exactly
        for s in [0.3, 1.0, 5.0, 20.0]:
            assert_rel(
                specfun.hyp2f1(2.5, 2.0, 2.5, -s * s), (1.0 + s * s) ** (-2), 1e-12
            )


class TestRatioAndLower:
    def test_ratio_111_closed_form(self):
        lam = 1.535
        expected = math.sqrt(2.0 * lam + 0.5 / lam) / (lam + 1.0 / lam)
        assert_rel(bessel_ratio(lam, 1.0, 1.0, 1), expected, 1e-9)
        assert bessel_ratio(lam, 1.0, 1.0, 1) > 0.84

    def test_ratio_222(self):
        assert bessel_ratio(1.35, 2.0, 2.0, 2) > 0.36
        assert_rel(bessel_ratio(1.35, 2.0, 2.0, 2), 0.36013683830507174, 1e-8)

    def test_ratio_223(self):
        assert bessel_ratio(1.31, 2.0, 2.0, 3) > 0.24
        assert_rel(bessel_ratio(1.31, 2.0, 2.0, 3), 0.24700766135724129, 1e-8)

    def test_lower_111(self):
        bound, lam_star = bessel_lower(1.0, 1.0, 1)
        assert abs(lam_star - LAMBDA_STAR_111) < 1e-4
        assert bound > 0.84
        assert_rel(bound, 0.8427991190195141, 1e-8)

    def test_lower_222(self):
        bound, lam_star = bessel_lower(2.0, 2.0, 2)
        assert 1.30 <= lam_star <= 1.40
        assert bound > 0.36

    def test_lower_223(self):
        bound, lam_star = bessel_lower(2.0, 2.0, 3)
        assert 1.26 <= lam_star <= 1.36
        assert bound > 0.24

    def test_lower_below_upper(self):
        for n, a, d in [(1.0, 1.0, 1), (2.0, 2.0, 2), (2.0, 2.0, 3), (3.0, 2.0, 2)]:
            bound, _ = bessel_lower(n, a, d)
            assert bound <= upper_bound(n, a, d) * (1.0 + 1e-9)

    def test_regime_guard(self):
        with pytest.raises(DomainError):
            bessel_lower(1.0, 2.0, 2)  # n < a

    def test_detail_exposes_warnings_tuple(self):
        _, _, warnings = bessel_lower_detail(1.0, 1.0, 1)
        assert isinstance(warnings, tuple)

    def test_noninteger_ratio_frozen_references(self):
        # frozen from 25-digit quadrature of the defining radial integrals
        for (lam, n, a, d), ref in [
            ((1.7472, 2.5, 2.0, 2), 0.427610414835),
            ((1.9, 1.5, 1.2, 1), 0.850698923916),
            ((1.2, 3.3, 2.1, 3), 0.205865201666),
        ]:
            assert_rel(bessel_ratio(lam, n, a, d), ref, 1e-9, f"ratio {(lam, n, a, d)}")

    def test_large_n_maximizer_expands_bracket(self):
        # at n = 20 the maximizing rescale factor sits beyond the default
        # (0.2, 5) bracket; the search must expand to reach it
        bound, lam_star = bessel_lower(20.0, 2.0, 3)
        assert lam_star > 5.0
        assert bound == pytest.approx(24.268, rel=1e-2)


def _clear_rules():
    bessel_direct._rule.cache_clear()
    bessel_direct._scan.cache_clear()


@pytest.fixture
def f_nodes(monkeypatch):
    """(n, d, s, rel_tol) of every node at which the direct square norm
    evaluates F, starting from no kept quadrature rules."""
    nodes = []
    real = bessel_direct._log_f
    _clear_rules()

    def counting(n, d, s, rel_tol):
        nodes.extend((n, d, float(si), rel_tol) for si in s)
        return real(n, d, s, rel_tol)

    monkeypatch.setattr(bessel_direct, "_log_f", counting)
    yield nodes
    _clear_rules()


class TestFTable:
    def test_moment_set_sums_each_node_once(self, monkeypatch):
        arrays = []
        real = bessel_direct._log_f

        def counting(n, d, s, rel_tol):
            arrays.append(np.array(s))
            return real(n, d, s, rel_tol)

        monkeypatch.setattr(bessel_direct, "_log_f", counting)
        _clear_rules()
        bessel_direct.log_square_moments.cache_clear()
        bessel_direct.log_square_moments(12, 2, 1e-11)
        nodes = np.concatenate(arrays).tolist()
        assert len(nodes) == len(set(nodes))
        # the 13 moments share one adaptive pass; F comes in arrays of the
        # scan nodes or of whole panels (431 nodes in 7 calls)
        assert all(a.size >= 15 for a in arrays)
        assert len(arrays) < 12 and len(nodes) > 20 * len(arrays)

    def test_ratio_same_cold_and_warm(self, f_nodes):
        lam, n, a, d = 1.9, 1.5, 1.2, 1
        cold = bessel_ratio(lam, n, a, d)
        cold_nodes = len(f_nodes)
        _clear_rules()
        bessel_ratio(1.3, n, a, d)  # as in one maximization over lam
        bessel_ratio(2.4, n, a, d)
        del f_nodes[:]
        warm = bessel_ratio(lam, n, a, d)
        assert warm == cold
        assert len(f_nodes) < cold_nodes  # the rules of the other lam were reused

    def test_maximization_lam_share_nodes(self, f_nodes):
        # every lam reads one of a few lam-free rules; with a quadrature of
        # its own each lam summed F afresh (8921 nodes)
        bessel_lower_detail(2.8, 1.05, 1)
        assert len(f_nodes) < 1500

    @pytest.mark.parametrize("first,second", [(1e-9, 1e-7), (1e-7, 1e-9)])
    def test_table_not_reused_across_tolerances(self, f_nodes, first, second):
        trial = BesselTrial(1.9, 1.5, 1)
        cold = bessel_square_norm(trial, rel_tol=second)
        cold_nodes = len(f_nodes)
        _clear_rules()
        bessel_square_norm(trial, rel_tol=first)
        del f_nodes[:]
        again = bessel_square_norm(trial, rel_tol=second)
        assert again == cold
        assert len(f_nodes) == cold_nodes
        assert {tol for *_, tol in f_nodes} == {second * 1e-2}


def _mp_log_f(mp, n, d, s):
    n = mp.mpf(n)
    return float(mp.log(mp.hyp2f1(2 * n - mp.mpf(d) / 2, n, n + 0.5, -mp.mpf(s) ** 2)))


class TestFKernels:
    @pytest.mark.parametrize("delta", [0.05, 0.2, 0.95, 1.98, 0.5, 1.0, 2.0])
    def test_connection_formula_against_mpmath(self, mp, delta):
        # delta = n - d/2 near an integer cancels the two terms in part, an
        # integer delta takes the logarithmic case (DLMF 15.8.8)
        rng = random.Random(int(delta * 100))
        rel_tol = 1e-11
        for d in (1, 2, 3):
            n = d / 2.0 + delta + rng.choice((0, 1, 3))
            if n == round(n):
                continue  # integer n takes the moment path
            s = np.exp(np.sort([rng.uniform(math.log(3.0), math.log(1e6)) for _ in range(8)]))
            log_f, err = bessel_direct._log_f_connection(n, d, s, rel_tol)
            assert np.all(err <= rel_tol), (n, d, s, err)
            for si, lf, bound in zip(s, log_f, err):
                assert abs(lf - _mp_log_f(mp, n, d, si)) <= bound, (n, d, si)

    def test_batched_f_equals_scalar_bit_for_bit(self):
        rng = random.Random(11)
        for _ in range(12):
            d = rng.choice((1, 2, 3))
            n = rng.uniform(d / 2.0 + 0.05, 12.0)
            a, b, c = bessel_direct._hyp_params(n, d)
            s = np.array([rng.uniform(1e-3, 3.0) for _ in range(15)])
            vals, errs = specfun.hyp2f1_rows(a, b, c, -s * s, 1e-11, 120_000)
            for si, val, err in zip(s.tolist(), vals.tolist(), errs.tolist()):
                assert (val, err) == specfun.hyp2f1_with_error(
                    a, b, c, -si * si, 1e-11, 120_000
                )

    @pytest.mark.parametrize("n", [12, 23])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batched_f_second_branch_equals_scalar(self, monkeypatch, n, d):
        # at integer n the first Pfaff branch cancels at most nodes below
        # s = 3; the second, summed as rows too, certifies them, so no node
        # takes the scalar call and every entry is still the scalar's float
        a, b, c = bessel_direct._hyp_params(float(n), d)
        z = -np.linspace(0.01, 2.99, 60) ** 2
        scalar = [specfun.hyp2f1_with_error(a, b, c, zi, 1e-11, 600_000) for zi in z.tolist()]
        calls = []
        real = specfun.hyp2f1_with_error
        monkeypatch.setattr(
            specfun, "hyp2f1_with_error", lambda *args: calls.append(args) or real(*args)
        )
        vals, errs = specfun.hyp2f1_rows(a, b, c, z, 1e-11, 600_000)
        assert np.array_equal(vals, [v for v, _ in scalar])
        assert np.array_equal(errs, [e for _, e in scalar])
        assert calls == []

    @pytest.mark.parametrize(
        "n,d,lam,ref",
        [
            (1.05, 1, 1.6618480718181483, 7.53756488868388),
            (1.2, 1, 1.9863787972295897, 6.17239637678875),
        ],
    )
    def test_square_norm_near_half_d_against_mpmath(self, n, d, lam, ref):
        # references from mpmath quadrature of the defining integral; n is
        # within 0.55 and 0.7 of d/2, where the far tail used to cost 1e5
        # series terms per node
        got = bessel_square_norm(BesselTrial(lam, n, d))
        assert_rel(got, ref, 1e-12)
