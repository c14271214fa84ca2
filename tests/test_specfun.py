import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sobprod import specfun
from sobprod.errors import DomainError, NonConvergenceError
from sobprod.numerics import integrate_semiline

from conftest import assert_abs, assert_rel, rel_err
from reference_formulas import e_power, imbedding_constant


# ---------------------------------------------------------------------------
# ln_gamma / e_power
# ---------------------------------------------------------------------------


class TestLnGamma:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.5, math.log(math.sqrt(math.pi))),
            (1.0, 0.0),
            (5.0, math.log(24.0)),
        ],
    )
    def test_reference_points(self, x, expected):
        assert_abs(specfun.ln_gamma(x), expected, 1e-13)

    def test_gamma_accuracy_over_range(self):
        # rel error of exp(ln_gamma) stays at the 1e-13 level wherever
        # Gamma itself is representable; beyond that log Gamma exceeds 700
        # and a double return value is ulp-limited, so allow two ulp
        for x in [1e-3, 0.01, 0.1, 0.37, 1.5, 2.0, 10.0, 50.0, 100.0]:
            assert rel_err(math.exp(specfun.ln_gamma(x)), math.gamma(x)) < 1e-13
        for x in [150.0, 170.0, 250.0, 1000.0]:
            ref = math.lgamma(x)
            assert_abs(specfun.ln_gamma(x), ref, max(1e-13, 4.5e-16 * ref))

    def test_digamma_against_mpmath(self, mp):
        for x in [0.05, 0.5, 1.0, 1.5, 2.7, 19.9, 20.0, 101.5, 1e4]:
            tol = 1e-14 * (1.0 + abs(math.log(x)))
            assert_abs(specfun.digamma(x), float(mp.digamma(x)), tol)

    def test_recurrence(self):
        # Gamma(x + 1) = x Gamma(x) across half-integers up to 20.5
        for k in range(21):
            x = 0.5 + k
            lhs = math.exp(specfun.ln_gamma(x + 1.0))
            rhs = x * math.exp(specfun.ln_gamma(x))
            assert_rel(lhs, rhs, 1e-12, f"recurrence at x={x}")

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.ln_gamma(0.0)
        with pytest.raises(DomainError):
            specfun.ln_gamma(-1.5)


class TestEPower:
    def test_endpoint(self):
        assert e_power(0.0) == 1.0

    def test_values(self):
        assert e_power(1.0) == 1.0
        assert_rel(e_power(0.5), 1.0 / math.sqrt(2.0), 1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            e_power(-1e-9)


# ---------------------------------------------------------------------------
# hyp2f1
# ---------------------------------------------------------------------------


class TestHyp2f1:
    @pytest.mark.parametrize("a,b,c", [(0.3, 1.7, 2.1), (2.0, 2.0, 3.5), (5.0, 1.0, 1.2)])
    def test_empty_series(self, a, b, c):
        assert specfun.hyp2f1(a, b, c, 0.0) == 1.0

    def test_log_identity(self):
        # F(1, 1, 2; z) = -log(1 - z)/z
        assert_rel(specfun.hyp2f1(1.0, 1.0, 2.0, -1.0), math.log(2.0), 1e-12)

    def test_worked_closed_form_value(self):
        assert_rel(specfun.hyp2f1(3.0, 2.0, 2.5, -1.0), 0.19294341565786653, 1e-11)

    def test_pfaff_argument_symmetry(self):
        # same function via the two Pfaff branches (swapped parameter slots)
        for a, b, c in [(3.0, 2.0, 2.5), (1.3, 0.7, 2.2), (4.5, 2.0, 3.1)]:
            for z in [-0.1, -1.0, -7.5, -49.9]:
                assert_rel(
                    specfun.hyp2f1(a, b, c, z),
                    specfun.hyp2f1(b, a, c, z),
                    1e-9,
                    f"pfaff symmetry ({a},{b},{c};{z})",
                )

    def test_square_norm_parameter_family(self, mp):
        import mpmath

        for n, d in [(1, 1), (2, 2), (2, 3), (7.5, 2), (20, 3), (20, 2)]:
            a, b, c = 2 * n - d / 2, n, n + 0.5
            for s in (0.3, 1.0, 5.0, 30.0):
                ref = float(mpmath.hyp2f1(a, b, c, -s * s))
                got = specfun.hyp2f1(a, b, c, -s * s, rel_tol=1e-10)
                assert_rel(got, ref, 1e-10, f"2F1 family (n={n}, d={d}, s={s})")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.hyp2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            specfun.hyp2f1(1.0, 1.0, 2.0, 1.5)
        with pytest.raises(DomainError):
            specfun.hyp2f1(1.0, 1.0, -2.0, 0.5)

    def test_nonconvergence_is_flagged(self):
        # small parameter gap and a huge argument cannot be certified in few terms
        with pytest.raises(NonConvergenceError):
            specfun.hyp2f1(1.3, 1.0, 1.5, -1e12, rel_tol=1e-12, max_terms=2000)

    def test_value_beyond_double_range_is_flagged(self):
        # |F| ~ exp(18650): the Pfaff prefactor times the branch sum overflows
        with pytest.raises(NonConvergenceError, match="double range"):
            specfun.hyp2f1_with_error(-40.5, -0.5, 0.1, -1e200, 1e-11, 2000)

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (6.0, 7.0, 1.0, -2.0),
            (7.0, 7.0, 1.0, -1.0),
            (5.0, 5.0, 1.0, -2.0),
            (5.0, 5.0, 1.8125, -1.125),
            (6.0, 6.0, 0.75, -2.0),
            (8.0, 5.0, 3.6369186589237184, -18.4375),
            (3.615534617085766, 0.6158276801422129, 8.00637096052519, -4.5),
        ],
    )
    def test_falsifying_inputs_certified(self, mp, a, b, c, z):
        # inputs that falsified the random-parameter test: five whose Pfaff
        # branches both cancel in float, two where scipy is wrong.  The
        # returned bound must meet rel_tol and cover the actual error.
        val, err = specfun.hyp2f1_with_error(a, b, c, z, rel_tol=1e-11)
        ref = mp.hyp2f1(a, b, c, z)
        actual = float(abs(mp.mpf(val) - ref))
        assert err <= 1e-11 * abs(val)
        assert actual <= err, f"actual error {actual:.3e} > bound {err:.3e}"

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.6, max_value=12.0),
        st.floats(min_value=-30.0, max_value=0.8),
    )
    @settings(max_examples=80, deadline=None)
    # cancelling Pfaff branches whose float roundoff term used to fail rel_tol
    @example(6.0, 7.0, 1.0, -2.0)
    @example(7.0, 7.0, 1.0, -1.0)
    @example(5.0, 5.0, 1.0, -2.0)
    @example(5.0, 5.0, 1.8125, -1.125)
    @example(6.0, 6.0, 0.75, -2.0)
    # scipy off by 17 % and by 2.3e-9 relative
    @example(8.0, 5.0, 3.6369186589237184, -18.4375)
    @example(3.615534617085766, 0.6158276801422129, 8.00637096052519, -4.5)
    # a direct series whose tail met rel_tol before tail plus roundoff did
    @example(4.6023855562191445, 0.1, 0.6, 0.6)
    def test_against_scipy_random_parameters(self, mp, a, b, c, z):
        scipy_special = pytest.importorskip("scipy.special")
        ref = float(scipy_special.hyp2f1(a, b, c, z))
        # scipy is wrong on parts of this box; mpmath decides there
        mp_ref = float(mp.hyp2f1(a, b, c, z))
        if not math.isfinite(ref) or rel_err(ref, mp_ref) > 2e-9:
            ref = mp_ref
        if abs(ref) < 1e-290:
            return
        got = specfun.hyp2f1(a, b, c, z, rel_tol=1e-11)
        assert_rel(got, ref, 2e-9, f"2F1({a},{b},{c};{z})")


# ---------------------------------------------------------------------------
# bessel_k
# ---------------------------------------------------------------------------


def _k_half(x: float) -> float:
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)


def _k_three_halves(x: float) -> float:
    return _k_half(x) * (1.0 + 1.0 / x)


class TestBesselK:
    def test_half_integer_closed_forms(self):
        for x in [0.05, 0.3, 1.0, 2.0, 2.5, 7.0, 20.0, 50.0]:
            assert_rel(specfun.bessel_k(0.5, x), _k_half(x), 1e-10, f"K_1/2({x})")
            assert_rel(specfun.bessel_k(1.5, x), _k_three_halves(x), 1e-10, f"K_3/2({x})")

    def test_k_half_at_one(self):
        assert_rel(specfun.bessel_k(0.5, 1.0), 0.46106850444789456, 1e-12)

    def test_k1_at_one_vs_cosh_integral(self):
        # independent oracle: K_1(x) = int_0^inf exp(-x cosh t) cosh t dt
        def integrand(t):
            if t > 300.0:
                return 0.0
            c = math.cosh(t)
            return math.exp(-c) * c if c < 700.0 else 0.0

        res = integrate_semiline(integrand, rel_tol=1e-12)
        assert res.converged
        assert_rel(specfun.bessel_k(1.0, 1.0), res.value, 1e-11)
        assert_rel(specfun.bessel_k(1.0, 1.0), 0.60190723019723457, 1e-12)

    def test_against_scipy_grid(self):
        scipy_special = pytest.importorskip("scipy.special")
        for nu in [0.0, 0.2, 0.5, 1.0, 1.7, 2.5, 3.0, 4.4, 5.0]:
            for x in [1e-3, 0.1, 0.9, 2.0, 2.1, 5.0, 15.0, 50.0]:
                assert_rel(
                    specfun.bessel_k(nu, x),
                    float(scipy_special.kv(nu, x)),
                    1e-10,
                    f"K_{nu}({x})",
                )

    def test_overflow_signal(self):
        with pytest.raises(OverflowError):
            specfun.bessel_k(2.0, 1e-200)

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=80, deadline=None)
    # scipy's kv returns nan at subnormal orders
    @example(nu=2.2250738585e-313, x=1.0)
    def test_against_scipy_random_orders(self, mp, nu, x):
        scipy_special = pytest.importorskip("scipy.special")
        ref = float(scipy_special.kv(nu, x))
        if not math.isfinite(ref):
            ref = float(mp.besselk(nu, x))
        assert_rel(specfun.bessel_k(nu, x), ref, 1e-10, f"K_{nu}({x})")

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.bessel_k(1.0, 0.0)
        with pytest.raises(DomainError):
            specfun.bessel_k(1.0, -1.0)
        with pytest.raises(DomainError):
            specfun.bessel_k(-0.5, 1.0)
        with pytest.raises(DomainError):
            specfun.bessel_k(1.0, np.array([1.0, float("nan"), 3.0]))


def _cf_pair_scalar(mu: float, x: float) -> tuple[float, float]:
    """One float run of the Thompson-Barnett recurrence, stopping at its own
    convergence: the reference the array pass must reproduce bit for bit."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu * mu
    q = cc = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 10000):
        a -= 2 * (i - 1)
        cc = -a * cc / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += cc * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < 1e-16:
            break
    kmu = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    return kmu, kmu * (mu + x + 0.5 - a1 * h) / x


def _bessel_k_scalar(nu: float, x: float) -> float:
    nl = int(nu + 0.5)
    mu = nu - nl
    if x <= 2.0:
        kmu, k1 = specfun._bessel_k_pair_small(mu, x)
    else:
        kmu, k1 = _cf_pair_scalar(mu, x)
    for i in range(nl):
        kmu, k1 = k1, (mu + i + 1.0) * 2.0 / x * k1 + kmu
    return kmu


class TestBesselKArray:
    @pytest.fixture(scope="class")
    def xs(self):
        rng = np.random.default_rng(20260)
        return np.concatenate(
            [
                rng.uniform(1e-3, 2.0, 60),
                rng.uniform(2.0, 80.0, 240),
                [2.0, np.nextafter(2.0, 3.0), 1e-3, 150.0],
            ]
        )

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.2, 1.5, 2.5, 3.7])
    def test_array_equals_scalar_bit_for_bit(self, xs, nu):
        got = specfun.bessel_k(nu, xs)
        ref = np.array([_bessel_k_scalar(nu, float(x)) for x in xs])
        assert np.array_equal(got, ref)
        # a float call is a one-element call and returns a float
        one = [specfun.bessel_k(nu, float(x)) for x in xs[::10]]
        assert all(type(v) is float for v in one)
        assert np.array_equal(np.array(one), ref[::10])

    def test_shape_kept(self, xs):
        flat = specfun.bessel_k(1.2, xs[:240])
        assert np.array_equal(specfun.bessel_k(1.2, xs[:240].reshape(12, 20)), flat.reshape(12, 20))

    def test_overflow_in_an_array(self):
        with pytest.raises(OverflowError):
            specfun.bessel_k(2.0, np.array([1.0, 1e-200]))


# ---------------------------------------------------------------------------
# imbedding constants
# ---------------------------------------------------------------------------


class TestImbedding:
    def test_r_two_is_one(self):
        for n in [0.0, 0.5, 1.0, 3.7]:
            assert imbedding_constant(2.0, n, 2) == 1.0

    def test_r_inf_low_dim(self):
        assert_rel(
            imbedding_constant(math.inf, 1.0, 1), 1.0 / math.sqrt(2.0), 1e-13
        )

    def test_square_identity_spot(self):
        # S(4, a/2, d)^2 = (16/27)^(d/4) S_inf(a, d) at a = 2, d = 2
        assert_rel(imbedding_constant(4.0, 1.0, 2), 0.46600072098319043, 1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_square_identity_grid(self, d):
        from sobprod.bounds import s_const

        for a in [d / 2.0 + 0.6, math.floor(d / 2) + 1.0, 3.0]:
            lhs = imbedding_constant(4.0, a / 2.0, d) ** 2
            rhs = (16.0 / 27.0) ** (d / 4.0) * s_const(a, d)
            assert_rel(lhs, rhs, 1e-10, f"S4 identity a={a}, d={d}")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_product_identity_grid(self, d):
        # S(2a/l, a-l, d) S(2a/(a-l), l, d) = E(l, a, d) S(a, d)
        from sobprod.bounds import e_const, s_const

        for a in [d / 2.0 + 0.6, math.floor(d / 2) + 1.0, 3.0]:
            for ell in [0.0, a / 4.0, a / 2.0, 3.0 * a / 4.0, a]:
                r1 = math.inf if ell == 0.0 else 2.0 * a / ell
                r2 = math.inf if ell == a else 2.0 * a / (a - ell)
                lhs = imbedding_constant(r1, a - ell, d) * imbedding_constant(r2, ell, d)
                rhs = e_const(ell, a, d) * s_const(a, d)
                assert_rel(lhs, rhs, 1e-10, f"product identity (l={ell}, a={a}, d={d})")

    def test_inadmissible(self):
        with pytest.raises(DomainError):
            imbedding_constant(4.0, 0.0, 2)  # n = 0 admits only r = 2
        with pytest.raises(DomainError):
            imbedding_constant(math.inf, 1.0, 2)  # r = inf needs n > d/2
        with pytest.raises(DomainError):
            # 0 < n < d/2 requires r < d/(d/2 - n) = 4 here
            imbedding_constant(4.0, 0.5, 2)
        with pytest.raises(DomainError):
            imbedding_constant(1.5, 1.0, 2)  # r < 2
