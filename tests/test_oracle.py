import io
import math
import re
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from sobprod import oracle, specfun
from sobprod.bessel_lb import BesselTrial, bessel_norm_n
from sobprod.bounds import BoundQuery, best_bounds, upper_bound
from sobprod.cli import main
from sobprod.errors import DecayError, DomainError, ResolutionError
from sobprod.fourier_lb import GaussianTrial, gaussian_norm_sq
from sobprod.oracle import (
    Grid,
    GridFunction,
    default_grid,
    derivative_norm_check,
    product_ratio,
    random_search_lower,
    sample_bessel_trial,
    sample_gaussian_trial,
    sobolev_norm,
)

from conftest import assert_rel

PI = math.pi
LAMBDA_STAR_111 = math.sqrt(9.0 + math.sqrt(97.0)) / (2.0 * math.sqrt(2.0))


@pytest.fixture(scope="module")
def grid1():
    return default_grid(1)


@pytest.fixture(scope="module")
def grid2():
    return default_grid(2)


# the three default grids and the two random-search grids
ALL_GRIDS = (
    default_grid(1),
    default_grid(2),
    default_grid(3),
    Grid(1, 30.0, 4096),
    Grid(2, 20.0, 256),
)


def _radius_from_axis(grid):
    mesh = np.meshgrid(*([grid.axis] * grid.d), indexing="ij", sparse=True)
    return np.sqrt(sum(x * x for x in mesh))


def _bessel_trial_by_sorted_radii(lam, n, d, grid):
    """The Bessel trial sampled the direct way: sort every grid radius,
    evaluate K_nu on the distinct values, scatter back."""
    z = lam * _radius_from_axis(grid)
    if (n, d) == (1.0, 1):
        return (math.sqrt(PI / 2.0) * np.exp(-z)).astype(complex)
    if (n, d) == (2.0, 3):
        return (math.sqrt(PI / 8.0) * np.exp(-z)).astype(complex)
    out = np.empty_like(z)
    zero = z == 0.0
    zu, inv = np.unique(z[~zero], return_inverse=True)
    if (n, d) == (2.0, 2):
        out[zero] = 0.5
        out[~zero] = 0.5 * z[~zero] * specfun.bessel_k(1.0, zu)[inv]
        return out.astype(complex)
    nu = n - d / 2.0
    log_norm = -(n - 1.0) * math.log(2.0) - specfun.ln_gamma(n)
    out[zero] = math.exp((nu - 1.0) * math.log(2.0) + specfun.ln_gamma(nu) + log_norm)
    scale = np.array([math.exp(nu * math.log(t) + log_norm) for t in zu])
    out[~zero] = (scale * specfun.bessel_k(nu, zu))[inv]
    return out.astype(complex)


class TestGrid:
    @pytest.mark.parametrize("grid", ALL_GRIDS, ids=str)
    def test_radius_from_lattice_equals_axis_radius(self, grid):
        assert np.array_equal(grid.radius, _radius_from_axis(grid))

    def test_invariants(self):
        g = Grid(1, 10.0, 64)
        assert g.spacing == 20.0 / 64
        # frequencies span (-pi/h, pi/h] with the Nyquist counted positive
        assert np.isclose(g.k_axis.max(), PI / g.spacing)
        assert g.k_axis.min() > -PI / g.spacing

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid(4, 10.0, 64)
        with pytest.raises(DomainError):
            Grid(1, 10.0, 48)  # not a power of two
        with pytest.raises(DomainError):
            Grid(1, 10.0, 8)  # below 16

    def test_d3_cap(self):
        g = default_grid(3, points_per_axis=256)
        assert g.points_per_axis == 128


class TestSampling:
    def test_gaussian_origin_and_modulus(self, grid1):
        f = sample_gaussian_trial(2.0, 0.5, 1, grid1)
        i0 = np.argmin(np.abs(grid1.axis))
        assert f.values[i0] == pytest.approx(1.0)
        assert np.allclose(
            np.abs(f.values), np.exp(-0.25 * grid1.axis**2), atol=1e-14
        )

    def test_gaussian_transform_peak_at_p(self, grid1):
        p = 2.5
        f = sample_gaussian_trial(p, 0.5, 1, grid1)
        spec = np.abs(np.fft.fftn(f.values))
        k_at_peak = grid1.k_axis[int(np.argmax(spec))]
        assert abs(k_at_peak - p) <= 2.0 * PI / (2.0 * grid1.half_width) + 1e-12

    def test_gaussian_resolution_errors(self):
        g = Grid(1, 10.0, 64)
        with pytest.raises(ResolutionError, match="p <"):
            sample_gaussian_trial(100.0, 1.0, 1, g)
        with pytest.raises(ResolutionError, match="L\\^2 sigma"):
            sample_gaussian_trial(1.0, 0.1, 1, g)

    def test_bessel_closed_forms(self, grid1):
        lam = 1.5
        f = sample_bessel_trial(lam, 1.0, 1, grid1)
        expected = math.sqrt(PI / 2.0) * np.exp(-lam * np.abs(grid1.axis))
        assert np.allclose(f.values.real, expected, rtol=1e-12)

    def test_bessel_22_spot_value(self):
        g = Grid(2, 8.0, 512)  # 1.0 lies on the axis exactly
        f = sample_bessel_trial(1.0, 2.0, 2, g)
        ix = int(np.argmin(np.abs(g.axis - 1.0)))
        iy = int(np.argmin(np.abs(g.axis)))
        assert_rel(float(f.values[ix, iy].real), 0.30095361509861734, 1e-10)

    @pytest.mark.parametrize(
        "grid,n,lam",
        [
            (ALL_GRIDS[0], 1.0, 1.3),
            (ALL_GRIDS[0], 3.0, 1.1),
            (ALL_GRIDS[1], 2.0, 1.35),
            (ALL_GRIDS[1], 3.0, 1.2),
            (ALL_GRIDS[2], 2.0, 1.4),
            (ALL_GRIDS[2], 4.0, 1.2),
            (ALL_GRIDS[3], 2.0, 1.4),
            (ALL_GRIDS[4], 2.0, 1.3),
            (ALL_GRIDS[4], 2.5, 1.7),
        ],
        ids=str,
    )
    def test_bessel_lattice_table_equals_sorted_radii(self, grid, n, lam):
        got = sample_bessel_trial(lam, n, grid.d, grid).values
        assert np.array_equal(got, _bessel_trial_by_sorted_radii(lam, n, grid.d, grid))

    def test_bessel_membership_guard(self, grid1):
        with pytest.raises(DomainError):
            sample_bessel_trial(1.0, 0.5, 1, grid1)

    def test_squaring_identity_on_grid(self, grid1):
        p, sigma = 2.0, 0.5
        f = sample_gaussian_trial(p, sigma, 1, grid1)
        f2 = sample_gaussian_trial(2.0 * p, 2.0 * sigma, 1, grid1)
        assert np.max(np.abs(f.values**2 - f2.values)) < 1e-13


class TestNorms:
    def test_parseval(self, grid1):
        f = sample_gaussian_trial(2.0, 0.5, 1, grid1)
        pos = math.sqrt(float((np.abs(f.values) ** 2).sum()) * grid1.spacing)
        assert_rel(sobolev_norm(f, 0.0), pos, 1e-12)

    def test_pure_gaussian_l2(self, grid1):
        sigma = 0.5
        mesh = np.exp(-0.5 * sigma * grid1.axis**2).astype(complex)
        f = GridFunction(grid1, mesh)
        assert_rel(sobolev_norm(f, 0.0), (PI / sigma) ** 0.25, 1e-10)

    def test_bessel_trial_matches_analytic(self, grid1):
        lam = LAMBDA_STAR_111
        f = sample_bessel_trial(lam, 1.0, 1, grid1)
        analytic = math.sqrt(bessel_norm_n(BesselTrial(lam, 1.0, 1)))
        assert_rel(sobolev_norm(f, 1.0), analytic, 0.01, "bessel grid norm")

    def test_squared_trial_matches_hypergeometric_formula(self, grid1):
        # grid norm of f^2 against the analytic squared-trial norm: an
        # independent check of the whole hypergeometric-integrand path
        from sobprod.bessel_lb import bessel_square_norm

        lam = 1.2
        f = sample_bessel_trial(lam, 1.0, 1, grid1)
        fsq = GridFunction(grid1, f.values * f.values)
        analytic = math.sqrt(bessel_square_norm(BesselTrial(lam, 1.0, 1)))
        assert_rel(sobolev_norm(fsq, 1.0), analytic, 0.01, "d=1 squared-trial norm")

        g2 = Grid(2, 25.0, 512)
        lam = 1.35
        f2 = sample_bessel_trial(lam, 2.0, 2, g2)
        fsq2 = GridFunction(g2, f2.values * f2.values)
        analytic2 = math.sqrt(bessel_square_norm(BesselTrial(lam, 2.0, 2)))
        assert_rel(sobolev_norm(fsq2, 2.0), analytic2, 0.01, "d=2 squared-trial norm")

    @pytest.mark.parametrize("d,p,sigma,n", [(1, 3.0, 0.5, 2.0), (2, 3.0, 0.5, 2.0)])
    def test_gaussian_matches_analytic(self, d, p, sigma, n):
        g = default_grid(d)
        f = sample_gaussian_trial(p, sigma, d, g)
        analytic = math.sqrt(gaussian_norm_sq(GaussianTrial(p, sigma, d), n))
        assert_rel(sobolev_norm(f, n), analytic, 0.005, "gaussian grid norm")

    def test_monotone_in_n(self, grid1):
        rng = np.random.default_rng(11)
        coeff = (rng.standard_normal(grid1.points_per_axis)
                 + 1j * rng.standard_normal(grid1.points_per_axis))
        coeff *= np.exp(-grid1.k_squared / 4.0)
        vals = np.fft.ifft(coeff) * np.exp(-((grid1.radius / 10.0) ** 8))
        f = GridFunction(grid1, vals)
        norms = [sobolev_norm(f, n) for n in (0.0, 0.5, 1.0, 1.7, 2.0, 3.0)]
        assert all(x <= y * (1.0 + 1e-12) for x, y in zip(norms, norms[1:]))

    def test_transform_kept_without_the_complex_product(self, grid1):
        f = sample_gaussian_trial(2.0, 0.5, 1, grid1)
        t = f.transform_sq
        assert t.dtype == np.float64 and t.base is None
        assert f.transform_sq is t

    def test_unresolved_exponent_raises(self, grid1):
        f = sample_bessel_trial(1.4, 20.0, 1, grid1)
        with pytest.raises(ResolutionError, match=r"n = 20: .*k_max = 643\.4 has the floor"):
            sobolev_norm(f, 20.0)
        assert sobolev_norm(f, 4.0) > 0.0  # low exponents stay resolved

    def test_half_spectrum_floor_equals_full_spectrum_floor(self, grid1):
        # the real samples' rfftn half spectrum and the same samples as
        # complex through fftn report the same roundoff floor (the norms
        # themselves are roundoff noise at this exponent and differ)
        f = sample_bessel_trial(1.4, 20.0, 1, grid1)
        floors = []
        for gf in (f, GridFunction(grid1, f.values.astype(complex))):
            with pytest.raises(ResolutionError) as err:
                sobolev_norm(gf, 20.0)
            floors.append(re.search(r"has the floor (\S+),", str(err.value)).group(1))
        assert floors[0] == floors[1]

    def test_unresolved_validation_exits_4(self, capsys):
        code = main(["oracle", "--n", "20", "--a", "5", "--d", "1", "--mode", "validate"])
        assert code == 4
        err = capsys.readouterr().err
        assert "cannot resolve n = 20" in err and "k_max" in err

    def test_decay_violation_raises(self):
        g = Grid(1, 10.0, 64)
        f = GridFunction(g, np.ones(64, dtype=complex))
        with pytest.raises(DecayError):
            sobolev_norm(f, 1.0)


def _norm_from_full_fftn(gf, n):
    """sobolev_norm from the full complex fftn of the same samples."""
    g = gf.grid
    fhat = np.fft.fftn(gf.values.astype(complex)) * (g.spacing / math.sqrt(2.0 * PI)) ** g.d
    weighted = (1.0 + g.k_squared) ** n * np.abs(fhat) ** 2
    return math.sqrt(float(weighted.sum()) * (PI / g.half_width) ** g.d)


class TestTransforms:
    @pytest.mark.parametrize(
        "grid,n,lam",
        [(Grid(1, 30.0, 1024), 1.0, 1.3), (Grid(2, 20.0, 128), 2.0, 1.35), (Grid(3, 18.0, 32), 2.0, 1.4)],
        ids=str,
    )
    def test_half_spectrum_norm_equals_full_fftn(self, grid, n, lam):
        f = sample_bessel_trial(lam, n, grid.d, grid)
        for gf in (f, f * f):
            assert gf.values.dtype == np.float64
            assert gf.transform_sq.shape[-1] == grid.points_per_axis // 2 + 1
            for exponent in (0.0, 1.0, 2.5):
                assert_rel(sobolev_norm(gf, exponent), _norm_from_full_fftn(gf, exponent), 1e-13)

    @pytest.mark.parametrize("grid", [ALL_GRIDS[0], Grid(2, 20.0, 128), Grid(3, 12.0, 32)], ids=str)
    def test_separable_gaussian_matches_its_dense_samples(self, grid):
        f = sample_gaussian_trial(2.0, 0.5, grid.d, grid)
        dense = GridFunction(grid, f.values)
        scale = (grid.spacing / math.sqrt(2.0 * PI)) ** grid.d
        expected = np.abs(np.fft.fftn(f.values) * scale) ** 2
        assert np.max(np.abs(f.transform_sq - expected)) <= 1e-13 * expected.max()
        (edge, peak), (dense_edge, dense_peak) = f._edge_and_peak, dense._edge_and_peak
        assert_rel(edge / peak, dense_edge / dense_peak, 1e-14)
        assert_rel(peak, dense_peak, 1e-14)

    def test_product_of_separable_functions_is_separable(self, grid2):
        f = sample_gaussian_trial(2.0, 0.5, 2, grid2)
        g = sample_gaussian_trial(1.0, 0.3, 2, grid2)
        fg = f * g
        assert fg.factors is not None and "values" not in vars(fg)
        assert np.allclose(fg.values, f.values * g.values, rtol=1e-14, atol=0.0)
        dense = f * GridFunction(grid2, g.values)
        assert dense.factors is None
        assert np.array_equal(dense.values, f.values * g.values)


class TestDerivativeNormCheck:
    def test_gaussian(self):
        g = Grid(1, 20.0, 4096)
        f = sample_gaussian_trial(1.0, 1.0, 1, g)
        assert_rel(derivative_norm_check(f), sobolev_norm(f, 1.0), 1e-10)

    def test_zero_function(self):
        g = Grid(1, 10.0, 64)
        f = GridFunction(g, np.zeros(64, dtype=complex))
        assert derivative_norm_check(f) == 0.0

    def test_kinked_trial_looser(self, grid1):
        f = sample_bessel_trial(1.0, 1.0, 1, grid1)
        assert_rel(derivative_norm_check(f), sobolev_norm(f, 1.0), 1e-6)

    def test_unsupported_dimension(self, grid2):
        f = sample_gaussian_trial(2.0, 0.5, 2, grid2)
        with pytest.raises(DomainError):
            derivative_norm_check(f)


class TestProductRatio:
    def test_bessel_witness_111(self, grid1):
        f = sample_bessel_trial(LAMBDA_STAR_111, 1.0, 1, grid1)
        ratio = product_ratio(f, f, 1.0, 1.0)
        assert ratio >= 0.83
        assert ratio <= upper_bound(1.0, 1.0, 1) * 1.02
        assert_rel(ratio, 0.8427991190195141, 0.02, "grid witness ratio")

    def test_equal_factors_high_regime_denominator(self, grid1):
        # with f = g the max denominator reduces to |f|_a |f|_n
        f = sample_bessel_trial(1.4, 2.0, 1, grid1)
        ratio = product_ratio(f, f, 2.0, 1.0)
        fg = GridFunction(grid1, f.values * f.values)
        direct = sobolev_norm(fg, 2.0) / (sobolev_norm(f, 1.0) * sobolev_norm(f, 2.0))
        assert_rel(ratio, direct, 1e-12)

    def test_grid_mismatch(self, grid1):
        other = Grid(1, 30.0, 4096)
        f = sample_gaussian_trial(2.0, 0.5, 1, grid1)
        g = sample_gaussian_trial(2.0, 0.5, 1, other)
        with pytest.raises(DomainError):
            product_ratio(f, g, 1.0, 1.0)

    def test_ratios_below_upper_matrix(self):
        # gaussian (and where defined, bessel) witnesses across regimes
        for d in (1, 2):
            g = default_grid(d) if d == 1 else Grid(2, 20.0, 256)
            sigma = max(50.0 / g.half_width**2, 0.2)
            for a in (float(d // 2 + 1), d / 2.0 + 0.7):
                trial = sample_gaussian_trial(3.0, sigma, d, g)
                for n in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
                    try:
                        BoundQuery(n, a, d)
                    except Exception:
                        continue
                    up = upper_bound(n, a, d)
                    assert product_ratio(trial, trial, n, a) <= up * 1.02


class TestRandomSearch:
    def test_deterministic(self):
        r1 = random_search_lower(1.0, 1.0, 1, budget=40, seed=123)
        r2 = random_search_lower(1.0, 1.0, 1, budget=40, seed=123)
        assert r1 == r2

    def test_beats_seeded_witness(self):
        g = Grid(1, 30.0, 4096)
        best, _ = random_search_lower(1.0, 1.0, 1, budget=60, seed=5, grid=g)
        f = sample_bessel_trial(1.5, 1.0, 1, g)
        assert best >= product_ratio(f, f, 1.0, 1.0) - 1e-12

    def test_111_reference_run(self):
        best, desc = random_search_lower(1.0, 1.0, 1, budget=200, seed=7)
        assert best >= 0.84
        assert best <= upper_bound(1.0, 1.0, 1) * 1.02
        assert "kind" in desc

    def test_validity_envelope_low_regime(self):
        best, _ = random_search_lower(1.0, 2.0, 2, budget=40, seed=3)
        assert best <= upper_bound(1.0, 2.0, 2) * 1.02

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            random_search_lower(2.0, 2.0, 3, budget=10, seed=0)


class TestWorkOnce:
    VALIDATE_423 = ["oracle", "--n", "4", "--a", "2", "--d", "3", "--mode", "validate", "--format", "json"]

    def test_validate_transforms_and_norms_each_function_once(self, monkeypatch):
        # (4, 2, 3): a Gaussian, a Bessel trial and their two squares, 12
        # norm requests over 7 distinct (function, exponent) pairs
        transforms, requests, evaluated = [], [], []
        transform = GridFunction.transform_sq.func
        norm, weighted = oracle.sobolev_norm, oracle._weighted_norm

        def transform_spy(gf):
            transforms.append(gf)  # held, so no two functions share an id
            return transform(gf)

        def norm_spy(gf, n):
            requests.append(n)
            return norm(gf, n)

        def weighted_spy(gf, n):
            evaluated.append((gf, n))
            return weighted(gf, n)

        spy = cached_property(transform_spy)
        spy.__set_name__(GridFunction, "transform_sq")
        monkeypatch.setattr(GridFunction, "transform_sq", spy)
        monkeypatch.setattr(oracle, "sobolev_norm", norm_spy)
        monkeypatch.setattr(oracle, "_weighted_norm", weighted_spy)
        assert main(self.VALIDATE_423, out=io.StringIO()) == 0
        assert len(transforms) == 4 and len({id(gf) for gf in transforms}) == 4
        assert len(requests) == 12
        assert len(evaluated) == 7
        assert len({(id(gf), n) for gf, n in evaluated}) == 7

    def test_d3_validate_never_builds_the_gaussian_samples(self, monkeypatch):
        sampled = []
        sample = oracle.sample_gaussian_trial

        def sample_spy(*args):
            sampled.append(sample(*args))
            return sampled[-1]

        monkeypatch.setattr(oracle, "sample_gaussian_trial", sample_spy)
        assert main(self.VALIDATE_423, out=io.StringIO()) == 0
        assert len(sampled) == 1 and sampled[0].factors is not None
        assert "values" not in vars(sampled[0])

    def test_d3_validate_allocation_peak(self):
        # about 235 MB with complex samples and full complex transforms
        tracemalloc.start()
        try:
            assert main(self.VALIDATE_423, out=io.StringIO()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6
