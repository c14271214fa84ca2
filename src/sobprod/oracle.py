"""Grid/DFT oracle: independent discrete evaluation of Sobolev norms and
product ratios on a periodic box, used to validate the analytic formulas
and to search for better empirical lower bounds.

A function is sampled on a uniform grid over [-L, L)^d; the continuum
Fourier transform is approximated by a scaled FFT and norms become
weighted l^2 sums over the grid frequencies.  This approximates
whole-space norms only when the samples decay at the box boundary, which
every norm operation checks.

A radial trial is evaluated once per distinct lattice radius: every grid
point x = h j has |x|^2 = h^2 (j_1^2 + ... + j_d^2), so K_nu runs once on
the array of distinct integer sums and the grid gathers from that table.
A GridFunction's samples are read-only, so its transform, its decay check
and its norm per exponent are computed once and reused by every ratio that
reads them.  Each function is transformed the way its samples allow: real
samples (the Bessel trial, its square) through rfftn, whose half spectrum
counts each interior last-axis plane twice by Hermitian symmetry; the
Gaussian trial as d one-dimensional factors, whose transform is the outer
product of their 1-D transforms and whose dense samples are built only
when something reads them.  A norm whose FFT roundoff, weighted by
(1 + |k|^2)^n, is no longer small against it raises ResolutionError
instead of returning noise.

Nothing here proves anything: grid ratios validate the ordering of the
analytic bounds within a documented discretization tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import bounds, specfun
from .bounds import Regime
from .errors import DecayError, DomainError, ResolutionError

__all__ = [
    "Grid",
    "GridFunction",
    "default_grid",
    "sample_bessel_trial",
    "sample_gaussian_trial",
    "sobolev_norm",
    "product_ratio",
    "derivative_norm_check",
    "random_search_lower",
]

_DECAY_FACTOR = 1e-10
_EPS = 2.220446049250313e-16
# largest share of the weighted sum (the squared norm) the FFT roundoff
# floor may make up before the norm is reported unresolved
_ROUNDOFF_SHARE = 0.005

# defaults giving ~1% norm accuracy for the trial families (heavier in low d);
# the d=3 half width is set so exp(-lam L) trial tails clear the decay check
_DEFAULT_GRIDS = {1: (16384, 40.0), 2: (512, 25.0), 3: (128, 18.0)}
_D3_CAP = 128


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^d with N samples per axis."""

    d: int
    half_width: float
    points_per_axis: int

    def __post_init__(self) -> None:
        n = self.points_per_axis
        if self.d not in (1, 2, 3):
            raise DomainError(f"grid dimension must be 1, 2 or 3, got {self.d}")
        if self.half_width <= 0.0:
            raise DomainError(f"half_width must be positive, got {self.half_width}")
        if n < 16 or (n & (n - 1)) != 0:
            raise DomainError(f"points_per_axis must be a power of two >= 16, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @cached_property
    def axis(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points_per_axis)

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Angular frequencies spanning (-pi/h, pi/h] (Nyquist counted positive)."""
        n = self.points_per_axis
        k = 2.0 * math.pi * np.fft.fftfreq(n, d=self.spacing)
        k[n // 2] = -k[n // 2]
        return k

    @property
    def offsets(self) -> np.ndarray:
        """The integer j of each axis point x = h j (i - N/2 for x = -L + h i)."""
        return np.arange(self.points_per_axis) - self.points_per_axis // 2

    @property
    def lattice_sq(self) -> np.ndarray:
        """j_1^2 + ... + j_d^2 over the full grid: |x|^2 is h^2 times it."""
        j = self.offsets
        mesh = np.meshgrid(*([j * j] * self.d), indexing="ij", sparse=True)
        return sum(mesh)

    @cached_property
    def radius(self) -> np.ndarray:
        """|x| = sqrt(h^2 m) over the full grid, m = lattice_sq."""
        return np.sqrt(self.spacing * self.spacing * self.lattice_sq)

    @cached_property
    def k_squared(self) -> np.ndarray:
        mesh = np.meshgrid(*([self.k_axis] * self.d), indexing="ij", sparse=True)
        return sum(k * k for k in mesh)

    @cached_property
    def k_squared_half(self) -> np.ndarray:
        """|k|^2 on rfftn's half spectrum: the last axis keeps 0..N/2."""
        half = self.k_axis[: self.points_per_axis // 2 + 1]
        mesh = np.meshgrid(*([self.k_axis] * (self.d - 1) + [half]), indexing="ij", sparse=True)
        return sum(k * k for k in mesh)

    @cached_property
    def half_multiplicity(self) -> np.ndarray:
        """The full-spectrum points each last-axis plane of the half spectrum
        stands for: 1 at k = 0 and at the Nyquist plane, 2 between (a real
        function's transform at -k is the conjugate of the one at k)."""
        mult = np.full(self.points_per_axis // 2 + 1, 2.0)
        mult[0] = mult[-1] = 1.0
        return mult


def default_grid(d: int, points_per_axis: int | None = None, half_width: float | None = None) -> Grid:
    """Per-dimension default grid; d = 3 is capped at 128 points per axis."""
    n0, l0 = _DEFAULT_GRIDS[d]
    n = n0 if points_per_axis is None else points_per_axis
    if d == 3 and n > _D3_CAP:
        n = _D3_CAP
    return Grid(d, l0 if half_width is None else half_width, n)


class GridFunction:
    """Read-only samples on a grid, with the values derived from them kept:
    the transform, the decay check and the norm per exponent.

    Real samples stay float64 and go through rfftn: transform_sq is then
    the half spectrum (last axis k >= 0), which stands for the full one by
    Hermitian symmetry, each last-axis plane counted Grid.half_multiplicity
    times.  Complex samples go through fftn.  A separable function
    (GridFunction.separable) keeps one 1-D factor per axis; its transform,
    decay check and products with other separable functions come from the
    factors, and its dense values are built only when read.
    """

    def __init__(self, grid: Grid, values: np.ndarray) -> None:
        vals = np.ascontiguousarray(values, dtype=complex if np.iscomplexobj(values) else float)
        expected = (grid.points_per_axis,) * grid.d
        if vals.shape != expected:
            raise DomainError(f"samples shape {vals.shape} does not match grid {expected}")
        if not np.all(np.isfinite(vals.view(float))):
            raise DomainError("samples must be finite")
        vals.flags.writeable = False
        self.grid = grid
        self.factors: tuple[np.ndarray, ...] | None = None
        self.values = vals  # shadows the cached property, which serves separable functions
        self._norms: dict[float, float] = {}

    @classmethod
    def separable(cls, grid: Grid, factors: list[np.ndarray]) -> GridFunction:
        """The function f_1(x_1) f_2(x_2) ... f_d(x_d) from one factor per axis."""
        if len(factors) != grid.d:
            raise DomainError(f"{len(factors)} factors do not match grid dimension {grid.d}")
        kept = []
        for f in factors:
            f = np.array(f, dtype=complex if np.iscomplexobj(f) else float)
            if f.shape != (grid.points_per_axis,):
                raise DomainError(
                    f"factor shape {f.shape} does not match grid axis {grid.points_per_axis}"
                )
            f.flags.writeable = False
            kept.append(f)
        gf = cls.__new__(cls)
        gf.grid = grid
        gf.factors = tuple(kept)
        gf._norms = {}
        # every sample is finite when every factor and the product of their peaks are
        if not (all(np.all(np.isfinite(f)) for f in kept) and math.isfinite(gf._edge_and_peak[1])):
            raise DomainError("samples must be finite")
        return gf

    @cached_property
    def values(self) -> np.ndarray:
        """The dense samples of a separable function, built on first read."""
        vals = reduce(np.multiply.outer, self.factors)
        vals.flags.writeable = False
        return vals

    def __mul__(self, other: GridFunction) -> GridFunction:
        """The pointwise product, separable factor by factor when both are."""
        if self.grid != other.grid:
            raise DomainError("a product needs both functions on the same grid")
        if self.factors is not None and other.factors is not None:
            return GridFunction.separable(
                self.grid, [f * g for f, g in zip(self.factors, other.factors)]
            )
        return GridFunction(self.grid, self.values * other.values)

    def boundary_max(self) -> float:
        """max |f| over the faces of the box."""
        return self._edge_and_peak[0]

    @cached_property
    def _edge_and_peak(self) -> tuple[float, float]:
        """(boundary_max, max |f|) for the decay check; a separable
        function's come from its factors' ends and peaks."""
        if self.factors is None:
            edge = max(
                float(np.max(np.abs(np.take(self.values, i, axis=ax))))
                for ax in range(self.grid.d)
                for i in (0, -1)
            )
            return edge, float(np.max(np.abs(self.values)))
        ends = [max(abs(f[0]), abs(f[-1])) for f in self.factors]
        peaks = [float(np.max(np.abs(f))) for f in self.factors]
        edge = max(
            float(end) * math.prod(peaks[:i] + peaks[i + 1 :]) for i, end in enumerate(ends)
        )
        return edge, math.prod(peaks)

    @cached_property
    def transform_sq(self) -> np.ndarray:
        """|continuum Fourier transform|^2 on the grid frequencies: the half
        spectrum for real samples, the full one otherwise.

        The transform carries the (2 pi)^(-d/2) normalization and the h^d
        Riemann factor; the grid-offset phases drop because only the
        modulus enters the norms.
        """
        g = self.grid
        scale = g.spacing / math.sqrt(2.0 * math.pi)
        if self.factors is not None:
            return reduce(
                np.multiply.outer, [_modulus_sq(scale * np.fft.fft(f)) for f in self.factors]
            )
        if np.iscomplexobj(self.values):
            fhat = np.fft.fftn(self.values)
        else:
            fhat = np.fft.rfftn(self.values)
        fhat *= scale**g.d
        return _modulus_sq(fhat)


def _modulus_sq(z: np.ndarray) -> np.ndarray:
    """re^2 + im^2 of a complex array, without a complex product."""
    out = np.square(z.real)
    out += np.square(z.imag)
    return out


def _check_decay(gf: GridFunction) -> None:
    edge, peak = gf._edge_and_peak
    if peak == 0.0:
        return
    if edge > _DECAY_FACTOR * peak:
        raise DecayError(
            f"samples do not decay at the box boundary: edge/peak = "
            f"{edge / peak:.3g} > {_DECAY_FACTOR}; increase the half width"
        )


# ---------------------------------------------------------------------------
# trial samplers
# ---------------------------------------------------------------------------


def _bessel_radial_profile(lam: float, n: float, d: int, r: np.ndarray) -> np.ndarray:
    """f(lam x) on radii r: closed forms for the worked (n, d), else the
    Macdonald-function formula |z|^(n - d/2) K_(n - d/2)(|z|) / (2^(n-1) Gamma(n))."""
    z = lam * r
    if (n, d) == (1.0, 1):
        return math.sqrt(math.pi / 2.0) * np.exp(-z)
    if (n, d) == (2.0, 3):
        return math.sqrt(math.pi / 8.0) * np.exp(-z)
    out = np.empty_like(z)
    zero = z == 0.0
    zu = z[~zero]
    if (n, d) == (2.0, 2):
        out[zero] = 0.5  # z K_1(z) -> 1 as z -> 0
        out[~zero] = 0.5 * zu * specfun.bessel_k(1.0, zu)
        return out
    nu = n - d / 2.0
    log_norm = -(n - 1.0) * math.log(2.0) - specfun.ln_gamma(n)
    # finite limit: z^nu K_nu(z) -> 2^(nu-1) Gamma(nu)
    out[zero] = math.exp((nu - 1.0) * math.log(2.0) + specfun.ln_gamma(nu) + log_norm)
    scale = np.array([math.exp(nu * math.log(t) + log_norm) for t in zu.tolist()])
    out[~zero] = scale * specfun.bessel_k(nu, zu)
    return out


def sample_bessel_trial(lam: float, n: float, d: int, grid: Grid) -> GridFunction:
    """Sample the rescaled Bessel-potential trial on the grid (needs n > d/2)."""
    if grid.d != d:
        raise DomainError(f"grid dimension {grid.d} does not match d={d}")
    if not n > d / 2.0:
        raise DomainError(f"bessel trial needs n > d/2, got n={n}, d={d}")
    if not lam > 0.0:
        raise DomainError(f"lam must be positive, got {lam}")
    # one profile value per distinct radius, keyed by |j| in d = 1 (the
    # lattice square j^2 would make a sparse table) and by m = lattice_sq
    if d == 1:
        key = np.abs(grid.offsets)
    else:
        key = grid.lattice_sq
    present = np.zeros(int(key.max()) + 1, dtype=bool)
    present[key] = True
    keys = np.flatnonzero(present)
    m = keys * keys if d == 1 else keys
    table = np.empty(present.size)
    table[keys] = _bessel_radial_profile(lam, n, d, np.sqrt(grid.spacing * grid.spacing * m))
    return GridFunction(grid, table[key])


def sample_gaussian_trial(p: float, sigma: float, d: int, grid: Grid) -> GridFunction:
    """Sample exp(i p x_1) exp(-(sigma/2)|x|^2), checking the grid resolves
    it, as the separable product of exp(i p x_1) exp(-(sigma/2) x_1^2) and
    exp(-(sigma/2) x_i^2) on the other axes."""
    if grid.d != d:
        raise DomainError(f"grid dimension {grid.d} does not match d={d}")
    if not (p > 0.0 and sigma > 0.0):
        raise DomainError(f"need p, sigma > 0, got p={p}, sigma={sigma}")
    nyquist = math.pi / grid.spacing
    if not p < 0.8 * nyquist:
        raise ResolutionError(
            f"frequency p = {p} violates p < 0.8 pi/h = {0.8 * nyquist:.4g}; "
            "increase points_per_axis"
        )
    if not grid.half_width**2 * sigma > 40.0:
        raise ResolutionError(
            f"width condition L^2 sigma > 40 violated "
            f"(L^2 sigma = {grid.half_width**2 * sigma:.4g}); increase half_width"
        )
    x = grid.axis
    envelope = np.exp(-0.5 * sigma * (x * x))
    return GridFunction.separable(grid, [np.exp(1j * p * x) * envelope] + [envelope] * (d - 1))


# ---------------------------------------------------------------------------
# norms and ratios
# ---------------------------------------------------------------------------


def sobolev_norm(gf: GridFunction, n: float) -> float:
    """Discrete H^n norm: sqrt(sum (1 + |k|^2)^n |Fhat|^2 dk^d), computed
    once per (function, exponent)."""
    if n < 0.0 or math.isnan(n):
        raise DomainError(f"sobolev_norm requires n >= 0, got {n}")
    norm = gf._norms.get(n)
    if norm is None:
        norm = gf._norms[n] = _weighted_norm(gf, n)
    return norm


def _weighted_norm(gf: GridFunction, n: float) -> float:
    """sobolev_norm without the cache.

    Raises ResolutionError when FFT roundoff, weighted by (1 + |k|^2)^n,
    could make up more than _ROUNDOFF_SHARE of the weighted sum.  The
    roundoff floor per coefficient is eps sqrt(log2 N^d) times the rms
    coefficient (a random walk over the butterfly stages).  On Gaussians,
    whose true transform near k_max is far below it, it sits 3x to 5x
    above the noise the FFT leaves there, on all five grids the CLI uses.
    """
    _check_decay(gf)
    g = gf.grid
    dk = math.pi / g.half_width
    tsq = gf.transform_sq
    size = g.points_per_axis**g.d
    if tsq.size == size:
        weights = 1.0 + g.k_squared
        weights **= n
        tsq_sum = float(tsq.sum())
    else:  # real samples: the half spectrum, each plane counted by its multiplicity
        mult = g.half_multiplicity
        weights = 1.0 + g.k_squared_half
        weights **= n
        weights *= mult
        tsq_sum = float((tsq @ mult).sum())
    floor_sq = _EPS**2 * math.log2(size) * (tsq_sum / size) * float(weights.sum())
    weights *= tsq
    norm_sq = float(weights.sum())
    if floor_sq > _ROUNDOFF_SHARE * norm_sq:
        k_max = math.sqrt(g.d) * math.pi / g.spacing
        raise ResolutionError(
            f"the grid cannot resolve n = {n:g}: FFT roundoff weighted by "
            f"(1 + |k|^2)^n up to k_max = {k_max:.4g} has the floor "
            f"{math.sqrt(floor_sq * dk**g.d):.3g}, {floor_sq / norm_sq:.2%} of the squared "
            f"norm {math.sqrt(norm_sq * dk**g.d):.3g}^2 (limit {_ROUNDOFF_SHARE:.1%}); "
            "lower n or use fewer points per axis"
        )
    return math.sqrt(norm_sq * dk**g.d)


def product_ratio(f: GridFunction, g: GridFunction, n: float, a: float) -> float:
    """Discrete ratio |fg|_n / denominator for the regime of (n, a, d).

    Low regime: denominator |f|_a |g|_n.  High regime: the max of
    |f|_a |g|_n and |f|_n |g|_a.
    """
    regime = bounds.classify_regime(n, a, f.grid.d)
    num = sobolev_norm(f * g, n)
    if regime is Regime.LOW:
        den = sobolev_norm(f, a) * sobolev_norm(g, n)
    else:
        den = max(
            sobolev_norm(f, a) * sobolev_norm(g, n),
            sobolev_norm(f, n) * sobolev_norm(g, a),
        )
    return num / den


def derivative_norm_check(gf: GridFunction) -> float:
    """H^1 norm in derivative form (d = 1 only): sqrt(|f|_L2^2 + |f'|_L2^2)
    with a spectral derivative; agrees with sobolev_norm(gf, 1) to roundoff."""
    if gf.grid.d != 1:
        raise DomainError("derivative-form norm implemented for d = 1 only")
    _check_decay(gf)
    g = gf.grid
    h = g.spacing
    l2_sq = float((np.abs(gf.values) ** 2).sum()) * h
    fhat = np.fft.fft(gf.values)
    deriv = np.fft.ifft(1j * g.k_axis * fhat)
    d_sq = float((np.abs(deriv) ** 2).sum()) * h
    return math.sqrt(l2_sq + d_sq)


# ---------------------------------------------------------------------------
# seeded random search
# ---------------------------------------------------------------------------


def _random_candidate(rng: np.random.Generator, grid: Grid) -> GridFunction:
    """Band-limited random function: Gaussian-enveloped random spectral
    coefficients, tapered in position space so the decay check passes."""
    shape = (grid.points_per_axis,) * grid.d
    kappa = float(rng.uniform(0.5, 3.0))
    envelope = np.exp(-grid.k_squared / (2.0 * kappa * kappa))
    coeff = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * envelope
    vals = np.fft.ifftn(coeff)
    taper = np.exp(-(grid.radius / (grid.half_width / 2.5)) ** 8)
    vals = vals * taper
    peak = float(np.max(np.abs(vals)))
    return GridFunction(grid, vals / peak)


def random_search_lower(
    n: float,
    a: float,
    d: int,
    budget: int = 200,
    seed: int = 0,
    grid: Grid | None = None,
) -> tuple[float, dict]:
    """Seeded stochastic search for large empirical product ratios.

    Starts from random band-limited candidates (plus the analytic trial
    witnesses where available) and hill-climbs by perturbing one spectral
    coefficient block at a time, keeping improvements.  Deterministic for
    a fixed seed; budget counts ratio evaluations.
    """
    regime = bounds.classify_regime(n, a, d)
    if d not in (1, 2):
        raise DomainError(f"random search supports d in (1, 2), got {d}")
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    if grid is None:
        grid = Grid(1, 30.0, 4096) if d == 1 else Grid(2, 20.0, 256)
    rng = np.random.default_rng(seed)

    evals = 0
    best_ratio = -math.inf
    best_desc: dict = {}

    def consider(f: GridFunction, desc: dict) -> bool:
        nonlocal evals, best_ratio, best_desc
        if evals >= budget:
            return False
        evals += 1
        try:
            r = product_ratio(f, f, n, a)
        except (DecayError, DomainError):
            return False
        if r > best_ratio:
            best_ratio = r
            best_desc = desc
            return True
        return False

    # analytic witnesses first
    state: GridFunction | None = None
    if regime is Regime.HIGH and n > d / 2.0:
        for lam in (1.3, 1.5):
            w = sample_bessel_trial(lam, n, d, grid)
            if consider(w, {"kind": "bessel_witness", "lam": lam, "n": n, "d": d}):
                state = w
    try:
        p0 = math.sqrt(max(n + a, 2.0))
        sigma0 = max(50.0 / grid.half_width**2, 1.0 / (n + a))
        w = sample_gaussian_trial(p0, sigma0, d, grid)
        if consider(w, {"kind": "gaussian_witness", "p": p0, "sigma": sigma0}):
            state = w
    except ResolutionError:
        pass

    k_norm = np.sqrt(grid.k_squared)
    hat_of, hat = None, None  # the last base transformed, and its transform
    while evals < budget:
        cand = _random_candidate(rng, grid)
        seeded = consider(cand, {"kind": "random", "seed": seed, "eval": evals})
        base = cand if seeded or state is None else state
        # local coordinate refinement: rescale one spectral shell of base
        for _ in range(min(10, budget - evals)):
            shell = float(rng.uniform(0.2, 3.0))
            gain = float(rng.uniform(0.7, 1.4))
            if base is not hat_of:
                hat_of, hat = base, np.fft.fftn(base.values)
            mask = np.abs(k_norm - shell) < 0.5
            newf = GridFunction(grid, np.fft.ifftn(np.where(mask, hat * gain, hat)))
            if consider(newf, {"kind": "hillclimb", "seed": seed, "eval": evals}):
                base = state = newf
        if state is None:
            state = base

    return best_ratio, best_desc
