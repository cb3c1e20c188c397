"""Local and partial maximal functions on grids, with weighted-integral
inequality verifiers.

Discretization: a grid function carries uniform axes; the discrete ball of
radius r at a point is the set of cells whose centers lie within r, and the
smallest "ball" is the cell itself (the r -> 0 limit of the continuum
average), so the maximal function dominates |f| pointwise.  Ball averages
are volume-weighted, i.e. plain means over included cells, computed by FFT
convolution with zero padding; grids should therefore extend one maximal
radius beyond the support of f so no mass is truncated.

The verifiers compare both sides of the weighted maximal inequalities

    integral (M_delta f)^p d mu <= 3 C_p Lambda0 integral |f|^p d mu,
    C_p = 5^n 2^p p / (p-1),

    integral e^(theta M_delta f) d mu <= integral (1 + theta M_delta f) d mu
        + 6 5^n Lambda0 integral e^(2 theta |f|) d mu,

where Lambda0 is the ring-ratio constant of the weight: the supremum over
rings R_k = {(k-1) delta <= |x| <= k delta} of (sup of the weight on R_k)
over (inf of the weight on the delta-neighborhood of R_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray
from scipy.fft import irfftn, next_fast_len, rfftn

from .measure import ReferenceMeasure, grid_points

__all__ = [
    "GridFunction",
    "local_maximal",
    "partial_maximal",
    "ring_ratio_scan",
    "weight_ring_ratio",
    "maximal_lp_check",
    "maximal_exp_check",
    "pointwise_sobolev_check",
    "random_compact_grid",
    "random_maximal_checks",
    "RingScan",
    "MaximalReport",
    "ExpMaximalReport",
    "SobolevPointwiseReport",
]


@dataclass
class GridFunction:
    """Sampled function on a uniform tensor grid (1 or 2 axes)."""

    axes: tuple
    values: NDArray[np.float64]

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=np.float64) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.shape != tuple(len(a) for a in axes):
            raise ValueError("values shape does not match the axes")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        steps = []
        for a in axes:
            d = np.diff(a)
            if len(d) == 0 or d.min() <= 0 or (d.max() - d.min()) > 1e-9 * d.max():
                raise ValueError("axes must be uniform and increasing")
            steps.append(float(d[0]))
        object.__setattr__(self, "_steps", tuple(steps))
        object.__setattr__(self, "_weights", {})

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def steps(self) -> tuple:
        return self._steps

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self._steps))

    def points(self) -> NDArray[np.float64]:
        """All grid points, shape values.shape + (ndim,)."""
        return grid_points(self.axes)

    def _weight(self, m: ReferenceMeasure) -> NDArray[np.float64]:
        """``m.weight`` at every grid point, shape values.shape; computed once
        per measure, since every weighted integral on the grid reuses it."""
        if m not in self._weights:
            pts = self.points().reshape(-1, self.ndim)
            self._weights[m] = m.weight(pts).reshape(self.values.shape)
        return self._weights[m]


# ---------------------------------------------------------------------------
# maximal functions
# ---------------------------------------------------------------------------


def _check_positive(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _radii(step: float, delta: float) -> NDArray[np.float64]:
    if delta < step - 1e-12 * step:
        raise ValueError(f"delta={delta} is below the grid step {step}")
    j_max = int(np.floor(delta / step + 1e-9))
    return step * np.arange(1, j_max + 1)


@dataclass(frozen=True)
class _BallSpectra:
    """Spectra of the normalized discrete balls of every radius up to delta.

    ``spectra[i]`` is the ``rfftn`` over ``axes``, at the padded shape
    ``fshape`` that ``fftconvolve`` picks, of the ball mask of the i-th
    radius divided by its cell count; ``window`` is the slice of the padded
    inverse transform that ``fftconvolve(..., mode="same")`` keeps.
    """

    axes: tuple
    fshape: tuple
    window: tuple
    spectra: tuple


@lru_cache(maxsize=8)
def _ball_spectra(shape: tuple, step: float, delta: float, axes: tuple) -> _BallSpectra:
    radii = _radii(step, delta)
    j_max = int(round(radii[-1] / step))
    offs = np.arange(-j_max, j_max + 1).astype(float) * step
    dist = np.sqrt(sum(o**2 for o in np.meshgrid(*([offs] * len(axes)), indexing="ij")))
    mask_shape = [2 * j_max + 1 if a in axes else 1 for a in range(len(shape))]
    fshape = tuple(next_fast_len(shape[a] + 2 * j_max, True) for a in axes)
    window = tuple(slice(j_max, j_max + s) if a in axes else slice(None)
                   for a, s in enumerate(shape))
    spectra = []
    for r in radii:
        mask = (dist <= r + 1e-9 * step).astype(float).reshape(mask_shape)
        spectrum = rfftn(mask / mask.sum(), fshape, axes=axes)
        spectrum.flags.writeable = False  # shared by every caller of the cache
        spectra.append(spectrum)
    return _BallSpectra(axes, fshape, window, tuple(spectra))


def _ball_average(f_hat: NDArray, ball_hat: NDArray, balls: _BallSpectra) -> NDArray:
    avg = irfftn(f_hat * ball_hat, balls.fshape, axes=balls.axes)[balls.window]
    return np.maximum(avg, 0.0)


def _maximal(g: GridFunction, step: float, delta: float, axes: tuple) -> GridFunction:
    """Pointwise max of |g| and its averages over the balls in ``axes`` of
    every grid radius up to delta.  Each average equals
    ``fftconvolve(|g|, ball, mode="same")`` bit for bit: the same padded
    transforms, with the ball spectra cached per grid and |g| transformed
    once."""
    balls = _ball_spectra(g.values.shape, step, float(delta), axes)
    absvals = np.abs(g.values)
    f_hat = rfftn(absvals, balls.fshape, axes=axes)
    out = absvals  # the cell itself: r -> 0 ball
    for ball_hat in balls.spectra:
        out = np.maximum(out, _ball_average(f_hat, ball_hat, balls))
    return GridFunction(g.axes, out)


def local_maximal(g: GridFunction, delta: float) -> GridFunction:
    """Discrete local maximal function over balls of radius up to delta."""
    _check_positive("delta", delta)
    h = g.steps[0]
    if any(abs(s - h) > 1e-9 * h for s in g.steps):
        raise ValueError("local_maximal needs equal steps on all axes")
    return _maximal(g, h, delta, tuple(range(g.ndim)))


def partial_maximal(g: GridFunction, radius: float) -> GridFunction:
    """Maximal function over the last axis only, per slice of the others.

    Equals the one-axis local maximal applied slice-wise; defined for
    two-block grid functions f(x1, x2) where the maximal average runs over
    the x2 block.
    """
    if g.ndim < 2:
        raise ValueError("partial_maximal needs a 2-block grid function")
    _check_positive("radius", radius)
    return _maximal(g, g.steps[-1], radius, (g.ndim - 1,))


# ---------------------------------------------------------------------------
# ring-ratio constant of the weight
# ---------------------------------------------------------------------------


_RING_SAMPLES = 65  # radii per ring; its neighborhood gets three times as many


@dataclass
class RingScan:
    ratios: NDArray[np.float64]
    value: float
    diverging: bool


def ring_ratio_scan(
    profile: Callable[[NDArray], NDArray],
    delta: float,
    k_max: int = 200,
) -> RingScan:
    """Scan sup_k (sup profile on ring k) / (inf profile on its neighborhood).

    ``profile`` is the radial weight r -> w(r) > 0.  It must act
    elementwise on an array of radii of any shape: the scan evaluates it
    once on the ``(k_max, _RING_SAMPLES)`` ring samples and once on the
    ``(k_max, 3 _RING_SAMPLES)`` neighborhood samples.  A ring whose
    neighborhood infimum is not positive has ratio inf.  A scan whose
    running ratios are still growing at the cap is flagged as diverging
    (the constant is infinite, as for Gaussian-type weights).
    """
    _check_positive("delta", delta)
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    k = np.arange(1, k_max + 1)
    ring = np.linspace((k - 1) * delta, k * delta, _RING_SAMPLES, axis=1)
    hood = np.linspace(np.maximum(0.0, (k - 2) * delta), (k + 1) * delta,
                       3 * _RING_SAMPLES, axis=1)
    sup = np.max(profile(ring), axis=1)
    inf = np.min(profile(hood), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(inf <= 0, np.inf, sup / inf)
    value = float(np.max(ratios))
    tail = ratios[-min(10, k_max):]
    diverging = bool(
        not np.all(np.isfinite(ratios))
        or (np.all(np.diff(tail) > 0) and ratios[-1] >= value * (1 - 1e-12))
    )
    return RingScan(ratios=ratios, value=value, diverging=diverging)


def weight_ring_ratio(m: ReferenceMeasure, delta: float) -> float:
    """Ring-ratio constant of the polynomial weight, scanned over the
    default 200 rings once per ``(m.alpha, delta)``.

    For delta >= 1 this equals ``(1 + 4 delta^2)^alpha`` exactly (the
    supremum is attained on the innermost ring).
    """
    return _polynomial_ring_ratio(float(m.alpha), float(delta))


@lru_cache(maxsize=64)
def _polynomial_ring_ratio(alpha: float, delta: float) -> float:
    return ring_ratio_scan(lambda r: (1.0 + r * r) ** (-alpha), delta).value


# ---------------------------------------------------------------------------
# inequality verifiers
# ---------------------------------------------------------------------------


def _mu_integral(g: GridFunction, m: ReferenceMeasure, values: NDArray) -> float:
    return float(np.sum(values * g._weight(m)) * g.cell_volume)


@dataclass
class MaximalReport:
    lhs: float
    rhs_integral: float
    c_p: float
    lambda0: float
    bound: float
    ratio: float
    passed: bool


def maximal_lp_check(
    g: GridFunction,
    m: ReferenceMeasure,
    delta: float,
    p: float,
    maximal: Optional[GridFunction] = None,
) -> MaximalReport:
    """Verify the weighted L^p maximal inequality on a grid function.

    ``maximal`` may carry a precomputed ``local_maximal(g, delta)`` when the
    same maximal function is checked at several exponents.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    if m.dim != g.ndim:
        raise ValueError("measure dimension must match the grid")
    mf = maximal if maximal is not None else local_maximal(g, delta)
    lhs = _mu_integral(g, m, mf.values**p)
    rhs_int = _mu_integral(g, m, np.abs(g.values) ** p)
    c_p = 5.0**g.ndim * 2.0**p * p / (p - 1.0)
    lam0 = weight_ring_ratio(m, delta)
    bound = 3.0 * c_p * lam0 * rhs_int
    ratio = lhs / bound if bound > 0 else (0.0 if lhs == 0 else np.inf)
    return MaximalReport(lhs, rhs_int, c_p, lam0, bound, ratio,
                         bool(lhs <= bound * (1 + 1e-12)))


@dataclass
class ExpMaximalReport:
    lhs: float
    linear_term: float
    exp_term: float
    lambda0: float
    bound: float
    slack: float
    passed: bool


def maximal_exp_check(
    g: GridFunction,
    m: ReferenceMeasure,
    delta: float,
    theta: float,
    maximal: Optional[GridFunction] = None,
) -> ExpMaximalReport:
    """Verify the exponential-moment maximal inequality on a grid function."""
    if m.dim != g.ndim:
        raise ValueError("measure dimension must match the grid")
    mf = maximal if maximal is not None else local_maximal(g, delta)
    lhs = _mu_integral(g, m, np.exp(theta * mf.values))
    linear = _mu_integral(g, m, 1.0 + theta * mf.values)
    expterm = _mu_integral(g, m, np.exp(2.0 * theta * np.abs(g.values)))
    lam0 = weight_ring_ratio(m, delta)
    bound = linear + 6.0 * 5.0**g.ndim * lam0 * expterm
    return ExpMaximalReport(lhs, linear, expterm, lam0, bound, bound - lhs,
                            bool(lhs <= bound * (1 + 1e-12)))


@dataclass
class SobolevPointwiseReport:
    fitted_constant: float
    n_pairs: int
    radius: float


def pointwise_sobolev_check(
    g: GridFunction,
    grad_g: GridFunction,
    radius: float,
    n_pairs: int,
    rng: np.random.Generator,
) -> SobolevPointwiseReport:
    """Fit the smallest C in the partial pointwise Sobolev inequality.

    Over random same-slice pairs (x1, x2), (x1, y2) with |x2 - y2| <= radius,
    computes the largest ratio |f(x1,x2) - f(x1,y2)| / (|x2 - y2| *
    (M|grad|(x1,x2) + M|grad|(x1,y2))) where M is the partial maximal
    function of |grad| at the same radius.  A finite, radius-stable fit is
    the verifiable content; no specific value is asserted.
    """
    if g.ndim < 2:
        raise ValueError("needs a 2-block grid function")
    if g.values.shape != grad_g.values.shape:
        raise ValueError("gradient grid must match the function grid")
    mgrad = partial_maximal(grad_g, radius).values
    h2 = g.steps[-1]
    n2 = g.values.shape[-1]
    lead_shape = g.values.shape[:-1]
    max_offset = int(np.floor(radius / h2 + 1e-9))
    if max_offset < 1:
        raise ValueError("radius below the x2 grid step")
    lead_idx = tuple(
        rng.integers(0, s, size=n_pairs) for s in lead_shape
    )
    ia = rng.integers(0, n2, size=n_pairs)
    off = rng.integers(1, max_offset + 1, size=n_pairs) * rng.choice(
        [-1, 1], size=n_pairs
    )
    ib = np.clip(ia + off, 0, n2 - 1)
    keep = ib != ia
    fa = g.values[lead_idx + (ia,)][keep]
    fb = g.values[lead_idx + (ib,)][keep]
    ma = mgrad[lead_idx + (ia,)][keep]
    mb = mgrad[lead_idx + (ib,)][keep]
    dist = np.abs(ib - ia)[keep] * h2
    denom = dist * (ma + mb)
    num = np.abs(fa - fb)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(num == 0.0, 0.0, num / np.where(denom > 0, denom, np.inf))
    fitted = float(np.max(ratios)) if ratios.size else 0.0
    return SobolevPointwiseReport(fitted, int(keep.sum()), radius)


# ---------------------------------------------------------------------------
# randomized batches
# ---------------------------------------------------------------------------


def random_compact_grid(n: int, rng: np.random.Generator) -> GridFunction:
    """Random piecewise-constant function supported in B(2), grid B(2+delta)."""
    if n == 1:
        axis = np.linspace(-4.0, 4.0, 161)
        axes = (axis,)
    else:
        axis = np.linspace(-4.0, 4.0, 65)
        axes = (axis, axis)
    pts = np.meshgrid(*axes, indexing="ij")
    radius = np.sqrt(sum(p * p for p in pts))
    shape = radius.shape
    n_pieces = int(rng.integers(3, 9))
    vals = np.zeros(shape)
    for _ in range(n_pieces):
        lo = rng.uniform(0.0, 1.8)
        hi = lo + rng.uniform(0.05, 1.0)
        level = rng.normal(0.0, 1.0)
        ring = (radius >= lo) & (radius <= hi)
        sector = np.ones(shape, dtype=bool)
        if n == 2 and rng.random() < 0.7:
            ang = np.arctan2(pts[1], pts[0])
            a0 = rng.uniform(-np.pi, np.pi)
            width = rng.uniform(0.5, 2 * np.pi)
            sector = np.mod(ang - a0, 2 * np.pi) <= width
        vals = np.where(ring & sector, vals + level, vals)
    vals = np.where(radius <= 2.0, vals, 0.0)
    return GridFunction(axes, vals)


def random_maximal_checks(n: int, rng: np.random.Generator, n_funcs: int):
    """Both maximal inequalities on ``n_funcs`` ``random_compact_grid``
    functions against ``ReferenceMeasure(n, 1.5)``: per delta in (0.5, 1, 2),
    the L^p form at p = 1.5, 2, 4, then the exp form at theta = 0.25, 0.5.
    Yields ``(delta, p or theta, report)``."""
    m = ReferenceMeasure(n, 1.5)
    for _ in range(n_funcs):
        g = random_compact_grid(n, rng)
        for delta in (0.5, 1.0, 2.0):
            mf = local_maximal(g, delta)
            for p in (1.5, 2.0, 4.0):
                yield delta, p, maximal_lp_check(g, m, delta, p, maximal=mf)
            for theta in (0.25, 0.5):
                yield delta, theta, maximal_exp_check(g, m, delta, theta, maximal=mf)
