"""Grid maximal functions, ring-ratio constants, inequality verifiers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy.signal import fftconvolve

from roughflow import ReferenceMeasure
from roughflow._seeds import derive_rng
from roughflow.analysis import (
    GridFunction,
    local_maximal,
    maximal_exp_check,
    maximal_lp_check,
    partial_maximal,
    pointwise_sobolev_check,
    random_compact_grid,
    ring_ratio_scan,
    weight_ring_ratio,
)


def grid_1d(n=81, extent=4.0):
    return np.linspace(-extent, extent, n)


def loop_ring_ratios(profile, delta, k_max=200, samples_per_ring=65):
    """Reference ring ratios: one scalar linspace pair per ring."""
    ratios = np.empty(k_max)
    for k in range(1, k_max + 1):
        ring = np.linspace((k - 1) * delta, k * delta, samples_per_ring)
        hood = np.linspace(max(0.0, (k - 2) * delta), (k + 1) * delta,
                           3 * samples_per_ring)
        sup = float(np.max(profile(ring)))
        inf = float(np.min(profile(hood)))
        ratios[k - 1] = np.inf if inf <= 0 else sup / inf
    return ratios


def convolve_maximal(g, delta, partial=False):
    """Reference maximal function: one fftconvolve per radius, over every
    axis or (``partial``) over the last axis only."""
    h = g.steps[-1]
    j_max = int(np.floor(delta / h + 1e-9))
    offs = np.arange(-j_max, j_max + 1).astype(float) * h
    if partial:
        dist = np.abs(offs).reshape((1,) * (g.ndim - 1) + (-1,))
    else:
        grids = np.meshgrid(*([offs] * g.ndim), indexing="ij")
        dist = np.sqrt(sum(o**2 for o in grids))
    absvals = np.abs(g.values)
    out = absvals.copy()
    for r in h * np.arange(1, j_max + 1):
        mask = (dist <= r + 1e-9 * h).astype(float)
        avg = fftconvolve(absvals, mask / mask.sum(), mode="same")
        out = np.maximum(out, np.maximum(avg, 0.0))
    return out


class TestGridFunction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GridFunction((grid_1d(),), np.zeros(5))

    def test_nonuniform_axis_rejected(self):
        with pytest.raises(ValueError):
            GridFunction((np.array([0.0, 0.5, 2.0]),), np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            GridFunction((grid_1d(3),), np.array([0.0, np.inf, 1.0]))


class TestLocalMaximal:
    def test_constant_function(self):
        g = GridFunction((grid_1d(),), np.full(81, -2.5))
        assert np.allclose(local_maximal(g, 1.0).values, 2.5)

    def test_single_cell_far_field_decay(self):
        # indicator of one cell: at distance j*h the smallest covering ball
        # holds 2j+1 cells, so the maximal value there is 1/(2j+1)
        axis = grid_1d(81, 4.0)
        h = axis[1] - axis[0]
        vals = np.zeros(81)
        vals[40] = 1.0
        mf = local_maximal(GridFunction((axis,), vals), delta=20 * h)
        for j in (3, 7, 15):
            assert mf.values[40 + j] == pytest.approx(1.0 / (2 * j + 1))

    def test_dominates_pointwise(self):
        rng = derive_rng(1, "dom")
        vals = rng.normal(size=(41, 41))
        g = GridFunction((grid_1d(41, 2.0), grid_1d(41, 2.0)), vals)
        mf = local_maximal(g, 0.5)
        assert np.all(mf.values >= np.abs(vals) - 1e-12)

    def test_delta_below_step_rejected(self):
        g = GridFunction((grid_1d(),), np.zeros(81))
        with pytest.raises(ValueError):
            local_maximal(g, 0.01)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0, -1.0])
    def test_nonpositive_or_nonfinite_delta_rejected(self, delta):
        g = GridFunction((grid_1d(),), np.zeros(81))
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            local_maximal(g, delta)

    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_per_radius_fftconvolve(self, n):
        # cached ball spectra and one transform of |g| per call reproduce
        # one fftconvolve per radius bit for bit
        rng = derive_rng(13, f"conv-{n}")
        for _ in range(4):
            g = random_compact_grid(n, rng)
            for delta in (0.5, 1.0, 2.0):
                assert np.array_equal(local_maximal(g, delta).values,
                                      convolve_maximal(g, delta))

    @given(hst.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_sublinearity(self, seed):
        rng = np.random.default_rng(seed)
        axis = grid_1d(41, 2.0)
        a = GridFunction((axis,), rng.normal(size=41))
        b = GridFunction((axis,), rng.normal(size=41))
        s = GridFunction((axis,), a.values + b.values)
        lhs = local_maximal(s, 0.7).values
        rhs = local_maximal(a, 0.7).values + local_maximal(b, 0.7).values
        assert np.all(lhs <= rhs + 1e-10)


class TestPartialMaximal:
    def test_constant_in_x2(self):
        ax1, ax2 = grid_1d(11, 1.0), grid_1d(21, 2.0)
        u = derive_rng(2, "u").normal(size=11)
        g = GridFunction((ax1, ax2), np.broadcast_to(u[:, None], (11, 21)).copy())
        mf = partial_maximal(g, 0.5)
        assert np.allclose(mf.values, np.abs(u)[:, None])

    def test_separable_factorization(self):
        ax1, ax2 = grid_1d(9, 1.0), grid_1d(33, 2.0)
        rng = derive_rng(3, "sep")
        u = rng.normal(size=9)
        v = rng.normal(size=33)
        g = GridFunction((ax1, ax2), np.outer(u, v))
        mf = partial_maximal(g, 0.5)
        mv = local_maximal(GridFunction((ax2,), v), 0.5)
        assert np.allclose(mf.values, np.abs(u)[:, None] * mv.values[None, :])

    def test_equals_slicewise_local_maximal(self):
        ax1, ax2 = grid_1d(7, 1.0), grid_1d(41, 2.0)
        vals = derive_rng(4, "slice").normal(size=(7, 41))
        g = GridFunction((ax1, ax2), vals)
        mf = partial_maximal(g, 0.8)
        for i in range(7):
            row = local_maximal(GridFunction((ax2,), vals[i]), 0.8)
            assert np.allclose(mf.values[i], row.values)

    def test_equals_per_radius_fftconvolve(self):
        rng = derive_rng(14, "conv-partial")
        for _ in range(4):
            g = random_compact_grid(2, rng)
            for radius in (0.5, 1.0, 2.0):
                assert np.array_equal(partial_maximal(g, radius).values,
                                      convolve_maximal(g, radius, partial=True))

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0])
    def test_nonpositive_or_nonfinite_radius_rejected(self, radius):
        g = GridFunction((grid_1d(5, 1.0), grid_1d(9, 2.0)), np.zeros((5, 9)))
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            partial_maximal(g, radius)


class TestRingRatio:
    @pytest.mark.parametrize("alpha,delta", [(1.0, 1.0), (1.5, 1.0), (1.5, 2.0),
                                             (2.5, 5.0)])
    def test_closed_form(self, alpha, delta):
        got = weight_ring_ratio(ReferenceMeasure(1, alpha), delta)
        assert got == pytest.approx((1 + 4 * delta**2) ** alpha, rel=1e-6)

    def test_dimension_free(self):
        # the scan reads only the weight exponent
        assert (weight_ring_ratio(ReferenceMeasure(1, 2.5), 5.0)
                == weight_ring_ratio(ReferenceMeasure(2, 2.5), 5.0))

    def test_delta_one_alpha_one_is_five(self):
        assert weight_ring_ratio(ReferenceMeasure(2, 1.0), 1.0) == pytest.approx(5.0)

    def test_gaussian_profile_diverges(self):
        scan = ring_ratio_scan(lambda r: np.exp(-(r**2)), 1.0, k_max=40)
        assert scan.diverging

    def test_polynomial_profile_converges(self):
        scan = ring_ratio_scan(lambda r: (1 + r * r) ** -2.0, 1.0, k_max=60)
        assert not scan.diverging

    @pytest.mark.parametrize("profile,delta,k_max", [
        (lambda r: (1.0 + r * r) ** -1.5, 0.5, 200),
        (lambda r: (1.0 + r * r) ** -2.5, 5.0, 200),
        (lambda r: np.exp(-(r**2)), 1.0, 40),
        (lambda r: np.maximum(0.0, 1.0 - r / 10.0), 1.0, 40),
        (lambda r: 2.0 + np.sin(3.0 * r), 0.7, 50),  # extrema between the ends
    ], ids=["weight-1.5", "weight-2.5", "gaussian", "reaches-zero", "oscillating"])
    def test_equals_scalar_linspace_loop(self, profile, delta, k_max):
        scan = ring_ratio_scan(profile, delta, k_max=k_max)
        assert np.array_equal(scan.ratios, loop_ring_ratios(profile, delta, k_max))

    def test_profile_reaching_zero_diverges(self):
        scan = ring_ratio_scan(lambda r: np.maximum(0.0, 1.0 - r / 10.0), 1.0, k_max=40)
        assert np.isinf(scan.value) and scan.diverging

    def test_memo_returns_fresh_scan_per_alpha(self):
        for alpha in (1.5, 2.5, 1.5):
            fresh = ring_ratio_scan(lambda r: (1.0 + r * r) ** (-alpha), 2.0).value
            assert weight_ring_ratio(ReferenceMeasure(1, alpha), 2.0) == fresh

    @pytest.mark.parametrize("kwargs,match", [
        (dict(delta=np.nan), "delta"),
        (dict(delta=np.inf), "delta"),
        (dict(delta=1.0, k_max=0), "k_max"),
    ], ids=["delta-nan", "delta-inf", "k_max-0"])
    def test_nonsense_input_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ring_ratio_scan(lambda r: (1.0 + r * r) ** -1.5, **kwargs)


class TestMaximalInequalities:
    def test_zero_function(self):
        g = GridFunction((grid_1d(),), np.zeros(81))
        m = ReferenceMeasure(1, 1.5)
        rep = maximal_lp_check(g, m, 1.0, 2.0)
        assert rep.passed and rep.lhs == 0.0 and rep.bound == 0.0

    def test_reference_case_constants(self):
        rng = derive_rng(5, "ref")
        vals = np.where(np.abs(grid_1d()) <= 2.0, rng.normal(size=81), 0.0)
        g = GridFunction((grid_1d(),), vals)
        m = ReferenceMeasure(1, 1.5)
        rep = maximal_lp_check(g, m, 1.0, 2.0)
        assert rep.c_p == pytest.approx(5 * 4 * 2)      # 5^n 2^p p/(p-1) = 40
        assert rep.lambda0 == pytest.approx(5.0**1.5, rel=1e-9)
        assert rep.passed and rep.ratio < 1.0

    def test_exp_form_zero_function(self):
        g = GridFunction((grid_1d(),), np.zeros(81))
        m = ReferenceMeasure(1, 1.5)
        rep = maximal_exp_check(g, m, 1.0, 0.5)
        mass_on_grid = rep.linear_term  # f = 0: both sides reduce to mu-mass
        assert rep.lhs == pytest.approx(mass_on_grid, rel=1e-12)
        assert rep.slack == pytest.approx(
            6 * 5 * rep.lambda0 * rep.exp_term, rel=1e-12
        )

    def test_exp_form_theta_zero(self):
        rng = derive_rng(6, "t0")
        g = GridFunction((grid_1d(),), rng.normal(size=81))
        m = ReferenceMeasure(1, 1.5)
        rep = maximal_exp_check(g, m, 1.0, 0.0)
        assert rep.passed

    def test_random_bounded_exp_form(self):
        rng = derive_rng(7, "rb")
        vals = np.where(np.abs(grid_1d()) <= 2.0,
                        rng.uniform(-1.5, 1.5, size=81), 0.0)
        g = GridFunction((grid_1d(),), vals)
        m = ReferenceMeasure(1, 1.5)
        rep = maximal_exp_check(g, m, 1.0, 0.5)
        assert rep.passed and rep.slack > 0

    def test_weighted_integrals_use_each_measure_weight(self):
        # the grid keeps one weight per measure: checks against two measures
        # in turn match fresh grids and the per-call weight, bit for bit
        g = random_compact_grid(2, derive_rng(10, "weight-memo"))
        mf = local_maximal(g, 1.0)
        for alpha in (1.5, 2.5, 1.5):
            m = ReferenceMeasure(2, alpha)
            fresh = GridFunction(g.axes, g.values)
            rep = maximal_lp_check(g, m, 1.0, 2.0, maximal=mf)
            assert rep == maximal_lp_check(fresh, m, 1.0, 2.0, maximal=mf)
            assert (maximal_exp_check(g, m, 1.0, 0.5, maximal=mf)
                    == maximal_exp_check(fresh, m, 1.0, 0.5, maximal=mf))
            w = m.weight(g.points().reshape(-1, 2)).reshape(g.values.shape)
            assert rep.lhs == float(np.sum(mf.values**2.0 * w) * g.cell_volume)

    def test_batch_random_piecewise(self):
        # a smaller randomized batch; the acceptance suite runs the full matrix
        m1, m2 = ReferenceMeasure(1, 1.5), ReferenceMeasure(2, 1.5)
        rng = derive_rng(8, "batch")
        for _ in range(25):
            for n, m in ((1, m1), (2, m2)):
                g = random_compact_grid(n, rng)
                rep = maximal_lp_check(g, m, 1.0, 2.0)
                assert rep.passed

    def test_random_batch_grid_of_checks(self):
        from roughflow.analysis import (
            ExpMaximalReport,
            MaximalReport,
            random_maximal_checks,
        )

        got = list(random_maximal_checks(1, derive_rng(9, "batch"), 2))
        # per function: three deltas, each with three L^p and two exp checks
        assert [(d, e) for d, e, _ in got[:15]] == [
            (d, e) for d in (0.5, 1.0, 2.0) for e in (1.5, 2.0, 4.0, 0.25, 0.5)
        ]
        assert len(got) == 30
        kinds = [type(rep) for _, _, rep in got[:5]]
        assert kinds == [MaximalReport] * 3 + [ExpMaximalReport] * 2
        assert all(rep.passed for _, _, rep in got)


class TestPointwiseSobolev:
    def _grids(self, fn, dfn, n1=9, n2=65):
        ax1 = grid_1d(n1, 1.0)
        ax2 = grid_1d(n2, 2.0)
        pts1, pts2 = np.meshgrid(ax1, ax2, indexing="ij")
        return (
            GridFunction((ax1, ax2), fn(pts1, pts2)),
            GridFunction((ax1, ax2), np.abs(dfn(pts1, pts2))),
        )

    def test_linear_slope_fit_below_one(self):
        a = 1.7
        g, dg = self._grids(lambda x1, x2: a * x2,
                            lambda x1, x2: np.full_like(x2, a))
        rep = pointwise_sobolev_check(g, dg, 1.0, 2000, derive_rng(9, "lin"))
        assert rep.fitted_constant <= 1.0

    def test_constant_fit_zero(self):
        g, dg = self._grids(lambda x1, x2: np.full_like(x2, 3.0),
                            lambda x1, x2: np.zeros_like(x2))
        rep = pointwise_sobolev_check(g, dg, 1.0, 500, derive_rng(10, "c"))
        assert rep.fitted_constant == 0.0

    def test_rough_first_variable_does_not_matter(self):
        # x2 grid with an even point count so the cusp at 0 is off-grid
        def h(x2):
            return np.minimum(np.abs(x2), 1.0) ** 0.6

        def dh(x2):
            a = np.abs(x2)
            safe = np.where(a > 0, a, 1.0)
            return np.where((a > 0) & (a < 1.0), 0.6 * safe**-0.4, 0.0)

        fits = []
        for gfun in (lambda x1: np.sin(3 * x1), lambda x1: np.sign(x1)):
            g, dg = self._grids(lambda x1, x2, gf=gfun: gf(x1) * h(x2),
                                lambda x1, x2, gf=gfun: gf(x1) * dh(x2),
                                n2=64)
            rep = pointwise_sobolev_check(g, dg, 1.0, 4000, derive_rng(11, "r"))
            fits.append(rep.fitted_constant)
        assert all(np.isfinite(f) and f < 5.0 for f in fits)
        # the fit reflects x2-regularity only: step vs smooth x1 are comparable
        assert max(fits) < 4 * min(fits)

    def test_radius_stability(self):
        g, dg = self._grids(lambda x1, x2: np.cos(2 * x2) * (1 + 0 * x1),
                            lambda x1, x2: -2 * np.sin(2 * x2) * (1 + 0 * x1))
        fits = [
            pointwise_sobolev_check(g, dg, r, 3000,
                                    derive_rng(12, f"rs{r}")).fitted_constant
            for r in (0.5, 1.0, 2.0)
        ]
        assert max(fits) < 3 * min(fits)
