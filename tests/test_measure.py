"""Reference-measure calculus, mass, sampling and integration."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy import integrate

from roughflow import InfiniteMassError, MonteCarloEstimate, ReferenceMeasure
from roughflow._seeds import derive_rng
from roughflow.measure import sq_norm


def radial_mass_quadrature(dim, alpha):
    """Independent oracle: adaptive quadrature of the radial profile."""
    from scipy.special import gamma

    surf = 2.0 * np.pi ** (dim / 2.0) / gamma(dim / 2.0)
    val, _ = integrate.quad(
        lambda r: r ** (dim - 1) * (1 + r * r) ** (-alpha), 0, np.inf, limit=500
    )
    return surf * val


class TestWeight:
    def test_weight_at_origin(self):
        m = ReferenceMeasure(1, 1.0)
        assert m.weight(0.0) == 1.0

    def test_weight_1d(self):
        m = ReferenceMeasure(1, 1.0)
        assert m.weight(1.0) == pytest.approx(0.5)

    def test_weight_2d(self):
        m = ReferenceMeasure(2, 2.0)
        assert m.weight([1.0, 1.0]) == pytest.approx(1.0 / 9.0)

    def test_nonfinite_rejected(self):
        m = ReferenceMeasure(1, 1.0)
        with pytest.raises(ValueError):
            m.weight(np.nan)
        with pytest.raises(ValueError):
            m.weight(np.inf)

    @given(hst.floats(-10, 10), hst.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_weight_is_exp_log_weight(self, x, y):
        m = ReferenceMeasure(2, 1.7)
        pt = np.array([x, y])
        assert np.exp(m.log_weight(pt)) == pytest.approx(m.weight(pt), rel=1e-14)


class TestSqNorm:
    """Below numpy's pairwise-summation threshold of 8 components, the one
    component at a time sum is numpy's reduction bit for bit."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bitwise_numpy_reductions(self, n):
        rng = derive_rng(2, f"sq-norm-{n}")
        v = rng.standard_normal((5000, n)) * rng.lognormal(0.0, 3.0, (5000, 1))
        assert np.array_equal(sq_norm(v), np.sum(v * v, axis=-1))
        assert np.array_equal(np.sqrt(sq_norm(v)), np.linalg.norm(v, axis=-1))

    @pytest.mark.parametrize("n", [2, 4])
    def test_bitwise_on_a_block_of_steps(self, n):
        # the strided view states[:, :, a:b, :] that density_terms receives
        states = derive_rng(3, f"sq-norm-view-{n}").standard_normal((4, 30, 65, n))
        v = states[:, :, 16:48, :]
        assert not v.flags.c_contiguous
        assert np.array_equal(sq_norm(v), np.sum(v * v, axis=-1))
        assert np.array_equal(np.sqrt(sq_norm(v)), np.linalg.norm(v, axis=-1))


class TestLogWeightCalculus:
    def test_grad_at_origin(self):
        m = ReferenceMeasure(3, 2.5)
        assert np.allclose(m.grad_log_weight(np.zeros(3)), 0.0)

    def test_grad_1d(self):
        m = ReferenceMeasure(1, 1.0)
        assert m.grad_log_weight(1.0) == pytest.approx(-1.0)

    def test_grad_2d(self):
        m = ReferenceMeasure(2, 3.0)
        assert np.allclose(m.grad_log_weight([1.0, 0.0]), [-3.0, 0.0])

    def test_derivatives_match_finite_differences(self):
        m = ReferenceMeasure(2, 2.3)
        rng = derive_rng(1, "fd")
        pts = rng.uniform(-5, 5, size=(40, 2))
        h = 1e-5
        for j in range(2):
            step = np.zeros((1, 2))
            step[0, j] = h
            fd_grad = (m.log_weight(pts + step) - m.log_weight(pts - step)) / (2 * h)
            assert np.allclose(fd_grad, m.grad_log_weight(pts)[:, j], rtol=1e-6,
                               atol=1e-8)


class TestMass:
    def test_mass_2d_equals_pi(self):
        assert ReferenceMeasure(2, 2.0).total_mass() == pytest.approx(np.pi, rel=1e-12)

    def test_mass_1d_equals_pi(self):
        assert ReferenceMeasure(1, 1.0).total_mass() == pytest.approx(np.pi, rel=1e-12)

    @pytest.mark.parametrize("dim,alpha,match", [
        (0, 3.0, "dim must be a positive integer, got 0"),
        (1.5, 3.0, "dim must be a positive integer, got 1.5"),  # no fractional dimension
        (True, 3.0, "dim must be a positive integer, got True"),
        (2, float("nan"), "alpha must be a positive real"),
        (2, 0.0, "alpha must be a positive real"),
    ])
    def test_nonsense_rejected_by_name(self, dim, alpha, match):
        with pytest.raises(ValueError, match=match):
            ReferenceMeasure(dim, alpha)

    def test_infinite_mass_rejected(self):
        with pytest.raises(InfiniteMassError):
            ReferenceMeasure(1, 0.4).total_mass()

    @pytest.mark.parametrize("dim,alpha", [(1, 1.5), (1, 3.0), (2, 2.5), (3, 2.0)])
    def test_mass_matches_quadrature(self, dim, alpha):
        closed = ReferenceMeasure(dim, alpha).total_mass()
        assert closed == pytest.approx(radial_mass_quadrature(dim, alpha), rel=1e-8)

    def test_first_radial_moment_matches_quadrature(self):
        m = ReferenceMeasure(2, 3.0)
        surf = 2 * np.pi  # circumference factor of the polar integral
        oracle, _ = integrate.quad(
            lambda r: r**2 * (1 + r * r) ** (-3.0), 0, np.inf
        )
        assert m.first_radial_moment() == pytest.approx(surf * oracle, rel=1e-8)


class TestSampling:
    def test_empty_draw(self):
        m = ReferenceMeasure(2, 2.0)
        assert m.sample(derive_rng(0, "s"), 0).shape == (0, 2)

    def test_kolmogorov_smirnov_1d(self):
        m = ReferenceMeasure(1, 1.5)
        draws = m.sample(derive_rng(7, "ks"), 100_000)[:, 0]
        # oracle: CDF from quadrature of the normalized weight
        grid = np.linspace(-60, 60, 20001)
        dens = m.weight(grid[:, None]) / m.total_mass()
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2
                                               * np.diff(grid))])
        cdf /= cdf[-1]
        emp = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
        assert np.max(np.abs(emp - cdf)) < 0.01

    def test_spherical_symmetry(self):
        m = ReferenceMeasure(3, 3.0)
        draws = m.sample(derive_rng(3, "sym"), 40_000)
        mean = draws[:, 0].mean()
        se = draws[:, 0].std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(mean) < 3 * se + 1e-12

    def test_sampling_deterministic(self):
        m = ReferenceMeasure(2, 2.0)
        a = m.sample(derive_rng(5, "det"), 100)
        b = m.sample(derive_rng(5, "det"), 100)
        assert np.array_equal(a, b)

    def test_infinite_mass_sampling_rejected(self):
        with pytest.raises(InfiniteMassError):
            ReferenceMeasure(2, 0.9).sample(derive_rng(0, "x"), 3)


class TestExpect:
    def test_constant_integrand(self):
        m = ReferenceMeasure(1, 1.5)
        est = m.expect(lambda x: np.ones(x.shape[0]), 1000, derive_rng(0, "c"))
        assert est.value == pytest.approx(m.total_mass(), rel=1e-12)
        assert est.se == pytest.approx(0.0, abs=1e-12)

    def test_abs_integrand_vs_quadrature(self):
        m = ReferenceMeasure(1, 1.5)
        oracle = 2 * integrate.quad(lambda x: x * (1 + x * x) ** -1.5, 0, np.inf)[0]
        est = m.expect(lambda x: np.abs(x[:, 0]), 200_000, derive_rng(2, "abs"))
        assert abs(est.value - oracle) < 3 * est.se

    def test_odd_integrand(self):
        m = ReferenceMeasure(2, 2.5)
        est = m.expect(lambda x: x[:, 0] ** 3 / (1 + x[:, 1] ** 2), 50_000,
                       derive_rng(4, "odd"))
        assert abs(est.value) < 3 * est.se

    def test_nonfinite_samples_counted(self):
        m = ReferenceMeasure(1, 1.5)

        def f(x):
            v = 1.0 / x[:, 0]
            return np.where(np.abs(x[:, 0]) < 0.005, np.inf, np.abs(v) ** 0.1)

        est = m.expect(f, 20_000, derive_rng(6, "bad"))
        assert est.n_nonfinite > 0
        assert np.isfinite(est.value)

    def test_expect_is_sample_plus_of(self):
        m = ReferenceMeasure(2, 2.5)

        def f(x):
            return np.where(x[:, 0] > 2.0, np.inf, np.exp(np.abs(x[:, 1])))

        est = m.expect(f, 5000, derive_rng(7, "of"))
        ref = MonteCarloEstimate.of(f(m.sample(derive_rng(7, "of"), 5000)), m.total_mass())
        assert est.n_nonfinite > 0
        for a, b in zip(dataclasses.astuple(est), dataclasses.astuple(ref)):
            assert np.float64(a).tobytes() == np.float64(b).tobytes()

    def test_of_huge_samples_without_overflow(self):
        # the regime of a divergent density bound: exp values up to 1e305 and an inf
        vals = np.array([1.0, 2.5, 3.2e213, 1e305, 4.0, np.inf, 7e290])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = MonteCarloEstimate.of(vals, 2.0)
        finite = vals[np.isfinite(vals)]
        assert est.n_nonfinite == 1 and est.n_samples == vals.size
        assert est.value == pytest.approx(2.0 * finite.mean(), rel=1e-12)
        assert est.se == pytest.approx(2.0 * 1e305 * (finite / 1e305).std(ddof=1)
                                       / np.sqrt(finite.size), rel=1e-12)
        assert est.max_share == pytest.approx(1e305 / finite.sum(), rel=1e-12)
        assert est.dominated()

    def test_lp_norm_constant(self):
        m = ReferenceMeasure(2, 2.0)
        val = m.lp_norm(lambda x: 3.0 * np.ones(x.shape[0]), 4.0, 500,
                        derive_rng(8, "lp"))
        assert val == pytest.approx(3.0 * m.total_mass() ** 0.25, rel=1e-12)
