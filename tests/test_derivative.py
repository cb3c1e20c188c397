"""Derivative system, finite-difference flows, and hypothesis checks."""

import numpy as np
import pytest

from roughflow import BrownianDriver, CoefficientField, integrate, make_family
from roughflow._seeds import derive_rng, derive_seed
from roughflow.acceptance import weak_derivative_checks
from roughflow.catalog import doubled_measure
from roughflow.derivative import (
    DerivativeSystem,
    difference_flows,
    verify_hypotheses,
    weak_derivative_convergence,
)


def sample_xy(seed, count, m2):
    return m2.sample(derive_rng(seed, "xy"), count)


class TestLift:
    def test_linear_drift_block_independent_of_x(self):
        sys_ = DerivativeSystem(make_family("deriv-linear").field)
        xy = np.array([[0.3, 1.0], [7.0, 1.0], [-2.0, 1.0]])
        b2 = sys_.lifted.second_block(xy).drift
        assert np.allclose(b2, -0.8)  # A y with A = -0.8, y = 1

    def test_constant_sigma_gives_zero_noise_block(self):
        sys_ = DerivativeSystem(make_family("deriv-linear").field)
        xy = np.array([[1.0, 2.0]])
        assert np.allclose(sys_.lifted.second_block(xy).sigma, 0.0)

    def test_linear_difference_block_exact_for_every_eps(self):
        sys_ = DerivativeSystem(make_family("deriv-linear").field)
        xy = np.array([[0.5, 2.0], [-1.0, 0.3]])
        want = -0.8 * xy[:, 1:]
        at_x = sys_.base.evaluate(xy[:, :1], jac=True)
        for eps in (0.5, 0.01, 1e-4):
            got = sys_.difference_block(xy, eps, at_x)
            assert np.allclose(got.drift, want, atol=1e-9)
            assert np.array_equal(got.drift_jac, np.full((2, 1, 1), -0.8))

    def test_nonanalytic_base_rejected(self):
        bare = CoefficientField(
            1, 1,
            sigma_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
            drift_fn=lambda x: -x,
        )
        with pytest.raises(ValueError, match="needs analytic base Jacobians"):
            DerivativeSystem(bare)
        # a Swirl evaluates its own Jacobians but has no callables to lift
        with pytest.raises(ValueError, match="needs analytic base Jacobians"):
            DerivativeSystem(make_family("log-singular").field)


class TestFlows:
    def test_linear_base_exactness(self):
        sys_ = DerivativeSystem(make_family("deriv-linear").field)
        m2 = doubled_measure(1, 2.0)
        xy = sample_xy(1, 16, m2)
        drv = BrownianDriver.generate(1, 2**-8, 2**8, 6, derive_seed(1, "d"))
        table = weak_derivative_convergence(sys_, [0.5, 0.125, 2**-6], drv, xy,
                                            1.0)
        assert max(table.metrics()) < 1e-10

    def test_matrix_exponential_oracle(self):
        sys_ = DerivativeSystem(make_family("deriv-linear").field)
        m2 = doubled_measure(1, 2.0)
        xy = sample_xy(2, 12, m2)
        dt = 2**-9
        drv = BrownianDriver.generate(1, dt, 2**9, 4, derive_seed(2, "d"))
        ens = integrate(sys_.lifted, drv, xy, 1.0)
        want = xy[None, :, 1] * np.exp(-0.8)
        got = ens.states[:, :, -1, 1]
        assert np.allclose(got, want, atol=5 * dt * np.abs(want).max() + 1e-6)

    def test_geometric_noise_derivative_identity(self):
        c = 0.4
        gbm = CoefficientField(
            1, 1,
            sigma_fn=lambda x: (c * x[..., 0])[..., None, None],
            drift_fn=lambda x: np.zeros_like(x),
            sigma_jac_fn=lambda x: np.full(x.shape[:-1] + (1, 1, 1), c),
            drift_jac_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
        )
        sys_ = DerivativeSystem(gbm)
        xy = np.array([[1.0, 0.5], [2.0, -1.0]])
        drv = BrownianDriver.generate(1, 2**-9, 2**9, 8, derive_seed(3, "g"))
        ens = integrate(sys_.lifted, drv, xy, 1.0)
        x_t = ens.states[..., 0]
        y_t = ens.states[..., 1]
        # under the scheme Y and X satisfy the same recursion, so Y = (X/x) y
        pred = x_t / xy[None, :, None, 0] * xy[None, :, None, 1]
        assert np.allclose(y_t, pred, rtol=1e-11, atol=1e-11)
        # and X follows geometric Brownian motion up to scheme error
        b_t = np.cumsum(drv.increments, axis=1)[:, None, -1, 0]
        gbm_oracle = xy[None, :, 0] * np.exp(c * b_t - c**2 / 2)
        rms = np.sqrt(np.mean((ens.states[:, :, -1, 0] - gbm_oracle) ** 2))
        assert rms < 10 * np.sqrt(2**-9)

    def test_zero_initial_derivative_stays_zero(self):
        sys_ = DerivativeSystem(make_family("deriv-smooth").field)
        xy = np.array([[0.7, 0.0], [-1.2, 0.0]])
        drv = BrownianDriver.generate(1, 2**-7, 2**7, 3, derive_seed(4, "z"))
        ens = integrate(sys_.lifted, drv, xy, 1.0)
        assert np.all(ens.states[..., 1] == 0.0)

    def test_linearity_in_y(self):
        sys_ = DerivativeSystem(make_family("deriv-smooth").field)
        drv = BrownianDriver.generate(1, 2**-7, 2**7, 4, derive_seed(5, "l"))
        xy = np.array([[0.5, 0.8]])
        xy2 = np.array([[0.5, 1.6]])
        e1 = integrate(sys_.lifted, drv, xy, 1.0)
        e2 = integrate(sys_.lifted, drv, xy2, 1.0)
        assert np.allclose(e2.states[..., 1], 2.0 * e1.states[..., 1],
                           rtol=1e-12, atol=1e-13)

    def test_difference_flow_deterministic(self):
        sys_ = DerivativeSystem(make_family("deriv-smooth").field)
        m2 = doubled_measure(1, 2.0)
        xy = sample_xy(6, 8, m2)
        runs = []
        for _ in range(2):
            drv = BrownianDriver.generate(1, 2**-7, 2**7, 3, derive_seed(6, "r"))
            diff, _ = next(difference_flows(sys_, [0.25], drv, xy, 1.0))
            runs.append(diff.tobytes())
        assert diff.shape == (3, 8, 2**7 + 1, 1)
        assert runs[0] == runs[1]
        # a shared base flow gives each eps the difference it gets alone
        shared = list(difference_flows(sys_, [0.5, 0.25], drv, xy, 1.0))
        assert shared[1][0].tobytes() == runs[0]

    def test_batched_difference_flows_with_an_explosion(self):
        # base x' = x^3 + 0.1 dB: the eps = 1 start 0.5 + 2 = 2.5 blows up
        # near t = 0.08; every other start lies within 0.63 of 0 and lives past T = 1
        cubic = CoefficientField(
            1, 1,
            sigma_fn=lambda x: np.full(x.shape[:-1] + (1, 1), 0.1),
            drift_fn=lambda x: x**3,
            sigma_jac_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)),
            drift_jac_fn=lambda x: (3 * x[..., 0] ** 2)[..., None, None],
        )
        sys_ = DerivativeSystem(cubic)
        xy = np.array([[0.5, 2.0], [-0.3, 0.5], [0.2, -0.5]])
        eps_list = [1.0, 2.0**-4, 2.0**-8]
        drv = BrownianDriver.generate(1, 2**-7, 2**7, 4, derive_seed(9, "x"))
        batched = list(difference_flows(sys_, eps_list, drv, xy, 1.0))
        exploded = batched[0][1]
        assert exploded[:, 0].all() and exploded.sum() == drv.n_omega
        assert not batched[1][1].any() and not batched[2][1].any()
        for eps, (diff, mask) in zip(eps_list, batched):
            alone, alone_mask = next(difference_flows(sys_, [eps], drv, xy, 1.0))
            assert diff.tobytes() == alone.tobytes()
            assert np.array_equal(mask, alone_mask)
            assert np.all(np.isfinite(diff))
        # the exploding track is frozen at its last finite state
        pert = integrate(cubic, drv, xy[:1, :1] + xy[:1, 1:], 1.0)
        frozen = pert.states[:, 0, -1, :]
        assert np.all(np.abs(frozen) <= 1e8) and np.all(pert.states[:, 0, -2, :] == frozen)
        base = integrate(cubic, drv, xy[:1, :1], 1.0).states[:, 0]
        assert np.array_equal(batched[0][0][:, 0], (pert.states[:, 0] - base) / 1.0)

    def test_difference_flow_eps_trend_smooth(self):
        sys_ = DerivativeSystem(make_family("deriv-smooth").field)
        m2 = doubled_measure(1, 2.0)
        xy = sample_xy(7, 16, m2)
        drv = BrownianDriver.generate(1, 2**-8, 2**8, 6, derive_seed(7, "t"))
        e_deriv = integrate(sys_.lifted, drv, xy, 1.0)
        gaps = []
        for diff, _ in difference_flows(sys_, (1e-2, 1e-3), drv, xy, 1.0):
            gaps.append(np.abs(diff[..., 0] - e_deriv.states[..., 1]).max())
        assert gaps[1] < gaps[0]

    def test_jacobian_vector_product_oracle(self):
        fam = make_family("deriv-smooth")
        sys_ = DerivativeSystem(fam.field)
        m2 = doubled_measure(1, 2.0)
        xy = sample_xy(8, 24, m2)
        dt = 2**-9
        drv = BrownianDriver.generate(1, dt, 2**9, 8, derive_seed(8, "jvp"))
        ens = integrate(sys_.lifted, drv, xy, 1.0)
        h = 1e-4
        plus = integrate(fam.field, drv, xy[:, :1] + h * xy[:, 1:], 1.0)
        minus = integrate(fam.field, drv, xy[:, :1] - h * xy[:, 1:], 1.0)
        jvp = (plus.states[:, :, -1, :] - minus.states[:, :, -1, :]) / (2 * h)
        y_t = ens.states[:, :, -1, 1:]
        rel_rms = np.sqrt(np.mean((y_t - jvp) ** 2)) / np.sqrt(np.mean(jvp**2))
        assert rel_rms < 10 * np.sqrt(dt)


class TestConvergence:
    def test_monotone_decrease_smooth(self):
        sys_ = DerivativeSystem(make_family("deriv-smooth").field)
        m2 = doubled_measure(1, 2.0)
        xy = sample_xy(9, 32, m2)
        drv = BrownianDriver.generate(1, 2**-9, 2**9, 8, derive_seed(9, "m"))
        table = weak_derivative_convergence(
            sys_, [0.5, 0.25, 0.125, 0.0625], drv, xy, 1.0
        )
        assert table.monotone_decreasing()
        ms = table.metrics()
        assert ms[-1] < ms[0] / 4

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_omega,xy,valid", [
        (2, [[5.0, 1.0], [6.0, 1.0]], 0),  # base, perturbed and lifted flows all explode
        (1, [[0.0, 0.0], [5.0, 1.0]], 1),  # (0, 0) stays at rest: one track, no std error
    ])
    def test_fewer_than_two_valid_tracks_is_a_named_error(self, n_omega, xy, valid):
        # x' = 1e3 x^3 explodes from x = 5 and 6
        cubic = CoefficientField(
            1, 1,
            sigma_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
            drift_fn=lambda x: 1e3 * x**3,
            sigma_jac_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)),
            drift_jac_fn=lambda x: (3e3 * x[..., 0] ** 2)[..., None, None],
        )
        drv = BrownianDriver.generate(1, 2**-4, 2**4, n_omega, seed=6)
        with pytest.raises(ValueError,
                           match=f"weak-derivative convergence: at eps = 0.5 {valid} track"):
            weak_derivative_convergence(DerivativeSystem(cubic), [0.5, 0.25], drv,
                                        np.array(xy), 1.0)


class TestWeakDerivativeChecks:
    """``acceptance.weak_derivative_checks``: criterion 9's pass rule, which
    the command line's ``derivative`` kind asserts too."""

    @staticmethod
    def paths(seed=9):
        drv = BrownianDriver.generate(1, 2**-6, 2**5, 4, derive_seed(seed, "checks"))
        return drv, sample_xy(seed, 8, doubled_measure(1, 2.0))

    def test_affine_base_passes_on_rounding_noise(self):
        drv, xy = self.paths()
        table, passed = weak_derivative_checks(make_family("deriv-linear"), [0.5, 0.25],
                                               drv, xy, 0.5)
        assert max(table.metrics()) < 1e-10
        assert passed

    def test_other_base_needs_the_first_order_rate(self):
        drv, xy = self.paths()
        eps = [0.5, 0.25, 0.125, 0.0625]
        table, passed = weak_derivative_checks(make_family("deriv-smooth"), eps, drv, xy, 0.5)
        ms = table.metrics()
        assert passed == (table.monotone_decreasing() and ms[-1] < ms[0] / 4)

    def test_one_eps_value_is_rejected(self):
        drv, xy = self.paths()
        with pytest.raises(ValueError, match="at least two eps values"):
            weak_derivative_checks(make_family("deriv-smooth"), [0.25], drv, xy, 0.5)


class TestDoubledMeasures:
    def test_exponents_take_the_catalog_margin(self):
        m1, m2 = make_family("deriv-rough").measure, doubled_measure(1, 2.0)
        assert (m1.dim, m1.alpha, m2.dim, m2.alpha) == (1, 3.0, 2, 9.0)
        assert doubled_measure(1, 2.0, alpha=8.75).alpha == 8.75

    def test_alpha_at_the_bound_rejected(self):
        with pytest.raises(ValueError, match="2 alpha1 \\+ q \\+ d/2 = 8.5, got 8.5"):
            doubled_measure(1, 2.0, alpha=8.5)


class TestHypotheses:
    def test_linear_base_finite_for_large_p0(self):
        sys_ = DerivativeSystem(make_family("deriv-linear").field)
        m2 = doubled_measure(1, 2.0)
        rep = verify_hypotheses(sys_, m2, p0=2.0,
                                eps_set=[0.5, 0.25], budget=4000,
                                rng=derive_rng(11, "h"))
        assert rep.passed

    def test_rough_base_eps_uniform(self):
        sys_ = DerivativeSystem(make_family("deriv-rough").field)
        m2 = doubled_measure(1, 2.0)
        rep = verify_hypotheses(sys_, m2, p0=0.5,
                                eps_set=[0.5, 0.25, 0.125], budget=8000,
                                rng=derive_rng(12, "h2"))
        assert rep.eps_ratio < 10.0
        assert rep.drift_domination_fraction == 1.0
        assert rep.sigma_domination_fraction == 1.0
        assert rep.passed

    def test_wrong_measure_dimension_rejected(self):
        fam = make_family("deriv-linear")
        with pytest.raises(ValueError):
            verify_hypotheses(DerivativeSystem(fam.field), fam.measure, 1.0, [0.5], 100,
                              derive_rng(13, "bad"))
