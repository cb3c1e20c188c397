"""Ensemble integration, drivers, level sets, composition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from roughflow import (
    FAMILY_NAMES,
    BrownianDriver,
    CoefficientField,
    FlowEnsemble,
    MollifierSpec,
    compose_time_shift,
    convergence_metric,
    integrate,
    level_set_tail,
    make_family,
    mollify,
    sup_lp_density_norm,
)
from roughflow._seeds import derive_rng, derive_seed
from roughflow.stability import stability_functional


def zero_field(dim=1):
    return CoefficientField(
        dim, dim,
        sigma_fn=lambda x: np.zeros(x.shape[:-1] + (dim, dim)),
        drift_fn=lambda x: np.zeros_like(x),
        sigma_jac_fn=lambda x: np.zeros(x.shape[:-1] + (dim, dim, dim)),
        drift_jac_fn=lambda x: np.zeros(x.shape[:-1] + (dim, dim)),
        name="zero",
    )


def exploded_ensemble():
    """Flow of x' = 1e3 x^3 from x = 5 and 6: every track explodes in its
    first steps and is frozen."""
    cubic = CoefficientField(
        1, 1,
        sigma_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
        drift_fn=lambda x: 1e3 * x**3,
        sigma_jac_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)),
        drift_jac_fn=lambda x: (3e3 * x[..., 0] ** 2)[..., None, None],
    )
    drv = BrownianDriver.generate(1, 2**-4, 2**4, 2, seed=6)
    ens = integrate(cubic, drv, np.array([[5.0], [6.0]]), 1.0)
    assert not ens.valid().any()
    return ens


def _path(drv):
    """B at grid times, shape (n_omega, n_steps + 1, m); B_0 = 0."""
    out = np.zeros((drv.n_omega, drv.n_steps + 1, drv.dim_noise))
    np.cumsum(drv.increments, axis=1, out=out[:, 1:, :])
    return out


class TestDriver:
    def test_increment_moments(self):
        drv = BrownianDriver.generate(2, dt=2**-8, n_steps=2**8, n_omega=64,
                                      seed=11)
        inc = drv.increments
        n_samples = inc.shape[0] * inc.shape[1]
        assert abs(inc.mean()) < 5 * np.sqrt(drv.dt / n_samples)
        var = inc.var()
        assert abs(var - drv.dt) < 5 * drv.dt / np.sqrt(n_samples)

    def test_time_shift_is_shifted_path(self):
        drv = BrownianDriver.generate(1, dt=0.25, n_steps=8, n_omega=3, seed=5)
        s = 0.5
        shifted = drv.time_shift(s)
        b = _path(drv)
        bs = _path(shifted)
        j = drv.step_index(s)
        assert np.allclose(bs, b[:, j:, :] - b[:, j:j + 1, :])

    def test_coarsen_preserves_path(self):
        drv = BrownianDriver.generate(1, dt=2**-6, n_steps=2**6, n_omega=2, seed=9)
        coarse = drv.coarsen(4)
        assert coarse.dt == pytest.approx(2**-4)
        assert np.allclose(_path(coarse), _path(drv)[:, ::4, :])

    @pytest.mark.parametrize("factor", [0, -2])
    def test_coarsen_rejects_a_factor_below_one(self, factor):
        drv = BrownianDriver.generate(1, dt=2**-6, n_steps=2**6, n_omega=2, seed=9)
        with pytest.raises(ValueError, match="coarsening factor must be >= 1"):
            drv.coarsen(factor)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -0.1, 0.0])
    def test_generate_rejects_a_nonsense_step(self, dt):
        with pytest.raises(ValueError, match="driver step dt must be finite and positive"):
            BrownianDriver.generate(1, dt=dt, n_steps=4, n_omega=2, seed=9)

    def test_counts_are_the_increment_shape(self):
        drv = BrownianDriver.generate(2, dt=2**-4, n_steps=16, n_omega=3, seed=4)
        assert drv.fingerprint == (4, 2**-4, 0, 3, 2)
        for d in (drv, drv.time_shift(0.25), drv.coarsen(4), drv.time_shift(0.5).coarsen(2)):
            assert (d.n_omega, d.n_steps, d.dim_noise) == d.increments.shape
        assert (drv.time_shift(0.25).n_steps, drv.coarsen(4).n_steps) == (12, 4)

    def test_off_grid_time_rejected(self):
        drv = BrownianDriver.generate(1, dt=0.25, n_steps=4, n_omega=1, seed=1)
        with pytest.raises(ValueError):
            drv.step_index(0.3)

    def test_driver_shifted_to_its_end_holds_time_zero_only(self):
        drv = BrownianDriver.generate(1, dt=0.25, n_steps=4, n_omega=1, seed=1)
        end = drv.time_shift(1.0)
        assert end.n_steps == 0 and end.step_index(0.0) == 0
        for t in (0.25, 1.0):
            with pytest.raises(ValueError, match="not on the driver grid"):
                end.step_index(t)


class TestIntegrate:
    def test_zero_field_constant(self):
        drv = BrownianDriver.generate(1, 2**-6, 2**6, 4, seed=2)
        x0 = np.linspace(-2, 2, 5)[:, None]
        ens = integrate(zero_field(), drv, x0, 1.0)
        assert np.all(ens.states == x0[None, :, None, :])

    def test_contraction_matches_ode(self):
        fam = make_family("pure-drift")
        dt = 2**-9
        drv = BrownianDriver.generate(1, dt, 2**9, 1, seed=3)
        x0 = np.array([[1.0], [-2.0], [0.5]])
        ens = integrate(fam.field, drv, x0, 1.0)
        exact = x0[None, :, None, :] * np.exp(-ens.times)[None, None, :, None]
        assert np.max(np.abs(ens.states - exact)) < 3 * dt

    def test_additive_noise_exact(self):
        # the scheme telescopes for constant additive noise; floating-point
        # summation order differs from cumsum only at rounding level
        fam = make_family("translation")
        drv = BrownianDriver.generate(1, 2**-6, 2**6, 8, seed=4)
        x0 = fam.measure.sample(derive_rng(0, "x0"), 6)
        ens = integrate(fam.field, drv, x0, 1.0)
        expect = x0[None, :, None, :] + _path(drv)[:, None, :, :]
        assert np.allclose(ens.states, expect, rtol=0, atol=1e-13)

    def test_explosion_flagged_and_frozen(self):
        cubic = CoefficientField(
            1, 1,
            sigma_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
            drift_fn=lambda x: x**3,
            sigma_jac_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)),
            drift_jac_fn=lambda x: (3 * x[..., 0] ** 2)[..., None, None],
        )
        drv = BrownianDriver.generate(1, 2**-4, 2**4, 1, seed=6)
        ens = integrate(cubic, drv, np.array([[8.0], [0.1]]), 1.0)
        assert ens.n_exploded == 1
        assert np.all(np.isfinite(ens.states))
        assert ens.valid()[0, 1]

    def test_strong_order_half(self):
        fam = make_family("deriv-smooth")  # multiplicative noise
        fine = BrownianDriver.generate(1, 2**-11, 2**11, 24, seed=7)
        x0 = fam.measure.sample(derive_rng(1, "so"), 12)
        errs, dts = [], []
        ref = integrate(fam.field, fine, x0, 1.0).states[:, :, -1, :]
        for lvl in (5, 6, 7, 8):
            drv = fine.coarsen(2 ** (11 - lvl))
            term = integrate(fam.field, drv, x0, 1.0).states[:, :, -1, :]
            errs.append(np.sqrt(np.mean((term - ref) ** 2)))
            dts.append(drv.dt)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.35 <= slope <= 0.65


class TestSupNormAndLevelSets:
    def test_sup_norm_constant_flow(self):
        drv = BrownianDriver.generate(1, 2**-4, 2**4, 2, seed=8)
        x0 = np.array([[1.5], [-0.3]])
        ens = integrate(zero_field(), drv, x0, 1.0)
        assert np.allclose(ens.sup_norm(), np.abs(x0[:, 0])[None, :])

    def test_sup_norm_decaying_flow(self):
        fam = make_family("pure-drift")
        drv = BrownianDriver.generate(1, 2**-6, 2**6, 1, seed=9)
        x0 = np.array([[2.0], [0.7]])
        ens = integrate(fam.field, drv, x0, 1.0)
        assert np.allclose(ens.sup_norm(), np.abs(x0[:, 0])[None, :])

    def test_sup_norm_dominates_initial(self):
        fam = make_family("translation")
        drv = BrownianDriver.generate(1, 2**-6, 2**6, 8, seed=10)
        x0 = fam.measure.sample(derive_rng(2, "sup"), 8)
        ens = integrate(fam.field, drv, x0, 1.0)
        assert np.all(ens.sup_norm() >= np.abs(x0[:, 0])[None, :] - 1e-15)

    def test_sup_norm_computed_once_and_read_only(self):
        fam = make_family("translation")
        drv = BrownianDriver.generate(1, 2**-6, 2**6, 3, seed=10)
        ens = integrate(fam.field, drv, fam.measure.sample(derive_rng(2, "once"), 4), 1.0)
        sup = ens.sup_norm()
        assert ens.sup_norm() is sup and not sup.flags.writeable
        assert np.array_equal(sup, np.linalg.norm(ens.states, axis=-1).max(axis=-1))

    def test_static_tail_matches_quadrature(self):
        from scipy import integrate as sci

        fam = make_family("linear")
        m = fam.measure
        drv = BrownianDriver.generate(1, 2**-4, 2**4, 200, seed=11)
        x0 = m.sample(derive_rng(3, "tail"), 400)
        ens = integrate(zero_field(), drv, x0, 1.0)
        radius = 2.0
        frac = float((ens.sup_norm() > radius).mean())
        oracle = 2 * sci.quad(lambda x: (1 + x * x) ** -m.alpha, radius, np.inf)[0]
        oracle /= m.total_mass()
        se = np.sqrt(oracle * (1 - oracle) / 400)
        assert abs(frac - oracle) < 4 * se + 1e-3

    def test_level_set_bound_linear_family(self):
        fam = make_family("linear")
        drv = BrownianDriver.generate(1, 2**-8, 2**8, 40, seed=12)
        x0 = fam.measure.sample(derive_rng(4, "ls"), 40)
        ens = integrate(fam.field, drv, x0, 1.0, density=fam.measure)
        lam = sup_lp_density_norm(ens.density, 2.0).value
        rep = level_set_tail(ens, 5.0, fam.measure, 2.0, lam, mc_budget=5000,
                             rng=derive_rng(5, "lsn"))
        assert rep.passed
        # large radius: empirical tail vanishes
        rep_far = level_set_tail(ens, 1000.0, fam.measure, 2.0, lam,
                                 mc_budget=2000, rng=derive_rng(6, "lsf"))
        assert rep_far.empirical == 0.0

    def test_level_set_tail_with_every_track_exploded_is_a_named_error(self):
        m = make_family("linear").measure
        with pytest.raises(ValueError, match="level-set tail: every track"):
            level_set_tail(exploded_ensemble(), 5.0, m, 2.0, 1.0, 500,
                           derive_rng(7, "lse"))


class TestComposition:
    def test_zero_shift_identical(self):
        fam = make_family("linear")
        drv = BrownianDriver.generate(1, 2**-6, 2**6, 4, seed=13)
        x0 = fam.measure.sample(derive_rng(7, "cmp"), 6)
        ens = integrate(fam.field, drv, x0, 1.0)
        again = compose_time_shift(ens, 0.0, 1.0)
        assert np.array_equal(again.states, ens.states)

    def test_contraction_semigroup(self):
        fam = make_family("pure-drift")
        drv = BrownianDriver.generate(1, 2**-8, 2**8, 1, seed=14)
        x0 = np.array([[1.0]])
        ens = integrate(fam.field, drv, x0, 1.0)
        comp = compose_time_shift(ens, 0.5, 0.5)
        assert comp.states[0, 0, -1, 0] == pytest.approx(np.exp(-1.0),
                                                                rel=3e-3)

    def test_bitwise_composition_smooth_sde(self):
        fam = make_family("deriv-smooth")
        drv = BrownianDriver.generate(1, 2**-7, 2**7, 6, seed=15)
        x0 = fam.measure.sample(derive_rng(8, "bw"), 10)
        ens = integrate(fam.field, drv, x0, 1.0)
        comp = compose_time_shift(ens, 0.25, 0.75)
        j = drv.step_index(0.25)
        assert np.array_equal(comp.states, ens.states[:, :, j:, :])


class TestCompositionProperties:
    """Time-shift composition on every catalog family and on a smoothed one."""

    @given(hst.sampled_from([(name, False) for name in FAMILY_NAMES]
                            + [("log-singular", True)]),
           hst.integers(0, 31), hst.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_bitwise_states_and_multiplicative_density(self, family, j, seed):
        name, smoothed = family
        fam = make_family(name)
        field = fam.field
        if smoothed:
            field = mollify(field, MollifierSpec(dim=2, level=4.0, order=8, panels=1))
        dt = 2.0**-5
        drv = BrownianDriver.generate(field.dim_noise, dt, 32, 2, seed)
        x0 = fam.measure.sample(derive_rng(seed, "prop-x0"), 3)
        ens = integrate(field, drv, x0, 1.0, density=fam.measure)
        s = j * dt
        comp = compose_time_shift(ens, s, 1.0 - s)
        assert np.array_equal(comp.states, ens.states[:, :, j:, :])
        direct = ens.density.log_density()
        tail = integrate(field, comp.driver, ens.state_at(s), 1.0 - s,
                         density=fam.measure).density.log_density()[:, :, -1]
        assert np.allclose(direct[:, :, -1], direct[:, :, j] + tail,
                           rtol=1e-10, atol=1e-12)


class TestConvergenceMetric:
    def test_identical_ensembles(self):
        fam = make_family("linear")
        drv = BrownianDriver.generate(1, 2**-6, 2**6, 3, seed=16)
        x0 = fam.measure.sample(derive_rng(9, "cm"), 4)
        ens = integrate(fam.field, drv, x0, 1.0)
        assert convergence_metric(ens, ens) == 0.0

    def test_clipping_at_one(self):
        drv = BrownianDriver.generate(1, 2**-4, 2**4, 2, seed=17)
        x0 = np.array([[0.0], [1.0]])
        e1 = integrate(zero_field(), drv, x0, 1.0)
        shifted = e1.states.copy()
        shifted[:, :, 1:, :] += 2.0  # differ by 2 after time zero
        e2 = FlowEnsemble(shifted, e1.times, e1.x0s, e1.field, e1.driver,
                          e1.exploded.copy())
        assert convergence_metric(e1, e2) == 1.0

    def test_mismatched_drivers_rejected(self):
        fam = make_family("linear")
        d1 = BrownianDriver.generate(1, 2**-4, 2**4, 2, seed=18)
        d2 = BrownianDriver.generate(1, 2**-4, 2**4, 2, seed=19)
        x0 = fam.measure.sample(derive_rng(10, "mm"), 3)
        e1 = integrate(fam.field, d1, x0, 1.0)
        e2 = integrate(fam.field, d2, x0, 1.0)
        with pytest.raises(ValueError):
            convergence_metric(e1, e2)

    def test_no_valid_track_is_a_named_error(self):
        ens = exploded_ensemble()
        with pytest.raises(ValueError, match="convergence metric: no track"):
            convergence_metric(ens, ens)


class TestDeterminism:
    def test_bitwise_reproducible(self):
        fam = make_family("log-singular")
        seed = derive_seed(123, "flow")
        runs = []
        for _ in range(2):
            drv = BrownianDriver.generate(2, 2**-6, 2**6, 3, seed=seed)
            x0 = fam.measure.sample(derive_rng(123, "x0"), 5)
            runs.append(integrate(fam.field, drv, x0, 1.0).states.tobytes())
        assert runs[0] == runs[1]



class TestDriverFingerprint:
    def test_time_shifted_ensemble_rejected(self):
        fam = make_family("linear")
        drv = BrownianDriver.generate(1, dt=2**-5, n_steps=2**6, n_omega=3, seed=7)
        x0 = fam.measure.sample(derive_rng(12, "shift-x0"), 4)
        direct = integrate(fam.field, drv, x0, 1.0)
        shifted_drv = drv.time_shift(1.0)
        assert shifted_drv.offset == 2**5
        assert shifted_drv.fingerprint != drv.fingerprint
        # same seed, dt, horizon and shapes: only the step offset differs
        shifted = integrate(fam.field, shifted_drv, x0, 1.0)
        assert convergence_metric(direct, integrate(fam.field, drv, x0, 1.0)) == 0.0
        with pytest.raises(ValueError, match="share a driver"):
            convergence_metric(direct, shifted)
        with pytest.raises(ValueError, match="share a driver"):
            stability_functional(direct, shifted, 5.0, 0.1, fam.measure)

    def test_offset_follows_shifts_and_coarsening(self):
        drv = BrownianDriver.generate(1, dt=2**-6, n_steps=2**6, n_omega=2, seed=9)
        twice = drv.time_shift(0.25).time_shift(0.25)
        assert twice.offset == drv.time_shift(0.5).offset == 2**5
        assert twice.coarsen(4).offset == 2**3
        odd = BrownianDriver.generate(1, dt=2**-6, n_steps=65, n_omega=2, seed=9)
        with pytest.raises(ValueError, match="offset"):
            odd.time_shift(2**-6).coarsen(2)  # 64 steps, offset 1
