"""Pathwise density tracking, pullback estimators, and theoretical bounds."""

import numpy as np
import pytest
from scipy import integrate as sci

from roughflow import (
    BrownianDriver,
    CoefficientField,
    DensityTrack,
    MonteCarloEstimate,
    ReferenceMeasure,
    compose_time_shift,
    density_bound_rhs,
    density_terms,
    entropy,
    integrate,
    kde_crosscheck,
    lp_density_norm,
    make_family,
    mollify,
    sup_lp_density_norm,
    uniform_density_bound,
)
from roughflow import flow
from roughflow._seeds import derive_rng, derive_seed


def zero_field():
    return CoefficientField(
        1, 1,
        sigma_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
        drift_fn=lambda x: np.zeros_like(x),
        sigma_jac_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)),
        drift_jac_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
    )


def tracked(family_name, dt_exp=8, n_omega=8, n_x=24, T=1.0, seed=0, measure=None):
    """The family's flow from starts drawn from ``measure`` (the family's
    own by default), with its density tracked against that measure."""
    fam = make_family(family_name)
    m = fam.measure if measure is None else measure
    drv = BrownianDriver.generate(
        fam.field.dim_noise, 2.0**-dt_exp, int(T * 2**dt_exp), n_omega,
        derive_seed(seed, f"{family_name}-driver"),
    )
    x0 = m.sample(derive_rng(seed, f"{family_name}-x0"), n_x)
    ens = integrate(fam.field, drv, x0, T, density=m)
    return fam, ens, ens.density


class TestTrackBasics:
    def test_trivial_field_density_one(self):
        m = ReferenceMeasure(1, 2.0)
        drv = BrownianDriver.generate(1, 2**-5, 2**5, 3, seed=1)
        x0 = m.sample(derive_rng(1, "z"), 5)
        track = integrate(zero_field(), drv, x0, 1.0, density=m).density
        assert np.all(track.density() == 1.0)

    def test_starts_at_one_and_positive(self):
        _, _, track = tracked("linear")
        dens = track.density()
        assert np.all(dens[:, :, 0] == 1.0)
        assert np.all(dens > 0.0)

    def test_translation_flow_matches_weight_ratio(self):
        # the Milstein-corrected left-point sum approximates the exact
        # log-weight increment with a pathwise error of order dt
        fam, ens, track = tracked("translation", dt_exp=10, n_omega=16, n_x=16)
        logw = fam.measure.log_weight(ens.states)
        oracle = logw - logw[:, :, 0:1]
        err = np.abs(np.exp(track.log_density() - oracle) - 1.0).max(axis=2)
        assert np.median(err) < 0.1
        assert np.quantile(err, 0.9) < 0.5

    def test_contraction_flow_matches_pushforward_oracle(self):
        fam, ens, track = tracked("pure-drift", dt_exp=10, n_omega=1, n_x=32)
        m = fam.measure
        t = ens.times
        exact = ens.x0s[None, :, None, :] * np.exp(-t)[None, None, :, None]
        oracle = (
            -t[None, None, :] + m.log_weight(exact)
            - m.log_weight(ens.x0s)[None, :, None]
        )
        rel = np.abs(np.exp(track.log_density() - oracle) - 1.0)
        assert rel.max() < 10.0 * 2.0**-10

    def test_multiplicative_under_composition(self):
        fam, ens, track = tracked("deriv-smooth", dt_exp=8, n_omega=4, n_x=8)
        m = fam.measure
        comp = compose_time_shift(ens, 0.5, 0.5)
        # the composed flow's density, tracked from s = 0.5 on
        track2 = integrate(comp.field, comp.driver, ens.state_at(0.5), 0.5, density=m).density
        j = ens.time_index(0.5)
        direct = track.log_density()[:, :, -1]
        composed = track.log_density()[:, :, j] + track2.log_density()[:, :, -1]
        assert np.allclose(direct, composed, rtol=1e-10, atol=1e-12)


def block_reevaluation(ens, m, per_block):
    """The density exponent of ``ens`` re-evaluated after the flow: blocks of
    ``per_block`` whole steps, each block's left points evaluated once with
    Jacobians and shared by both terms."""
    field, states, dt = ens.field, ens.states, ens.driver.dt
    n_omega, n_x, n_times, _ = states.shape
    lam2, ds = np.empty((2, n_omega, n_x, n_times - 1))
    for a in range(0, n_times - 1, per_block):
        steps = slice(a, min(a + per_block, n_times - 1))
        left, inc = states[:, :, steps, :], ens.driver.increments[:, steps, :]
        ev = field.evaluate(left, jac=True)
        lam1, lam2[:, :, steps], grad = density_terms(field, m, left, ev, np.sqrt(dt))
        quad = inc[..., :, None] * inc[..., None, :] - dt * np.eye(inc.shape[-1])
        ds[:, :, steps] = (np.einsum("oxnm,onm->oxn", lam1, inc)
                           + 0.5 * np.einsum("oxnkl,onkl->oxn", grad, quad))
    stochastic, time_integral = np.zeros((2, n_omega, n_x, n_times))
    np.cumsum(ds, axis=2, out=stochastic[:, :, 1:])
    np.cumsum(lam2 * dt, axis=2, out=time_integral[:, :, 1:])
    return stochastic, time_integral


class TestTrackInIntegrate:
    """``integrate(..., density=m)`` against the block re-evaluation it replaced."""

    @pytest.mark.parametrize("steps_per_block", [3, None])  # None: one block
    @pytest.mark.parametrize("name,smoothed", [
        # log-singular smooths from its swirl table, partially-sobolev by the
        # slice rule and the deriv bases by the 1-D rule (deriv-rough's sigma
        # is not constant)
        ("log-singular", True), ("partially-sobolev", True), ("deriv-smooth", True),
        ("deriv-rough", True), ("linear", False), ("partially-sobolev", False),
    ])
    def test_bitwise_equal_to_block_reevaluation(self, monkeypatch, name, smoothed,
                                                 steps_per_block):
        fam = make_family(name)
        field = mollify(fam.field, fam.mollifier(4.0)) if smoothed else fam.field
        assert field.is_smoothed == smoothed
        n_omega, n_x, n_steps = 3, 5, 11
        per_block = steps_per_block or n_steps
        monkeypatch.setattr(flow, "_TRACK_BLOCK_STATES", n_omega * n_x * per_block)
        drv = BrownianDriver.generate(field.dim_noise, 2.0**-6, n_steps, n_omega,
                                      derive_seed(21, f"inline-{name}"))
        x0 = fam.measure.sample(derive_rng(21, f"inline-x0-{name}"), n_x)
        ens = integrate(field, drv, x0, n_steps * drv.dt, density=fam.measure)
        # tracking the density leaves the flow bitwise unchanged
        assert np.array_equal(ens.states, integrate(field, drv, x0, n_steps * drv.dt).states)
        stochastic, time_integral = block_reevaluation(ens, fam.measure, per_block)
        assert np.array_equal(ens.density.stochastic, stochastic)
        assert np.array_equal(ens.density.time_integral, time_integral)
        assert np.array_equal(ens.density.valid, ~ens.exploded)
        assert np.array_equal(ens.density.times, ens.times)

    def test_untracked_flow_has_no_density(self):
        fam = make_family("linear")
        drv = BrownianDriver.generate(1, 2**-4, 4, 2, seed=3)
        assert integrate(fam.field, drv, [[0.5]], 0.25).density is None


class TestLpNorm:
    def test_trivial_density_norm(self):
        m = ReferenceMeasure(1, 2.0)
        drv = BrownianDriver.generate(1, 2**-4, 2**4, 2, seed=2)
        x0 = m.sample(derive_rng(2, "lp"), 8)
        track = integrate(zero_field(), drv, x0, 1.0, density=m).density
        for p in (2.0, 3.0):
            est = lp_density_norm(track, p)
            assert est.value == pytest.approx(m.total_mass() ** (1 / p), rel=1e-12)

    def test_contraction_flow_vs_quadrature_oracle(self):
        # deterministic flow: || rho_t ||_{L^2}^2 = int rho_t^2 d mu with
        # rho_t(y) = e^t w(e^t y) / w(y), evaluated by quadrature
        fam, ens, track = tracked("pure-drift", dt_exp=10, n_omega=1, n_x=4000,
                                  seed=5)
        m = fam.measure
        T = 1.0

        def rho(y):
            return np.exp(T) * m.weight([np.exp(T) * y]) / m.weight([y])

        oracle_sq, _ = sci.quad(
            lambda y: float(rho(y) ** 2 * m.weight([y])), -np.inf, np.inf
        )
        measured = lp_density_norm(track, 2.0)
        assert measured.value == pytest.approx(np.sqrt(oracle_sq), rel=0.05)

    def test_dominated_flag(self):
        times = np.array([0.0, 1.0])
        logr = np.zeros((1, 50, 2))
        logr[0, 0, 1] = -40.0  # one sample dominates rho~^(1-p)
        track = DensityTrack(times, logr, np.zeros_like(logr),
                             np.ones((1, 50), bool), 1.0)
        est = lp_density_norm(track, 2.0)
        assert est.dominated()

    def test_sup_over_time(self):
        _, _, track = tracked("linear", dt_exp=6, n_omega=8, n_x=16)
        sup_est = sup_lp_density_norm(track, 2.0)
        finals = [lp_density_norm(track, 2.0, t).value
                  for t in track.times[:: len(track.times) // 8]]
        assert sup_est.value >= max(finals) - 1e-12


class TestEstimateRecord:
    @pytest.mark.filterwarnings("error")  # an exploded track must not overflow exp
    def test_functionals_count_tracks_and_invalid_ones(self):
        # x' = x^3 explodes from x0 = 50 on every path and stays put near 0
        m = ReferenceMeasure(1, 2.0)
        field = CoefficientField(
            1, 1,
            sigma_fn=lambda x: np.full(x.shape[:-1] + (1, 1), 0.1),
            drift_fn=lambda x: x**3,
            sigma_jac_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)),
            drift_jac_fn=lambda x: 3.0 * x[..., None] ** 2,
        )
        drv = BrownianDriver.generate(1, 2**-4, 2**4, 3, seed=4)
        ens = integrate(field, drv, [[0.1], [-0.2], [0.3], [50.0]], 1.0, density=m)
        track = ens.density
        assert ens.n_exploded == 3 and (~track.valid).sum() == 3
        for est in (lp_density_norm(track, 2.0), sup_lp_density_norm(track, 2.0),
                    entropy(track)):
            assert isinstance(est, MonteCarloEstimate)
            assert est.n_samples == 3 * 4
            assert est.n_nonfinite == (~track.valid).sum()
            assert np.isfinite(est.value) and np.isfinite(est.se)


class TestNoValidSample:
    def test_estimators_reject_all_invalid_track(self):
        shape = (2, 3, 5)
        track = DensityTrack(
            times=np.linspace(0.0, 1.0, shape[-1]), stochastic=np.zeros(shape),
            time_integral=np.zeros(shape), valid=np.zeros(shape[:2], dtype=bool),
            total_mass=1.0,
        )
        for estimate in (lambda t: lp_density_norm(t, 2.0),
                         lambda t: sup_lp_density_norm(t, 2.0), entropy):
            with pytest.raises(ValueError, match="no valid sample"):
                estimate(track)


class TestBounds:
    def test_trivial_bound_value(self):
        m = ReferenceMeasure(1, 2.0)
        for p in (2.0, 3.0):
            bound = density_bound_rhs(zero_field(), m, p, 1.0, 2000,
                                      derive_rng(3, "b"))
            assert bound.value == pytest.approx(m.total_mass() ** (1 / p),
                                                rel=1e-12)
            assert not bound.divergent

    def test_ou_bound_dominates_measurement(self):
        fam, ens, track = tracked("linear", dt_exp=9, n_omega=24, n_x=40, T=0.125)
        measured = sup_lp_density_norm(track, 2.0)
        bound = density_bound_rhs(fam.field, fam.measure, 2.0, 0.125, 20_000,
                                  derive_rng(4, "ou"))
        assert not bound.divergent
        assert measured.value <= bound.value + 2 * measured.se

    def test_singular_divergence_flagged(self):
        # a drift with non-integrable negative divergence makes the bound
        # integrand explode near the origin; the estimator must flag it
        sing = CoefficientField(
            1, 1,
            sigma_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
            drift_fn=lambda x: -np.sign(x) * np.abs(x) ** 0.3,
            sigma_jac_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)),
            drift_jac_fn=lambda x: (-0.3 * np.abs(x[..., 0]) ** -0.7)[
                ..., None, None
            ],
        )
        m = ReferenceMeasure(1, 2.0)
        bound = density_bound_rhs(sing, m, 2.0, 1.0, 20_000, derive_rng(5, "sg"))
        assert bound.divergent

    def test_uniform_bound_smooth_family_level_free(self):
        fam = make_family("linear")
        drv = BrownianDriver.generate(1, 2**-8, 2**5, 8,
                                      derive_seed(6, "ub-driver"))
        x0 = fam.measure.sample(derive_rng(6, "ub"), 16)
        report = uniform_density_bound(
            fam, [2.0, 4.0, 8.0], drv, x0, 2.0, budget=4000,
            rng=derive_rng(6, "ub-rhs"),
        )
        assert report.passed
        spread = max(report.norms) - min(report.norms)
        assert spread < 0.05 * max(report.norms)  # smoothing is a no-op here

    def test_uniform_bound_structured_product_form(self):
        fam = make_family("partially-sobolev")
        t0_steps = 2**5
        drv = BrownianDriver.generate(1, 2**-10, t0_steps, 6,
                                      derive_seed(7, "ub2-driver"))
        x0 = fam.measure.sample(derive_rng(7, "ub2"), 12)
        report = uniform_density_bound(
            fam, [2.0, 4.0], drv, x0, 2.0, budget=4000,
            rng=derive_rng(7, "ub2-rhs"),
        )
        assert report.product_form
        assert np.isfinite(report.rhs) and not report.rhs_divergent
        assert report.passed


class TestEntropy:
    def test_trivial_entropy_zero(self):
        m = ReferenceMeasure(1, 2.0)
        drv = BrownianDriver.generate(1, 2**-4, 2**4, 2, seed=8)
        x0 = m.sample(derive_rng(8, "e"), 8)
        track = integrate(zero_field(), drv, x0, 1.0, density=m).density
        assert entropy(track).value == 0.0

    def test_translation_entropy_vs_quadrature_oracle(self):
        fam, ens, track = tracked("translation", dt_exp=9, n_omega=64, n_x=64,
                                  seed=9)
        m = fam.measure
        est = entropy(track)

        # oracle: E_{mu x B}|log(w(x + B_1)/w(x))| by Gauss-Hermite x quadrature
        from numpy.polynomial.hermite_e import hermegauss

        nodes, weights = hermegauss(61)
        weights = weights / weights.sum()

        def inner(x):
            vals = np.abs(m.log_weight((x + nodes)[:, None])
                          - m.log_weight([x]))
            return float(vals @ weights)

        # piecewise: the integrand has a kink where |x + node| = |x|
        def integrand(x):
            return inner(x) * float(m.weight([x]))

        kinks = np.sort(-nodes / 2.0)
        oracle = (sci.quad(integrand, -np.inf, kinks[0])[0]
                  + sci.quad(integrand, kinks[0], kinks[-1], points=kinks[1:-1],
                             limit=200)[0]
                  + sci.quad(integrand, kinks[-1], np.inf)[0])
        assert abs(est.value - oracle) < 3 * est.se + 0.02 * oracle

    def test_ou_entropy_stable_under_budget(self):
        _, _, t1 = tracked("linear", dt_exp=8, n_omega=16, n_x=32, seed=10)
        _, _, t2 = tracked("linear", dt_exp=8, n_omega=32, n_x=32, seed=11)
        e1, e2 = entropy(t1), entropy(t2)
        assert np.isfinite(e1.value) and np.isfinite(e2.value)
        assert abs(e1.value - e2.value) < 3 * (e1.se + e2.se)


class TestKdeCrosscheck:
    def test_trivial_ratio_near_one(self):
        m = ReferenceMeasure(1, 2.0)
        drv = BrownianDriver.generate(1, 2**-4, 2**4, 1, seed=12)
        x0 = m.sample(derive_rng(12, "k"), 4000)
        ens = integrate(zero_field(), drv, x0, 1.0)
        rep = kde_crosscheck(ens, m, 1.0, bandwidth=0.25)
        assert np.all(np.abs(rep.ratio - 1.0) < 0.15)
        assert rep.qq_distance is None  # an untracked ensemble has no pathwise values

    def test_contraction_pushforward(self):
        fam, ens, _ = tracked("pure-drift", dt_exp=8, n_omega=1, n_x=4000, seed=13)
        m = fam.measure
        # bandwidth well below the density's variation scale (the flow
        # compresses mass by a factor e, so the pushforward varies fast)
        rep = kde_crosscheck(ens, m, 1.0, bandwidth=0.05)
        T = 1.0
        pts = rep.probe_points[:, 0]
        oracle = (np.exp(T) * m.weight((np.exp(T) * pts)[:, None])
                  / m.weight(pts[:, None]))
        assert np.all(np.abs(rep.ratio / oracle - 1.0) < 0.15)
        assert rep.qq_distance < 0.15

    def test_translation_fixed_omega(self):
        # the weight-ratio oracle holds for any alpha; this check's bandwidth
        # and bound were set on starts drawn from alpha = 1.5
        m = ReferenceMeasure(1, 1.5)
        _, ens, _ = tracked("translation", dt_exp=8, n_omega=2, n_x=4000, seed=14, measure=m)
        rep = kde_crosscheck(ens, m, 1.0, bandwidth=0.3, omega_index=1)
        b_t = np.cumsum(ens.driver.increments, axis=1)[1, -1, 0]
        pts = rep.probe_points[:, 0]
        oracle = m.weight((pts - b_t)[:, None]) / m.weight(pts[:, None])
        assert np.all(np.abs(rep.ratio / oracle - 1.0) < 0.15)

    def test_bad_bandwidth_rejected(self):
        fam, ens, _ = tracked("linear", dt_exp=4, n_omega=1, n_x=16)
        with pytest.raises(ValueError):
            kde_crosscheck(ens, fam.measure, 1.0, bandwidth=0.0)
