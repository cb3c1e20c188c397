"""Stability functional, bounds, Cauchy and uniqueness experiments."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import qmc

from roughflow import (
    BrownianDriver,
    CoefficientField,
    FlowEnsemble,
    MollifierSpec,
    integrate,
    make_family,
    mollify,
)
from roughflow import stability as st
from roughflow._seeds import derive_rng, derive_seed
from roughflow.acceptance import cauchy_uniqueness_checks, stability_needs
from roughflow.flow import convergence_metric
from roughflow.stability import (
    _halton_ball,
    cauchy_experiment,
    stability_bound,
    stability_functional,
    uniqueness_experiment,
)


def ou_pair(shift=0.0, seed=1, n_omega=8, n_x=24, dt_exp=7):
    fam = make_family("linear")
    drv = BrownianDriver.generate(1, 2.0**-dt_exp, 2**dt_exp, n_omega,
                                  derive_seed(seed, "pair-driver"))
    x0 = fam.measure.sample(derive_rng(seed, "pair-x0"), n_x)
    e1 = integrate(fam.field, drv, x0, 1.0)
    shifted = CoefficientField(
        1, 1,
        sigma_fn=fam.field.sigma_fn,
        drift_fn=lambda x: fam.field.drift_fn(x) + shift,
        sigma_jac_fn=fam.field.sigma_jac_fn,
        drift_jac_fn=fam.field.drift_jac_fn,
        sigma_constant=True,
    )
    e2 = integrate(shifted, drv, x0, 1.0)
    return fam, e1, e2, shifted


class TestFunctional:
    def test_identical_flows_vanish(self):
        fam, e1, _, _ = ou_pair()
        val = stability_functional(e1, e1, 5.0, 0.1, fam.measure)
        assert val.value == 0.0

    def test_symmetry_and_positivity(self):
        fam, e1, e2, _ = ou_pair(shift=0.1)
        a = stability_functional(e1, e2, 5.0, 0.05, fam.measure)
        b = stability_functional(e2, e1, 5.0, 0.05, fam.measure)
        assert a.value == pytest.approx(b.value)
        assert a.value > 0

    def test_constant_gap_gives_log_two_times_mass(self):
        fam, e1, _, _ = ou_pair()
        delta = 0.37
        shifted_states = e1.states.copy()
        shifted_states[:, :, 1:, :] += delta
        e2 = FlowEnsemble(shifted_states, e1.times, e1.x0s, e1.field,
                          e1.driver, e1.exploded.copy())
        big_r = 1e9  # everything inside the level set
        val = stability_functional(e1, e2, big_r, delta, fam.measure)
        assert val.support_fraction == 1.0
        assert val.value == pytest.approx(np.log(2.0) * val.restricted_mass,
                                          rel=1e-12)

    def test_perturbation_trend(self):
        vals = []
        for shift in (0.4, 0.2, 0.1):
            fam, e1, e2, _ = ou_pair(shift=shift, seed=3)
            vals.append(stability_functional(e1, e2, 5.0, 0.05,
                                             fam.measure).value)
        assert vals[0] > vals[1] > vals[2]

    def test_monotone_in_delta(self):
        fam, e1, e2, _ = ou_pair(shift=0.2, seed=4)
        v_small = stability_functional(e1, e2, 5.0, 0.01, fam.measure).value
        v_large = stability_functional(e1, e2, 5.0, 0.5, fam.measure).value
        assert v_small > v_large

    def test_empty_intersection_flagged(self):
        fam, e1, e2, _ = ou_pair(seed=5)
        val = stability_functional(e1, e2, 1e-9, 0.1, fam.measure)
        assert val.zero_support and val.value == 0.0


class TestBallNorm:
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_halton_is_scipys_unscrambled_sequence_bitwise(self, dim):
        for n in (1, 7, 4096):
            want = qmc.Halton(d=dim, scramble=False).random(n)
            assert st._halton(n, dim).tobytes() == want.tobytes()

    def test_constant_function_volume(self):
        pts, norm = _halton_ball(1.0, 2, 200_000)
        val = norm(np.ones(pts.shape[0]), 2.0)
        assert val == pytest.approx(np.sqrt(np.pi), rel=5e-3)

    def test_matrix_valued_uses_frobenius(self):
        pts, norm = _halton_ball(1.0, 1, 50_000)
        val = norm(np.broadcast_to(np.eye(2) * 3.0, pts.shape[:-1] + (2, 2)), 2.0)
        # |3 I|_F = 3 sqrt(2) on a 1-D "ball" of length 2
        assert val == pytest.approx(3 * np.sqrt(2) * 2 ** 0.5, rel=5e-3)


class TestBound:
    def test_identical_pair_reduces_to_gradient_terms(self):
        fam = make_family("linear")
        *_, bound = stability_bound(fam.field, fam.field, 2.0, 2.0, 20_000)
        b = bound(0.1, lambda_pt=1.5)
        assert b.difference_terms == pytest.approx(0.0, abs=1e-12)
        assert b.value == pytest.approx(1.5 * b.gradient_terms, rel=1e-12)

    def test_structured_pair_uses_partial_form(self):
        fam = make_family("partially-sobolev")
        other = make_family("partially-sobolev", step_amp=0.2)
        sd, bd, bound = stability_bound(fam.field, other.field, 2.0, 2.0, 20_000)
        b = bound(0.1, lambda_pt=1.0)
        assert (b.sigma_diff_norm, b.drift_diff_norm) == (sd, bd)
        assert b.partial_form
        assert b.gradient_ball_radius == pytest.approx(8.0)  # 4R
        assert np.isfinite(b.value)

    def test_large_delta_limit(self):
        fam, _, _, shifted = ou_pair(shift=0.3)
        *_, bound = stability_bound(fam.field, shifted, 2.0, 2.0, 10_000)
        small = bound(1e6, lambda_pt=1.0)
        assert small.difference_terms == pytest.approx(0.0, abs=1e-4)


class TestExperiments:
    def test_cauchy_smooth_family_metrics_tiny(self):
        fam = make_family("linear")
        drv = BrownianDriver.generate(1, 2**-7, 2**7, 6,
                                      derive_seed(6, "cs-driver"))
        x0 = fam.measure.sample(derive_rng(6, "cs-x0"), 12)
        table = cauchy_experiment(fam, [2.0, 4.0, 8.0], drv, x0, 1.0,
                                  norm_budget=5000)
        assert all(m < 1e-3 for m in table.metrics())

    def test_cauchy_rough_family_decreasing_with_bound(self):
        fam = make_family("log-singular")
        drv = BrownianDriver.generate(2, 2**-9, 2**7, 8,
                                      derive_seed(7, "cr-driver"))
        x0 = fam.measure.sample(derive_rng(7, "cr-x0"), 16)
        table = cauchy_experiment(fam, [2.0, 4.0, 8.0], drv, x0, 0.25, norm_budget=5000)
        ms = table.metrics()
        assert ms[1] < ms[0]
        for row in table.rows:
            assert row.lhs <= 50 * row.rhs  # finite fitted constant
            assert row.delta_kl > 0

    def test_uniqueness_smooth_family(self):
        fam = make_family("linear")
        drv = BrownianDriver.generate(1, 2**-7, 2**7, 4,
                                      derive_seed(9, "us-driver"))
        x0 = fam.measure.sample(derive_rng(9, "us-x0"), 8)
        table = cauchy_experiment(fam, [8.0], drv, x0, 1.0, norm_budget=500)
        res = uniqueness_experiment(fam, table)
        assert res.level == 8.0
        assert res.metric < 1e-6

    @pytest.mark.parametrize("name", ["linear", "translation", "pure-drift",
                                      "deriv-linear"])
    def test_affine_family_rejected_in_the_one_wording(self, name):
        # the CLI's stability kind returns the same reason before its run
        fam = make_family(name)
        reason = stability_needs(fam)
        assert f"family {name!r}" in reason and "the mollifier reproduces" in reason
        with pytest.raises(ValueError) as err:
            cauchy_uniqueness_checks(fam, [2.0, 4.0], None, None, 0.25, 500)
        assert str(err.value) == f"the stability checks need {reason}"
        for rough in ("log-singular", "partially-sobolev"):
            assert stability_needs(make_family(rough)) is None

    def test_uniqueness_adversarial_distinct_drifts(self):
        # flows of genuinely different fields do not collapse to one limit
        fam = make_family("linear")
        drv = BrownianDriver.generate(1, 2**-7, 2**7, 6,
                                      derive_seed(10, "ua-driver"))
        x0 = fam.measure.sample(derive_rng(10, "ua-x0"), 12)
        e1 = integrate(fam.field, drv, x0, 1.0)
        other = make_family("linear", rate=0.5)
        e2 = integrate(other.field, drv, x0, 1.0)
        from roughflow import convergence_metric

        assert convergence_metric(e1, e2) > 0.05


class TestQuadraturePassBudget:
    """Quadrature passes of the stability norms on smoothed fields."""

    @pytest.fixture
    def passes(self, monkeypatch):
        count = {"n": 0}
        for attr in ("convolve", "convolve_with_grad"):
            original = getattr(MollifierSpec, attr)

            def counted(self, func, x, *args, _original=original):
                count["n"] += 1
                return _original(self, func, x, *args)

            monkeypatch.setattr(MollifierSpec, attr, counted)
        return count

    @pytest.mark.parametrize("name", ["deriv-rough", "partially-sobolev"])
    def test_bound_makes_three_passes(self, passes, name):
        # the 1-D rule and the slice rule
        fam = make_family(name)
        n = fam.field.dim_state
        fk, fl = (mollify(fam.field, MollifierSpec(dim=n, level=k, order=8, panels=1))
                  for k in (2.0, 4.0))
        stability_bound(fk, fl, 2.0, fam.q, 500)
        assert passes["n"] == 3

    @pytest.mark.parametrize("name", ["deriv-rough", "partially-sobolev"])
    def test_cauchy_pays_only_flows_and_bound(self, passes, name):
        fam = make_family(name)
        levels, n_steps = [2.0, 4.0, 8.0], 4
        drv = BrownianDriver.generate(fam.field.dim_noise, 2.0**-6, n_steps, 2,
                                      derive_seed(12, f"passes-{name}"))
        x0 = fam.measure.sample(derive_rng(12, f"passes-x0-{name}"), 3)
        cauchy_experiment(fam, levels, drv, x0, n_steps * drv.dt, norm_budget=500)
        # one pass per step and level for the flows, the bound's three per
        # pair, and the last level's density track: one sigma-divergence pass
        # per noise column where sigma is not constant (partially-sobolev's)
        track = 0 if fam.field.sigma_constant else fam.field.dim_noise
        assert passes["n"] == len(levels) * n_steps + 3 * (len(levels) - 1) + track

    def test_swirl_field_makes_no_pass(self, passes):
        # log-singular smooths from its table: neither the flows, the bound
        # nor the uniqueness check's second kernel runs a quadrature pass
        fam = make_family("log-singular")
        fk, fl = (mollify(fam.field, fam.mollifier(k)) for k in (2.0, 4.0))
        assert fk.is_smoothed and fl.is_smoothed
        stability_bound(fk, fl, 2.0, fam.q, 500)
        drv = BrownianDriver.generate(2, 2.0**-6, 4, 2, derive_seed(12, "passes-swirl"))
        x0 = fam.measure.sample(derive_rng(12, "passes-x0-swirl"), 3)
        cauchy_uniqueness_checks(fam, [2.0, 4.0, 8.0], drv, x0, 4 * drv.dt, 500)
        assert passes["n"] == 0


class TestOneFlowPerLevelAndKernel:
    """The uniqueness check reuses the Cauchy table's last flow."""

    @pytest.fixture
    def flows(self, monkeypatch):
        count = {"n": 0}
        original = st.integrate

        def counted(*args, **kwargs):
            count["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(st, "integrate", counted)
        return count

    @staticmethod
    def case(name, n_steps=4):
        fam = make_family(name)
        drv = BrownianDriver.generate(fam.field.dim_noise, 2.0**-6, n_steps, 2,
                                      derive_seed(13, f"flows-{name}"))
        x0 = fam.measure.sample(derive_rng(13, f"flows-x0-{name}"), 3)
        return fam, drv, x0, n_steps * drv.dt

    @pytest.mark.parametrize("name", ["log-singular", "partially-sobolev"])
    def test_checks_integrate_once_per_level_and_kernel(self, flows, name):
        fam, drv, x0, T = self.case(name)
        levels = [2.0, 4.0, 8.0]
        cauchy_uniqueness_checks(fam, levels, drv, x0, T, 500)
        assert flows["n"] == len(levels) + 1

    @pytest.mark.parametrize("name", ["log-singular", "partially-sobolev"])
    def test_metric_equals_two_separate_runs(self, name):
        fam, drv, x0, T = self.case(name)
        levels = [2.0, 4.0]
        _, unq, _, _ = cauchy_uniqueness_checks(fam, levels, drv, x0, T, 500)
        # both kernels integrated from scratch at the last level
        ensembles = [
            integrate(mollify(fam.field, replace(fam.mollifier(levels[-1]), shape=a)),
                      drv, x0, T)
            for a in (1.0, 3.0)
        ]
        assert unq.level == levels[-1]
        assert unq.metric == convergence_metric(*ensembles)
