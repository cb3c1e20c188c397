"""Coefficient fields, mollification, and the density-exponent functionals."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from roughflow import (
    FAMILY_NAMES,
    BrownianDriver,
    CoefficientField,
    MollifierSpec,
    ReferenceMeasure,
    condition_integrals,
    density_terms,
    make_family,
    mollified_convergence,
    mollifier_domination_check,
    mollify,
)
from roughflow import coefficients
from roughflow._seeds import derive_rng
from roughflow.catalog import _loglip
from roughflow.coefficients import (
    FieldBlocks,
    StructuredCoefficient,
    _bump_mass,
    _smoothstep,
    _smoothstep_deriv,
    _term_sum,
)
from roughflow.derivative import DerivativeSystem
from roughflow.flow import integrate as integrate_flow


def scalar_field_1d(fn, dfn=None, name=""):
    """1-D field with the given drift and zero noise."""
    return CoefficientField(
        dim_state=1, dim_noise=1,
        sigma_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
        drift_fn=lambda x: fn(x[..., 0])[..., None],
        sigma_jac_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1, 1)),
        drift_jac_fn=(None if dfn is None
                      else lambda x: dfn(x[..., 0])[..., None, None]),
        name=name,
    )


class TestMollifierSpec:
    def test_kernel_nonnegative_and_normalized(self):
        for dim in (1, 2):
            spec = MollifierSpec(dim=dim, level=3.0)
            rng = derive_rng(0, f"kern{dim}")
            pts = rng.uniform(-2, 2, size=(200, dim))
            assert np.all(spec.kernel(pts) >= 0.0)
            assert spec.kernel_mass_quadrature() == pytest.approx(1.0, abs=1e-6)

    def test_kernel_mass_check_sees_a_missing_scaling(self, monkeypatch):
        spec = MollifierSpec(dim=2, level=3.0)
        monkeypatch.setattr(MollifierSpec, "kernel",
                            lambda self, x: self._bump(self.level * x)
                            / _bump_mass(self.dim, self.shape))
        assert spec.kernel_mass_quadrature() == pytest.approx(1.0 / 9.0, rel=1e-6)

    def test_points_of_another_dimension_are_rejected(self):
        spec = MollifierSpec(dim=2, level=2, order=8, panels=1)
        pts = np.ones((3, 3)) * 3
        for call in (spec.cutoff,
                     lambda x: spec.convolve(lambda y: y[..., 0], x),
                     lambda x: spec.convolve_with_grad(lambda y: y[..., 0], x)):
            with pytest.raises(ValueError, match=r"dimension 3, the mollifier lives on R\^2"):
                call(pts)

    def test_kernel_support_in_unit_ball_over_k(self):
        spec = MollifierSpec(dim=1, level=4.0)
        assert spec.kernel(np.array([[0.26]])) == 0.0  # outside B(1/4)
        assert spec.kernel(np.array([[0.2]])) > 0.0

    def test_cutoff_plateau_and_support(self):
        spec = MollifierSpec(dim=2, level=3.0)
        rng = derive_rng(1, "cut")
        inner = rng.uniform(-1, 1, size=(100, 2)) * (3.0 / np.sqrt(2))
        assert np.allclose(spec.cutoff(inner), 1.0)
        far = rng.uniform(6.5, 10, size=(100, 2))
        assert np.allclose(spec.cutoff(far), 0.0)
        mid = rng.uniform(-6, 6, size=(200, 2))
        vals = spec.cutoff(mid)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        psi, grad = spec.cutoff(mid, grad=True)
        assert psi.tobytes() == vals.tobytes()
        step = 1e-6 * np.eye(2)
        fd = np.stack([spec.cutoff(mid + step[j]) - spec.cutoff(mid - step[j])
                       for j in range(2)], axis=-1) / 2e-6
        assert np.allclose(grad, fd, atol=1e-6)

    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            MollifierSpec(dim=1, level=0.5)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(level=float("nan")), "level must be finite"),
        (dict(level=float("inf")), "level must be finite"),
        (dict(shape=-1.0), "kernel shape"),
        (dict(shape=0.0), "kernel shape"),
        (dict(order=0), "quadrature order"),
        (dict(panels=0), "panel counts"),
        (dict(panels=(2, 0)), "panel counts"),
    ])
    def test_nonsense_rejected_by_name(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MollifierSpec(dim=2, **kwargs)


class TestMollify:
    def test_constant_reproduced_inside_plateau(self):
        field = make_family("linear", noise=0.7).field  # sigma constant 0.7 I
        spec = MollifierSpec(dim=1, level=4.0)
        smooth = mollify(field, spec)
        x = np.linspace(-3.9, 3.9, 11)[:, None]
        assert np.allclose(smooth.sigma(x), field.sigma(x), atol=1e-13)

    def test_identity_reproduced(self):
        f = scalar_field_1d(lambda u: u, name="identity-drift")
        spec = MollifierSpec(dim=1, level=4.0)
        smooth = mollify(f, spec)
        x = np.linspace(-2.9, 2.9, 13)[:, None]
        assert np.allclose(smooth.drift(x), x, atol=1e-13)

    def test_log_singular_value_vs_quadrature_oracle(self):
        fam = make_family("log-singular")
        spec = MollifierSpec(dim=2, level=8.0, order=32, panels=2)
        smooth = mollify(fam.field, spec)
        x = np.array([[0.01, 0.0]])
        got = smooth.drift(x)[0]

        # oracle: adaptive 2-D quadrature of the convolution over B(1/k), in
        # polar coordinates u = r (cos t, sin t); t runs over (-pi, pi) so
        # the singular direction t = 0 is inside the range, not on its edge
        def integrand(component):
            def fn(r, t):
                u1, u2 = r * np.cos(t), r * np.sin(t)
                pt = np.array([[x[0, 0] - u1, x[0, 1] - u2]])
                chi = spec.kernel(np.array([[u1, u2]]))[0]
                return fam.field.drift(pt)[0, component] * chi * r

            return fn

        k = spec.level
        oracle = np.array([
            integrate.dblquad(integrand(c), -np.pi, np.pi, 0.0, 1 / k,
                              epsabs=1e-9)[0]
            for c in range(2)
        ])
        # the drift has a log singularity inside the kernel support here, so
        # the fixed-node engine is ~0.5% accurate; 1% catches real defects
        assert np.allclose(got, oracle, rtol=1e-2, atol=2e-4)

    def test_analytic_jacobians_match_finite_differences(self):
        fam = make_family("deriv-smooth")
        spec = MollifierSpec(dim=1, level=2.0)
        smooth = mollify(fam.field, spec)
        x = np.linspace(-2.5, 2.5, 9)[:, None]
        h = 1e-5
        fd_sigma = (smooth.sigma(x + h) - smooth.sigma(x - h)) / (2 * h)
        fd_drift = (smooth.drift(x + h) - smooth.drift(x - h)) / (2 * h)
        assert np.allclose(smooth.sigma_jac(x)[..., 0], fd_sigma, rtol=1e-5,
                           atol=1e-9)
        assert np.allclose(smooth.drift_jac(x)[..., 0], fd_drift, rtol=1e-5,
                           atol=1e-9)

    def test_structured_mollify_keeps_first_block(self):
        fam = make_family("partially-sobolev")
        spec = MollifierSpec(dim=2, level=4.0, order=16, panels=1)
        smooth = mollify(fam.field, spec)
        pts = fam.measure.sample(derive_rng(2, "structmoll"), 20)
        assert np.allclose(
            smooth.sigma(pts)[:, :1, :], fam.field.sigma(pts)[:, :1, :]
        )
        assert np.allclose(smooth.drift(pts)[:, 0], fam.field.drift(pts)[:, 0])


class TestStructuredBlocks:
    def test_block_record_required(self):
        with pytest.raises(TypeError, match="blocks"):
            StructuredCoefficient(1, dim_state=2, dim_noise=1)

    def test_blocks_read_their_own_variables(self):
        field = make_family("partially-sobolev").field
        pts = make_family("partially-sobolev").measure.sample(derive_rng(3, "blocks"), 16)
        ev = field.evaluate(pts, jac=True)
        first, second = field.first_block(pts[:, :1]), field.second_block(pts)
        assert np.array_equal(first.sigma, ev.sigma[:, :1, :])
        assert np.array_equal(first.drift_jac, ev.drift_jac[:, :1, :1])
        x1, x2 = pts[:, :1], pts[:, 1:]
        assert np.array_equal(second.sigma, _term_sum(field.blocks.sigma2(x1, x2)))
        assert np.array_equal(second.drift, _term_sum(field.blocks.drift2(x1, x2)))
        assert np.array_equal(second.sigma_jac, ev.sigma_jac[:, 1:, :, 1:])

    def test_smoothed_field_shares_the_first_block_and_is_not_resmoothed(self):
        field = make_family("partially-sobolev").field
        spec = MollifierSpec(dim=2, level=4.0, order=16, panels=1)
        smooth = mollify(field, spec)
        assert isinstance(smooth.blocks, FieldBlocks)
        assert smooth.blocks is field.blocks
        with pytest.raises(ValueError, match="already smoothed"):
            mollify(smooth, spec)

    @pytest.mark.parametrize("family,variant", [
        ("partially-sobolev", "rough"), ("partially-sobolev", "smoothed"),
        *[(f"deriv-{kind}", "lifted") for kind in ("linear", "smooth", "rough")],
    ])
    def test_evaluate_is_first_block_stacked_on_second_rows(self, family, variant):
        field = make_family(family).field
        if variant == "smoothed":
            field = mollify(field, MollifierSpec(dim=2, level=4.0, order=16, panels=(2, 1)))
        elif variant == "lifted":
            field = DerivativeSystem(field).lifted
        n1, n = field.n1, field.dim_state
        pts = ReferenceMeasure(n, 3.0).sample(derive_rng(16, f"stack-{family}-{variant}"), 40)
        ev = field.evaluate(pts, jac=True)
        first, rows = field.first_block(pts[:, :n1]), field._second(pts, jac=True)
        for name in ("sigma", "drift"):
            want = np.concatenate([getattr(first, name), getattr(rows, name)], axis=1)
            assert getattr(ev, name).tobytes() == want.tobytes()
            jac2 = getattr(rows, name + "_jac")
            jac1 = np.zeros((len(pts), n1) + jac2.shape[2:])
            jac1[..., :n1] = getattr(first, name + "_jac")
            want = np.concatenate([jac1, jac2], axis=1)
            assert getattr(ev, name + "_jac").tobytes() == want.tobytes()
            second = getattr(field.second_block(pts), name + "_jac")
            assert second.tobytes() == np.ascontiguousarray(jac2[..., n1:]).tobytes()
            if variant != "smoothed":  # a rough second block has no x1-derivative
                assert np.all(jac2[..., :n1] == 0.0)


class TestFieldWithoutJacobians:
    def test_jacobians_raise_and_smoothing_still_differentiates(self):
        fam = make_family("deriv-smooth")
        bare = CoefficientField(
            dim_state=1, dim_noise=1,
            sigma_fn=fam.field.sigma_fn, drift_fn=fam.field.drift_fn, name="bare",
        )
        assert not bare.is_analytic
        pts = derive_rng(3, "fd").uniform(-3, 3, size=(30, 1))
        with pytest.raises(ValueError, match="field 'bare' has no sigma Jacobian"):
            bare.sigma_jac(pts)
        with pytest.raises(ValueError, match="field 'bare' has no drift Jacobian"):
            bare.drift_jac(pts)
        ev = mollify(bare, MollifierSpec(dim=1, level=2.0)).evaluate(pts, jac=True)
        assert np.all(np.isfinite(ev.sigma_jac)) and np.all(np.isfinite(ev.drift_jac))

    def test_missing_first_block_jacobian_is_named_without_mollify(self):
        # smoothing keeps the first block, and mollify rejects this field
        blocks = make_family("partially-sobolev").field.blocks
        field = StructuredCoefficient(1, replace(blocks, sigma1_jac=None), 2, 1, "no-jac")
        with pytest.raises(ValueError) as err:
            field.sigma_jac(np.zeros((3, 2)))
        assert "field 'no-jac' has no first-block sigma Jacobian" in str(err.value)
        assert "sigma1_jac" in str(err.value) and "mollify" not in str(err.value)
        with pytest.raises(ValueError, match="first-block Jacobians"):
            mollify(field, make_family("partially-sobolev").mollifier(4.0))

    @pytest.mark.parametrize("missing", ["sigma1_jac", "drift1_jac"])
    def test_mollify_checks_both_first_block_jacobians(self, missing):
        fam = make_family("partially-sobolev")
        field = StructuredCoefficient(1, replace(fam.field.blocks, **{missing: None}), 2, 1)
        with pytest.raises(ValueError, match="first-block Jacobians"):
            mollify(field, fam.mollifier(4.0))


class TestDensityExponentTerms:
    def test_noise_term_constant_sigma_at_origin(self):
        fam = make_family("linear")
        m = fam.measure
        assert np.allclose(density_terms(fam.field, m, np.zeros((1, 1)))[0], 0.0)

    def test_noise_term_linear_sigma(self):
        # sigma(x) = x, alpha = 1: divergence 1 plus x * grad-log-weight = 0 at x=1
        f = CoefficientField(
            1, 1,
            sigma_fn=lambda x: x[..., None],
            drift_fn=lambda x: np.zeros_like(x),
            sigma_jac_fn=lambda x: np.ones(x.shape[:-1] + (1, 1, 1)),
            drift_jac_fn=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
        )
        m = ReferenceMeasure(1, 1.0)
        assert density_terms(f, m, np.array([[1.0]]))[0][0, 0] == pytest.approx(0.0)

    def test_noise_term_constant_sigma(self):
        c = 1.3
        fam = make_family("linear", noise=c)
        m = ReferenceMeasure(1, 1.0)
        val = density_terms(fam.field, m, np.array([[1.0]]))[0]
        assert val[0, 0] == pytest.approx(-c)

    def test_drift_term_contraction_flow(self):
        fam = make_family("pure-drift")
        alpha = fam.measure.alpha
        x = np.array([[0.7]])
        got = density_terms(fam.field, fam.measure, x)[1][0]
        want = -1.0 + 2 * alpha * 0.49 / (1 + 0.49)
        assert got == pytest.approx(want, rel=1e-12)

    def test_drift_term_zero_field(self):
        f = scalar_field_1d(lambda u: np.zeros_like(u), dfn=lambda u: np.zeros_like(u))
        m = ReferenceMeasure(1, 2.0)
        assert density_terms(f, m, np.array([[0.3]]))[1][0] == 0.0

    def test_drift_term_identity_sigma_at_origin(self):
        n = 2
        fam = make_family("linear", dim=n, noise=1.0, rate=0.0)
        m = ReferenceMeasure(n, 1.5)
        got = density_terms(fam.field, m, np.zeros((1, n)))[1][0]
        assert got == pytest.approx(-n * 1.5)  # half the Hessian trace

    @pytest.mark.parametrize("name", ["deriv-smooth", "partially-sobolev",
                                      "log-singular"])
    def test_noise_gradient_matches_difference_along_sigma(self, name):
        # G[k, l] = <sigma^{.,k}, grad lam1^l> against a central difference
        # of the noise term along each sigma column, on a non-constant 1-D
        # sigma, a smoothed 2-D block field and a constant sigma with m = 2
        # (where G is the closed-form weight Hessian between sigma columns)
        fam = make_family(name)
        m, field = fam.measure, fam.field
        pts = m.sample(derive_rng(5, f"grad-{name}"), 400)
        if name == "partially-sobolev":
            field = mollify(
                field, MollifierSpec(dim=2, level=4.0, order=16, panels=(2, 1))
            )
            # inside the kernel radius of the x1-step the value quadrature is
            # a staircase in x1, which a difference quotient cannot see past
            pts = pts[np.abs(pts[:, 0]) > 0.3]
        lam1, lam2, grad = density_terms(field, m, pts, h=2.0**-12)
        # the difference step touches G only
        plain = density_terms(field, m, pts, field.evaluate(pts, jac=True))
        assert plain[0].tobytes() == lam1.tobytes() and plain[1].tobytes() == lam2.tobytes()
        assert plain[2] is None
        sig = field.sigma(pts)
        eps = 1e-5
        ref = np.stack([
            (density_terms(field, m, pts + eps * sig[:, :, k])[0]
             - density_terms(field, m, pts - eps * sig[:, :, k])[0]) / (2 * eps)
            for k in range(field.dim_noise)
        ], axis=1)
        assert np.allclose(grad, ref, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("variant", ["rough", "smoothed"])
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_lam_terms_do_not_depend_on_h(self, name, variant):
        # h feeds G only: lam1 and lam2 are bitwise the same with and
        # without it, and with or without a caller-supplied evaluation
        fam = make_family(name)
        m, field = fam.measure, fam.field
        if variant == "smoothed":
            field = mollify(field, fam.mollifier(4.0))
        pts = m.sample(derive_rng(6, f"terms-{name}-{variant}"), 25)
        lam1, lam2, G = density_terms(field, m, pts)
        assert G is None
        assert lam1.shape == (25, field.dim_noise) and lam2.shape == (25,)
        for ev in (None, field.evaluate(pts, jac=True)):
            got1, got2, G = density_terms(field, m, pts, ev, h=2.0**-10)
            assert got1.tobytes() == lam1.tobytes() and got2.tobytes() == lam2.tobytes()
            assert G.shape == (25, field.dim_noise, field.dim_noise)
            assert np.all(np.isfinite(G))


class TestConstantSigma:
    """A field declaring ``sigma_constant`` is read at one point by
    ``mollify`` and ``density_terms``: the flag must hold, and the one-point
    path must give the per-state path's terms bitwise."""

    @pytest.mark.parametrize("name", ["translation", "pure-drift", "linear", "log-singular",
                                      "deriv-linear"])
    def test_declared_constant_sigma_is_one_matrix_with_zero_jacobian(self, name):
        fam = make_family(name)
        field = fam.field
        assert field.sigma_constant
        pts = fam.measure.sample(derive_rng(12, f"const-{name}"), 200)
        sig0 = field.constant_sigma()
        assert sig0.shape == (field.dim_state, field.dim_noise)
        assert np.array_equal(field.sigma(pts), np.broadcast_to(sig0, (200,) + sig0.shape))
        assert not np.any(field.sigma_jac(pts))

    @pytest.mark.parametrize("name", ["translation", "pure-drift", "linear", "log-singular",
                                      "deriv-linear"])
    def test_density_terms_bitwise_the_per_state_path(self, name):
        fam = make_family(name)
        m, field = fam.measure, fam.field
        per_state = replace(field, sigma_constant=False)
        assert per_state.constant_sigma() is None
        pts = m.sample(derive_rng(13, f"const-terms-{name}"), 300)
        for ev in (None, per_state.evaluate(pts, jac=True)):
            got = density_terms(field, m, pts, ev, 2.0**-5)
            want = density_terms(per_state, m, pts, ev, 2.0**-5)
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.array_equal(a, b)


def _old_affine_closed_form(name, x, rate=1.0, noise=0.6):
    """(sigma, b, sigma_jac, b_jac) of an affine family as each was written
    before one builder gave them all."""
    lead, n = x.shape[:-1], x.shape[-1]
    eye, sigma_jac = np.eye(n), np.zeros(lead + (n, n, n))
    if name == "linear":
        return (np.broadcast_to(noise * eye, lead + (n, n)).copy(), -rate * x, sigma_jac,
                np.broadcast_to(-rate * eye, lead + (n, n)).copy())
    if name == "translation":
        return np.ones(lead + (1, 1)), np.zeros_like(x), sigma_jac, np.zeros(lead + (1, 1))
    if name == "pure-drift":
        return (np.zeros(lead + (n, n)), -x, sigma_jac,
                np.broadcast_to(-eye, lead + (n, n)).copy())
    return np.full(lead + (1, 1), 0.5), -0.8 * x, sigma_jac, np.full(lead + (1, 1), -0.8)


class TestAffineFamilies:
    """The catalog's one affine builder against the fields it replaced, and
    ``Family.affine`` against what smoothing does to each family."""

    @pytest.mark.parametrize("name, params, label", [
        ("linear", {}, "linear(rate=1,noise=0.6)"),
        ("linear", dict(dim=2, rate=0.5, noise=0.3), "linear(rate=0.5,noise=0.3)"),
        ("translation", {}, "translation"),
        ("pure-drift", {}, "pure-drift"),
        ("pure-drift", dict(dim=2), "pure-drift"),
        ("deriv-linear", {}, "deriv-linear"),
    ])
    def test_fields_bitwise_their_old_closed_forms(self, name, params, label):
        fam = make_family(name, **params)
        field = fam.field
        assert fam.affine and field.sigma_constant and field.name == label
        x = fam.measure.sample(derive_rng(14, f"affine-{name}"), 50)
        ev = field.evaluate(x, jac=True)
        old = _old_affine_closed_form(name, x, **{k: v for k, v in params.items()
                                                  if k != "dim"})
        # + 0.0 turns -0.0 into +0.0: translation's b = -0 x has signed zeros
        for got, want in zip((ev.sigma, ev.drift, ev.sigma_jac, ev.drift_jac), old):
            assert got.shape == want.shape
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_affine_exactly_when_smoothing_reproduces_the_field(self, name):
        fam = make_family(name)
        k, n = 2.0, fam.field.dim_state
        smooth = mollify(fam.field, fam.mollifier(k))
        x = derive_rng(15, f"affine-ball-{name}").uniform(-1.4, 1.4, (200, n))  # in B(k)
        raw, got = fam.field.evaluate(x), smooth.evaluate(x)
        gap = max(np.max(np.abs(got.sigma - raw.sigma)), np.max(np.abs(got.drift - raw.drift)))
        assert (gap < 1e-12) == fam.affine


def whole(field):
    """The evaluator of a whole field for ``condition_integrals``."""
    return lambda x: field.evaluate(x, jac=True)


class TestConditionIntegrals:
    def test_zero_field_gives_mass(self):
        f = scalar_field_1d(lambda u: np.zeros_like(u), dfn=lambda u: np.zeros_like(u))
        m = ReferenceMeasure(1, 2.0)
        est, divergent = condition_integrals(m, whole(f), 1.0, 300, derive_rng(5, "zero"))
        assert est.value == pytest.approx(m.total_mass(), rel=1e-12)
        assert est.n_samples == 4 * 300 and est.n_nonfinite == 0  # the last stage's
        assert not divergent

    def test_zero_blocks_give_each_measure_its_mass(self):
        # both blocks vanish: the integrand is exp(0) = 1 against mu1 and against mu
        def zero(*value_shape):  # of x1, or of (x1, x2): zeros at the last block's points
            return lambda *x: np.zeros(x[-1].shape[:-1] + value_shape)

        def zero_terms(*value_shape):
            return lambda x1, x2: [(zero(*value_shape)(x1), zero(*value_shape)(x2))]

        field = StructuredCoefficient(
            1, FieldBlocks(zero(1, 1), zero(1), zero_terms(1, 1), zero_terms(1),
                           zero(1, 1, 1), zero(1, 1), zero(1, 1, 1), zero(1, 1)),
            dim_state=2, dim_noise=1, name="zero-blocks",
        )
        m1, m = ReferenceMeasure(1, 1.5), ReferenceMeasure(2, 3.0)
        rng = derive_rng(5, "zero-blocks")
        for measure, block in ((m1, field.first_block), (m, field.second_block)):
            est, divergent = condition_integrals(measure, block, 1.0, 300, rng)
            assert est.value == pytest.approx(measure.total_mass(), rel=1e-12)
            assert est.max_share == pytest.approx(1.0 / (4 * 300), rel=1e-12)
            assert not divergent

    def test_lipschitz_field_finite_for_large_p0(self):
        fam = make_family("linear")
        est, divergent = condition_integrals(fam.measure, whole(fam.field), 2.0, 2000,
                                             derive_rng(6, "lin"))
        assert np.isfinite(est.value)
        assert not divergent

    def test_supercritical_log_singularity_flagged(self):
        # beta > n / p0 makes exp(p0 |b-bar|) ~ r^(-p0 beta) non-integrable;
        # partial radial integrals from a shrinking cutoff confirm divergence
        beta, p0 = 3.0, 1.0
        fam = make_family("log-singular", beta=beta)

        def partial(cutoff):
            val, _ = integrate.quad(
                lambda r: r * np.exp(p0 * beta * np.log(1.0 / r)), cutoff, 0.4
            )
            return val

        assert partial(1e-4) > 10 * partial(1e-2)
        _, divergent = condition_integrals(fam.measure, whole(fam.field), p0, 40_000,
                                           derive_rng(7, "sing"))
        assert divergent


class TestKernelDomination:
    def test_constant_function(self):
        spec = MollifierSpec(dim=1, level=2.0)
        rep = mollifier_domination_check(
            lambda x: np.full(x.shape[:-1], 1.7), spec, np.linspace(-5, 5, 41)
        )
        assert rep.passed

    def test_random_piecewise(self):
        rng = derive_rng(9, "pw")
        edges = np.sort(rng.uniform(-5, 5, 9))
        levels = rng.normal(size=10)

        def f(x):
            return levels[np.searchsorted(edges, x[..., 0])]

        for k in (1.0, 2.0, 8.0):
            spec = MollifierSpec(dim=1, level=k)
            rep = mollifier_domination_check(f, spec, np.linspace(-5, 5, 81))
            assert rep.passed, f"k={k}: ratio {rep.max_ratio}"

    def test_zero_function(self):
        spec = MollifierSpec(dim=1, level=2.0)
        rep = mollifier_domination_check(
            lambda x: np.zeros(x.shape[:-1]), spec, np.linspace(-3, 3, 21)
        )
        assert rep.passed and rep.max_ratio == 0.0


class TestMollifiedConvergence:
    def test_smooth_lipschitz_decreases(self):
        m = ReferenceMeasure(1, 2.0)
        norms = mollified_convergence(
            lambda x: np.tanh(2 * x[..., 0]), m, [1, 2, 4, 8, 16], radius=3.0,
            exponent=2.0,
        )
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-2 * norms[0]

    def test_compactly_supported_smooth_rate(self):
        m = ReferenceMeasure(1, 2.0)

        def f(x):
            u = x[..., 0]
            return np.where(np.abs(u) < 1, np.exp(-1 / np.maximum(1 - u * u, 1e-12)),
                            0.0)

        norms = mollified_convergence(f, m, [2, 4, 8, 16], radius=2.0, exponent=2.0)
        assert norms[-1] < norms[0] / 4.0

    def test_zero_function(self):
        m = ReferenceMeasure(1, 2.0)
        norms = mollified_convergence(
            lambda x: np.zeros(x.shape[:-1]), m, [1, 2], radius=2.0, exponent=2.0
        )
        assert norms == [0.0, 0.0]


def _smoothstep_reference(t):
    # the formula before the exponentials were restricted to the band
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        gm = np.where(1 - t > 0, np.exp(-1.0 / np.maximum(1 - t, 1e-300)), 0.0)
    return g / (g + gm)


def _smoothstep_deriv_reference(t):
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        gm = np.where(1 - t > 0, np.exp(-1.0 / np.maximum(1 - t, 1e-300)), 0.0)
        gp = np.where(t > 0, g / np.maximum(t, 1e-300) ** 2, 0.0)
        gmp = np.where(1 - t > 0, -gm / np.maximum(1 - t, 1e-300) ** 2, 0.0)
        denom = (g + gm) ** 2
        return np.where(denom > 0, (gp * gm - g * gmp) / np.maximum(denom, 1e-300), 0.0)


class TestSmoothstep:
    GRID = np.concatenate([
        [-1e300, -1e3, -1.0, -1e-300, -0.0, 0.0, 5e-324, 1e-150, 1e-100, 1e-3,
         0.5, 1.0 - 1e-16, 1.0, 1.0 + 1e-16, 2.0, 1e3, 1e300, np.inf, -np.inf],
        np.linspace(-0.5, 1.5, 2001),
        np.nextafter([0.0, 1.0], [1.0, 0.0]),
    ])

    def test_value_bitwise_equal_to_full_formula(self):
        got = _smoothstep(self.GRID)
        ref = _smoothstep_reference(self.GRID)
        assert got.tobytes() == ref.tobytes()
        assert np.isnan(_smoothstep(np.nan))

    def test_derivative_bitwise_equal_where_full_formula_is_finite(self):
        got = _smoothstep_deriv(self.GRID)
        ref = _smoothstep_deriv_reference(self.GRID)
        finite = np.isfinite(ref)
        assert got[finite].tobytes() == ref[finite].tobytes()
        # just above 0 the full formula's t**2 underflows and gives 0/0; the
        # derivative there is 0
        assert np.isnan(ref[self.GRID == 5e-324]).all()
        assert np.all(got[~finite] == 0.0)
        assert np.all(got[(self.GRID <= 0) | (self.GRID >= 1)] == 0.0)


_MOLLIFIED_SPEC = dict(level=4.0)  # order 32, two panels: gradient weights accurate to ~1e-8


def _field_for(name, smoothing):
    fam = make_family(name)
    field = fam.field
    if smoothing != "plain":
        field = mollify(field, MollifierSpec(dim=field.dim_state, **_MOLLIFIED_SPEC))
    return fam, field


def _full_cube_rule(spec):
    """Nodes and ``(1 + dim, Q)`` weights of the composite tensor
    Gauss-Legendre rule on the whole cube [-1, 1]^dim, normalized and
    mean-centred like ``MollifierSpec``'s, nodes off the ball included."""
    panels = spec.panels if isinstance(spec.panels, tuple) else (spec.panels,) * spec.dim
    gl_x, gl_w = np.polynomial.legendre.leggauss(spec.order)
    axes = []
    for p in panels:
        edges = np.linspace(-1.0, 1.0, p + 1)
        axes.append((
            np.concatenate([(a + b) / 2 + (b - a) / 2 * gl_x for a, b in zip(edges, edges[1:])]),
            np.concatenate([(b - a) / 2 * gl_w for a, b in zip(edges, edges[1:])]),
        ))
    nodes = np.stack([g.ravel() for g in np.meshgrid(*(a[0] for a in axes), indexing="ij")], -1)
    raw = np.prod(np.stack([g.ravel() for g in np.meshgrid(*(a[1] for a in axes),
                                                           indexing="ij")], -1), -1)
    bump = spec._bump(nodes)
    z = np.sum(raw * bump)
    grad = raw[:, None] * spec._bump_grad(nodes) / z
    grad -= grad.mean(axis=0, keepdims=True)
    return nodes, np.concatenate([(raw * bump / z)[None, :], spec.level * grad.T])


class TestBallNodes:
    """The quadrature keeps only the tensor nodes where the kernel lives."""

    @pytest.mark.parametrize("dim,order,panels,count", [
        (2, 16, 1, 144), (2, 16, (2, 1), 328), (2, 16, 2, 728),
        (1, 16, 1, 16), (1, 32, 2, 64),
    ])
    def test_nodes_in_open_ball_with_positive_weight(self, dim, order, panels, count):
        spec = MollifierSpec(dim=dim, order=order, panels=panels)
        assert spec._nodes.shape == (count, dim)
        assert np.all(np.linalg.norm(spec._nodes, axis=-1) < 1.0)
        assert np.all(spec._weights[0] > 0.0)
        assert abs(spec._weights[0].sum() - 1.0) <= 1e-15
        assert np.all(np.abs(spec._weights[1:].sum(axis=1)) <= 1e-15)

    @pytest.mark.parametrize("name", ["log-singular", "partially-sobolev"])
    @pytest.mark.parametrize("level", [2.0, 8.0, 16.0])
    def test_evaluate_matches_full_cube_rule(self, monkeypatch, name, level):
        fam = make_family(name)
        spec = fam.mollifier(level)
        field = mollify(fam.field, spec)
        pts = fam.measure.sample(derive_rng(14, f"cube-{name}"), 400)
        got = field.evaluate(pts, jac=True)
        nodes, weights = _full_cube_rule(spec)
        assert len(nodes) > len(spec._nodes)
        monkeypatch.setattr(spec, "_nodes", nodes)
        monkeypatch.setattr(spec, "_weights", weights)
        monkeypatch.setattr(spec, "_grids", {})  # block grids derived from the cube nodes
        ref = field.evaluate(pts, jac=True)
        for part in ("sigma", "drift"):
            assert np.max(np.abs(getattr(got, part) - getattr(ref, part))) <= 1e-14
            assert np.max(np.abs(getattr(got, part + "_jac")
                                 - getattr(ref, part + "_jac"))) <= 1e-13


class TestQuadratureBlocks:
    @pytest.mark.parametrize("name", ["log-singular", "partially-sobolev"])
    def test_evaluation_independent_of_block_size(self, monkeypatch, name):
        fam, field = _field_for(name, "mollify")
        pts = fam.measure.sample(derive_rng(15, f"blocks-{name}"), 300)
        # more than one chunk at the default size: the rough callables see
        # Q shifted points per state on the plain path, G1 + G2 block
        # offsets on partially-sobolev's split path
        spec = MollifierSpec(dim=2, **_MOLLIFIED_SPEC)
        seen = (len(spec._nodes) if name == "log-singular"
                else sum(map(len, spec._block_weights((1,))[:2])))
        assert len(pts) * seen > coefficients._MAX_EVAL_BLOCK
        default = field.evaluate(pts, jac=True)
        monkeypatch.setattr(coefficients, "_MAX_EVAL_BLOCK", 2**10)
        small = field.evaluate(pts, jac=True)
        for part in ("sigma", "drift", "sigma_jac", "drift_jac"):
            assert np.array_equal(getattr(default, part), getattr(small, part))


class TestSecondBlockGrids:
    """A smoothed structured field contracts its second block's x1 and x2
    factors through the kernel weights on the block grids."""

    @pytest.mark.parametrize("shape", [1.0, 3.0])
    @pytest.mark.parametrize("level", [2.0, 4.0, 8.0, 16.0])
    def test_matches_per_pair_quadrature(self, level, shape):
        # the terms are contracted one by one, so the sum runs in another
        # order than the per-pair reduction: equal up to rounding, not bitwise
        fam = make_family("partially-sobolev")
        spec = replace(fam.mollifier(level), shape=shape)
        rng = derive_rng(17, f"pairs-{level}-{shape}")
        pts = fam.measure.sample(rng, 48)
        pts[:16, 0] = rng.uniform(-1.0 / level, 1.0 / level, 16)  # the x1-step's band
        ev = mollify(fam.field, spec).evaluate(pts, jac=True)
        # the rough second block at every point-node pair x - u_q / k
        pairs = pts[:, None, :] - spec._nodes[None, :, :] / spec.level   # (N, Q, 2)
        rough = fam.field.evaluate(pairs)
        f = np.concatenate([rough.sigma[..., 1, :], rough.drift[..., 1:]], axis=-1)
        conv = np.matmul(spec._weights[:1], f)[:, 0]                     # (N, 2)
        grad = np.moveaxis(np.matmul(spec._weights[1:], f), 1, -1)       # (N, 2, 2)
        psi, dpsi = spec.cutoff(pts, grad=True)
        val = conv * psi[:, None]
        jac = grad * psi[:, None, None] + conv[..., None] * dpsi[:, None, :]
        first = fam.field.evaluate(pts, jac=True)
        for name, col in (("sigma", 0), ("drift", 1)):
            got, got_jac = getattr(ev, name), getattr(ev, name + "_jac")
            assert np.array_equal(got[:, :1], getattr(first, name)[:, :1])
            assert np.array_equal(got_jac[:, :1], getattr(first, name + "_jac")[:, :1])
            assert np.max(np.abs(got[:, 1:].reshape(-1) - val[:, col])) <= 1e-13
            assert np.max(np.abs(got_jac[:, 1:].reshape(-1, 2) - jac[:, col])) <= 1e-13

    def test_factors_see_only_their_block_grid(self):
        fam = make_family("partially-sobolev")
        base, seen = fam.field.blocks, []

        def recorded(fn):
            def wrapped(x1, x2):
                terms = fn(x1, x2)
                seen.append((x1.shape, x2.shape,
                             [(a1.shape[:3], a2.shape[:3]) for a1, a2 in terms]))
                return terms
            return wrapped

        field = StructuredCoefficient(
            1, replace(base, sigma2=recorded(base.sigma2), drift2=recorded(base.drift2)), 2, 1)
        spec = fam.mollifier(4.0)
        assert len(spec._nodes) == 328  # of the 32 x 16 tensor nodes
        # a state shows the callables its G1 + G2 = 32 + 16 block offsets
        g1, g2 = map(len, spec._block_weights((1,))[:2])
        assert (g1, g2) == (32, 16)
        block = coefficients._MAX_EVAL_BLOCK // (g1 + g2)
        n = 500  # two chunks of at most _MAX_EVAL_BLOCK callable points
        assert block < n <= 2 * block
        mollify(field, spec).evaluate(fam.measure.sample(derive_rng(18, "grids"), n), jac=True)
        # sigma (one term) and drift (two terms) once per chunk: the x1
        # factors on B x 32 offsets (the drift's constant 1 on none), the x2
        # factors on B x 16, never on the 32 x 16 product grid
        assert seen == [entry for b in (block, n - block) for entry in (
            ((b, 32, 1, 1), (b, 1, 16, 1), [((b, 32, 1), (b, 1, 16))]),
            ((b, 32, 1, 1), (b, 1, 16, 1), [((1, 1, 1), (b, 1, 16)), ((b, 32, 1), (b, 1, 16))]),
        )]

    @pytest.mark.parametrize("panels", [1, (2, 1)])
    def test_non_separable_block_is_rejected(self, panels):
        # second-block factors of x1 + x2 span both block grids, also where
        # the two grids have the same size (one panel)
        def sigma2(x1, x2):
            return [(np.ones((1,) * (x1.ndim + 1)), np.sin(x1 + x2)[..., None])]

        def drift2(x1, x2):
            return [(np.ones((1,) * x1.ndim), np.sin(x1 + x2))]

        sys_ = DerivativeSystem(make_family("deriv-smooth").field)
        field = StructuredCoefficient(
            1, replace(sys_.lifted.blocks, sigma2=sigma2, drift2=drift2), 2, 1)
        pts = ReferenceMeasure(2, 3.0).sample(derive_rng(19, "eps-smooth"), 10)
        smooth = mollify(field, MollifierSpec(dim=2, level=4.0, order=16, panels=panels))
        for jac in (False, True):
            with pytest.raises(ValueError, match="spans both block grids"):
                smooth.evaluate(pts, jac=jac)
        # the lift of the same base is a sum of products, and smooths
        lifted = mollify(sys_.lifted, MollifierSpec(dim=2, level=4.0, order=16, panels=panels))
        assert np.all(np.isfinite(lifted.evaluate(pts, jac=True).drift_jac))

    def test_raw_second_blocks_are_the_closed_forms_bitwise(self):
        # the term sums reproduce the closed forms in their own operation order
        def step(u):
            return np.sign(u) + (u == 0.0)

        rng = derive_rng(20, "closed-forms")
        pts = ReferenceMeasure(2, 3.0).sample(rng, 200)
        pts[:20, 1] = 0.0            # exact zeros: the sign of a zero is kept
        pts[20:40, 0] = 0.0
        ps = make_family("partially-sobolev").field.second_block(pts)
        x1, x2 = pts[:, 0], pts[:, 1]
        want_sigma = (0.25 * (1.0 + 0.5 * step(x1)) * (1.0 + 0.3 * np.sin(x2)))[:, None, None]
        want_drift = (-x2 + 0.4 * step(x1) * _loglip(x2))[:, None]
        assert ps.sigma.tobytes() == want_sigma.tobytes()
        assert ps.drift.tobytes() == want_drift.tobytes()
        for kind in ("linear", "smooth", "rough"):
            base = make_family(f"deriv-{kind}").field
            x, y = pts[:, :1], pts[:, 1:]
            lifted = DerivativeSystem(base).lifted.second_block(pts)
            want = np.einsum("...ikj,...j->...ik", base.sigma_jac_fn(x), y)
            assert lifted.sigma.tobytes() == want.tobytes()
            want = np.einsum("...ij,...j->...i", base.drift_jac_fn(x), y)
            assert lifted.drift.tobytes() == want.tobytes()
            eps = DerivativeSystem(base).difference_block(pts, 0.25, base.evaluate(x, jac=True))
            want = (base.sigma(x + 0.25 * y) - base.sigma(x)) / 0.25
            assert eps.sigma.tobytes() == want.tobytes()
            want = (base.drift(x + 0.25 * y) - base.drift(x)) / 0.25
            assert eps.drift.tobytes() == want.tobytes()


def _counted(calls, name, fn):
    def wrapped(*xs):
        calls.append(name)
        return fn(*xs)

    return wrapped


class TestJacobianOnlyRequests:
    """``sigma_jac``, ``drift_jac`` and ``sigma_divergence`` run one pass
    that evaluates their own component's callables only."""

    @staticmethod
    def check(field, base, x, calls, sigma_calls, drift_calls):
        for get, want in (("sigma_jac", sigma_calls), ("drift_jac", drift_calls),
                          ("sigma_divergence", sigma_calls)):
            calls.clear()
            assert np.array_equal(getattr(field, get)(x), getattr(base, get)(x))
            assert calls == want

    def test_analytic_field(self):
        base, calls = make_family("deriv-smooth").field, []
        field = CoefficientField(1, 1, _counted(calls, "sigma", base.sigma_fn),
                                 _counted(calls, "drift", base.drift_fn),
                                 base.sigma_jac_fn, base.drift_jac_fn)
        x = np.linspace(-1.0, 1.0, 7)[:, None]
        self.check(field, base, x, calls, ["sigma"], ["drift"])
        calls.clear()
        field.evaluate(x, jac=True)
        assert calls == ["sigma", "drift"]

    def test_structured_field(self):
        base, calls = make_family("partially-sobolev").field, []
        b = base.blocks
        field = StructuredCoefficient(
            1, FieldBlocks(*(_counted(calls, name, getattr(b, name))
                             for name in ("sigma1", "drift1", "sigma2", "drift2")),
                           b.sigma1_jac, b.drift1_jac, b.sigma2_jac, b.drift2_jac),
            2, 1)
        x = np.array([[-0.7, 0.4], [0.3, -1.2], [1.5, 0.9]])
        self.check(field, base, x, calls, ["sigma2", "sigma1"], ["drift2", "drift1"])


class TestEvaluate:
    @pytest.mark.parametrize("smoothing", ["plain", "mollify"])
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_single_pass_matches_accessors_and_differences(self, name, smoothing):
        fam, field = _field_for(name, smoothing)
        pts = fam.measure.sample(derive_rng(10, f"eval-{name}-{smoothing}"), 600)
        # away from the singular sets (the origin, the x1-step, the kink of
        # the log-Lipschitz profile) and, for smoothed fields, a kernel
        # radius beyond them
        pts = pts[np.all(np.abs(pts) > 0.6, axis=-1)][:40]
        assert len(pts) >= 10
        ev = field.evaluate(pts, jac=True)
        vals = field.evaluate(pts)
        assert vals.sigma_jac is None and vals.drift_jac is None
        for got in (vals.sigma, field.sigma(pts)):
            assert np.allclose(ev.sigma, got, rtol=1e-12, atol=1e-14)
        for got in (vals.drift, field.drift(pts)):
            assert np.allclose(ev.drift, got, rtol=1e-12, atol=1e-14)
        assert np.allclose(ev.sigma_jac, field.sigma_jac(pts), rtol=1e-12, atol=1e-14)
        assert np.allclose(ev.drift_jac, field.drift_jac(pts), rtol=1e-12, atol=1e-14)
        h = 1e-5
        for j in range(field.dim_state):
            step = np.zeros(field.dim_state)
            step[j] = h
            plus, minus = field.evaluate(pts + step), field.evaluate(pts - step)
            fd_sigma = (plus.sigma - minus.sigma) / (2 * h)
            fd_drift = (plus.drift - minus.drift) / (2 * h)
            assert np.allclose(ev.sigma_jac[..., j], fd_sigma, rtol=1e-4, atol=1e-6)
            assert np.allclose(ev.drift_jac[..., j], fd_drift, rtol=1e-4, atol=1e-6)


class TestQuadraturePassBudget:
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

    @pytest.mark.parametrize("name,track_passes", [
        ("log-singular", 0), ("partially-sobolev", 1), ("deriv-smooth", 1),
    ])
    def test_one_pass_per_step_and_per_track(self, passes, name, track_passes):
        # the step's pass serves the density exponent too; a track adds only
        # the sigma-divergence difference of a non-constant sigma (one block)
        fam, field = _field_for(name, "mollify")
        n_steps = 8
        drv = BrownianDriver.generate(field.dim_noise, 2.0**-6, n_steps, 3, seed=4)
        x0 = fam.measure.sample(derive_rng(11, f"passes-{name}"), 5)
        integrate_flow(field, drv, x0, n_steps * drv.dt)
        assert passes["n"] == n_steps
        passes["n"] = 0
        integrate_flow(field, drv, x0, n_steps * drv.dt, density=fam.measure)
        assert passes["n"] == n_steps + track_passes
