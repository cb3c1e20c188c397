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
    density_drift_term,
    density_noise_term,
    density_noise_with_gradient,
    make_family,
    mollified_convergence,
    mollifier_domination_check,
    mollify,
    track_density,
)
from roughflow import coefficients
from roughflow._seeds import derive_rng
from roughflow.coefficients import (
    FieldBlocks,
    StructuredCoefficient,
    _bump_mass,
    _smoothstep,
    _smoothstep_deriv,
    noise_term_domination_constant,
)
from roughflow.derivative import lift
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
                            lambda self, x: self._bump(self.level * self._points(x))
                            / _bump_mass(self.dim, self.shape))
        assert spec.kernel_mass_quadrature() == pytest.approx(1.0 / 9.0, rel=1e-6)

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
        assert np.array_equal(second.sigma, field.blocks.sigma2(pts))
        assert np.array_equal(second.drift, field.blocks.drift2(pts))
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
        *[(f"deriv-{kind}", system) for kind in ("linear", "smooth", "rough")
          for system in ("lifted", "epsilon")],
    ])
    def test_evaluate_is_first_block_stacked_on_second_rows(self, family, variant):
        field = make_family(family).field
        if variant == "smoothed":
            field = mollify(field, MollifierSpec(dim=2, level=4.0, order=16, panels=(2, 1)))
        elif variant != "rough":
            sys_ = lift(field)
            field = sys_.lifted if variant == "lifted" else sys_.epsilon_system(0.25)
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


class TestDensityExponentTerms:
    def test_noise_term_constant_sigma_at_origin(self):
        fam = make_family("linear")
        m = fam.measure
        assert np.allclose(density_noise_term(fam.field, m, np.zeros((1, 1))), 0.0)

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
        assert density_noise_term(f, m, np.array([[1.0]]))[0, 0] == pytest.approx(0.0)

    def test_noise_term_constant_sigma(self):
        c = 1.3
        fam = make_family("linear", noise=c)
        m = ReferenceMeasure(1, 1.0)
        val = density_noise_term(fam.field, m, np.array([[1.0]]))
        assert val[0, 0] == pytest.approx(-c)

    def test_drift_term_contraction_flow(self):
        fam = make_family("pure-drift")
        alpha = fam.measure.alpha
        x = np.array([[0.7]])
        got = density_drift_term(fam.field, fam.measure, x)[0]
        want = -1.0 + 2 * alpha * 0.49 / (1 + 0.49)
        assert got == pytest.approx(want, rel=1e-12)

    def test_drift_term_zero_field(self):
        f = scalar_field_1d(lambda u: np.zeros_like(u), dfn=lambda u: np.zeros_like(u))
        m = ReferenceMeasure(1, 2.0)
        assert density_drift_term(f, m, np.array([[0.3]]))[0] == 0.0

    def test_drift_term_identity_sigma_at_origin(self):
        n = 2
        fam = make_family("linear", dim=n, noise=1.0, rate=0.0)
        m = ReferenceMeasure(n, 1.5)
        got = density_drift_term(fam.field, m, np.zeros((1, n)))[0]
        assert got == pytest.approx(-n * 1.5)  # half the Hessian trace

    @pytest.mark.parametrize("name", ["deriv-smooth", "partially-sobolev",
                                      "log-singular"])
    def test_noise_gradient_matches_difference_along_sigma(self, name):
        # G[k, l] = <sigma^{.,k}, grad lam1^l> against a central difference
        # of the noise term along each sigma column, on a non-constant 1-D
        # sigma, a smoothed 2-D block field and a constant sigma with m = 2
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
        lam1, grad = density_noise_with_gradient(field, m, pts, 2.0**-12)
        assert np.array_equal(lam1, density_noise_term(field, m, pts))
        sig = field.sigma(pts)
        eps = 1e-5
        ref = np.stack([
            (density_noise_term(field, m, pts + eps * sig[:, :, k])
             - density_noise_term(field, m, pts - eps * sig[:, :, k])) / (2 * eps)
            for k in range(field.dim_noise)
        ], axis=1)
        assert np.allclose(grad, ref, rtol=1e-3, atol=1e-3)


class TestConditionIntegrals:
    def test_zero_field_gives_mass(self):
        f = scalar_field_1d(lambda u: np.zeros_like(u), dfn=lambda u: np.zeros_like(u))
        m = ReferenceMeasure(1, 2.0)
        rep = condition_integrals(f, m, 1.0, 300, derive_rng(5, "zero"))
        assert rep.value == pytest.approx(m.total_mass(), rel=1e-12)
        assert not rep.divergent

    def test_lipschitz_field_finite_for_large_p0(self):
        fam = make_family("linear")
        rep = condition_integrals(fam.field, fam.measure, 2.0, 2000,
                                  derive_rng(6, "lin"))
        assert np.isfinite(rep.value)
        assert not rep.divergent

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
        rep = condition_integrals(fam.field, fam.measure, p0, 40_000,
                                  derive_rng(7, "sing"))
        assert rep.divergent


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


class TestNoiseTermDomination:
    def test_level_uniform_constant(self):
        fam = make_family("log-singular")
        grid1 = np.linspace(-3, 3, 15)
        g1, g2 = np.meshgrid(grid1, grid1, indexing="ij")
        grid = np.stack([g1.ravel(), g2.ravel()], axis=-1)
        constants = []
        for k in (2.0, 4.0, 8.0):
            spec = MollifierSpec(dim=2, level=k, order=16, panels=1)
            smooth = mollify(fam.field, spec)
            constants.append(
                noise_term_domination_constant(fam.field, smooth, spec,
                                               fam.measure, grid)
            )
        assert all(np.isfinite(c) for c in constants)
        assert max(constants) < 10 * max(min(constants), 1e-6)


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
        # more than one block at the default size: 300 points x Q nodes
        nodes = MollifierSpec(dim=2, **_MOLLIFIED_SPEC)._nodes
        assert len(pts) * nodes.shape[0] > coefficients._MAX_EVAL_BLOCK
        default = field.evaluate(pts, jac=True)
        monkeypatch.setattr(coefficients, "_MAX_EVAL_BLOCK", 2**10)
        small = field.evaluate(pts, jac=True)
        for part in ("sigma", "drift", "sigma_jac", "drift_jac"):
            assert np.array_equal(getattr(default, part), getattr(small, part))


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

            def counted(self, func, x, _original=original):
                count["n"] += 1
                return _original(self, func, x)

            monkeypatch.setattr(MollifierSpec, attr, counted)
        return count

    @pytest.mark.parametrize("name,track_passes", [
        ("log-singular", 1), ("partially-sobolev", 2), ("deriv-smooth", 2),
    ])
    def test_one_pass_per_step_and_per_track(self, passes, name, track_passes):
        fam, field = _field_for(name, "mollify")
        n_steps = 8
        drv = BrownianDriver.generate(field.dim_noise, 2.0**-6, n_steps, 3, seed=4)
        x0 = fam.measure.sample(derive_rng(11, f"passes-{name}"), 5)
        ens = integrate_flow(field, drv, x0, n_steps * drv.dt)
        assert passes["n"] == n_steps
        passes["n"] = 0
        track_density(ens, fam.measure)
        assert passes["n"] == track_passes
