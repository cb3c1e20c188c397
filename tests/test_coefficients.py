"""Coefficient fields, mollification, and the density-exponent functionals."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from roughflow import (
    FAMILY_NAMES,
    BrownianDriver,
    CoefficientField,
    MollifierSpec,
    ReferenceMeasure,
    condition_integrals,
    density_terms,
    make_family,
    mollify,
)
from roughflow import catalog, coefficients
from roughflow._seeds import derive_rng
from roughflow.catalog import _loglip
from roughflow.coefficients import (
    FieldBlocks,
    StructuredCoefficient,
    Swirl,
    _bump_mass,
    _gauss_rule,
    _smoothstep,
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


def _kernel_mass(spec, n_points=4001):
    """Integral of ``spec.kernel`` itself by Simpson's rule on ``n_points``
    radii of B(1/k), so a wrong scaling or normalization shows as mass != 1."""
    surf = 2.0 * np.pi ** (spec.dim / 2.0) / math.gamma(spec.dim / 2.0)
    r = np.linspace(0.0, 1.0 / spec.level, n_points)
    pts = np.zeros((n_points, spec.dim))
    pts[:, 0] = r
    return float(surf * integrate.simpson(r ** (spec.dim - 1) * spec.kernel(pts), x=r))


class TestMollifierSpec:
    def test_kernel_nonnegative_and_normalized(self):
        for dim in (1, 2):
            spec = MollifierSpec(dim=dim, level=3.0)
            rng = derive_rng(0, f"kern{dim}")
            pts = rng.uniform(-2, 2, size=(200, dim))
            assert np.all(spec.kernel(pts) >= 0.0)
            assert _kernel_mass(spec) == pytest.approx(1.0, abs=1e-6)

    def test_kernel_mass_check_sees_a_missing_scaling(self, monkeypatch):
        spec = MollifierSpec(dim=2, level=3.0)
        kernel = MollifierSpec.kernel
        monkeypatch.setattr(MollifierSpec, "kernel",
                            lambda self, x: kernel(self, x) / self.level**self.dim)
        assert _kernel_mass(spec) == pytest.approx(1.0 / 9.0, rel=1e-6)

    def test_points_of_another_dimension_are_rejected(self):
        spec = MollifierSpec(dim=2, level=2, order=8, panels=1)
        pts = np.ones((3, 3)) * 3
        for call in (spec.cutoff,
                     lambda x: spec.convolve(lambda y: y[..., 0], x),
                     lambda x: spec.convolve_with_grad(lambda y: y[..., 0], x),
                     lambda x: spec.convolve_radial(np.abs, x)):
            with pytest.raises(ValueError, match=r"dimension 3, the mollifier lives on R\^2"):
                call(pts)

    def test_planar_smoothing_only_through_a_declared_structure(self):
        # no generic planar rule: convolve without an x1_break and mollify of
        # a plain planar field other than a Swirl name the two structures
        spec = MollifierSpec(dim=2, level=4.0)
        assert not hasattr(spec, "_nodes") and not hasattr(spec, "_weights")
        swirl = make_family("log-singular").field
        bare = CoefficientField(2, 2, swirl.sigma, swirl.drift, name="bare-swirl")
        named = "Swirl by its radial table or a FieldBlocks record with its x1_break"
        for call in (lambda: spec.convolve(lambda y: y[..., 0], np.zeros((3, 2))),
                     lambda: spec.convolve_with_grad(lambda y: y[..., 0], np.zeros((3, 2)))):
            with pytest.raises(ValueError, match=f"no generic rule on R\\^2: .*{named}"):
                call()
        for field, name in ((bare, "bare-swirl"), (make_family("linear", dim=2).field, "linear")):
            with pytest.raises(ValueError, match=f"field '{name}.* on R\\^2: .*{named}"):
                mollify(field, spec)

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

    @pytest.mark.parametrize("level", [1.0, 2.5, 3.0])
    def test_cutoff_plateau_fast_path_is_the_band_path_bitwise(self, level):
        # points in B(k), exactly at r = k among them, take the fast path
        # alone; with a band point, outside-B(2k) point or nan in the batch
        # every point takes the band path, which must give the same bytes
        spec = MollifierSpec(dim=2, level=level, order=8, panels=1)
        rng = derive_rng(2, f"plateau-{level}")
        inner = rng.uniform(-1, 1, size=(60, 2)) * (level / np.sqrt(2))
        inner[:6] = [[0.0, 0.0], [-0.0, 0.0], [level, 0.0], [0.0, -level],
                     [-level, -0.0], [0.6 * level, 0.8 * level]]
        fast = spec.cutoff(inner, grad=True)
        assert np.array_equal(fast[0], np.ones(60)) and not np.any(fast[1])
        for other, psi_other in (([1.5 * level, 0.0], None), ([0.0, 2.5 * level], 0.0),
                                 ([np.nan, 0.0], np.nan)):
            psi, grad = spec.cutoff(np.concatenate([inner, [other]]), grad=True)
            assert psi[:-1].tobytes() == fast[0].tobytes()
            assert grad[:-1].tobytes() == fast[1].tobytes()
            assert spec.cutoff(np.concatenate([inner, [other]]))[:-1].tobytes() == (
                spec.cutoff(inner).tobytes())
            if psi_other is None:
                assert 0.0 < psi[-1] < 1.0 and np.any(grad[-1])
            else:
                assert np.array_equal(psi[-1], psi_other, equal_nan=True)

    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            MollifierSpec(dim=1, level=0.5)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(level=float("nan")), "level must be finite"),
        (dict(level=float("inf")), "level must be finite"),
        (dict(shape=-1.0), "kernel shape"),
        (dict(shape=0.0), "kernel shape"),
        (dict(order=0), "quadrature order"),
        (dict(order=2.5), "quadrature order must be a positive integer, got 2.5"),
        (dict(order=True), "quadrature order must be a positive integer, got True"),
        (dict(panels=0), "panel count"),
        (dict(panels=(2, 1)), "panel count"),  # one count serves every axis
        (dict(panels=True), "panel count"),
        (dict(dim=0), "mollifier dim must be a positive integer, got 0"),
        (dict(dim=2.5), "mollifier dim must be a positive integer, got 2.5"),
    ])
    def test_nonsense_rejected_by_name(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MollifierSpec(**{"dim": 2, **kwargs})


class TestRules:
    """The kernel's mass and the Gauss-Legendre rules, against scipy's."""

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
    def test_planar_bump_mass_is_pi_expn(self, shape):
        # u = 1 / (1 - r^2) turns 2 pi int_0^1 r exp(-s / (1 - r^2)) dr into
        # pi E_2(s); expn itself is within 8e-16 of a 40-digit value here
        want = math.pi * special.expn(2, shape)
        assert _bump_mass(2, shape) == pytest.approx(want, rel=2e-15, abs=0)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
    def test_line_bump_mass_is_quad(self, shape):
        half, _ = integrate.quad(lambda u: math.exp(-shape / (1.0 - u * u)), 0.0, 1.0,
                                 epsabs=0, epsrel=2e-14, limit=200)
        assert _bump_mass(1, shape) == pytest.approx(2.0 * half, rel=2e-14, abs=0)

    @pytest.mark.parametrize("order", [4, 16, 24])
    def test_gauss_rule_is_roots_legendre(self, order):
        nodes, weights = _gauss_rule(order, 1)
        want_nodes, want_weights = special.roots_legendre(order)
        assert np.max(np.abs(nodes - want_nodes)) <= 4e-15
        assert np.max(np.abs(weights - want_weights)) <= 4e-15


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


def _scalar_zeta(r):
    """``catalog._zeta`` at one radius with ``math``: an oracle's integrand
    calls it once per node, where numpy's per-call cost would dominate."""
    t = 2.0 - 2.0 * r
    if t >= 1.0 or t <= 0.0:
        return float(t >= 1.0)
    a, b = math.exp(-1.0 / t), math.exp(-1.0 / (1.0 - t))
    return a / (a + b)


def _scalar_loglip(u):
    """``catalog._loglip`` at one point with ``math`` (as ``_scalar_zeta``)."""
    a = abs(u)
    return -u * math.log(a) * _scalar_zeta(a) if 0.0 < a < 1.0 else 0.0


def _polar_dblquad(integrand, x, level, shape, hi, eps):
    """``int integrand(theta, rho) chi_k(x - y) dy`` over y = rho e_theta with
    rho < hi, by adaptive 2-D quadrature in polar coordinates about the
    origin: theta runs over the arc of the circle of radius rho inside
    B(x, 1/k), and rho is cut where that arc closes to the whole circle.
    The kernel is normalized by its mass pi E_2(shape)."""
    r, phi = math.hypot(*x), math.atan2(x[1], x[0])
    k, mass = level, level * level / (math.pi * special.expn(2, shape))

    def arc(rho):
        c = (r * r + rho * rho - 1.0 / (k * k)) / (2.0 * r * rho) if r > 0 else -1.0
        return math.acos(min(1.0, max(-1.0, c)))

    def fn(th, rho):
        u = 1.0 - k * k * (r * r + rho * rho - 2.0 * r * rho * math.cos(th - phi))
        return integrand(th, rho) * mass * math.exp(-shape / u) * rho if u > 0.0 else 0.0

    lo, hi = max(r - 1.0 / k, 0.0), min(r + 1.0 / k, hi)
    cuts = sorted({lo, hi} | ({1.0 / k - r} if lo < 1.0 / k - r < hi else set()))
    return sum(integrate.dblquad(fn, a, b, lambda rho: phi - arc(rho),
                                 lambda rho: phi + arc(rho), epsabs=eps, epsrel=eps)[0]
               for a, b in zip(cuts, cuts[1:]))


def _polar_oracle(x, level, shape, beta=1.2):
    """log-singular's ``(b * chi_k)(x)``: -x plus the swirl, whose profile
    g(rho) rho = beta log(1/rho) zeta(rho) lives on the unit disc."""
    def swirl(axis):
        def fn(th, rho):
            perp = -math.sin(th) if axis == 0 else math.cos(th)
            return beta * math.log(1.0 / rho) * _scalar_zeta(rho) * perp

        return fn

    return -np.asarray(x) + np.array(
        [_polar_dblquad(swirl(axis), x, level, shape, 1.0, 1e-9) for axis in range(2)])


def _old_log_singular_closed_form(x, beta=1.2, noise=0.3):
    """(sigma, b, sigma_jac, b_jac) of log-singular's rough field, each in the
    operation order it was written in before the swirl formula was shared
    with the smoothed table: ``-1 x`` plus the swirl, and a Jacobian built
    from zeros, ``-I`` on the diagonal, then ``+= x^perp (x) grad g`` and
    ``+= g R``."""
    x0, x1 = x[..., 0], x[..., 1]
    r = np.sqrt(x0 * x0 + x1 * x1)
    on = (r > 0) & (r < 1)
    ro = r[on]
    t = 2.0 - 2.0 * ro
    zeta, logterm = _smoothstep(t), -np.log(ro)
    s = beta * logterm * zeta
    g, gp = np.zeros(r.shape), np.zeros(r.shape)
    g[on] = s / ro
    gp[on] = beta * (-zeta / ro + logterm * (-2.0 * _smoothstep(t, deriv=True)[1])) / ro - s / ro**2
    b = np.stack([-1.0 * x0 - g * x1, -1.0 * x1 + g * x0], axis=-1)
    safe = np.where(r > 0, r, 1.0)
    grad_g = gp[..., None] * x / safe[..., None]
    jac = np.zeros(x.shape + (2,))
    jac[..., 0, 0] = -1.0
    jac[..., 1, 1] = -1.0
    jac += np.stack([-x1, x0], axis=-1)[..., :, None] * grad_g[..., None, :]
    jac[..., 0, 1] += -g
    jac[..., 1, 0] += g
    sigma = np.broadcast_to(noise * np.eye(2), x.shape + (2,)).copy()
    return sigma, b, np.zeros(x.shape + (2, 2)), jac


class TestSwirlField:
    """A ``Swirl`` declares its profile, the profile's parameters and the
    noise; the rate and the support radius are 1 for every swirl."""

    def test_declaration_fields(self):
        field = make_family("log-singular").field
        assert isinstance(field, Swirl) and (field.dim_state, field.dim_noise) == (2, 2)
        assert (field.profile, field.params) == (catalog._vortex_profile, (1.2,))
        assert np.array_equal(field.sigma0, 0.3 * np.eye(2)) and not field.is_analytic
        assert field == make_family("log-singular").field  # sigma0 is no == operand

    def test_rough_field_bitwise_its_old_closed_form(self):
        # log-singular's rough values and Jacobians feed c3, c4 and c5: the
        # shared swirl formula must give them bitwise, through r = 0, the
        # smallest radii where g' is a float, zeta's band and the support's
        # edge; where |x|^2 underflows (1e-200, 5e-324, 1e-300) the drift is
        # -x + s e^perp at the hypot radius and the Jacobian -I, as at r = 0
        fam = make_family("log-singular")
        tiny = [[r, 0.0] for r in (1e-150, 1e-200, 5e-324, 1e-300)]
        edges = np.array(tiny + [xy[::-1] for xy in tiny]
                         + [[0.0, 0.0], [0.5, 0.0], [0.0, -0.5], [1.0, 0.0],
                            [0.6, -0.8], [1.5, 0.0], [-0.9, 1.2]])
        x = np.concatenate([fam.measure.sample(derive_rng(33, "swirl-rough"), 20_000), edges])
        ev = fam.field.evaluate(x, jac=True)
        oracle = _old_log_singular_closed_form(x)
        flat = (np.sum(x * x, axis=-1) == 0.0) & np.any(x != 0.0, axis=-1)
        assert flat.sum() == 6
        r = np.hypot(x[flat, 0], x[flat, 1])
        s, e = 1.2 * -np.log(r) * _smoothstep(2.0 - 2.0 * r), x[flat] / r[:, None]
        oracle[1][flat] = np.stack([-1.0 * x[flat, 0] - s * e[:, 1],
                                    -1.0 * x[flat, 1] + s * e[:, 0]], axis=-1)
        assert oracle[1][flat][0, 1] == pytest.approx(552.6, abs=0.05)  # b_2 at (1e-200, 0)
        assert fam.field.drift(x).tobytes() == ev.drift.tobytes()  # the path without g'
        # + 0.0 turns -0.0 into +0.0
        for got, want in zip((ev.sigma, ev.drift, ev.sigma_jac, ev.drift_jac), oracle):
            assert got.shape == want.shape
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()

    def test_jacobian_finite_where_g_prime_overflows(self):
        # below r ~ 1e-153, g' = s'/r - s/r^2 overflows a float; the Jacobian
        # -I + (s' - g) e^perp (x) e + g R (e = x / r) does not, nor the drift,
        # and both are read at the true radius, not at the root of a
        # subnormal x^2 (at 3e-162 that is 3.14e-162)
        beta = 1.2
        fam = make_family("log-singular", beta=beta)
        radii = (1e-160, 3e-162, 1e-155)
        x = np.array([[r, 0.0] for r in radii] + [[0.0, r] for r in radii]
                     + [[r, -r] for r in radii])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = fam.field.evaluate(x, jac=True)
        r = np.hypot(x[:, 0], x[:, 1])  # the true radius: x^2 is subnormal at each
        s, sp = beta * -np.log(r), -beta / r    # zeta = 1, zeta' = 0 near 0
        g = s / r
        e = x / r[:, None]
        perp = np.stack([-e[:, 1], e[:, 0]], axis=-1)
        want = (-np.eye(2) + (sp - g)[:, None, None] * perp[:, :, None] * e[:, None, :]
                + g[:, None, None] * np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.all(np.isfinite(ev.drift)) and np.all(np.isfinite(ev.drift_jac))
        np.testing.assert_allclose(ev.drift, -x + s[:, None] * perp, rtol=1e-14)
        scale = np.max(np.abs(want), axis=(1, 2))
        assert np.all(np.max(np.abs(ev.drift_jac - want), axis=(1, 2)) <= 1e-13 * scale)

    def test_one_profile_call_per_evaluation(self, monkeypatch):
        # the rough drift and its Jacobian come from one profile call, with
        # g' only when a Jacobian is asked for
        calls, profile = [], catalog._vortex_profile

        def counted(r, *params, deriv=False):
            calls.append(deriv)
            return profile(r, *params, deriv=deriv)

        monkeypatch.setattr(catalog, "_vortex_profile", counted)
        fam = make_family("log-singular")
        x = fam.measure.sample(derive_rng(34, "swirl-calls"), 1000)
        fam.field.evaluate(x, jac=True)
        assert calls == [True]
        calls.clear()
        density_terms(fam.field, fam.measure, x, h=2.0**-5)
        assert calls == [True]
        calls.clear()
        fam.field.drift(x)
        assert calls == [False]


class TestSwirlTable:
    """log-singular declares its rotation symmetry (``Swirl``), so ``mollify``
    smooths it from a radial table: b_k = (-x + h_k(r) x^perp / r) psi_k."""

    @pytest.mark.parametrize("x,level,shape", [
        ((-0.046, 0.157), 2.0, 1.0), ((-0.046, 0.157), 16.0, 1.0),
        ((-0.046, 0.157), 16.0, 3.0), ((0.01, 0.0), 16.0, 1.0),
        ((0.6, -0.35), 4.0, 1.0), ((0.0, 0.5), 2.0, 3.0),
    ])
    def test_value_vs_polar_oracle(self, x, level, shape):
        # at (-0.046, 0.157) and k = 2 the family's quadrature rule misses b1
        # by 0.09 (-0.637 against -0.5475); psi_k = 1 at every state here
        fam = make_family("log-singular")
        smooth = mollify(fam.field, replace(fam.mollifier(level), shape=shape))
        got = smooth.drift(np.array([x]))[0]
        assert np.max(np.abs(got - _polar_oracle(x, level, shape))) <= 5e-5

    @pytest.mark.parametrize("shape", [1.0, 3.0])
    @pytest.mark.parametrize("level", [2.0, 16.0])
    def test_jacobian_is_the_values_derivative(self, level, shape):
        fam = make_family("log-singular")
        spec = replace(fam.mollifier(level), shape=shape)
        smooth = mollify(fam.field, spec)
        rng = derive_rng(30, f"swirl-jac-{level}-{shape}")
        # within the table's reach 1 + 1/k, and through the cutoff band
        r = (1.0 + 1.0 / level) * np.sqrt(rng.uniform(0.0, 1.0, 300))
        a = rng.uniform(0.0, 2.0 * np.pi, 300)
        pts = np.concatenate([np.stack([r * np.cos(a), r * np.sin(a)], axis=-1),
                              rng.uniform(-2.2 * level, 2.2 * level, (100, 2))])
        ev = smooth.evaluate(pts, jac=True)
        h = 1e-6
        fd = np.stack([(smooth.drift(pts + h * e) - smooth.drift(pts - h * e)) / (2 * h)
                       for e in np.eye(2)], axis=-1)
        # the spline is C^1: a difference across a knot sees its h'' jump
        assert np.allclose(ev.drift_jac, fd, rtol=1e-6, atol=1e-6)
        assert np.array_equal(ev.sigma, np.broadcast_to(0.3 * np.eye(2), (400, 2, 2))
                              * spec.cutoff(pts)[:, None, None])

    @pytest.mark.parametrize("level", [2.0, 16.0])
    def test_origin_and_beyond_the_reach(self, level):
        fam = make_family("log-singular")
        spec = fam.mollifier(level)
        smooth = mollify(fam.field, spec)
        # at r = 0: b = 0 and the Jacobian is -I + h_k'(0) R, the limit r -> 0
        ev = smooth.evaluate(np.array([[0.0, 0.0], [1e-9, 0.0]]), jac=True)
        assert not np.any(ev.drift[0])
        jac, near = ev.drift_jac
        assert jac[0, 0] == jac[1, 1] == -1.0 and jac[1, 0] == -jac[0, 1] > 0.0
        assert np.allclose(jac, near, rtol=1e-9, atol=0.0)
        # from r = 1 + 1/k on the swirl's smoothing vanishes: exactly -x psi_k
        reach = 1.0 + 1.0 / level
        rng = derive_rng(31, f"swirl-far-{level}")
        a = rng.uniform(0.0, 2.0 * np.pi, 200)
        r = np.concatenate([[reach, np.nextafter(reach, 3.0)],
                            rng.uniform(reach, 2.5 * level, 198)])
        far = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
        far[0] = (reach, 0.0)
        ev = smooth.evaluate(far, jac=True)
        psi, dpsi = spec.cutoff(far, grad=True)
        assert np.array_equal(ev.drift, -far * psi[:, None])
        assert np.array_equal(ev.drift_jac, -np.eye(2) * psi[:, None, None]
                              + (-far)[:, :, None] * dpsi[:, None, :])

    def test_one_table_per_profile_level_and_shape(self):
        coefficients._swirl_table.cache_clear()
        x = np.array([[0.1, 0.2]])

        def builds():
            return coefficients._swirl_table.cache_info().misses

        fam = make_family("log-singular")
        smooth = mollify(fam.field, fam.mollifier(4.0))
        assert builds() == 0  # built lazily, at the first evaluation
        for _ in range(2):
            for field in (fam.field, make_family("log-singular").field):
                mollify(field, fam.mollifier(4.0)).evaluate(x, jac=True)
                smooth.drift(x)
        assert builds() == 1
        mollify(fam.field, replace(fam.mollifier(4.0), shape=3.0)).drift(x)
        mollify(fam.field, fam.mollifier(8.0)).drift(x)
        mollify(make_family("log-singular", beta=0.8).field, fam.mollifier(4.0)).drift(x)
        assert builds() == 4
        # the noise is no part of the table's key
        mollify(make_family("log-singular", noise=0.5).field, fam.mollifier(4.0)).drift(x)
        assert builds() == 4

    def test_evaluation_independent_of_batch(self):
        fam, field = _field_for("log-singular", "mollify")
        pts = fam.measure.sample(derive_rng(32, "swirl-batch"), 300)
        pts[:3] = [[0.0, 0.0], [np.nan, 0.1], [3.0, 4.0]]
        whole = field.evaluate(pts, jac=True)
        for part in ("sigma", "drift", "sigma_jac", "drift_jac"):
            one = np.concatenate([getattr(field.evaluate(p[None], jac=True), part)
                                  for p in pts])
            grid = getattr(field.evaluate(pts.reshape(20, 15, 2), jac=True), part)
            assert one.tobytes() == getattr(whole, part).tobytes()
            assert grid.reshape(one.shape).tobytes() == one.tobytes()


class TestRadialRule:
    """``convolve_radial``: the swirl table's polar rule in mode 0, for a
    radial function such as criterion 7's log-weight."""

    @pytest.mark.parametrize("level", [1.0, 8.0])
    def test_log_weight_vs_polar_oracle(self, level):
        alpha = 3.0
        m, spec = ReferenceMeasure(2, alpha), MollifierSpec(dim=2, level=level)
        radii = np.array([0.0, 0.05, 2.5, 8.5])
        # each radius along another direction: the rule reads |x| only
        a = np.array([0.0, 1.0, 2.5, 4.0])
        x = radii[:, None] * np.stack([np.cos(a), np.sin(a)], axis=-1)
        got = spec.convolve_radial(lambda r: m.log_weight(r[..., None] * (1.0, 0.0)), x)
        want = [_polar_dblquad(lambda th, rho: -alpha * math.log1p(rho * rho), (r, 0.0),
                               level, 1.0, math.inf, 1e-11) for r in radii]
        assert np.max(np.abs(got - want)) <= 1e-5

    @pytest.mark.parametrize("shape", [1.0, 3.0])
    def test_constants_come_back(self, shape):
        spec = MollifierSpec(dim=2, level=2.0, shape=shape)
        x = derive_rng(35, "radial-const").uniform(-3.0, 3.0, (60, 2))
        x[:2] = [[0.0, 0.0], [0.1, -0.2]]
        for c in (0.7, -12.5):
            got = spec.convolve_radial(lambda r: np.full(r.shape, c), x.reshape(3, 20, 2))
            assert got.shape == (3, 20)
            assert np.max(np.abs(got - c)) <= 1e-15 * abs(c)

    def test_only_planar(self):
        with pytest.raises(ValueError, match="the radial rule is planar"):
            MollifierSpec(dim=1, level=2.0).convolve_radial(np.abs, np.zeros((3, 1)))


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
        assert np.array_equal(second.sigma, field.blocks.sigma2(x1, x2))
        assert np.array_equal(second.drift, field.blocks.drift2(x1, x2))
        assert np.array_equal(second.sigma_jac, ev.sigma_jac[:, 1:, :, 1:])

    def test_first_block_jacobian_finite_where_cosh_overflows(self):
        # 0.1 sech^2 x1, also beyond |x1| = 710 where cosh overflows (an
        # overflow warning is an error in this suite)
        field = make_family("partially-sobolev").field
        x1 = np.concatenate([np.linspace(-20.0, 20.0, 401), [-800.0, -711.0, 711.0, 800.0]])
        pts = np.stack([x1, np.full_like(x1, 0.1)], axis=-1)
        jac = field.evaluate(pts, jac=True).sigma_jac[:, 0, 0, 0]
        with np.errstate(over="ignore"):
            want = 0.1 / np.cosh(x1) ** 2
        assert np.allclose(jac, want, rtol=1e-14, atol=0.0)
        assert np.all(jac[-4:] == 0.0)

    def test_smoothed_field_shares_the_first_block_and_is_not_resmoothed(self):
        field = make_family("partially-sobolev").field
        spec = MollifierSpec(dim=2, level=4.0, order=16, panels=1)
        smooth = mollify(field, spec)
        assert isinstance(smooth.blocks, FieldBlocks)
        assert smooth.blocks is field.blocks
        with pytest.raises(ValueError, match="already smoothed"):
            mollify(smooth, spec)
        # a smoothed plain field carries its rough field's sigma0 too
        linear = make_family("linear")
        with pytest.raises(ValueError, match="already smoothed"):
            mollify(mollify(linear.field, linear.mollifier(4.0)), linear.mollifier(4.0))
    @pytest.mark.parametrize("family,variant", [
        ("partially-sobolev", "rough"), ("partially-sobolev", "smoothed"),
        *[(f"deriv-{kind}", "lifted") for kind in ("linear", "smooth", "rough")],
    ])
    def test_evaluate_is_first_block_stacked_on_second_rows(self, family, variant):
        field = make_family(family).field
        if variant == "smoothed":
            field = mollify(field, make_family(family).mollifier(4.0))
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
            # the slice rule integrates the x1-step exactly, also in its band
            field = mollify(field, fam.mollifier(4.0))
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
    """A field declaring its sigma as ``sigma0`` is read as that one matrix
    by ``mollify`` and ``density_terms``: the matrix must be the field's
    sigma, and the one-matrix path must give the per-state path's terms
    bitwise."""

    @pytest.mark.parametrize("name", ["translation", "pure-drift", "linear", "log-singular",
                                      "deriv-linear"])
    def test_declared_constant_sigma_is_one_matrix_with_zero_jacobian(self, name):
        fam = make_family(name)
        field = fam.field
        pts = fam.measure.sample(derive_rng(12, f"const-{name}"), 200)
        sig0 = field.sigma0
        assert sig0.shape == (field.dim_state, field.dim_noise)
        assert np.array_equal(field.sigma(pts), np.broadcast_to(sig0, (200,) + sig0.shape))
        assert not np.any(field.sigma_jac(pts))

    @pytest.mark.parametrize("name", ["translation", "pure-drift", "linear", "log-singular",
                                      "deriv-linear"])
    def test_density_terms_bitwise_the_per_state_path(self, name):
        fam = make_family(name)
        m, field = fam.measure, fam.field
        # the same evaluation with no declared sigma0
        per_state = CoefficientField(field.dim_state, field.dim_noise, None, None)
        per_state._eval = field._eval
        pts = m.sample(derive_rng(13, f"const-terms-{name}"), 300)
        for ev in (None, per_state.evaluate(pts, jac=True)):
            got = density_terms(field, m, pts, ev, 2.0**-5)
            want = density_terms(per_state, m, pts, ev, 2.0**-5)
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("name,level", [("log-singular", 2.0), ("log-singular", 16.0),
                                            ("linear", 2.0)])
    def test_smoothed_closed_forms_match_the_per_state_path(self, name, level):
        # sigma_k = psi_k sigma0: the closed forms in psi_k and grad psi_k
        # against the general path on the same smoothed evaluation
        fam = make_family(name)
        m, smooth = fam.measure, mollify(fam.field, fam.mollifier(level))
        per_state = CoefficientField(smooth.dim_state, smooth.dim_noise, None, None)
        per_state._eval = lambda *args, **kwargs: smooth._eval(*args, **kwargs)
        n = smooth.dim_state
        # the origin, inside B(k), the cutoff band k < |x| < 2k, beyond 2k
        radii = np.array([0.0, 0.3, 0.9, 1.2, 1.5, 1.9, 2.5, 4.0])
        dirs = derive_rng(14, f"closed-{name}").normal(size=(len(radii), n))
        pts = level * radii[:, None] * dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)
        psi = smooth._eval.spec.cutoff(pts)
        assert np.any(psi == 1.0) and np.any(psi == 0.0) and np.any((0 < psi) & (psi < 1))
        for ev in (None, smooth.evaluate(pts, jac=True)):
            for h in (None, 2.0**-5):
                got = density_terms(smooth, m, pts, ev, h)
                want = density_terms(per_state, m, pts, ev, h)
                for a, b in zip(got[:2 if h is None else 3], want):
                    assert a.shape == b.shape
                    assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b).max())


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


class TestCatalogMeasures:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_measures_meet_the_standing_constraints(self, name):
        # alpha > q + n/2; a block field's mu1 also alpha1 > q + n1/2, and
        # alpha > alpha1 + n2/2
        fam = make_family(name)
        q, m, n = fam.q, fam.measure, fam.field.dim_state
        assert m.dim == n and m.alpha > q + n / 2
        if isinstance(fam.field, StructuredCoefficient):
            m1, n1 = fam.measure1, fam.field.n1
            assert m1.dim == n1 and m1.alpha > q + n1 / 2
            assert m.alpha > m1.alpha + (n - n1) / 2
        else:
            assert fam.measure1 is None


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
        assert fam.affine and field.sigma0 is not None and field.name == label
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

        field = StructuredCoefficient(
            1, FieldBlocks(zero(1, 1), zero(1), zero(1, 1), zero(1),
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
        got = _smoothstep(self.GRID, deriv=True)[1]
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
    """The family and its field: rough (``plain``) or smoothed
    (``mollify``)."""
    fam = make_family(name)
    field = fam.field
    if smoothing == "mollify":
        field = mollify(field, MollifierSpec(dim=field.dim_state, **_MOLLIFIED_SPEC))
    return fam, field


def _full_line_rule(spec):
    """Nodes and ``(2, Q)`` weights of the composite Gauss-Legendre rule on
    the whole of [-1, 1], normalized, mean-centred and gradient row over its
    first moment like ``MollifierSpec``'s, nodes where the bump underflows
    included."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(spec.order)
    edges = np.linspace(-1.0, 1.0, spec.panels + 1)
    nodes = np.concatenate([(a + b) / 2 + (b - a) / 2 * gl_x
                            for a, b in zip(edges, edges[1:])])[:, None]
    raw = np.concatenate([(b - a) / 2 * gl_w for a, b in zip(edges, edges[1:])])
    bump, slope = coefficients._bump(1.0 - nodes[:, 0] ** 2, spec.shape)
    z = np.sum(raw * bump)
    grad = raw[:, None] * (2.0 * slope[:, None] * nodes) / z
    grad -= grad.mean(axis=0, keepdims=True)
    grad /= -np.sum(grad * nodes, axis=0)
    return nodes, np.concatenate([(raw * bump / z)[None, :], spec.level * grad.T])


class TestBallNodes:
    """The 1-D rule keeps only the nodes where the kernel is positive."""

    @pytest.mark.parametrize("order,panels,shape,count", [
        (16, 1, 1.0, 16), (32, 2, 1.0, 64), (32, 2, 3.0, 62),
    ])
    def test_nodes_in_open_ball_with_positive_weight(self, order, panels, shape, count):
        spec = MollifierSpec(dim=1, order=order, panels=panels, shape=shape)
        assert spec._nodes.shape == (count, 1)
        assert np.all(np.abs(spec._nodes) < 1.0)
        assert np.all(spec._weights[0] > 0.0)
        assert abs(spec._weights[0].sum() - 1.0) <= 1e-15
        assert np.all(np.abs(spec._weights[1:].sum(axis=1)) <= 1e-15)

    @pytest.mark.parametrize("level", [2.0, 4.0, 16.0])
    def test_gradient_row_has_unit_first_moment(self, level):
        # the family rule (order 16, one panel) gave -1.000929 before the
        # gradient row was divided by its first moment
        spec = MollifierSpec(dim=1, level=level, order=16, panels=1)
        field = mollify(scalar_field_1d(lambda x: -x, lambda x: -np.ones_like(x)), spec)
        x = np.linspace(-0.9, 0.9, 37)[:, None] * level  # in B(k): psi = 1, grad psi = 0
        assert np.max(np.abs(field.drift_jac(x)[:, 0, 0] + 1.0)) <= 1e-12
        # row 0 is the value rule, unchanged: -x comes back within rounding
        assert np.max(np.abs(field.drift(x)[:, 0] + x[:, 0])) <= 1e-13 * level

    @pytest.mark.parametrize("level", [2.0, 8.0, 16.0])
    def test_evaluate_matches_full_line_rule(self, monkeypatch, level):
        # at shape 3 the bump underflows at the outermost node of each end
        name = "deriv-rough"
        fam = make_family(name)
        spec = MollifierSpec(dim=1, level=level, shape=3.0)
        field = mollify(fam.field, spec)
        pts = fam.measure.sample(derive_rng(14, f"line-{name}"), 400)
        got = field.evaluate(pts, jac=True)
        nodes, weights = _full_line_rule(spec)
        assert len(nodes) > len(spec._nodes)
        monkeypatch.setattr(spec, "_nodes", nodes)
        monkeypatch.setattr(spec, "_weights", weights)
        ref = field.evaluate(pts, jac=True)
        for part in ("sigma", "drift"):
            assert np.max(np.abs(getattr(got, part) - getattr(ref, part))) <= 1e-14
            assert np.max(np.abs(getattr(got, part + "_jac")
                                 - getattr(ref, part + "_jac"))) <= 1e-13


def _stack_points(fam, specs, n=400):
    """One batch of states per spec, ``(S, n, dim)``: mu-samples scaled so
    that each spec sees states in B(k), in its cutoff band and beyond 2k,
    plus a nan state, the origin and (planar) states in the x1-jump band
    |x1| < 1/k of a block field."""
    pts = fam.measure.sample(derive_rng(41, f"stack-{fam.name}"), n)
    out = np.empty((len(specs),) + pts.shape)
    for s, spec in enumerate(specs):
        out[s] = pts * spec.level       # |x| > k: the cutoff band, and beyond 2k
        out[s, :3] = np.nan
        out[s, 1:3] = 0.0
        out[s, 2, 0] = 1.5 * spec.level
        if fam.field.dim_state == 2:
            out[s, 3:9, 0] = np.linspace(-0.9, 0.9, 6) / spec.level  # the x1-jump band
            out[s, 3:9, 1] = np.linspace(-0.5, 0.7, 6)
            out[s, 0, 1] = 0.1                              # nan in x1 only
    return out


class TestSpecStack:
    """A field smoothed with several specs evaluates points with a leading
    spec axis, each state bitwise as by its spec alone."""

    @pytest.mark.parametrize("name", ["deriv-rough", "partially-sobolev", "log-singular"])
    def test_stack_is_bitwise_its_single_spec_fields(self, name):
        # the 1-D rule, the slice rule and the swirl table; mixed levels and
        # kernel shapes, one pass over more than one chunk
        fam = make_family(name)
        specs = [fam.mollifier(2.0), replace(fam.mollifier(16.0), shape=3.0),
                 fam.mollifier(4.0), replace(fam.mollifier(4.0), shape=3.0)]
        stack = mollify(fam.field, specs)
        assert stack.is_smoothed and len(stack.members) == len(specs)
        pts = _stack_points(fam, specs)
        radius = np.sqrt(np.sum(pts**2, axis=-1)) / np.array([s.level for s in specs])[:, None]
        assert np.isnan(radius).any() and np.all(np.nanmax(radius, axis=1) > 2.0)
        assert np.all(np.sum((radius > 1.0) & (radius < 2.0), axis=1) > 2)
        if name == "deriv-rough":
            assert pts[..., 0].size * 16 > coefficients._MAX_EVAL_BLOCK
        for jac in (False, True):
            ev = stack.evaluate(pts, jac=jac)
            for s, (spec, member) in enumerate(zip(specs, stack.members)):
                alone = mollify(fam.field, spec).evaluate(pts[s], jac=jac)
                assert member.name == mollify(fam.field, spec).name
                for part in ("sigma", "drift", "sigma_jac", "drift_jac"):
                    want = getattr(alone, part)
                    got = None if want is None else getattr(ev, part)[s]
                    assert (want is None and getattr(ev, part) is None
                            or got.tobytes() == want.tobytes()), (s, part, jac)
        grid = stack.evaluate(pts.reshape((len(specs), 20, 20, -1)), jac=True)
        assert grid.drift_jac.tobytes() == stack.evaluate(pts, jac=True).drift_jac.tobytes()

    def test_what_a_stack_cannot_share_is_rejected_by_name(self):
        line, plane = MollifierSpec(dim=1, level=2.0), MollifierSpec(dim=2, level=2.0)
        field = make_family("deriv-rough").field
        for other, what in ((plane, "dim"), (replace(line, order=8), "order"),
                            (replace(line, panels=1), "panels")):
            with pytest.raises(ValueError, match=f"share their {what}"):
                mollify(field, [line, other])
        # order 32 x 2 panels keeps 64 nodes at shape 1 and 62 at shape 3
        wide = MollifierSpec(dim=1, level=2.0, order=32, panels=2)
        with pytest.raises(ValueError, match=r"keep one node set; kept \[64, 62\] nodes"):
            mollify(field, [wide, replace(wide, shape=3.0)])
        with pytest.raises(ValueError, match="one or more MollifierSpecs"):
            mollify(field, [])
        stack = mollify(field, [line, replace(line, level=4.0)])
        with pytest.raises(ValueError, match="leading spec axis of length 2"):
            stack.evaluate(np.zeros((3, 1)))


class TestQuadratureBlocks:
    def test_evaluation_independent_of_block_size(self, monkeypatch):
        name = "deriv-rough"  # the 1-D rule; the slice rule: TestSliceRule
        fam, field = _field_for(name, "mollify")
        pts = fam.measure.sample(derive_rng(15, f"blocks-{name}"), 300)
        # more than one chunk at the default size: the rough callables see
        # Q shifted points per state
        spec = MollifierSpec(dim=1, **_MOLLIFIED_SPEC)
        assert len(pts) * len(spec._nodes) > coefficients._MAX_EVAL_BLOCK
        default = field.evaluate(pts, jac=True)
        monkeypatch.setattr(coefficients, "_MAX_EVAL_BLOCK", 2**10)
        small = field.evaluate(pts, jac=True)
        for part in ("sigma", "drift", "sigma_jac", "drift_jac"):
            assert np.array_equal(getattr(default, part), getattr(small, part))


def _split_oracle(fn, x, level, shape=1.0):
    """``(f * chi_k)(x)`` of a planar ``f`` that takes ``fn(step, x2)`` with
    ``step`` its side of the x1-step at 0 (+-1), by adaptive 2-D quadrature
    over the kernel ball, split at the step ``u1 = k x1`` and at ``u2 = k
    x2`` (the kink of partially-sobolev's profile)."""
    k, z = level, _bump_mass(2, shape)

    def chi(u1, u2):
        gap = 1.0 - u1 * u1 - u2 * u2
        return math.exp(-shape / gap) / z if gap > 0.0 else 0.0

    cuts = sorted({-1.0, 1.0} | ({k * x[1]} if abs(k * x[1]) < 1.0 else set()))
    total = 0.0
    for step in (1.0, -1.0):
        def lo(u2, step=step):
            edge = math.sqrt(max(1.0 - u2 * u2, 0.0))
            return -edge if step > 0 else max(min(k * x[0], edge), -edge)

        def hi(u2, step=step):
            edge = math.sqrt(max(1.0 - u2 * u2, 0.0))
            return max(min(k * x[0], edge), -edge) if step > 0 else edge

        for a, b in zip(cuts, cuts[1:]):
            total += integrate.dblquad(
                lambda u1, u2, step=step: fn(step, x[1] - u2 / k) * chi(u1, u2),
                a, b, lo, hi, epsabs=1e-12, epsrel=1e-12)[0]
    return total


def _ps_sigma2(s, y2):  # partially-sobolev's second block, in _split_oracle's form
    return 0.25 * (1.0 + 0.5 * s) * (1.0 + 0.3 * math.sin(y2))


def _ps_drift2(s, y2):
    return -y2 + 0.4 * s * _scalar_loglip(y2)


class TestSliceRule:
    """A smoothed structured field integrates its second block across the
    x1-step exactly: slice masses on either side of the jump from a table,
    the 1-D Gauss rule in x2."""

    @pytest.mark.parametrize("level", [2.0, 16.0])
    @pytest.mark.parametrize("x", [(0.05, 0.3), (0.3, -0.2), (-0.7, 0.6)])
    def test_value_vs_split_oracle(self, x, level):
        # in the band |x1| < 1/k (the last two x1 in units of 1/k), where the
        # old tensor rule missed sigma_2 by up to 2.7e-3; b_2 is limited by
        # the x2 rule across the kink of _loglip (up to 2.2e-4 at k = 2)
        if x[0] != 0.05:
            x = (x[0] / level, x[1])
        fam = make_family("partially-sobolev")
        ev = mollify(fam.field, fam.mollifier(level)).evaluate(np.array([x]))
        assert abs(ev.sigma[0, 1, 0] - _split_oracle(_ps_sigma2, x, level)) <= 1e-5
        assert abs(ev.drift[0, 1] - _split_oracle(_ps_drift2, x, level)) <= 3e-4

    @pytest.mark.parametrize("level", [2.0, 4.0, 16.0])
    def test_jacobian_is_the_values_derivative(self, level):
        # at level 4 and (0.05, 0.3) the tensor rule's d b_2/d x1 was 0.955
        # against a difference of 0; d/dx1 is the table's own derivative
        fam = make_family("partially-sobolev")
        field = mollify(fam.field, fam.mollifier(level))
        rng = derive_rng(17, f"slice-jac-{level}")
        pts = np.concatenate([[[0.05, 0.3]], np.stack(
            [rng.uniform(-1.0 / level, 1.0 / level, 40), rng.uniform(-2.0, 2.0, 40)], -1)])
        ev = field.evaluate(pts, jac=True)
        h = 1e-6
        # d/dx2 comes from the kernel gradient, so it matches the values to
        # the x2 rule's accuracy: checked where the kernel misses the kink of
        # _loglip at x2 = 0
        for j, at in ((0, slice(None)), (1, slice(0, 1 if level >= 4.0 else 0))):
            step = np.eye(2)[j] * h
            plus, minus = field.evaluate(pts + step), field.evaluate(pts - step)
            for name in ("sigma", "drift"):
                fd = (getattr(plus, name) - getattr(minus, name)) / (2 * h)
                assert np.allclose(getattr(ev, name + "_jac")[at, ..., j], fd[at],
                                   rtol=0.0, atol=1e-8 if j == 0 else 1e-4)

    @pytest.mark.parametrize("level", [2.0, 16.0])
    def test_affine_x2_factor_has_the_exact_jacobian(self, level):
        # the D rows' first moment is normalized: smoothing -x2 gives -1
        blocks = replace(make_family("partially-sobolev").field.blocks,
                         drift2=lambda x1, x2: -x2)
        field = mollify(StructuredCoefficient(1, blocks, 2, 1), MollifierSpec(
            dim=2, level=level, order=16, panels=1))
        pts = derive_rng(21, "affine-x2").uniform(-0.9 * level, 0.9 * level, (50, 2)) / 1.5
        jac = field.drift_jac(pts)[:, 1]
        assert np.max(np.abs(jac[:, 1] + 1.0)) <= 1e-12
        assert np.all(jac[:, 0] == 0.0)

    def test_state_independent_of_its_chunk(self, monkeypatch):
        fam = make_family("partially-sobolev")
        field = mollify(fam.field, fam.mollifier(4.0))
        pts = fam.measure.sample(derive_rng(15, "slice-chunks"), 300)
        pts[:2] = [[0.01, np.nan], [np.nan, 0.2]]
        whole = field.evaluate(pts, jac=True)
        monkeypatch.setattr(coefficients, "_MAX_EVAL_BLOCK", 2 * 16 * 7)  # chunks of 7 states
        small = field.evaluate(pts, jac=True)
        for part in ("sigma", "drift", "sigma_jac", "drift_jac"):
            one = np.concatenate([getattr(field.evaluate(p[None], jac=True), part) for p in pts])
            assert one.tobytes() == getattr(whole, part).tobytes()
            assert getattr(small, part).tobytes() == one.tobytes()
        assert np.all(np.isnan(whole.drift[:2, 1]))

    def test_block_callables_see_the_pieces_and_offsets(self):
        fam = make_family("partially-sobolev")
        base, seen = fam.field.blocks, []

        def recorded(name, fn):
            def wrapped(x1, x2):
                seen.append((name, x1.shape, x2.shape))
                return fn(x1, x2)
            return wrapped

        field = StructuredCoefficient(1, replace(
            base, sigma2=recorded("sigma", base.sigma2), drift2=recorded("drift", base.drift2)),
            2, 1)
        n = 50
        mollify(field, fam.mollifier(4.0)).evaluate(fam.measure.sample(
            derive_rng(18, "grids"), n), jac=True)
        # one call each a pass: the two x1 pieces, 16 x2 offsets a state
        assert seen == [("sigma", (2, 1, 1, 1), (1, n, 16, 1)),
                        ("drift", (2, 1, 1, 1), (1, n, 16, 1))]

    @pytest.mark.parametrize("level", [2.0, 16.0])
    @pytest.mark.parametrize("x", [(0.05, 0.3), (0.3, -0.2), (-0.7, 0.6)])
    def test_non_separable_block_constant_on_each_side(self, x, level):
        # no product of an x1 and an x2 part: the step enters inside the sine
        def fn(s, y2):
            return 0.25 * (1.0 + 0.3 * math.sin(y2 + 0.5 * s))

        def sigma2(x1, x2):
            s = np.sign(x1[..., 0]) + (x1[..., 0] == 0.0)
            return (0.25 * (1.0 + 0.3 * np.sin(x2[..., 0] + 0.5 * s)))[..., None, None]

        if x[0] != 0.05:
            x = (x[0] / level, x[1])
        blocks = replace(make_family("partially-sobolev").field.blocks, sigma2=sigma2)
        field = StructuredCoefficient(1, blocks, 2, 1)
        got = mollify(field, make_family("partially-sobolev").mollifier(level)).sigma(
            np.array([x]))[0, 1, 0]
        assert abs(got - _split_oracle(fn, x, level)) <= 1e-5

    def test_record_without_a_break_is_rejected(self):
        lifted = DerivativeSystem(make_family("deriv-smooth").field).lifted
        with pytest.raises(ValueError, match="deriv-smooth.*declares its x1_break"):
            mollify(lifted, MollifierSpec(dim=2, level=4.0, order=16, panels=1))
        blocks = replace(make_family("partially-sobolev").field.blocks,
                         sigma2=lifted.blocks.sigma2, drift2=lifted.blocks.drift2)
        wide = StructuredCoefficient(1, blocks, 3, 1, name="wide")
        with pytest.raises(ValueError, match="'wide'.*planar"):
            mollify(wide, MollifierSpec(dim=3, level=4.0, order=8, panels=1))

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
        # away from the singular sets (the origin, the kink of the
        # log-Lipschitz profile) and, for smoothed fields, a kernel radius
        # beyond them; partially-sobolev's x1-step is integrated exactly, so
        # its band stays in
        away = np.abs(pts) > 0.6
        pts = pts[away[:, 1] if name == "partially-sobolev" else np.all(away, axis=-1)][:40]
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
        ("linear", 0), ("partially-sobolev", 1), ("deriv-smooth", 1), ("deriv-rough", 1),
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

    def test_swirl_field_makes_no_pass(self, passes):
        # log-singular smooths from its table, still one evaluation per step
        fam, field = _field_for("log-singular", "mollify")
        assert field.is_smoothed
        drv = BrownianDriver.generate(field.dim_noise, 2.0**-6, 8, 3, seed=4)
        x0 = fam.measure.sample(derive_rng(11, "passes-swirl"), 5)
        ens = integrate_flow(field, drv, x0, 8 * drv.dt, density=fam.measure)
        assert passes["n"] == 0 and np.all(ens.density.valid)
