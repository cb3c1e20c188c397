"""Built-in coefficient families, one per regularity regime.

Each family bundles a coefficient field with the integrability exponent q
it satisfies, the exponential-integrability parameter p0, and reference
measures whose decay exponents respect the standing constraints
(``alpha > q + n/2``; for block-structured fields additionally
``alpha1 > q + n1/2`` and ``alpha > alpha1 + n2/2``), each exceeding its
bound by 0.5 (translation's measure keeps alpha = 1.5), and the mollifier
quadrature it is smoothed with (``Family.mollifier``).  ``doubled_measure``
gives the measure of the doubled space of a derivative base under the same
convention.

Families:

* ``linear``            -- Ornstein-Uhlenbeck type: sigma = noise I,
                           b = -rate x.
* ``translation``       -- sigma = 1, b = 0 (n = m = 1); additive noise.
* ``pure-drift``        -- sigma = 0, b = -x; deterministic contraction.
* ``log-singular``      -- n = 2 divergence-free vortex drift with a
                           log-singular magnitude at the origin, compact
                           support, plus a linear restoring term.  Sobolev
                           (W^{1,q}, q < 2) but locally unbounded.
* ``partially-sobolev`` -- block-structured on R^2: second-block
                           coefficients have a step-function dependence on
                           x1 (no x1-Sobolev regularity) and weak
                           x2-derivatives with a log singularity.
* ``deriv-linear`` / ``deriv-smooth`` / ``deriv-rough``
                        -- one-dimensional bases for the derivative-system
                           experiments; deriv-linear is sigma = 0.5,
                           b = -0.8 x, and the rough one has a drift with a
                           log-singular (exponentially integrable)
                           derivative, Sobolev but not Lipschitz.

linear, translation, pure-drift and deriv-linear are the affine families:
one builder, ``_affine(dim, rate, noise, name)``, gives each field from its
``(dim, rate, noise)`` in the table ``_AFFINE``, and that table is the one
place that says a family is affine (``Family.affine``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import (
    CoefficientField, FieldBlocks, MollifierSpec, StructuredCoefficient, _smoothstep,
    _smoothstep_deriv, _step_band,
)
from .measure import ReferenceMeasure, sq_norm

__all__ = ["Family", "make_family", "doubled_measure", "FAMILY_NAMES"]

FAMILY_NAMES = (
    "linear",
    "translation",
    "pure-drift",
    "log-singular",
    "partially-sobolev",
    "deriv-linear",
    "deriv-smooth",
    "deriv-rough",
)
_MOLLIFIER_ORDER = 16  # Gauss-Legendre nodes per panel and axis of every family


@dataclass
class Family:
    """A catalog coefficient field with its exponents and measures."""

    name: str
    field: CoefficientField
    q: float
    p0: float
    measure: ReferenceMeasure
    measure1: Optional[ReferenceMeasure] = None  # first-block measure (structured)
    mollifier_panels: int | tuple = 1            # quadrature panels (per axis if a tuple)

    @property
    def affine(self) -> bool:
        """sigma and b are affine (``_AFFINE``): smoothing reproduces them."""
        return self.name in _AFFINE

    @property
    def p(self) -> float:
        """Conjugate exponent of q."""
        return self.q / (self.q - 1.0)

    def mollifier(self, level: float) -> MollifierSpec:
        """The family's smoothing at ``level``, with its recorded quadrature."""
        return MollifierSpec(dim=self.field.dim_state, level=level,
                             order=_MOLLIFIER_ORDER, panels=self.mollifier_panels)


def _alpha_for(q: float, n: int, extra: float = 0.0) -> float:
    return max(q + n / 2.0, extra) + 0.5


def doubled_measure(d: int, q: float, alpha: Optional[float] = None) -> ReferenceMeasure:
    """The measure on R^2d of the derivative system of a base on R^d.

    The weak-derivative theory needs ``alpha > 2 alpha1 + q + d/2`` on the
    doubled space, alpha1 the base exponent.  Both take the catalog's 0.5
    margin: ``alpha1 = q + d/2 + 0.5`` (the base measure of the deriv
    families) and, unless ``alpha`` is given, ``alpha = 2 alpha1 + q + d/2
    + 0.5``.  A given ``alpha`` at or below the bound is rejected with a
    ``ValueError``.
    """
    alpha1 = _alpha_for(q, d)
    floor = 2 * alpha1 + q + d / 2.0
    if alpha is None:
        alpha = floor + 0.5
    elif not alpha > floor:
        raise ValueError(f"lifted alpha must exceed 2 alpha1 + q + d/2 = {floor}, got {alpha}")
    return ReferenceMeasure(2 * d, alpha)


# ---------------------------------------------------------------------------
# affine families
# ---------------------------------------------------------------------------

# The families whose sigma and b are affine, sigma = noise I and b = -rate x:
# name -> ((dim, rate, noise), the ones of them ``make_family`` lets a caller
# set).  The symmetric kernel reproduces affine functions and the cutoff
# psi_k is 1 on B(k), so smoothing leaves these fields unchanged there: they
# have no Cauchy check, and their difference flows are their derivative flow,
# so their derivative metrics are rounding noise (``Family.affine``).
_AFFINE = {
    "linear": ((1, 1.0, 0.6), ("dim", "rate", "noise")),
    "translation": ((1, 0.0, 1.0), ()),
    "pure-drift": ((1, 1.0, 0.0), ("dim",)),
    "deriv-linear": ((1, 0.8, 0.5), ()),
}


def _affine(dim: int, rate: float, noise: float, name: str) -> CoefficientField:
    """sigma = noise I and b = -rate x on R^dim, with their Jacobians."""

    def tiled(mat):
        # mat at every point, as a fresh array: one allocation and one copy
        def fn(x):
            out = np.empty(x.shape[:-1] + mat.shape)
            out[...] = mat
            return out

        return fn

    return CoefficientField(
        dim_state=dim, dim_noise=dim,
        sigma_fn=tiled(noise * np.eye(dim)),
        drift_fn=lambda x: -rate * x,
        sigma_jac_fn=lambda x: np.zeros(x.shape[:-1] + (dim, dim, dim)),
        drift_jac_fn=tiled(-rate * np.eye(dim)),
        name=name,
        sigma_constant=True,
    )


# ---------------------------------------------------------------------------
# log-singular vortex (n = 2)
# ---------------------------------------------------------------------------

# cutoff: 1 on |x| <= 1/2, 0 on |x| >= 1
def _zeta(r):
    return _smoothstep(2.0 - 2.0 * r)


def _zeta_deriv(r):
    return -2.0 * _smoothstep_deriv(2.0 - 2.0 * r)


def _log_singular(beta: float, noise: float) -> CoefficientField:
    """Drift -x + beta*log(1/r)*zeta(r) * (rotation of x/r); sigma constant.

    The swirl is divergence-free, so div(b) = -2 exactly and the
    exponential-integrability condition only sees the log-singular
    magnitude, which is integrable for p0 * beta < 2.
    """

    def swirl(r, deriv: bool = False):
        # g(r) = s(r) / r with s(r) = beta * log(1/r) * zeta(r), the
        # coefficient of x-perp, and with ``deriv`` also g'(r); zeta vanishes
        # from r = 1 on, so everything runs on 0 < r < 1 only, with one pass
        # over zeta's transition band 1/2 < r < 1 for zeta and zeta'
        g, on = np.zeros(np.shape(r)), (r > 0) & (r < 1)
        ro = r[on]
        t = 2.0 - 2.0 * ro
        parts = _step_band(t)
        zeta, logterm = _smoothstep(t, parts), -np.log(ro)
        s = beta * logterm * zeta
        g[on] = s / ro
        if not deriv:
            return g
        sp = beta * (-zeta / ro + logterm * (-2.0 * _smoothstep_deriv(t, parts)))
        gp = np.zeros(np.shape(r))
        gp[on] = sp / ro - s / ro**2
        return g, gp

    def drift_fn(x):
        x0, x1 = x[..., 0], x[..., 1]
        g = swirl(np.sqrt(x0 * x0 + x1 * x1))
        return np.stack([-x0 - g * x1, -x1 + g * x0], axis=-1)

    def drift_jac_fn(x):
        r = np.sqrt(sq_norm(x))
        g, gp = swirl(r, deriv=True)
        perp = np.stack([-x[..., 1], x[..., 0]], axis=-1)
        safe_r = np.where(r > 0, r, 1.0)
        grad_g = gp[..., None] * x / safe_r[..., None]
        jac = np.zeros(x.shape[:-1] + (2, 2))
        jac[..., 0, 0] = -1.0
        jac[..., 1, 1] = -1.0
        jac += perp[..., :, None] * grad_g[..., None, :]
        jac[..., 0, 1] += -g
        jac[..., 1, 0] += g
        return jac

    def sigma_fn(x):
        return np.broadcast_to(noise * np.eye(2), x.shape[:-1] + (2, 2)).copy()

    def sigma_jac_fn(x):
        return np.zeros(x.shape[:-1] + (2, 2, 2))

    return CoefficientField(
        dim_state=2, dim_noise=2,
        sigma_fn=sigma_fn, drift_fn=drift_fn,
        sigma_jac_fn=sigma_jac_fn, drift_jac_fn=drift_jac_fn,
        name=f"log-singular(beta={beta:g})",
        sigma_constant=True,
    )


# ---------------------------------------------------------------------------
# partially Sobolev block family (n1 = n2 = 1)
# ---------------------------------------------------------------------------


def _loglip(u):
    """-u log|u| zeta(|u|): bounded, Sobolev, not Lipschitz at 0.

    zeta vanishes from |u| = 1 on, so log and zeta run on 0 < |u| < 1 only.
    """
    a = np.abs(u)
    out, on = np.zeros(a.shape), (a > 0) & (a < 1)
    ao = a[on]
    out[on] = -u[on] * np.log(ao) * _zeta(ao)
    return out


def _loglip_deriv(u):
    a = np.abs(u)
    out, on = np.zeros(a.shape), (a > 0) & (a < 1)
    uo, ao = u[on], a[on]
    log = np.log(ao)
    out[on] = (-log - 1.0) * _zeta(ao) - uo * log * _zeta_deriv(ao) * np.sign(uo)
    return out


def _partially_sobolev(step_amp: float, noise: float) -> StructuredCoefficient:
    """x1-block: smooth contraction; x2-block: step(x1) times a log-Lipschitz
    profile in x2.  The second block has no Sobolev regularity in x1."""

    def step(u):
        return np.sign(u) + (u == 0.0)  # value at the jump is irrelevant a.e.

    def sigma1_fn(x1):
        return (0.35 + 0.1 * np.tanh(x1))[..., None]

    def sigma1_jac_fn(x1):
        return (0.1 / np.cosh(x1) ** 2)[..., None, None]

    def drift1_fn(x1):
        return -x1

    def drift1_jac_fn(x1):
        return -np.ones(x1.shape[:-1] + (1, 1))

    # the second block in term form, (x1 factor, x2 factor) pairs: a smoothing
    # pass evaluates each factor once per offset of its own block
    def sigma2_fn(x1, x2):
        s = step(x1[..., 0])
        return [((noise * (1.0 + 0.5 * s))[..., None, None],
                 (1.0 + 0.3 * np.sin(x2[..., 0]))[..., None, None])]

    def sigma2_jac_x2_fn(x1, x2):
        s = step(x1[..., 0])
        return (noise * (1.0 + 0.5 * s) * 0.3 * np.cos(x2[..., 0]))[..., None, None, None]

    def drift2_fn(x1, x2):
        return [(np.ones((1,) * x1.ndim), (-x2[..., 0])[..., None]),
                ((step_amp * step(x1[..., 0]))[..., None], _loglip(x2[..., 0])[..., None])]

    def drift2_jac_x2_fn(x1, x2):
        return (-1.0 + step_amp * step(x1[..., 0]) * _loglip_deriv(x2[..., 0]))[
            ..., None, None
        ]

    return StructuredCoefficient(
        1,
        FieldBlocks(sigma1=sigma1_fn, drift1=drift1_fn, sigma2=sigma2_fn, drift2=drift2_fn,
                    sigma1_jac=sigma1_jac_fn, drift1_jac=drift1_jac_fn,
                    sigma2_jac=sigma2_jac_x2_fn, drift2_jac=drift2_jac_x2_fn),
        dim_state=2, dim_noise=1, name=f"partially-sobolev(step={step_amp:g})",
    )


# ---------------------------------------------------------------------------
# derivative-system bases (d = 1)
# ---------------------------------------------------------------------------


def _deriv_base(kind: str) -> CoefficientField:
    if kind == "smooth":
        def sigma_fn(x):
            return (0.5 + 0.2 * np.sin(x[..., 0]))[..., None, None]

        def sigma_jac_fn(x):
            return (0.2 * np.cos(x[..., 0]))[..., None, None, None]

        def drift_fn(x):
            return -x + 0.5 * np.cos(2.0 * x)

        def drift_jac_fn(x):
            return (-1.0 - np.sin(2.0 * x[..., 0]))[..., None, None]

    else:  # rough
        def sigma_fn(x):
            return (0.4 + 0.2 * np.sin(x[..., 0]))[..., None, None]

        def sigma_jac_fn(x):
            return (0.2 * np.cos(x[..., 0]))[..., None, None, None]

        def drift_fn(x):
            return -x + 0.5 * _loglip(x)

        def drift_jac_fn(x):
            return (-1.0 + 0.5 * _loglip_deriv(x[..., 0]))[..., None, None]

    return CoefficientField(
        dim_state=1, dim_noise=1,
        sigma_fn=sigma_fn, drift_fn=drift_fn,
        sigma_jac_fn=sigma_jac_fn, drift_jac_fn=drift_jac_fn,
        name=f"deriv-{kind}",
    )


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def _param(params: dict, key: str, default):
    """``params.pop(key, default)``, which must be a positive integer for an
    integer default and a finite number otherwise (a ``ValueError`` names it)."""
    value = params.pop(key, default)
    if isinstance(default, int):
        ok, must = isinstance(value, numbers.Integral) and value >= 1, "a positive integer"
    else:
        ok, must = isinstance(value, numbers.Real) and np.isfinite(value), "a finite number"
    if isinstance(value, bool) or not ok:
        raise ValueError(f"family parameter {key!r} must be {must}, got {value!r}")
    return type(default)(value)


def make_family(name: str, **params) -> Family:
    """Build a catalog family by name.

    Recognized parameters (all optional): ``rate``, ``noise``, ``beta``,
    ``p0``, ``step_amp`` (finite numbers) and ``dim`` (a positive integer;
    linear / pure-drift only).  A parameter of another type, or one the
    family does not use, raises a ``ValueError`` that names it.
    """
    p0 = _param(params, "p0", 1.0)
    if name in _AFFINE:
        defaults, settable = _AFFINE[name]
        dim, rate, noise = (_param(params, key, v) if key in settable else v
                            for key, v in zip(("dim", "rate", "noise"), defaults))
        label = f"linear(rate={rate:g},noise={noise:g})" if name == "linear" else name
        # translation's measure keeps its own exponent (criterion 1's oracle)
        alpha = 1.5 if name == "translation" else _alpha_for(2.0, dim)
        fam = Family(name, _affine(dim, rate, noise, label), 2.0, p0,
                     ReferenceMeasure(dim, alpha))
    elif name == "log-singular":
        field = _log_singular(_param(params, "beta", 1.2), _param(params, "noise", 0.3))
        q = 1.5
        fam = Family(name, field, q, p0, ReferenceMeasure(2, _alpha_for(q, 2)))
    elif name == "partially-sobolev":
        field = _partially_sobolev(_param(params, "step_amp", 0.4),
                                   _param(params, "noise", 0.25))
        q = 2.0
        alpha1 = _alpha_for(q, 1)                       # q + n1/2 + 0.5
        alpha = _alpha_for(q, 2, extra=alpha1 + 0.5)    # also > alpha1 + n2/2
        # two x1-panels put a panel edge on the x1-step
        fam = Family(name, field, q, p0, ReferenceMeasure(2, alpha),
                     ReferenceMeasure(1, alpha1), mollifier_panels=(2, 1))
    elif name in ("deriv-smooth", "deriv-rough"):
        kind = name.split("-", 1)[1]
        field = _deriv_base(kind)
        q = 2.0
        fam = Family(name, field, q, p0, ReferenceMeasure(1, _alpha_for(q, 1)))
    else:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    if params:
        raise ValueError(f"unused family parameters: {sorted(params)}")
    return fam
