"""Built-in coefficient families, one per regularity regime.

Each family bundles a coefficient field with the integrability exponent q
it satisfies, the exponential-integrability parameter p0, and reference
measures whose decay exponents respect the standing constraints
(``alpha > q + n/2``; for block-structured fields additionally
``alpha1 > q + n1/2`` and ``alpha > alpha1 + n2/2``), each exceeding its
bound by 0.5, and the mollifier it is smoothed with (``Family.mollifier``:
one order-16 Gauss rule; log-singular reads only its level and shape).
``doubled_measure`` gives the measure of the doubled space of a derivative
base under the same convention.

Families:

* ``linear``            -- Ornstein-Uhlenbeck type: sigma = noise I,
                           b = -rate x.
* ``translation``       -- sigma = 1, b = 0 (n = m = 1); additive noise.
* ``pure-drift``        -- sigma = 0, b = -x; deterministic contraction.
* ``log-singular``      -- n = 2 divergence-free vortex drift with a
                           log-singular magnitude at the origin, compact
                           support, plus a linear restoring term.  Sobolev
                           (W^{1,q}, q < 2) but locally unbounded.  A
                           ``Swirl(profile, (beta,), noise)``, the field
                           declared by its rotation symmetry: -x plus the
                           profile g(r) x^perp supported in B(1), sigma =
                           noise I.  So it is smoothed from a radial table,
                           not by the mollifier quadrature.
* ``partially-sobolev`` -- block-structured on R^2: second-block
                           coefficients have a step-function dependence on
                           x1 (no x1-Sobolev regularity) and weak
                           x2-derivatives with a log singularity; its
                           record's ``x1_break = 0`` declares the step.
* ``deriv-linear`` / ``deriv-smooth`` / ``deriv-rough``
                        -- one-dimensional bases for the derivative-system
                           experiments; deriv-linear is sigma = 0.5,
                           b = -0.8 x, and the rough one has a drift with a
                           log-singular (exponentially integrable)
                           derivative, Sobolev but not Lipschitz.

linear, translation, pure-drift and deriv-linear are the affine families:
one builder, ``_affine(dim, rate, noise, name)``, gives each field from its
``(dim, rate, noise)`` in the table ``_AFFINE``, and that table is the one
place that says a family is affine (``Family.affine``).  The deriv-smooth
and deriv-rough bases are one builder, ``_deriv_base``, over their ``(s0,
f)`` in ``_DERIV_BASES``.

The rough profiles, the vortex's g, the log-Lipschitz factor ``_loglip``
and the cutoff ``_zeta`` under both, take ``deriv``: with it each returns
its value and its derivative from one call, one log and one pass over the
step's band (``coefficients._smoothstep``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import (
    CoefficientField, FieldBlocks, MollifierSpec, StructuredCoefficient, Swirl, _smoothstep,
)
from .measure import ReferenceMeasure, is_count

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
_MOLLIFIER_ORDER = 16  # Gauss-Legendre nodes per axis of every family's mollifier rule


@dataclass
class Family:
    """A catalog coefficient field with its exponents, measures and mollifier."""

    name: str
    field: CoefficientField
    q: float
    p0: float
    measure: ReferenceMeasure
    measure1: Optional[ReferenceMeasure] = None  # first-block measure (structured)

    @property
    def affine(self) -> bool:
        """sigma and b are affine (``_AFFINE``): smoothing reproduces their
        values on B(k), though not their Jacobians."""
        return self.name in _AFFINE

    @property
    def p(self) -> float:
        """Conjugate exponent of q."""
        return self.q / (self.q - 1.0)

    def mollifier(self, level: float) -> MollifierSpec:
        """The family's smoothing at ``level``: the catalog's one Gauss rule."""
        return MollifierSpec(dim=self.field.dim_state, level=level,
                             order=_MOLLIFIER_ORDER, panels=1)


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
# psi_k is 1 on B(k), so smoothing reproduces these fields' values there, to
# 1e-12: they have no Cauchy check, and their difference flows are their
# derivative flow, so their derivative metrics are rounding noise
# (``Family.affine``).  The smoothed Jacobians, read from the kernel-gradient
# weights, miss ``-rate I`` by the quadrature's first-moment error.
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

def _zeta(r, deriv: bool = False):
    """Cutoff: 1 on |x| <= 1/2, 0 on |x| >= 1; with ``deriv``, the pair of
    zeta and zeta', from one pass over the band 1/2 < r < 1."""
    out = _smoothstep(2.0 - 2.0 * r, deriv)
    return (out[0], -2.0 * out[1]) if deriv else out


def _vortex_profile(r, beta: float, deriv: bool = False):
    """g(r) = s(r) / r with s(r) = beta * log(1/r) * zeta(r) on 0 < r < 1, and
    with ``deriv`` the pair (g, g'), from one log and one pass over zeta's
    band."""
    zeta, dzeta = _zeta(r, deriv=True) if deriv else (_zeta(r), None)
    logterm = -np.log(r)
    s = beta * logterm * zeta
    g = s / r
    if not deriv:
        return g
    sp = beta * (-zeta / r + logterm * dzeta)
    return g, sp / r - s / r**2


def _log_singular(beta: float, noise: float) -> CoefficientField:
    """Drift -x + beta*log(1/r)*zeta(r) * (rotation of x/r); sigma constant.

    The swirl is divergence-free, so div(b) = -2 exactly and the
    exponential-integrability condition only sees the log-singular
    magnitude, which is integrable for p0 * beta < 2.  The field is declared
    by its rotation symmetry (``Swirl``), so ``mollify`` smooths it from a
    radial table.
    """
    return Swirl(_vortex_profile, (beta,), noise, name=f"log-singular(beta={beta:g})")


# ---------------------------------------------------------------------------
# partially Sobolev block family (n1 = n2 = 1)
# ---------------------------------------------------------------------------


def _loglip(u, deriv: bool = False):
    """-u log|u| zeta(|u|): bounded, Sobolev, not Lipschitz at 0; with
    ``deriv``, the pair of it and its derivative, from one log and one pass
    over zeta's band.

    zeta vanishes from |u| = 1 on, so log and zeta run on 0 < |u| < 1 only.
    """
    a = np.abs(u)
    out, on = np.zeros(a.shape), (a > 0) & (a < 1)
    uo, ao = u[on], a[on]
    log = np.log(ao)
    zeta, dzeta = _zeta(ao, deriv=True) if deriv else (_zeta(ao), None)
    out[on] = -uo * log * zeta
    if not deriv:
        return out
    slope = np.zeros(a.shape)
    slope[on] = (-log - 1.0) * zeta - uo * log * dzeta * np.sign(uo)
    return out, slope


def _partially_sobolev(step_amp: float, noise: float) -> StructuredCoefficient:
    """x1-block: smooth contraction; x2-block: step(x1) times a log-Lipschitz
    profile in x2.  The second block has no Sobolev regularity in x1."""

    def step(u):
        return np.sign(u) + (u == 0.0)  # value at the jump is irrelevant a.e.

    def sigma1_fn(x1):
        return (0.35 + 0.1 * np.tanh(x1))[..., None]

    def sigma1_jac_fn(x1):
        e = np.exp(-2.0 * np.abs(x1))  # 0.1 sech^2 x1, finite where cosh overflows
        return (0.4 * e / (1.0 + e) ** 2)[..., None, None]

    def drift1_fn(x1):
        return -x1

    def drift1_jac_fn(x1):
        return -np.ones(x1.shape[:-1] + (1, 1))

    def sigma2_fn(x1, x2):
        s = step(x1[..., 0])
        return (noise * (1.0 + 0.5 * s) * (1.0 + 0.3 * np.sin(x2[..., 0])))[..., None, None]

    def sigma2_jac_x2_fn(x1, x2):
        s = step(x1[..., 0])
        return (noise * (1.0 + 0.5 * s) * 0.3 * np.cos(x2[..., 0]))[..., None, None, None]

    def drift2_fn(x1, x2):
        return (-x2[..., 0] + step_amp * step(x1[..., 0]) * _loglip(x2[..., 0]))[..., None]

    def drift2_jac_x2_fn(x1, x2):
        return (-1.0 + step_amp * step(x1[..., 0]) * _loglip(x2[..., 0], deriv=True)[1])[
            ..., None, None
        ]

    return StructuredCoefficient(
        1,
        FieldBlocks(sigma1=sigma1_fn, drift1=drift1_fn, sigma2=sigma2_fn, drift2=drift2_fn,
                    sigma1_jac=sigma1_jac_fn, drift1_jac=drift1_jac_fn,
                    sigma2_jac=sigma2_jac_x2_fn, drift2_jac=drift2_jac_x2_fn, x1_break=0.0),
        dim_state=2, dim_noise=1, name=f"partially-sobolev(step={step_amp:g})",
    )


# ---------------------------------------------------------------------------
# derivative-system bases (d = 1)
# ---------------------------------------------------------------------------


def _cos2(u, deriv: bool = False):
    """cos 2u; with ``deriv``, the pair of it and its derivative -2 sin 2u."""
    val = np.cos(2.0 * u)
    return (val, -2.0 * np.sin(2.0 * u)) if deriv else val


# kind -> (s0, f): sigma = s0 + 0.2 sin x and b = -x + 0.5 f(x)
_DERIV_BASES = {"smooth": (0.5, _cos2), "rough": (0.4, _loglip)}


def _deriv_base(kind: str) -> CoefficientField:
    """sigma = s0 + 0.2 sin x and b = -x + 0.5 f(x) on R, with their
    Jacobians 0.2 cos x and -1 + 0.5 f'(x), from the kind's ``(s0, f)``."""
    s0, f = _DERIV_BASES[kind]

    def sigma_fn(x):
        return (s0 + 0.2 * np.sin(x[..., 0]))[..., None, None]

    def sigma_jac_fn(x):
        return (0.2 * np.cos(x[..., 0]))[..., None, None, None]

    def drift_fn(x):
        return -x + 0.5 * f(x)

    def drift_jac_fn(x):
        return (-1.0 + 0.5 * f(x[..., 0], deriv=True)[1])[..., None, None]

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
        ok, must = is_count(value), "a positive integer"
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
        fam = Family(name, _affine(dim, rate, noise, label), 2.0, p0,
                     ReferenceMeasure(dim, _alpha_for(2.0, dim)))
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
        fam = Family(name, field, q, p0, ReferenceMeasure(2, alpha),
                     ReferenceMeasure(1, alpha1))
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
