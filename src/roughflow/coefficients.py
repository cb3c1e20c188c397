"""SDE coefficient fields and their smoothing.

A coefficient pair is a diffusion matrix ``sigma : R^n -> R^(n x m)`` and a
drift ``b : R^n -> R^n``.  Fields evaluate on batches of points (shape
``(..., n)``).  Jacobians are analytic: a field either carries Jacobian
callables or is smoothed, whose derivatives come from the kernel gradient;
a field without them can be evaluated and smoothed but not differentiated.
Every field type evaluates through one method, ``_eval``, which returns
the requested components of sigma and b (and their Jacobians) together;
``evaluate(x, jac=False) -> FieldEval`` and the single-component accessors
``sigma``, ``drift``, ``sigma_jac`` and ``drift_jac`` are one-liners over
it.  A ``StructuredCoefficient`` stacks its first block, read from its
``FieldBlocks`` record, on top of its second-block rows, and a ``Swirl``, a
planar field declared by its rotation symmetry, calls its radial profile
once per evaluation, for the drift and its Jacobian together.  The module
also provides

* compactly supported bump mollifiers ``chi_k`` with cutoffs ``psi_k`` and
  the smoothing ``f_k = (f * chi_k) psi_k``, whose derivatives are computed
  from ``f * grad(chi_k)`` and ``grad(psi_k)`` rather than by differencing.
  ``mollify`` is the one smoothing entry: it smooths every row of a plain
  field on the line, packing sigma and b into one function, so an
  evaluation costs one pass of the 1-D Gauss rule over the rough field.
  A planar field is smoothed only through a declared structure: a
  ``Swirl`` from its radial table, with no pass, and the second block of a
  structured field, jumping in x1, by the slice rule.  The cutoff's step,
  ``_smoothstep(t, deriv)``, gives its value and, on request, its
  derivative from one pass over its band;
* ``density_terms``, the terms of the exponent of the pathwise push-forward
  density from one ``FieldEval``: the noise term, the drift term and, given
  a difference step, the Ito-Taylor coefficient of the noise term;
* a checker for the exponential-integrability condition on the coefficients.

Axis conventions: ``sigma(x) -> (..., n, m)``, ``drift(x) -> (..., n)``,
``sigma_jac[..., i, k, j] = d sigma^{ik} / d x_j`` and
``drift_jac[..., i, j] = d b^i / d x_j``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.typing import NDArray

from .measure import ReferenceMeasure, as_points, is_count, sq_norm

__all__ = [
    "CoefficientField",
    "FieldEval",
    "StructuredCoefficient",
    "FieldBlocks",
    "Swirl",
    "MollifierSpec",
    "mollify",
    "density_terms",
    "exp_integrand",
    "condition_integrals",
]

_MAX_EVAL_BLOCK = 2**14  # rough-callable points per quadrature chunk: temporaries stay in cache
_CONDITION_STAGES = 3    # doubling budgets of a condition integral
_SWIRL_RATE = 1.0        # a swirl field's restoring rate: b = -rate x + g(r) x^perp
_SWIRL_RADIUS = 1.0      # a swirl profile's support radius: g = 0 from r = radius on
_SWIRL_RADII = 16        # swirl table radii per unit length and unit of level
_SWIRL_RHO = 24          # Gauss-Legendre nodes of a table radius's annulus in rho
_SWIRL_THETA = 16        # Gauss-Legendre nodes in the angle
_SWIRL_BLOCK = 16        # table radii per build block: (radii, rho, theta) temporaries stay small
_SLICE_CELLS = 128       # cells of a slice table over the kernel ball's width in u1
_SLICE_NODES = 4         # Gauss-Legendre nodes of a slice table cell
_MASS_CUTS = (0.0, 0.5, 0.8, 1.0)  # radial panels of the kernel's mass
_MASS_NODES = 64         # Gauss-Legendre nodes of a mass panel
_FLOAT_MAX_QUARTER = np.finfo(np.float64).max / 4  # Swirl._eval: g' where |s'| + |g| < r x this
_PLANAR = ("a planar field is smoothed through its declared structure only, a Swirl by "
           "its radial table or a FieldBlocks record with its x1_break by the slice rule")


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


@dataclass
class FieldEval:
    """Coefficient values at a batch of points, with Jacobians on request.

    A component a caller did not ask for is None.
    """

    sigma: Optional[NDArray[np.float64]]            # (..., n, m)
    drift: Optional[NDArray[np.float64]]            # (..., n)
    sigma_jac: Optional[NDArray[np.float64]] = None  # (..., n, m, n)
    drift_jac: Optional[NDArray[np.float64]] = None  # (..., n, n)


def _jacobian(field, fn: Optional[Callable], name: str, *args,
              fix: str = "smooth it with mollify to differentiate it") -> NDArray[np.float64]:
    if fn is None:
        raise ValueError(f"field {field.name!r} has no {name} Jacobian; {fix}")
    return np.asarray(fn(*args), dtype=np.float64)


@dataclass
class CoefficientField:
    """Coefficient pair (sigma, b) with optional analytic Jacobians.

    ``_eval(pts, sigma, drift, jac)`` is the one evaluation method: it
    returns the requested components, with their Jacobians when ``jac`` is
    set, in one ``FieldEval``.  Here it calls the ``*_fn`` callables and
    checks the value shapes; a field smoothed by ``mollify`` evaluates by
    one quadrature pass (or its swirl table) instead, a
    ``StructuredCoefficient`` from its block record and a ``Swirl`` from its
    profile (none carries the callables, so ``is_analytic`` is False for
    them).  ``evaluate`` and the accessors call ``_eval``.  A field without
    Jacobian callables is never differenced (its coefficients may jump):
    asking for a Jacobian raises a ``ValueError`` naming it, and
    ``mollify`` gives a differentiable field on the line.  Fields are
    immutable in practice: evaluation never mutates state, so a field
    instance is safe for concurrent use.
    """

    dim_state: int
    dim_noise: int
    sigma_fn: Callable
    drift_fn: Callable
    sigma_jac_fn: Optional[Callable] = None
    drift_jac_fn: Optional[Callable] = None
    name: str = ""
    sigma_constant: bool = False  # sigma is read at one point (smoothing, density terms)

    # -- evaluation --------------------------------------------------------

    def _eval(self, pts, sigma=True, drift=True, jac=False) -> FieldEval:
        """sigma and/or b at ``pts`` (shape ``(..., n)``), each with its
        Jacobian when ``jac`` is set."""
        out, lead = FieldEval(None, None), pts.shape[:-1]
        for name, want, on in (("sigma", (self.dim_state, self.dim_noise), sigma),
                               ("drift", (self.dim_state,), drift)):
            if not on:
                continue
            val = np.asarray(getattr(self, f"{name}_fn")(pts), dtype=np.float64)
            if val.shape != lead + want:
                raise ValueError(f"{name} returned shape {val.shape}, expected {lead + want}")
            setattr(out, name, val)
            if jac:
                setattr(out, f"{name}_jac",
                        _jacobian(self, getattr(self, f"{name}_jac_fn"), name, pts))
        return out

    def evaluate(self, x, jac: bool = False) -> FieldEval:
        """sigma and b at ``x``, plus both Jacobians when ``jac`` is set."""
        return self._eval(as_points(x, self.dim_state, "field"), jac=jac)

    def sigma(self, x) -> NDArray[np.float64]:
        return self._eval(as_points(x, self.dim_state, "field"), drift=False).sigma

    def drift(self, x) -> NDArray[np.float64]:
        return self._eval(as_points(x, self.dim_state, "field"), sigma=False).drift

    def sigma_jac(self, x) -> NDArray[np.float64]:
        """d sigma^{ik} / d x_j, shape (..., n, m, n)."""
        return self._eval(as_points(x, self.dim_state, "field"), drift=False, jac=True).sigma_jac

    def drift_jac(self, x) -> NDArray[np.float64]:
        """d b^i / d x_j, shape (..., n, n)."""
        return self._eval(as_points(x, self.dim_state, "field"), sigma=False, jac=True).drift_jac

    def constant_sigma(self) -> Optional[NDArray[np.float64]]:
        """The (n, m) matrix of a declared-constant sigma, read at the
        origin; None for any other field."""
        return self.sigma(np.zeros((1, self.dim_state)))[0] if self.sigma_constant else None

    @property
    def is_analytic(self) -> bool:
        return self.sigma_jac_fn is not None and self.drift_jac_fn is not None

    @property
    def is_smoothed(self) -> bool:
        """Built by ``mollify``: one call gives values and Jacobians."""
        return isinstance(self._eval, _Smoother)

    def sigma_divergence(self, x) -> NDArray[np.float64]:
        """Column divergences (div sigma^{.,1}, ..., div sigma^{.,m})."""
        return np.einsum("...iki->...k", self.sigma_jac(x))


@dataclass(frozen=True)
class FieldBlocks:
    """Block callables of a structured field: the first block (with its
    x1-Jacobians) of ``x1 = x[..., :n1]``, the second block (with its
    x2-Jacobians) of ``(x1, x2)``, ``x2 = x[..., n1:]``.  A field smoothed by
    ``mollify`` keeps its base's record, so the second-block callables are
    the rough functions; ``second_block`` reads any field's own second block.

    Every callable returns an array, broadcast over the leading axes of its
    coordinates as any field callable is: at points, and in a smoothing pass
    at the x1 pieces ``(2, 1, 1, 1)`` and x2 offsets ``(1, B, J, 1)``, so an
    x1-only part is computed once per piece and an x2-only part once per
    offset.  ``x1_break`` states that the second block is constant in x1 on
    either side of ``x1 = x1_break`` (it may vary with x2 on each side in any
    way): only such a record is smoothed, by the slice rule
    (``MollifierSpec._slices``), which reads the block at one x1 per side and
    integrates the jump exactly.  Nothing checks this contract; a block that
    varies with x1 on a side is smoothed as if it took its value at
    ``x1_break -+ 1`` there.  The Jacobian callables are evaluated at points
    only.
    """

    sigma1: Callable                        # x1 (..., n1) -> (..., n1, m)
    drift1: Callable                        # x1           -> (..., n1)
    sigma2: Callable                        # x1, x2 (..., n2) -> (..., n2, m)
    drift2: Callable                        # x1, x2       -> (..., n2)
    sigma1_jac: Optional[Callable] = None   # x1 -> (..., n1, m, n1)
    drift1_jac: Optional[Callable] = None   # x1 -> (..., n1, n1)
    sigma2_jac: Optional[Callable] = None   # x1, x2 -> (..., n2, m, n2), in x2
    drift2_jac: Optional[Callable] = None   # x1, x2 -> (..., n2, n2), in x2
    x1_break: Optional[float] = None        # the second block's one x1 jump; None: not smoothable


class StructuredCoefficient(CoefficientField):
    """Block-structured field: the first ``n1`` rows of sigma and components
    of b depend on ``x1 = x[:n1]`` only.

    ``StructuredCoefficient(n1, blocks, dim_state, dim_noise, name)``
    evaluates from its ``FieldBlocks`` record: ``_eval`` stacks the first
    block on top of ``_second``, the second-block rows with Jacobian
    columns over all of x.  Both read the rough block through
    ``_rough_second``, which calls the record's array-returning callables:
    ``_second`` at points, and the ``_second`` that ``mollify`` puts in its
    place, one slice-rule pass, on that rule's grids.  The blockwise checks
    read each block in its own variables: ``first_block`` on points of
    R^n1, ``second_block`` on R^n.

    The cross-block partial derivatives ``d(sigma_2)/d(x1)`` need not exist
    for partially Sobolev coefficients; Jacobians of a rough structured
    field set those entries to zero.  Column divergences use diagonal blocks
    only, and the gradient contraction's cross terms carry a genuine zero
    factor ``d(sigma_1)/d(x2) = 0``, so neither depends on the zeroed
    entries.  The Ito-Taylor coefficient G of ``density_terms``
    does read them (``sum_ij sigma^{ik} d_i sigma^{jl} g_j`` with i in the
    first block, j in the second), and its divergence difference may
    straddle a jump in x1.  For a rough block field the density tracker
    therefore has no order-1 claim; the correction stays bounded (a jump
    enters as a difference over ``sqrt(dt)``, multiplied by increments of
    order dt).
    """

    def __init__(self, n1: int, blocks: FieldBlocks, dim_state: int, dim_noise: int,
                 name: str = ""):
        super().__init__(dim_state, dim_noise, None, None, name=name)
        if not 1 <= n1 < self.dim_state:
            raise ValueError(f"n1 must be in [1, dim_state), got {n1}")
        self.n1 = n1
        self.blocks = blocks

    @property
    def n2(self) -> int:
        return self.dim_state - self.n1

    @property
    def is_smoothed(self) -> bool:
        return isinstance(self._second, _Smoother)

    def _eval(self, pts, sigma=True, drift=True, jac=False) -> FieldEval:
        n1, b = self.n1, self.blocks
        x1, out = pts[..., :n1], self._second(pts, sigma, drift, jac)
        for name, rows, on in (("sigma", -2, sigma), ("drift", -1, drift)):  # rows: value axis
            if not on:
                continue
            setattr(out, name, np.concatenate([getattr(b, f"{name}1")(x1), getattr(out, name)],
                                              axis=rows))
            if jac:  # the first block does not depend on x2
                jac2 = getattr(out, f"{name}_jac")
                jac1 = np.zeros(jac2.shape[:rows - 1] + (n1,) + jac2.shape[rows:])
                jac1[..., :n1] = _jacobian(
                    self, getattr(b, f"{name}1_jac"), f"first-block {name}", x1,
                    fix=f"smoothing keeps the first block, so give FieldBlocks a {name}1_jac")
                setattr(out, f"{name}_jac", np.concatenate([jac1, jac2], axis=rows - 1))
        return out

    def _second(self, pts, sigma=True, drift=True, jac=False) -> FieldEval:
        """Second-block rows of sigma and/or b at ``pts``, Jacobian columns
        over all of x (zero in x1)."""
        x1, x2 = pts[..., :self.n1], pts[..., self.n1:]
        out = self._rough_second(x1, x2, sigma, drift)
        for name, on in (("sigma", sigma), ("drift", drift)):
            if on and jac:
                jac2 = _jacobian(self, getattr(self.blocks, f"{name}2_jac"), name, x1, x2)
                full = np.zeros(jac2.shape[:-1] + (self.dim_state,))
                full[..., self.n1:] = jac2
                setattr(out, f"{name}_jac", full)
        return out

    def _rough_second(self, x1, x2, sigma=True, drift=True) -> FieldEval:
        """Rough second-block sigma and/or b at the block coordinates ``(x1,
        x2)``: points, or the slice rule's grids."""
        b = self.blocks
        return FieldEval(b.sigma2(x1, x2) if sigma else None, b.drift2(x1, x2) if drift else None)

    def first_block(self, x1) -> FieldEval:
        """First-block sigma, b and their x1-Jacobians at points of R^n1."""
        b = self.blocks
        return FieldEval(b.sigma1(x1), b.drift1(x1), b.sigma1_jac(x1), b.drift1_jac(x1))

    def second_block(self, x) -> FieldEval:
        """Second-block sigma, b and their x2-Jacobians at points of R^n."""
        n1, ev = self.n1, self._second(as_points(x, self.dim_state, "field"), jac=True)
        return FieldEval(ev.sigma, ev.drift, ev.sigma_jac[..., n1:], ev.drift_jac[..., n1:])


class Swirl(CoefficientField):
    """A planar field declared by its rotation symmetry: sigma = noise I and
    ``b = -x + g(r) x^perp`` with ``x^perp = (-x2, x1)``, the swirl profile g
    vanishing from ``r = 1`` on (the module's ``_SWIRL_RATE`` and
    ``_SWIRL_RADIUS``).

    ``Swirl(profile, params, noise, name)``: ``profile(r, *params,
    deriv=False)`` gives the swirl speed ``s = r g``, or ``(s, s')`` with
    ``deriv``, at radii ``0 < r < 1``; it is a module-level function, so
    ``(profile, params)`` names a profile by value.  ``_eval`` is the rough
    field, one profile call per evaluation, at r = ``hypot`` where
    ``|x|^2`` is subnormal (elsewhere its root; 0 where it underflows).  Its
    Jacobian takes ``g' = s'/r - s/r^2`` where that is a float; nearer 0,
    where it overflows, from ``r g' = s' - g`` and ``e = x / r`` instead.
    ``mollify`` smooths it through the symmetry: the kernel is radial, so
    ``(b * chi_k)(x) = -x + h_k(r) x^perp / r``, with the 1-D profile
    ``h_k`` read from a table built once per profile, level and kernel
    shape (``_swirl_table``).  Both evaluate through ``_swirl``, with ``H =
    g`` and ``H = h_k / r``.  A swirl has no Jacobian callables, so
    ``is_analytic`` is False.
    """

    def __init__(self, profile: Callable, params: tuple, noise: float, name: str = ""):
        super().__init__(2, 2, None, None, name=name, sigma_constant=True)
        self.profile, self.params, self.noise = profile, tuple(params), noise

    def _eval(self, pts, sigma=True, drift=True, jac=False) -> FieldEval:
        out, lead = FieldEval(None, None), pts.shape[:-1]
        if sigma:
            out.sigma = np.broadcast_to(self.noise * np.eye(2), lead + (2, 2)).copy()
            if jac:
                out.sigma_jac = np.zeros(lead + (2, 2, 2))
        if drift:
            sq = sq_norm(pts)
            r = np.sqrt(sq)
            sub = sq < np.finfo(np.float64).tiny  # subnormal or 0: sqrt loses digits
            if sub.any():
                r = np.where(sub & (sq > 0.0), np.hypot(pts[..., 0], pts[..., 1]), r)
            on = (r > 0) & (r < _SWIRL_RADIUS)
            ro, g = r[on], np.zeros(r.shape)  # g, and g' with jac, are zero off 0 < r < 1
            if not jac:
                g[on] = self.profile(ro, *self.params) / ro
                out.drift = _swirl(pts, g)
                return out
            s, sp = self.profile(ro, *self.params, deriv=True)
            go = s / ro
            # g' = s'/r - s/r^2 only where both terms stay well below the
            # largest float; nearer 0 the Jacobian takes r g' = s' - g
            near = np.abs(sp) + np.abs(go) >= ro * _FLOAT_MAX_QUARTER
            gpo, ok = np.zeros(ro.shape), ~near
            gpo[ok] = sp[ok] / ro[ok] - s[ok] / ro[ok] ** 2
            gp = np.zeros(r.shape)
            g[on], gp[on] = go, gpo
            safe_r = np.where(r > 0, r, 1.0)
            out.drift, out.drift_jac = _swirl(
                pts, g, (gp * pts[..., 0] / safe_r, gp * pts[..., 1] / safe_r))
            if near.any():  # x^perp (x) grad g = (r g') e^perp (x) e, e = x / r
                at = np.zeros(r.shape, dtype=bool)
                at[on] = near
                e, q = pts[at] / r[at, None], (sp - go)[near]
                out.drift_jac[at] = _swirl(e, go[near], (q * e[:, 0], q * e[:, 1]))[1]
        return out


def _swirl(x, H, grad_H=None):
    """The swirl drift ``-x + H x^perp`` at planar points ``x``, H one value
    per point; given ``grad_H = (d_1 H, d_2 H)``, the pair of it and its
    Jacobian ``-I + x^perp (x) grad H + H R`` (R the quarter turn), summed
    in that order from 0 off the diagonal, where ``0 + x^perp_i d_j H`` signs a zero."""
    x0, x1 = x[..., 0], x[..., 1]
    b = np.empty(x.shape)
    b[..., 0] = -_SWIRL_RATE * x0 - H * x1
    b[..., 1] = -_SWIRL_RATE * x1 + H * x0
    if grad_H is None:
        return b
    h0, h1 = grad_H
    jac = np.empty(x.shape + (2,))
    jac[..., 0, 0] = -_SWIRL_RATE - x1 * h0
    jac[..., 0, 1] = (0.0 - x1 * h1) - H
    jac[..., 1, 0] = (0.0 + x0 * h0) + H
    jac[..., 1, 1] = -_SWIRL_RATE + x0 * h1
    return b, jac


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------


def _bump(gap, shape: float):
    """The bump ``exp(-shape / gap)`` at ``gap = 1 - |u|^2`` (0 where gap <= 0)
    and its slope in ``|u|^2``, ``-shape exp(-shape / gap) / gap^2``: the one
    formula of the kernel, its gradient ``2 u slope`` and its radial table."""
    gap = np.asarray(gap, dtype=np.float64)
    val, slope = np.zeros(gap.shape), np.zeros(gap.shape)
    on = gap > 0.0
    val[on] = np.exp(-shape / gap[on])
    on = val > 0.0
    slope[on] = -shape / gap[on] ** 2 * val[on]
    return val, slope


@functools.lru_cache(maxsize=32)
def _bump_mass(dim: int, shape: float) -> float:
    """Continuum integral of exp(-shape/(1-|x|^2)) over the unit ball: the
    sphere's area times the radial integral, by ``_MASS_NODES``-node
    Gauss-Legendre on each panel between ``_MASS_CUTS``, finer where the
    bump falls off (it is flat to every order at r = 1)."""
    surf = 2.0 * np.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    x, w = leggauss(_MASS_NODES)
    cuts = np.array(_MASS_CUTS)
    half = np.diff(cuts)[:, None] / 2.0
    r = cuts[:-1, None] + half * (x + 1.0)                            # (panels, nodes)
    return float(surf * np.sum(half * w * r ** (dim - 1) * _bump(1.0 - r * r, shape)[0]))


def _smoothstep(t, deriv: bool = False):
    """C-infinity step: 0 for t<=0, 1 for t>=1, built from exp(-1/t); with
    ``deriv``, the pair of it and its derivative, from one pass over the
    band 0 < t < 1.

    Only the band needs the exponentials: outside it the step is exactly 0
    or 1 and its derivative exactly 0.  A nan input stays nan in the step.
    Where ``t**2`` underflows (t < 1e-150) the derivative's numerator
    ``exp(-1/t)`` is already 0, so ``t`` is floored there to keep 0/0 out
    of the quotient.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, np.nan))
    band = (t > 0.0) & (t < 1.0)
    tb = t[band]
    with np.errstate(divide="ignore", over="ignore"):  # subnormal t: exp(-inf)
        g = np.exp(-1.0 / tb)
    gm = np.exp(-1.0 / (1.0 - tb))
    out[band] = g / (g + gm)
    if not deriv:
        return out
    slope = np.zeros(t.shape)
    gp = g / np.maximum(tb, 1e-150) ** 2
    gmp = -gm / (1.0 - tb) ** 2
    slope[band] = (gp * gm - g * gmp) / (g + gm) ** 2
    return out, slope


@dataclass
class MollifierSpec:
    """Bump kernel chi (support in B(1), integral 1), cutoff psi and level k.

    ``chi(x) = c^-1 exp(-shape / (1 - |x|^2))`` on the unit ball; the scaled
    kernel is ``chi_k(x) = k^n chi(kx)``.  The cutoff is 1 on B(1) and 0
    outside B(2), scaled as ``psi_k(x) = psi(x/k)``.  On the line,
    convolutions take the composite Gauss-Legendre rule on [-1, 1] (``order``
    nodes on each of ``panels``), keeping only the nodes where the kernel
    is positive (elsewhere it and its gradient are exactly 0), with weights
    renormalized so constants are exact.  The value and kernel-gradient
    weights are stacked into one ``(2, Q)`` matrix: a pass gives the
    convolution and its gradient from one matrix product per row group and
    chunk of states, where the convolved function sees at most
    ``_MAX_EVAL_BLOCK`` points.  A planar spec has no generic rule: the
    slice rule (``_slices``, the 1-D rule in x2) integrates a function with
    an x1 jump, the polar rule a radial one (``convolve_radial``), and a
    ``Swirl``'s table reads only ``level`` and ``shape``.
    """

    dim: int
    level: float = 1.0
    order: int = 32
    panels: int = 2
    shape: float = 1.0

    def __post_init__(self):
        for what, value in (("mollifier dim", self.dim), ("quadrature order", self.order),
                            ("panel count", self.panels)):
            if not is_count(value):
                raise ValueError(f"{what} must be a positive integer, got {value!r}")
        if not (np.isfinite(self.level) and self.level >= 1):
            raise ValueError(f"mollification level must be finite and >= 1, got {self.level}")
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise ValueError(f"kernel shape must be finite and positive, got {self.shape}")
        if self.dim > 1:
            return  # planar: the slice rule, the polar rule or a swirl's table
        gl_x, raw_w = _gauss_rule(self.order, self.panels)
        bump, slope = _bump(1.0 - gl_x**2, self.shape)
        # the kernel and its gradient are exactly 0 off the open unit ball
        # (and where exp underflows): those nodes would only cost evaluations
        keep = bump > 0.0
        self._nodes, raw_w, bump = gl_x[keep, None], raw_w[keep], bump[keep]  # (Q, 1)
        z = float(np.sum(raw_w * bump))
        grad_w = (raw_w[:, None] * (2.0 * slope[keep][:, None] * self._nodes)) / z
        grad_w -= grad_w.mean(axis=0, keepdims=True)
        # row 0: value weights (sum to 1 exactly); row 1: d/dx weights
        self._weights = np.concatenate(
            [(raw_w * bump / z)[None, :], self.level * grad_w.T], axis=0)

    # -- kernel and cutoff ---------------------------------------------------

    def kernel(self, x) -> NDArray[np.float64]:
        """Scaled kernel chi_k, normalized with the continuum constant."""
        k, pts = self.level, as_points(x, self.dim, "mollifier")
        bump = _bump(1.0 - np.sum((k * pts) ** 2, axis=-1), self.shape)[0]
        return k**self.dim * bump / _bump_mass(self.dim, self.shape)

    def cutoff(self, x, grad: bool = False):
        """psi_k(x): 1 on B(k), 0 outside B(2k), smooth in between.

        With ``grad``, ``(psi_k, grad psi_k)`` from one norm and one pass
        over the transition band.  When every point lies in B(k) (a nan does
        not) there is no band: psi is 1 and its gradient the band path's
        signed zeros, bitwise.
        """
        pts = as_points(x, self.dim, "mollifier")
        sq = sq_norm(pts)
        if np.all(sq <= self.level * self.level):
            psi = np.ones(sq.shape)
            return (psi, pts * -0.0) if grad else psi
        r = np.sqrt(sq)
        t = 2.0 - r / self.level
        if not grad:
            return _smoothstep(t)
        psi, slope = _smoothstep(t, deriv=True)
        deriv = slope * (-1.0 / self.level)
        safe_r = np.where(r > 0, r, 1.0)
        return psi, deriv[..., None] * pts / safe_r[..., None]

    # -- convolution ---------------------------------------------------------

    def convolve(self, func: Callable, x, x1_break: Optional[float] = None) -> NDArray[np.float64]:
        """(func * chi_k)(x); ``func`` maps (..., 1) to (..., *out), or with
        an ``x1_break`` is ``func(x1, x2)`` of the slice rule (``_slices``)."""
        return self._quadrature(func, x, False, x1_break)[0]

    def convolve_with_grad(self, func: Callable, x, x1_break: Optional[float] = None):
        """Value and gradient of func * chi_k in a single pass over func.

        Returns ``(value, grad)`` with shapes ``(..., *out)`` and
        ``(..., *out, dim)``; ``x1_break`` as in ``convolve``.
        """
        out = self._quadrature(func, x, True, x1_break)
        return out[0], np.moveaxis(out[1:], 0, -1)

    def convolve_radial(self, profile: Callable, x) -> NDArray[np.float64]:
        """(f * chi_k)(x) of the planar radial ``f(y) = profile(|y|)``, with
        ``profile`` elementwise on radii: ``_annulus`` in mode 0 at each
        distinct radius of ``x``."""
        if self.dim != 2:
            raise ValueError(f"the radial rule is planar; this mollifier lives on R^{self.dim}")
        r = np.sqrt(sq_norm(as_points(x, 2, "mollifier")))
        radii, at = np.unique(r.ravel(), return_inverse=True)
        return _annulus(radii, profile, self.level, self.shape, 0)[0][at].reshape(r.shape)

    def _quadrature(self, func, x, grad: bool, x1_break=None):
        """``sum_q weights[j, q] func(x - u_q / k)`` at every point x, for the
        value row j = 0 and, with ``grad``, the kernel-gradient rows.

        Returns shape ``(J,) + batch + out``.  Points go in chunks where
        ``func`` sees at most ``_MAX_EVAL_BLOCK`` points: Q per state through
        ``_shifted``, 2 J (two x1 pieces, J x2 offsets) through ``_slices``.  The
        value row is a product of its own, so a value is bitwise the same
        whether or not the gradient rows come with it.
        """
        pts = as_points(x, self.dim, "mollifier")
        if x1_break is None and self.dim > 1:
            raise ValueError(f"no generic rule on R^{self.dim}: {_PLANAR}")
        batch = pts.shape[:-1]
        flat = pts.reshape(-1, self.dim)
        seen = len(self._nodes) if x1_break is None else 2 * self.order * self.panels
        block = max(1, _MAX_EVAL_BLOCK // seen)
        outs = []
        for start in range(0, flat.shape[0], block):
            chunk = flat[start:start + block]                      # (B, dim)
            outs.append(self._shifted(func, chunk, grad) if x1_break is None
                        else self._slices(func, chunk, grad, x1_break))
        out = np.moveaxis(np.concatenate(outs, axis=0), 1, 0)    # (J, nb, *out)
        return out.reshape(out.shape[:1] + batch + out.shape[2:])

    def _shifted(self, func, chunk, grad: bool):
        """One chunk of the 1-D rule, shape (B, J, *out): ``func`` of the
        (B, Q, 1) shifted points, reduced with one matrix product per row
        group."""
        f = np.asarray(func(chunk[:, None] - self._nodes / self.level),
                       dtype=np.float64)                           # (B, Q, *out)
        f2 = f.reshape(f.shape[:2] + (-1,))
        weights = self._weights if grad else self._weights[:1]
        red = np.concatenate([np.matmul(w, f2) for w in (weights[:1], weights[1:])
                              if len(w)], axis=1)              # (B, J, K)
        return red.reshape(red.shape[:2] + f.shape[2:])

    def _slices(self, func, chunk, grad: bool, x1_break: float):
        """One chunk of the slice rule, shape (B, 3, *out): value, d/dx1, d/dx2.

        ``func`` gets the pieces ``x1_break -+ 1`` (2, 1, 1, 1) and the x2
        offsets ``x2 - u2_j/k`` (1, B, J, 1) and returns ``(2, B, J, *out)``.
        With slice j's mass right of the break ``R_j(k (x1 - x1_break))`` from
        ``_slice_table``, the value is ``sum_j (M_j - R_j) f_left + R_j
        f_right``, d/dx1 takes the spline's own derivative and d/dx2 the D
        splines.  Every operation is per state: no state depends on its chunk.
        """
        off, table = _slice_table(self.level, self.shape, self.order, self.panels)
        cells, n = table.shape[2] - 1, len(chunk)
        # position in the table's cells; a nan state reads row 0 and stays nan in t
        pos = np.clip((chunk[:, 0] - x1_break) * (self.level * cells / 2) + cells / 2, 0, cells)
        row = np.fmax(pos, 0.0).astype(np.intp)
        t = np.repeat(pos - row, len(off)).reshape(n, -1)                # (B, J)
        f = np.asarray(func(np.array([x1_break - 1.0, x1_break + 1.0])[:, None, None, None],
                            chunk[None, :, None, 1:] - off[:, None]), dtype=np.float64)
        # contiguous (K, B, J) parts, as a strided view slows the products
        # below; f is dropped at once, so the copy does not raise the peak
        out = f.shape[3:]
        left, right = np.ascontiguousarray(f.reshape(f.shape[:3] + (-1,)).transpose(0, 3, 1, 2))
        del f

        def dot(w, g):  # sum_j w[b, j] g[k, b, j]: one fused product per state and part
            return np.einsum("bj,kbj->kb", w, g)

        # R, and with grad R' and D, at every state and slice: (1 or 3, B, J)
        c0, c1, c2, c3 = np.take(table if grad else table[:1], row, axis=2).swapaxes(0, 1)
        r = c0 + t * (c1 + t * (c2 + t * c3))
        whole = table[:, 0, -1]                                           # M, 0, N
        rows = [dot(whole[0] - r[0], left) + dot(r[0], right)]
        if grad:
            rows += [dot(r[1], right - left), dot(whole[2] - r[2], left) + dot(r[2], right)]
        return np.stack(rows, axis=-1).transpose(1, 2, 0).reshape((n, len(rows)) + out)


@functools.lru_cache(maxsize=32)
def _gauss_rule(order: int, panels: int):
    """Composite Gauss-Legendre rule on [-1, 1]: ``panels`` x ``order`` nodes."""
    gl_x, gl_w = leggauss(order)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    rule = (np.concatenate([(e0 + e1) / 2 + (e1 - e0) / 2 * gl_x
                            for e0, e1 in zip(edges, edges[1:])]),
            np.concatenate([(e1 - e0) / 2 * gl_w for e0, e1 in zip(edges, edges[1:])]))
    for part in rule:
        part.flags.writeable = False  # one cached rule serves every caller
    return rule


def _hermite(val, slope, h):
    """Cubic Hermite coefficients (4, cells, ...) in ``t = (s - s_i) / h``."""
    m0, m1, a = h * slope[:-1], h * slope[1:], val[1:] - val[:-1]
    return np.stack([val[:-1], m0, 3.0 * a - 2.0 * m0 - m1, m0 + m1 - 2.0 * a])


@functools.lru_cache(maxsize=32)
def _slice_table(level: float, shape: float, order: int, panels: int):
    """``(u2_j / k, table)`` of the slice rule, once per level, kernel shape
    and 1-D rule (nodes u2_j, weights w_j).

    Row i (of cells + 1) of ``table`` (3, 4, cells + 1, J) holds the cubic
    coefficients on cell i of s in [-1, 1] of ``R_j(s) = int_-1^s chi(u1,
    u2_j) du1``, of its d/dx1 and of ``D_j``, the same of ``d_u2 chi``; the
    last row is the whole slice.  Knot values sum ``_SLICE_NODES`` Gauss
    nodes a cell and knot slopes are the integrands (a C^1 spline).  Rows
    fold in w_j, R the rule's mass (constants are exact) and D k over its
    first moment, so -x2 smooths to d/dx2 = -1 as ``int u2 d_u2 chi = -1``.
    """
    v, w = _gauss_rule(order, panels)
    cells, h = _SLICE_CELLS, 2.0 / _SLICE_CELLS
    knots, (gx, gw) = np.linspace(-1.0, 1.0, cells + 1), leggauss(_SLICE_NODES)
    u1 = knots[:-1, None, None] + h / 2.0 * (gx[:, None] + 1.0)                  # (cells, G, 1)
    bump, slope = _bump(1.0 - u1 * u1 - v * v, shape)                           # (cells, G, J)
    knot_bump, knot_slope = _bump(1.0 - knots[:, None] ** 2 - v * v, shape)     # (cells + 1, J)

    def table(cell_vals, knot_vals, scale):
        cum = np.zeros((cells + 1, len(v)))
        cum[1:] = np.cumsum(h / 2.0 * np.einsum("g,cgj->cj", gw, cell_vals), axis=0)
        out = np.zeros((4, cells + 1, len(v)))
        out[:, :-1], out[0, -1] = _hermite(cum, knot_vals, h), cum[-1]
        return out * scale(cum[-1])

    mass = table(bump, knot_bump, lambda m: w / np.sum(w * m))
    slope_x1 = np.zeros(mass.shape)
    slope_x1[:3] = mass[1:] * np.array([1.0, 2.0, 3.0])[:, None, None] * (level * cells / 2)
    out = np.stack([mass, slope_x1, table(2.0 * v * slope, 2.0 * v * knot_slope,
                                          lambda m: level * w / -np.sum(w * v * m))])
    out.flags.writeable = False  # one cached table serves every caller
    return v / level, out


class _Smoother:
    """``f_k = (f * chi_k) psi_k`` of a rough evaluation, with analytic
    derivatives: ``mollify`` makes one the ``_eval`` of a smoothed field, or
    the ``_second`` of a smoothed structured field.

    ``rough(*xs, sigma, drift)`` is the rough field's own ``_eval`` of
    points or, for a structured field with its ``x1_break``, its
    ``_rough_second`` on the slice rule's grids ``(x1, x2)``; its sigma has
    shape ``sigma_shape``.  A call packs the requested rough components into
    one function of the quadrature's grids, values in ``(grid lead..., K)``
    layout for either rule: one pass (``_convolved``).
    The Jacobian ``(f * grad chi_k) psi_k + (f * chi_k) grad psi_k`` needs
    the values, so a call returns the values with every Jacobian.  For a
    declared-constant sigma (``sigma0``, its value) the convolution is the
    identity (the discrete kernel weights sum to one), so sigma_k reduces
    exactly to sigma * psi_k and only the cutoff is evaluated.
    """

    def __init__(self, spec: MollifierSpec, rough: Callable, sigma_shape: tuple,
                 sigma0: Optional[NDArray[np.float64]] = None, x1_break: Optional[float] = None):
        self.spec, self.rough, self.sigma0, self.x1_break = spec, rough, sigma0, x1_break
        self.shapes = dict(sigma=sigma_shape, drift=sigma_shape[:1])

    def _convolved(self, pts, names, jac: bool):
        """``f * chi_k`` of the named components, flattened and concatenated,
        with its gradient (None without ``jac``): one pass."""
        def packed(*grids):
            ev = self.rough(*grids, "sigma" in names, "drift" in names)
            lead = np.broadcast_shapes(*(grid.shape[:-1] for grid in grids))
            cols = []
            for name in names:
                val, shape = np.asarray(getattr(ev, name), dtype=np.float64), lead + self.shapes[name]
                if val.shape != shape:  # a broadcast costs more than the small products
                    val = np.broadcast_to(val, shape)
                cols.append(val.reshape(lead + (-1,)))
            return cols[0] if len(cols) == 1 else np.concatenate(cols, axis=-1)

        if jac:
            return self.spec.convolve_with_grad(packed, pts, self.x1_break)
        return self.spec.convolve(packed, pts, self.x1_break), None

    def __call__(self, pts, sigma=True, drift=True, jac=False) -> FieldEval:
        spec, out = self.spec, FieldEval(None, None)
        psi, dpsi = spec.cutoff(pts, grad=True) if jac else (spec.cutoff(pts), None)
        names = [name for name, on in (("sigma", sigma and self.sigma0 is None),
                                       ("drift", drift)) if on]
        if names:
            conv, grad = self._convolved(pts, names, jac)
            if jac:
                grad = grad * psi[..., None, None] + conv[..., None] * dpsi[..., None, :]
            val, lead, start = conv * psi[..., None], pts.shape[:-1], 0
            for name in names:
                shape = self.shapes[name]
                stop = start + math.prod(shape)
                setattr(out, name, val[..., start:stop].reshape(lead + shape))
                if jac:
                    setattr(out, f"{name}_jac",
                            grad[..., start:stop, :].reshape(lead + shape + pts.shape[-1:]))
                start = stop
        if sigma and self.sigma0 is not None:
            s0 = self.sigma0
            out.sigma = s0 * psi[..., None, None]
            if jac:
                out.sigma_jac = s0[..., None] * dpsi[..., None, None, :]
        return out


def _annulus(radii, radial: Callable, level: float, shape: float, mode: int,
             support: float = np.inf):
    """``(value, slope)`` of angular mode 0 or 1 at each of ``radii``: at
    ``r e1``, ``int radial(rho) rho^(m + 1) Km(r, rho) d rho`` with ``Km = 2
    int_0^thmax chi_k(d) cos(th)^m d th``, ``d^2 = r^2 + rho^2 - 2 r rho
    cos(th)`` and thmax where the circle of radius rho leaves B(r e1, 1/k).
    Gauss-Legendre nodes run over the annulus ``[r - 1/k, r + 1/k] ∩ [0,
    support]`` and [0, thmax], in blocks of ``_SWIRL_BLOCK`` radii.  Mode 1
    of a swirl's g is h_k, and ``slope`` h_k' from ``chi_k'(d) / d = 2 k^2``
    times the bump's slope (no division by d).  Mode 0 is ``(f * chi_k)(r
    e1)`` of the radial f = ``radial`` over the same pass's mass of the
    rule, so a constant is exact; its slope is None.
    """
    k, kk = level, level * level
    value, slope = np.zeros(len(radii)), np.zeros(len(radii)) if mode else None
    x_rho, w_rho = leggauss(_SWIRL_RHO)
    x_th, w_th = leggauss(_SWIRL_THETA)
    mass = kk / _bump_mass(2, shape)
    for start in range(0, len(radii), _SWIRL_BLOCK):
        r = radii[start:start + _SWIRL_BLOCK, None]                       # (B, 1)
        lo, hi = np.maximum(r - 1.0 / k, 0.0), np.minimum(r + 1.0 / k, support)
        half = (hi - lo) / 2.0
        rho = lo + half * (x_rho + 1.0)                                   # (B, P)
        weight = half * w_rho * radial(rho) * rho                         # rho d rho
        # cos(thmax); at r = 0 the whole circle lies in the ball (rho < 1/k)
        cmax = np.divide(r * r + rho * rho - 1.0 / kk, 2.0 * r * rho,
                         out=np.full(rho.shape, -1.0), where=r > 0.0)
        thmax = np.arccos(np.clip(cmax, -1.0, 1.0))[..., None]
        cos = np.cos(thmax / 2.0 * (x_th + 1.0))                          # (B, P, T)
        r3, rho3 = r[..., None], rho[..., None]
        bump, dbump = _bump(1.0 - kk * (r3 * r3 + rho3 * rho3 - 2.0 * r3 * rho3 * cos), shape)
        w = thmax * w_th * cos if mode else thmax * w_th                  # 2 (thmax / 2) w cos^m
        ring, block = np.sum(w * (mass * bump), axis=-1), slice(start, start + len(r))
        if not mode:  # over the rule's mass, the same sum of f = 1
            value[block] = np.sum(weight * ring, -1) / np.sum(half * w_rho * rho * ring, -1)
            continue
        weight = weight * rho                                             # |x^perp| = rho
        dchi = (2.0 * kk * mass) * dbump                                  # chi_k'(d) / d
        value[block] = np.sum(weight * ring, axis=-1)
        slope[block] = np.sum(weight * np.sum(w * dchi * (r3 - rho3 * cos), axis=-1), axis=-1)
    return value, slope


@functools.lru_cache(maxsize=64)
def _swirl_table(profile: Callable, params: tuple, level: float, shape: float):
    """``(dr, reach, coef)``: the smoothed swirl profile ``h_k`` as a cubic
    Hermite spline on the uniform radii ``0, dr, ..., reach = 1 + 1/k``
    (``_SWIRL_RADII`` per unit length and unit of level), ``coef[i]`` its
    coefficients in ``t = r/dr - i`` on interval i.  Built once per profile,
    level and kernel shape.  At ``r e1`` the swirl's convolution points
    along e2 with length ``h_k(r)``, ``_annulus`` in mode 1 of g within its
    support B(1); ``h_k(0) = 0`` by symmetry, and h_k vanishes from reach on.
    """
    reach = _SWIRL_RADIUS + 1.0 / level
    n = int(np.ceil(_SWIRL_RADII * level * reach)) + 1
    radii = np.linspace(0.0, reach, n)
    # g rho^2, not s rho: the table's bits as built from g; h = h' = 0 at reach
    h, hp = (np.append(row, 0.0) for row in _annulus(
        radii[:-1], lambda rho: profile(rho, *params) / rho, level, shape, 1, _SWIRL_RADIUS))
    h[0] = 0.0
    dr = radii[1]
    coef = _hermite(h, hp, dr).T
    coef.flags.writeable = False  # one cached table serves every caller
    return dr, reach, coef


class _SwirlSmoother(_Smoother):
    """``(b * chi_k) psi_k`` of a ``Swirl`` field from its table, with
    sigma_k = noise I psi_k: no quadrature pass.

    Within the table's reach the convolved drift is ``_swirl`` with ``H =
    h_k / r`` (``h_k'(0)`` at r = 0), h_k the cubic Hermite spline of
    ``_swirl_table``, and ``grad H = (h_k' - H) x / r^2`` from the spline's
    own derivative.  From the reach on H = 0, so the drift is exactly ``-x``
    before the cutoff.  Every operation is per point, so a state's value does
    not depend on the batch it comes in.
    """

    def __init__(self, spec: MollifierSpec, swirl: Swirl):
        super().__init__(spec, None, (2, 2), swirl.noise * np.eye(2))
        self.swirl = swirl

    def _convolved(self, pts, names, jac: bool):
        sw, spec = self.swirl, self.spec
        dr, reach, coef = _swirl_table(sw.profile, sw.params, spec.level, spec.shape)
        r = np.sqrt(sq_norm(pts))
        inside = r < reach  # a nan is not
        ri = r[inside]
        s = ri / dr
        i = np.minimum(s.astype(np.intp), len(coef) - 1)
        t = s - i
        c0, c1, c2, c3 = coef[i].T
        q = c1 + t * (c2 + t * c3)
        pos = ri > 0.0
        safe = np.where(pos, ri, 1.0)
        H = np.zeros(r.shape)
        H[inside] = Hi = np.where(pos, (c0 + t * q) / safe, c1 / dr)
        if not jac:
            return _swirl(pts, H), None
        G = np.zeros(r.shape)  # grad H = G x; h_k' = H at r = 0
        G[inside] = ((c1 + t * (2.0 * c2 + 3.0 * t * c3)) / dr - Hi) / (safe * safe)
        return _swirl(pts, H, (G * pts[..., 0], G * pts[..., 1]))


def mollify(field: CoefficientField, spec: MollifierSpec) -> CoefficientField:
    """Smooth a field: ``f_k = (f * chi_k) psi_k`` with analytic derivatives.

    Derivatives come from ``f * grad(chi_k)`` plus the product rule with
    ``grad(psi_k)``; the rough field is never differenced.  Every row of a
    plain field on the line is smoothed, by one pass of the 1-D rule per
    evaluation, and a ``Swirl`` from its table (``_SwirlSmoother``: no pass,
    the spec's level and kernel shape only); any other plain planar field
    is rejected.  Of a structured field only the second block is: the first
    block needs no regularization for the partial-Sobolev theory, so the
    first-block flow is identical across smoothing levels.  The slice rule
    integrates the second block's jump at its record's ``x1_break``
    exactly, so the smoothed block is genuinely differentiable in x1 too,
    with the full Jacobian.  A structured field is rejected without
    first-block Jacobians, when already smoothed (its record holds the
    rough block), and unless planar with an ``x1_break``.
    """
    if spec.dim != field.dim_state:
        raise ValueError("mollifier dimension does not match the field")
    n, m = field.dim_state, field.dim_noise
    if not isinstance(field, StructuredCoefficient):
        if n > 1 and not isinstance(field, Swirl):
            raise ValueError(f"field {field.name!r} is a plain field on R^{n}: {_PLANAR}")
        smooth = CoefficientField(n, m, None, None, name=f"{field.name}|k={spec.level:g}")
        smooth._eval = (_SwirlSmoother(spec, field) if isinstance(field, Swirl)
                        else _Smoother(spec, field._eval, (n, m), field.constant_sigma()))
        return smooth
    if field.blocks.sigma1_jac is None or field.blocks.drift1_jac is None:
        raise ValueError("structured mollification needs analytic first-block Jacobians")
    if field.is_smoothed:
        raise ValueError("field is already smoothed; smooth its rough base instead")
    if field.blocks.x1_break is None or n != 2:
        raise ValueError(f"field {field.name!r}: the slice rule smooths a planar block field "
                         "whose FieldBlocks record declares its x1_break")
    smooth = StructuredCoefficient(field.n1, field.blocks, n, m,
                                   name=f"{field.name}|k2={spec.level:g}")
    smooth._second = _Smoother(spec, field._rough_second, (field.n2, m),
                               x1_break=field.blocks.x1_break)
    return smooth


# ---------------------------------------------------------------------------
# density-exponent functionals
# ---------------------------------------------------------------------------


def density_terms(field: CoefficientField, m: ReferenceMeasure, x,
                  ev: Optional[FieldEval] = None, h: Optional[float] = None):
    """The density exponent's terms ``(lam1, lam2, G)`` at ``x``.

    With ``g = grad log w`` and the weight Hessian
    ``-2 alpha/(1+|x|^2) I + g g^T / alpha`` (formed through ``sigma^T g``
    only):

    * ``lam1`` (..., m), the integrand of the stochastic integral:
      ``lam1^l = div(sigma^{.,l}) + <sigma^{.,l}, g>``;
    * ``lam2`` (...), the integrand of the time integral:
      ``div(b) + 1/2 <sigma sigma^T, Hess log w> + <b, g>
      - 1/2 sum_kij (d_i sigma^{jk})(d_j sigma^{ik})``;
    * ``G`` (..., m, m), the coefficient of the Ito-Taylor (Milstein) term,
      ``G_kl = <sigma^{.,k}, grad lam1^l>``:

        G_kl = sigma^{.,k}^T Hess(log w) sigma^{.,l}
               + sum_ij sigma^{ik} d_i sigma^{jl} g_j
               + <sigma^{.,k}, grad div sigma^{.,l}>.

    The last term of G is the only one with second derivatives of sigma; it
    is taken as the one-sided difference of the column divergences along
    ``h sigma^{.,k}`` (Platen's derivative-free form; ``h = sqrt(dt)`` in
    the density tracker), which stays bounded where sigma jumps.  That
    difference needs the sigma Jacobian only, and is the only evaluation
    besides ``ev``, the field with Jacobians at ``x`` (taken here when None).
    With ``h=None`` G is None and the difference is skipped.

    A declared-constant sigma (``sigma_constant``) is one (n, m) matrix
    (``constant_sigma``): no per-state sigma or sigma Jacobian is evaluated
    or read, its Gram terms ``sigma^T sigma`` and ``|sigma|^2`` are formed
    once and broadcast against the weight factor, and every term with a
    sigma derivative (the divergence, ``-1/2 sum (d sigma)(d sigma)``, and
    the last two terms of G) vanishes and is skipped.  Each term is bitwise
    the one the per-state path gives on a sigma Jacobian of zeros.
    """
    pts = as_points(x, field.dim_state, "field")
    sig = field.constant_sigma()
    const = sig is not None
    if ev is None:
        ev = field._eval(pts, sigma=not const, jac=True)
    if not const:
        sig, jac = ev.sigma, ev.sigma_jac
    g = m.grad_log_weight(pts)
    sg = np.einsum("...nm,...n->...m", sig, g)
    c = -2.0 * m.alpha / (1.0 + sq_norm(pts))
    lam2 = (
        np.einsum("...ii->...", ev.drift_jac)
        + 0.5 * (c * np.einsum("...ik,...ik->...", sig, sig)
                 + np.einsum("...k,...k->...", sg, sg) / m.alpha)
        + np.einsum("...i,...i->...", ev.drift, g)
    )
    lam1 = sg
    if not const:
        lam2 = lam2 - 0.5 * np.einsum("...jki,...ikj->...", jac, jac)
        div = np.einsum("...iki->...k", jac)
        lam1 = div + sg
    if h is None:
        return lam1, lam2, None
    # one (m, m) matrix for a constant sigma; a per-state Gram is scaled in
    # place, since a second per-state array raises a density track's peak memory
    gram = np.einsum("...ik,...il->...kl", sig, sig)
    G = np.multiply(gram, c[..., None, None], out=None if const else gram)
    G += np.einsum("...k,...l->...kl", sg, sg / m.alpha)
    if not const:
        G += np.einsum("...ik,...jli,...j->...kl", sig, jac, g)
        for k in range(field.dim_noise):
            shifted = field.sigma_divergence(pts + h * sig[..., :, k])
            G[..., k, :] += (shifted - div) / h
    return lam1, lam2, G


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------


def exp_integrand(x, ev: FieldEval, p0: float):
    """``exp(p0([div b]^- + |b bar| + |sigma bar|^2 + |grad sigma|^2))`` at
    ``x``, with ``|b bar|`` and ``|sigma bar|`` (``f bar = f / (1 + |x|)``),
    from the values and Jacobians in ``ev`` (a whole field or one block)."""
    scale = 1.0 + np.linalg.norm(x, axis=-1)
    neg = np.maximum(-np.einsum("...ii->...", ev.drift_jac), 0.0)
    bbar = np.linalg.norm(ev.drift, axis=-1) / scale
    sbar = np.linalg.norm(ev.sigma, axis=(-2, -1)) / scale
    gsq = np.einsum("...ikj,...ikj->...", ev.sigma_jac, ev.sigma_jac)
    return np.exp(p0 * (neg + bbar + sbar**2 + gsq)), bbar, sbar


def condition_integrals(
    m: ReferenceMeasure,
    evaluate: Callable[[NDArray], FieldEval],
    p0: float,
    budget: int,
    rng: np.random.Generator,
) -> tuple:
    """Monte Carlo check of exp-integrability of the coefficient functionals.

    Estimates ``integral exp[p0([div b]^- + |b/(1+|x|)| + |s/(1+|x|)|^2
    + |grad s|^2)] d m`` (``exp_integrand``) at ``_CONDITION_STAGES``
    doubling budgets, with ``evaluate`` mapping samples of ``m`` to a
    ``FieldEval`` with Jacobians: ``lambda x: field.evaluate(x, jac=True)``
    for a whole field, or a structured field's ``first_block`` on its mu1
    and ``second_block`` on mu, so nothing differentiates the second block
    in the first variables.

    Returns ``(estimate, divergent)``: the last stage's
    ``MonteCarloEstimate`` and a divergence flag.  A non-integrable
    exponential shows up as a last-stage estimate still dominated by a
    single sample (integrable heavy tails dilute under a larger budget) or
    as a running estimate that keeps moving by more than 10% between the
    last two stages.
    """

    def integrand(x):
        return exp_integrand(x, evaluate(x), p0)[0]

    values = []
    for i in range(_CONDITION_STAGES):
        est = m.expect(integrand, budget * 2**i, rng)
        values.append(est.value)
    rel_change = (
        abs(values[-1] - values[-2]) / abs(values[-1])
        if values[-1] != 0.0 and np.isfinite(values[-1])
        else np.inf
    )
    divergent = est.max_share > 0.1 or rel_change > 0.1 or not np.isfinite(values[-1])
    return est, bool(divergent)
