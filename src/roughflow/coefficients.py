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
``FieldBlocks`` record, on top of its second-block rows.  The module also
provides

* compactly supported bump mollifiers ``chi_k`` with cutoffs ``psi_k`` and
  the smoothing ``f_k = (f * chi_k) psi_k``, whose derivatives are computed
  from ``f * grad(chi_k)`` and ``grad(psi_k)`` rather than by differencing.
  ``mollify`` is the one smoothing entry: it smooths every row of a plain
  field and the second block of a structured one, packing sigma and b into
  one function, so an evaluation costs one quadrature pass over the rough
  field;
* ``density_terms``, the terms of the exponent of the pathwise push-forward
  density from one ``FieldEval``: the noise term, the drift term and, given
  a difference step, the Ito-Taylor coefficient of the noise term;
* checkers for the exponential-integrability condition on the coefficients
  and for the kernel domination and convergence properties of smoothing.

Axis conventions: ``sigma(x) -> (..., n, m)``, ``drift(x) -> (..., n)``,
``sigma_jac[..., i, k, j] = d sigma^{ik} / d x_j`` and
``drift_jac[..., i, j] = d b^i / d x_j``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy import integrate, special

from .measure import ReferenceMeasure, as_points, grid_points, magnitude, sq_norm

__all__ = [
    "CoefficientField",
    "FieldEval",
    "StructuredCoefficient",
    "FieldBlocks",
    "MollifierSpec",
    "mollify",
    "density_terms",
    "exp_integrand",
    "condition_integrals",
    "mollifier_domination_check",
    "mollified_convergence",
]

_MAX_EVAL_BLOCK = 2**14  # rough-callable points per quadrature chunk: temporaries stay in cache
_CONDITION_STAGES = 3    # doubling budgets of a condition integral


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
    one quadrature pass instead, and a ``StructuredCoefficient`` from its
    block record (neither carries the callables, so ``is_analytic`` is
    False for them).  ``evaluate`` and the accessors call ``_eval``.  A
    field without Jacobian callables is never differenced (its coefficients
    may jump): asking for a Jacobian raises a ``ValueError`` naming it, and
    ``mollify`` gives a differentiable field.  Fields are immutable in
    practice: evaluation never mutates state, so a field instance is safe
    for concurrent use.
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
        """Built by ``mollify``: one quadrature pass gives values and Jacobians."""
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

    ``sigma2`` and ``drift2`` return their block in term form: a sequence of
    ``(x1 factor, x2 factor)`` array pairs whose products sum to the block,
    ``sum_t a1_t * a2_t``.  A factor reads one block only: it has the
    leading axes of that block's coordinates and one axis per value axis,
    each of size 1 where the factor does not vary along it.  At points the
    terms are summed in order; a smoothing pass calls the callables on the
    block grids ``x1 - u1/k`` of shape (B, G1, 1, n1) and ``x2 - u2/k`` of
    shape (B, 1, G2, n2), the distinct node offsets of each block, and
    contracts each x1 factor and each x2 factor through the kernel weights,
    so no factor is formed on the (G1, G2) product grid; it rejects a
    factor that spans both grids with a ``ValueError``.  The Jacobian
    callables return arrays and are evaluated at points only.
    """

    sigma1: Callable                        # x1 (..., n1) -> (..., n1, m)
    drift1: Callable                        # x1           -> (..., n1)
    sigma2: Callable                        # x1, x2 (..., n2) -> terms of (..., n2, m)
    drift2: Callable                        # x1, x2       -> terms of (..., n2)
    sigma1_jac: Optional[Callable] = None   # x1 -> (..., n1, m, n1)
    drift1_jac: Optional[Callable] = None   # x1 -> (..., n1, n1)
    sigma2_jac: Optional[Callable] = None   # x1, x2 -> (..., n2, m, n2), in x2
    drift2_jac: Optional[Callable] = None   # x1, x2 -> (..., n2, n2), in x2


def _term_sum(terms) -> NDArray[np.float64]:
    """``sum_t a1_t * a2_t`` of a block in term form, added in term order."""
    (a1, a2), *rest = terms
    total = a1 * a2
    for a1, a2 in rest:
        total = total + a1 * a2
    return total


class StructuredCoefficient(CoefficientField):
    """Block-structured field: the first ``n1`` rows of sigma and components
    of b depend on ``x1 = x[:n1]`` only.

    ``StructuredCoefficient(n1, blocks, dim_state, dim_noise, name)``
    evaluates from its ``FieldBlocks`` record: ``_eval`` stacks the first
    block on top of ``_second``, the second-block rows with Jacobian
    columns over all of x (``mollify`` replaces ``_second`` by one
    quadrature pass).  The blockwise checks read each block in its own
    variables: ``first_block`` on points of R^n1, ``second_block`` on R^n.

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
        terms = self._terms(x1, x2, sigma, drift)
        out = FieldEval(*(None if t is None else _term_sum(t) for t in (terms.sigma, terms.drift)))
        for name, on in (("sigma", sigma), ("drift", drift)):
            if on and jac:
                jac2 = _jacobian(self, getattr(self.blocks, f"{name}2_jac"), name, x1, x2)
                full = np.zeros(jac2.shape[:-1] + (self.dim_state,))
                full[..., self.n1:] = jac2
                setattr(out, f"{name}_jac", full)
        return out

    def _terms(self, x1, x2, sigma=True, drift=True) -> FieldEval:
        """Rough second-block sigma and/or b in term form at the block
        coordinates ``(x1, x2)``: points, or a quadrature's block grids."""
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


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _bump_mass(dim: int, shape: float) -> float:
    """Continuum integral of exp(-shape/(1-|x|^2)) over the unit ball."""
    surf = 2.0 * np.pi ** (dim / 2.0) / special.gamma(dim / 2.0)

    def radial(r):
        return r ** (dim - 1) * np.exp(-shape / (1.0 - r * r))

    val, _ = integrate.quad(radial, 0.0, 1.0, limit=200)
    return float(surf * val)


def _step_band(t):
    """Mask of the open band 0 < t < 1, t on it, exp(-1/t) and exp(-1/(1-t)).

    Only the band needs the exponentials: outside it the step is exactly 0
    or 1 and its derivative exactly 0.
    """
    band = (t > 0.0) & (t < 1.0)
    tb = t[band]
    with np.errstate(divide="ignore", over="ignore"):  # subnormal t: exp(-inf)
        g = np.exp(-1.0 / tb)
    return band, tb, g, np.exp(-1.0 / (1.0 - tb))


def _smoothstep(t, parts=None):
    """C-infinity step: 0 for t<=0, 1 for t>=1, built from exp(-1/t).

    A nan input stays nan.  ``parts`` is ``_step_band(t)`` when the caller
    already has it.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, np.nan))
    band, _, g, gm = _step_band(t) if parts is None else parts
    out[band] = g / (g + gm)
    return out


def _smoothstep_deriv(t, parts=None):
    """Derivative of ``_smoothstep``; exactly 0 outside the band 0 < t < 1.

    Where ``t**2`` underflows (t < 1e-150) the numerator ``exp(-1/t)`` is
    already 0, so ``t`` is floored there to keep 0/0 out of the quotient.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape)
    band, tb, g, gm = _step_band(t) if parts is None else parts
    gp = g / np.maximum(tb, 1e-150) ** 2
    gmp = -gm / (1.0 - tb) ** 2
    out[band] = (gp * gm - g * gmp) / (g + gm) ** 2
    return out


@dataclass
class MollifierSpec:
    """Bump kernel chi (support in B(1), integral 1), cutoff psi and level k.

    ``chi(x) = c^-1 exp(-shape / (1 - |x|^2))`` on the unit ball; the scaled
    kernel is ``chi_k(x) = k^n chi(kx)``.  The cutoff is 1 on B(1) and 0
    outside B(2), scaled as ``psi_k(x) = psi(x/k)``.  Convolutions are
    evaluated by composite tensor-product Gauss-Legendre quadrature on the
    cube [-1, 1]^dim, keeping only the nodes inside the open unit ball
    where the kernel is positive (elsewhere it and its gradient are exactly
    0), with weights renormalized so constants are reproduced exactly.  The
    value weights and the kernel-gradient weights are stacked into one
    ``(1 + dim, Q)`` matrix, so a quadrature pass returns the convolution
    and its gradient from one matrix product per row group and chunk of
    states, where the convolved function sees at most ``_MAX_EVAL_BLOCK``
    points.  A pass split into two column blocks contracts a function in
    term form through the same weights scattered over the blocks' offset
    grids (``_contract``).  ``order``/``panels`` trade accuracy for cost.
    """

    dim: int
    level: float = 1.0
    order: int = 32
    panels: int | Sequence[int] = 2
    shape: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.level) and self.level >= 1):
            raise ValueError(f"mollification level must be finite and >= 1, got {self.level}")
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise ValueError(f"kernel shape must be finite and positive, got {self.shape}")
        if self.order < 1:
            raise ValueError(f"quadrature order must be >= 1, got {self.order}")
        panels = tuple(self.panels) if isinstance(self.panels, (tuple, list)) else (
            (int(self.panels),) * self.dim)
        if len(panels) != self.dim:
            raise ValueError("need one panel count per axis")
        if min(panels) < 1:
            raise ValueError(f"panel counts must be >= 1, got {self.panels}")
        axes_nodes, axes_weights = [], []
        gl_x, gl_w = special.roots_legendre(self.order)
        for p in panels:
            edges = np.linspace(-1.0, 1.0, p + 1)
            axes_nodes.append(np.concatenate(
                [(e0 + e1) / 2 + (e1 - e0) / 2 * gl_x
                 for e0, e1 in zip(edges, edges[1:])]))
            axes_weights.append(np.concatenate(
                [(e1 - e0) / 2 * gl_w for e0, e1 in zip(edges, edges[1:])]))
        nodes = grid_points(axes_nodes).reshape(-1, self.dim)
        raw_w = np.prod(grid_points(axes_weights).reshape(-1, self.dim), axis=-1)
        bump = self._bump(nodes)
        # the kernel and its gradient are exactly 0 off the open unit ball
        # (and where exp underflows): those nodes would only cost evaluations
        keep = bump > 0.0
        self._nodes, raw_w, bump = nodes[keep], raw_w[keep], bump[keep]  # (Q, dim)
        z = float(np.sum(raw_w * bump))
        grad_w = (raw_w[:, None] * self._bump_grad(self._nodes)) / z
        grad_w -= grad_w.mean(axis=0, keepdims=True)
        # row 0: value weights (sum to 1 exactly); row 1 + j: d/dx_j weights
        self._weights = np.concatenate(
            [(raw_w * bump / z)[None, :], self.level * grad_w.T], axis=0)
        self._grids = {}  # column split -> ``_block_weights``

    # -- kernel and cutoff ---------------------------------------------------

    def _bump(self, u) -> NDArray[np.float64]:
        r2 = np.sum(np.asarray(u, dtype=np.float64) ** 2, axis=-1)
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        out[inside] = np.exp(-self.shape / (1.0 - r2[inside]))
        return out

    def _bump_grad(self, u) -> NDArray[np.float64]:
        u = np.asarray(u, dtype=np.float64)
        r2 = np.sum(u * u, axis=-1)
        out = np.zeros_like(u)
        inside = r2 < 1.0
        denom = (1.0 - r2[inside]) ** 2
        out[inside] = (
            u[inside]
            * (-2.0 * self.shape / denom * np.exp(-self.shape / (1.0 - r2[inside])))[
                ..., None
            ]
        )
        return out

    def kernel(self, x) -> NDArray[np.float64]:
        """Scaled kernel chi_k, normalized with the continuum constant."""
        k, pts = self.level, as_points(x, self.dim, "mollifier")
        return k**self.dim * self._bump(k * pts) / _bump_mass(self.dim, self.shape)

    def kernel_mass_quadrature(self, n_points: int = 4001) -> float:
        """Integral of ``kernel`` itself (Simpson rule on ``n_points`` radii
        of B(1/k)), so a wrong scaling or normalization shows as mass != 1."""
        surf = 2.0 * np.pi ** (self.dim / 2.0) / special.gamma(self.dim / 2.0)
        r = np.linspace(0.0, 1.0 / self.level, n_points)
        pts = np.zeros((n_points, self.dim))
        pts[:, 0] = r
        return float(surf * integrate.simpson(r ** (self.dim - 1) * self.kernel(pts), x=r))

    def cutoff(self, x, grad: bool = False):
        """psi_k(x): 1 on B(k), 0 outside B(2k), smooth in between.

        With ``grad``, ``(psi_k, grad psi_k)`` from one norm and one pass
        over the transition band.
        """
        pts = as_points(x, self.dim, "mollifier")
        r = np.sqrt(sq_norm(pts))
        t = 2.0 - r / self.level
        parts = _step_band(t)
        psi = _smoothstep(t, parts)
        if not grad:
            return psi
        deriv = _smoothstep_deriv(t, parts) * (-1.0 / self.level)
        safe_r = np.where(r > 0, r, 1.0)
        return psi, deriv[..., None] * pts / safe_r[..., None]

    # -- convolution ---------------------------------------------------------

    def convolve(self, func: Callable, x, split: tuple = ()) -> NDArray[np.float64]:
        """(func * chi_k)(x); ``func`` maps (..., dim) to (..., *out).

        With a column ``split`` ``(n1,)`` ``func`` takes the two block grids
        and returns parts in term form (see ``_contract``); the result's last
        axis holds each part's values, flattened, in order.
        """
        return self._quadrature(func, x, False, split)[0]

    def convolve_with_grad(self, func: Callable, x, split: tuple = ()):
        """Value and gradient of func * chi_k in a single pass over func.

        Returns ``(value, grad)`` with shapes ``(..., *out)`` and
        ``(..., *out, dim)``; ``split`` as in ``convolve``.
        """
        out = self._quadrature(func, x, True, split)
        return out[0], np.moveaxis(out[1:], 0, -1)

    def _quadrature(self, func, x, grad: bool, split=()):
        """``sum_q weights[j, q] func(x - u_q / k)`` at every point x, for the
        value row j = 0 and, with ``grad``, the kernel-gradient rows.

        Returns shape ``(J,) + batch + out``.  Points go in chunks where
        ``func`` sees at most ``_MAX_EVAL_BLOCK`` points: Q per state through
        ``_shifted``, G1 + G2 block offsets per state through ``_contract``.
        The value row is a product of its own, so a value is bitwise the same
        whether or not the gradient rows come with it.
        """
        pts = as_points(x, self.dim, "mollifier")
        batch = pts.shape[:-1]
        flat, split = pts.reshape(-1, self.dim), tuple(split)
        seen = sum(map(len, self._block_weights(split)[:2])) if split else len(self._nodes)
        block = max(1, _MAX_EVAL_BLOCK // seen)
        outs = []
        for start in range(0, flat.shape[0], block):
            chunk = flat[start:start + block]                      # (B, dim)
            outs.append(self._contract(func, chunk, grad, split) if split
                        else self._shifted(func, chunk, grad))
        out = np.moveaxis(np.concatenate(outs, axis=0), 1, 0)    # (J, nb, *out)
        return out.reshape(out.shape[:1] + batch + out.shape[2:])

    def _shifted(self, func, chunk, grad: bool):
        """One chunk without a split, shape (B, J, *out): ``func`` of the
        (B, Q, dim) shifted points, reduced with one matrix product per row
        group."""
        shifts = self._nodes / self.level
        grid = np.empty((len(chunk),) + shifts.shape)
        # one axis at a time: 4x cheaper than a 3-d broadcast
        for j in range(self.dim):
            np.subtract(chunk[:, j, None], shifts[None, :, j], out=grid[:, :, j])
        f = np.asarray(func(grid), dtype=np.float64)            # (B, Q, *out)
        f2 = f.reshape(f.shape[:2] + (-1,))
        weights = self._weights if grad else self._weights[:1]
        red = np.concatenate([np.matmul(w, f2) for w in (weights[:1], weights[1:])
                              if len(w)], axis=1)              # (B, J, K)
        return red.reshape(red.shape[:2] + f.shape[2:])

    def _block_weights(self, split: tuple):
        """The two block grids' offsets and the weights scattered over them.

        For the column split ``(n1,)``: the distinct node offsets of each
        block over k, shapes (G1, n1) and (G2, n2), and the (1 + dim, Q)
        weights scattered into a dense (1 + dim, G1, G2) tensor, zero on the
        cells that are no ball node, laid out for ``_contract``'s products:
        the value weights (G1, G2) and the gradient weights (G1, dim * G2).
        Built once per spec and split.
        """
        if split not in self._grids:
            blocks = [np.unique(cols, axis=0, return_inverse=True)
                      for cols in np.split(self._nodes, split, axis=1)]
            (off1, cell1), (off2, cell2) = blocks
            dense = np.zeros((len(self._weights), len(off1), len(off2)))
            dense[:, cell1.reshape(-1), cell2.reshape(-1)] = self._weights
            grad = np.ascontiguousarray(dense[1:].transpose(1, 0, 2)).reshape(len(off1), -1)
            self._grids[split] = off1 / self.level, off2 / self.level, dense[0], grad
        return self._grids[split]

    def _contract(self, func, chunk, grad: bool, split: tuple):
        """One chunk of a split quadrature, shape (B, J, K).

        ``func(x1, x2)`` gets the block grids ``x1 - u1/k`` (B, G1, 1, n1)
        and ``x2 - u2/k`` (B, 1, G2, n2) and returns parts, each a sequence
        of ``(a1, a2)`` terms: an x1 factor whose leading axes broadcast to
        (B, G1, 1) and an x2 factor whose leading axes broadcast to
        (B, 1, G2), with value axes that broadcast to the part's.  A term is
        contracted in two steps, one matrix product of its (B, G1) x1 factors
        against the dense weights and a dot of the result with its (B, G2) x2
        factors, and a part sums its terms in order.  A factor spanning both
        grids raises a ``ValueError``.
        """
        off1, off2, w_val, w_grad = self._block_weights(split)
        (n1,), n = split, len(chunk)
        g1, g2 = len(off1), len(off2)
        x1 = chunk[:, None, None, :n1] - off1[None, :, None, :]
        x2 = chunk[:, None, None, n1:] - off2[None, None, :, :]
        cols = []
        for terms in func(x1, x2):
            terms = [(np.asarray(a1, dtype=np.float64), np.asarray(a2, dtype=np.float64))
                     for a1, a2 in terms]
            for a1, a2 in terms:
                if a1.ndim < 3 or a2.ndim < 3 or a1.shape[2] != 1 or a2.shape[1] != 1:
                    raise ValueError(
                        f"second-block term factors of shapes {a1.shape} and {a2.shape} on "
                        f"block grids ({n}, {g1}, 1, ...) and ({n}, 1, {g2}, ...): a factor "
                        "spans both block grids, so the block is not a sum of x1-factor x "
                        "x2-factor terms and cannot be smoothed")
            out = np.broadcast_shapes(*(a.shape[3:] for term in terms for a in term))
            k = math.prod(out)
            val = dval = None
            for a1, a2 in terms:
                # (B K, G1) x1 factors and (B, K, G2) x2 factors
                rows = _full(a1, (n, g1, 1) + out).reshape(n, g1, k).transpose(0, 2, 1)
                rows = rows.reshape(n * k, g1)
                if n * k == 1:
                    # numpy sends a one-row product to gemv, which rounds unlike
                    # gemm: two rows keep a state's value independent of its chunk
                    rows = np.concatenate([rows, rows])
                f2 = _full(a2, (n, 1, g2) + out).reshape(n, g2, k).transpose(0, 2, 1)
                t = np.matmul(rows, w_val)[:n * k].reshape(n, k, g2)
                t *= f2
                t = t.sum(axis=-1)
                val = t if val is None else val + t
                if grad:
                    t = np.matmul(rows, w_grad)[:n * k].reshape(n, k, -1, g2)
                    t *= f2[:, :, None, :]
                    t = t.sum(axis=-1)
                    dval = t if dval is None else dval + t
            part = val[:, None, :]                                      # (B, 1, K)
            cols.append(part if dval is None else
                        np.concatenate([part, dval.transpose(0, 2, 1)], axis=1))
        return cols[0] if len(cols) == 1 else np.concatenate(cols, axis=-1)


def _full(a, shape):
    """``a`` broadcast to ``shape`` (a view, or ``a`` itself if it has it)."""
    return a if a.shape == shape else np.broadcast_to(a, shape)


class _Smoother:
    """``f_k = (f * chi_k) psi_k`` of a rough evaluation, with analytic
    derivatives: ``mollify`` makes one the ``_eval`` of a smoothed field, or
    the ``_second`` of a smoothed structured field.

    ``rough(*xs, sigma, drift)`` is the rough field's own ``_eval`` (one
    block, ``split=()``) or, for a structured field, its ``_terms`` of the
    block coordinates ``(x1, x2)`` (``split=(n1,)``); its sigma has shape
    ``sigma_shape``.  A call packs the requested rough components into one
    function of the quadrature's grids, so that one quadrature pass serves
    them all: the values concatenated on the shifted points, or one part of
    terms per component on the block grids.  ``convolve`` gives the values,
    ``convolve_with_grad`` the Jacobian ``(f * grad chi_k) psi_k + (f *
    chi_k) grad psi_k``, whose product rule needs the values, so a call
    returns the values with every Jacobian.  For a declared-constant sigma
    (``sigma0``, its value) the convolution is the identity (the discrete
    kernel weights sum to one), so sigma_k reduces exactly to sigma * psi_k
    and only the cutoff is evaluated.
    """

    def __init__(self, spec: MollifierSpec, rough: Callable, sigma_shape: tuple,
                 sigma0: Optional[NDArray[np.float64]] = None, split: tuple = ()):
        self.spec, self.rough, self.sigma0, self.split = spec, rough, sigma0, split
        self.shapes = dict(sigma=sigma_shape, drift=sigma_shape[:1])

    def __call__(self, pts, sigma=True, drift=True, jac=False) -> FieldEval:
        spec, out = self.spec, FieldEval(None, None)
        psi, dpsi = spec.cutoff(pts, grad=True) if jac else (spec.cutoff(pts), None)
        names = [name for name, on in (("sigma", sigma and self.sigma0 is None),
                                       ("drift", drift)) if on]
        if names:
            def packed(*grids):
                ev = self.rough(*grids, "sigma" in names, drift)
                if self.split:  # one part of terms per component
                    return [getattr(ev, name) for name in names]
                lead = grids[0].shape[:-1]
                cols = [np.broadcast_to(np.asarray(getattr(ev, name), dtype=np.float64),
                                        lead + self.shapes[name]).reshape(lead + (-1,))
                        for name in names]
                return cols[0] if len(cols) == 1 else np.concatenate(cols, axis=-1)

            if jac:
                conv, grad = spec.convolve_with_grad(packed, pts, self.split)
                grad = grad * psi[..., None, None] + conv[..., None] * dpsi[..., None, :]
            else:
                conv = spec.convolve(packed, pts, self.split)
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


def mollify(field: CoefficientField, spec: MollifierSpec) -> CoefficientField:
    """Smooth a field: ``f_k = (f * chi_k) psi_k`` with analytic derivatives.

    Derivatives come from ``f * grad(chi_k)`` plus the product rule with
    ``grad(psi_k)``; the rough field is never differenced.  Every row of a
    plain field is smoothed.  Of a structured field only the second block
    is: the first block needs no regularization for the partial-Sobolev
    theory, so it is kept as is and the first-block flow is identical
    across smoothing levels.  The smoothed second block is genuinely
    differentiable in the first variables as well, and the full Jacobian is
    returned for it.  A structured field without first-block Jacobians is
    rejected, and so is an already smoothed one (its block record holds the
    rough second block).
    """
    if spec.dim != field.dim_state:
        raise ValueError("mollifier dimension does not match the field")
    n, m = field.dim_state, field.dim_noise
    if not isinstance(field, StructuredCoefficient):
        smooth = CoefficientField(n, m, None, None, name=f"{field.name}|k={spec.level:g}")
        smooth._eval = _Smoother(spec, field._eval, (n, m), field.constant_sigma())
        return smooth
    if field.blocks.sigma1_jac is None or field.blocks.drift1_jac is None:
        raise ValueError("structured mollification needs analytic first-block Jacobians")
    if field.is_smoothed:
        raise ValueError("field is already smoothed; smooth its rough base instead")
    smooth = StructuredCoefficient(field.n1, field.blocks, n, m,
                                   name=f"{field.name}|k2={spec.level:g}")
    smooth._second = _Smoother(spec, field._terms, (field.n2, m), split=(field.n1,))
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


# ---------------------------------------------------------------------------
# kernel domination and convergence checks
# ---------------------------------------------------------------------------


@dataclass
class DominationReport:
    max_ratio: float
    passed: bool
    bound: float = 2.0


def mollifier_domination_check(
    func: Callable, spec: MollifierSpec, grid
) -> DominationReport:
    """Check ``|f*chi_k|(x) / (1+|x|) <= 2 (|f/(1+|.|)| * chi_k)(x)`` on a grid.

    ``func`` maps points to scalars or arrays; the left side uses the
    Euclidean norm of the convolved value.  The reported ``max_ratio`` is
    the largest value of lhs / (|f bar| * chi_k); the bound asserts it
    never exceeds 2.
    """
    pts = as_points(grid, spec.dim, "mollifier")
    lhs = magnitude(spec.convolve(func, pts), pts.ndim - 1) / (1.0 + np.linalg.norm(pts, axis=-1))

    def scaled_abs(y):
        return magnitude(func(y), y.ndim - 1) / (1.0 + np.linalg.norm(y, axis=-1))

    conv_bar = spec.convolve(scaled_abs, pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            conv_bar > 0,
            lhs / np.where(conv_bar > 0, conv_bar, 1.0),
            np.where(lhs > 0, np.inf, 0.0),
        )
    max_ratio = float(np.max(ratio)) if ratio.size else 0.0
    return DominationReport(max_ratio=max_ratio, passed=bool(max_ratio <= 2.0 + 1e-9))


def mollified_convergence(
    func: Callable,
    m: ReferenceMeasure,
    levels: Sequence[float],
    radius: float,
    exponent: float,
    n_grid: int = 257,
    mollifier: Optional[Callable[[float], MollifierSpec]] = None,
) -> list:
    """``L^r(mu)`` distance of f_k from f on the ball B(radius), per level.

    Quadrature on a tensor grid (dim <= 2); ``f_k = (f * chi_k) psi_k``
    with the spec ``mollifier(k)``, a catalog ``Family.mollifier`` for
    instance (default: ``MollifierSpec`` at level k).
    """
    if m.dim > 2:
        raise ValueError("convergence quadrature supports dim <= 2 only")
    axis = np.linspace(-radius, radius, n_grid)
    h = axis[1] - axis[0]
    pts = grid_points((axis,) * m.dim).reshape(-1, m.dim)
    cell = h if m.dim == 1 else h * h
    inside = np.linalg.norm(pts, axis=-1) <= radius
    pts = pts[inside]
    w = m.weight(pts) * cell
    base = np.asarray(func(pts), dtype=np.float64)
    norms = []
    for k in levels:
        spec = mollifier(k) if mollifier else MollifierSpec(dim=m.dim, level=k)
        fk = spec.convolve(func, pts)
        fk = fk * spec.cutoff(pts).reshape(fk.shape[:1] + (1,) * (fk.ndim - 1))
        diff = magnitude(fk - base, 1)
        norms.append(float((np.sum(w * diff**exponent)) ** (1.0 / exponent)))
    return norms
