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
* the vector and scalar functionals entering the exponent of the pathwise
  push-forward density (``density_noise_term`` / ``density_drift_term``),
  and the Ito-Taylor coefficient of the noise term
  (``density_noise_with_gradient``), which can share one ``FieldEval``;
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

from .measure import ReferenceMeasure

__all__ = [
    "CoefficientField",
    "FieldEval",
    "StructuredCoefficient",
    "FieldBlocks",
    "MollifierSpec",
    "mollify",
    "density_noise_term",
    "density_noise_with_gradient",
    "density_drift_term",
    "exp_integrand",
    "condition_integrals",
    "block_condition_integrals",
    "mollifier_domination_check",
    "mollified_convergence",
    "noise_term_domination_constant",
]

_MAX_EVAL_BLOCK = 2**16  # point-node pairs per quadrature block: ~1 MB temporaries


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


def _jacobian(field, fn: Optional[Callable], name: str, x,
              fix: str = "smooth it with mollify to differentiate it") -> NDArray[np.float64]:
    if fn is None:
        raise ValueError(f"field {field.name!r} has no {name} Jacobian; {fix}")
    return np.asarray(fn(x), dtype=np.float64)


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
    sigma_constant: bool = False  # enables the exact fast path under smoothing

    # -- evaluation --------------------------------------------------------

    def _pts(self, x) -> NDArray[np.float64]:
        pts = np.asarray(x, dtype=np.float64)
        if self.dim_state == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
            pts = pts[..., np.newaxis]
        if pts.shape[-1] != self.dim_state:
            raise ValueError(
                f"point dimension {pts.shape[-1]} != field dimension {self.dim_state}"
            )
        return pts

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
        return self._eval(self._pts(x), jac=jac)

    def sigma(self, x) -> NDArray[np.float64]:
        return self._eval(self._pts(x), drift=False).sigma

    def drift(self, x) -> NDArray[np.float64]:
        return self._eval(self._pts(x), sigma=False).drift

    def sigma_jac(self, x) -> NDArray[np.float64]:
        """d sigma^{ik} / d x_j, shape (..., n, m, n)."""
        return self._eval(self._pts(x), drift=False, jac=True).sigma_jac

    def drift_jac(self, x) -> NDArray[np.float64]:
        """d b^i / d x_j, shape (..., n, n)."""
        return self._eval(self._pts(x), sigma=False, jac=True).drift_jac

    @property
    def is_analytic(self) -> bool:
        return self.sigma_jac_fn is not None and self.drift_jac_fn is not None

    def sigma_divergence(self, x) -> NDArray[np.float64]:
        """Column divergences (div sigma^{.,1}, ..., div sigma^{.,m})."""
        return np.einsum("...iki->...k", self.sigma_jac(x))


@dataclass(frozen=True)
class FieldBlocks:
    """Block callables of a structured field: the first block (with its
    x1-Jacobians) of ``x1 = x[..., :n1]``, the second block (with its
    x2-Jacobians) of the full ``x``.  A field smoothed by ``mollify`` keeps
    its base's record, so the second-block callables are the rough
    functions; ``second_block`` reads any field's own second block.
    """

    sigma1: Callable                        # x1 (..., n1) -> (..., n1, m)
    drift1: Callable                        # x1           -> (..., n1)
    sigma2: Callable                        # x  (..., n)  -> (..., n2, m)
    drift2: Callable                        # x            -> (..., n2)
    sigma1_jac: Optional[Callable] = None   # x1 -> (..., n1, m, n1)
    drift1_jac: Optional[Callable] = None   # x1 -> (..., n1, n1)
    sigma2_jac: Optional[Callable] = None   # x  -> (..., n2, m, n2), in x2
    drift2_jac: Optional[Callable] = None   # x  -> (..., n2, n2), in x2


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
    entries.  The Ito-Taylor coefficient of ``density_noise_with_gradient``
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

    def _eval(self, pts, sigma=True, drift=True, jac=False) -> FieldEval:
        n1, b = self.n1, self.blocks
        x1, out = pts[..., :n1], self._second(pts, sigma, drift, jac)
        for name, rows in (("sigma", -2), ("drift", -1)):  # row axis of the value
            val2 = getattr(out, name)
            if val2 is None:
                continue
            setattr(out, name, np.concatenate([getattr(b, f"{name}1")(x1), val2], axis=rows))
            if jac:  # the first block does not depend on x2
                jac2 = getattr(out, f"{name}_jac")
                jac1 = np.zeros(jac2.shape[:rows - 1] + (n1,) + jac2.shape[rows:])
                jac1[..., :n1] = _jacobian(
                    self, getattr(b, f"{name}1_jac"), f"first-block {name}", x1,
                    f"smoothing keeps the first block, so give FieldBlocks a {name}1_jac")
                setattr(out, f"{name}_jac", np.concatenate([jac1, jac2], axis=rows - 1))
        return out

    def _second(self, pts, sigma=True, drift=True, jac=False) -> FieldEval:
        """Second-block rows of sigma and/or b at ``pts``, Jacobian columns
        over all of x (zero in x1)."""
        out = FieldEval(None, None)
        for name, on in (("sigma", sigma), ("drift", drift)):
            if not on:
                continue
            val = getattr(self.blocks, f"{name}2")(pts)
            setattr(out, name, val)
            if jac:
                full = np.zeros(np.shape(val) + (self.dim_state,))
                full[..., self.n1:] = _jacobian(
                    self, getattr(self.blocks, f"{name}2_jac"), name, pts)
                setattr(out, f"{name}_jac", full)
        return out

    def first_block(self, x1) -> FieldEval:
        """First-block sigma, b and their x1-Jacobians at points of R^n1."""
        b = self.blocks
        return FieldEval(b.sigma1(x1), b.drift1(x1), b.sigma1_jac(x1), b.drift1_jac(x1))

    def second_block(self, x) -> FieldEval:
        """Second-block sigma, b and their x2-Jacobians at points of R^n."""
        n1, ev = self.n1, self._second(self._pts(x), jac=True)
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


def _smoothstep(t):
    """C-infinity step: 0 for t<=0, 1 for t>=1, built from exp(-1/t).

    A nan input stays nan.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, np.nan))
    band, _, g, gm = _step_band(t)
    out[band] = g / (g + gm)
    return out


def _smoothstep_deriv(t):
    """Derivative of ``_smoothstep``; exactly 0 outside the band 0 < t < 1.

    Where ``t**2`` underflows (t < 1e-150) the numerator ``exp(-1/t)`` is
    already 0, so ``t`` is floored there to keep 0/0 out of the quotient.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape)
    band, tb, g, gm = _step_band(t)
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
    and its gradient from one matrix product per block of at most
    ``_MAX_EVAL_BLOCK`` (``2**16``) point-node pairs.  ``order``/``panels``
    trade accuracy for evaluation cost.
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
        grids = np.meshgrid(*axes_nodes, indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*axes_weights, indexing="ij")
        raw_w = np.prod(np.stack([w.ravel() for w in wgrids], axis=-1), axis=-1)
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

    def _points(self, x) -> NDArray[np.float64]:
        pts = np.asarray(x, dtype=np.float64)
        if self.dim == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
            pts = pts[..., np.newaxis]
        return pts

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
        k = self.level
        return k**self.dim * self._bump(k * self._points(x)) / _bump_mass(self.dim, self.shape)

    def kernel_mass_quadrature(self, n_points: int = 4001) -> float:
        """Integral of ``kernel`` itself (Simpson rule on ``n_points`` radii
        of B(1/k)), so a wrong scaling or normalization shows as mass != 1."""
        surf = 2.0 * np.pi ** (self.dim / 2.0) / special.gamma(self.dim / 2.0)
        r = np.linspace(0.0, 1.0 / self.level, n_points)
        pts = np.zeros((n_points, self.dim))
        pts[:, 0] = r
        return float(surf * integrate.simpson(r ** (self.dim - 1) * self.kernel(pts), x=r))

    def cutoff(self, x) -> NDArray[np.float64]:
        """psi_k(x): 1 on B(k), 0 outside B(2k), smooth in between."""
        r = np.linalg.norm(self._points(x), axis=-1) / self.level
        return _smoothstep(2.0 - r)

    def cutoff_grad(self, x) -> NDArray[np.float64]:
        pts = self._points(x)
        r = np.linalg.norm(pts, axis=-1)
        rk = r / self.level
        deriv = _smoothstep_deriv(2.0 - rk) * (-1.0 / self.level)
        safe_r = np.where(r > 0, r, 1.0)
        return deriv[..., None] * pts / safe_r[..., None]

    # -- convolution ---------------------------------------------------------

    def convolve(self, func: Callable, x) -> NDArray[np.float64]:
        """(func * chi_k)(x); ``func`` maps (..., dim) to (..., *out)."""
        return self._quadrature(func, x, self._weights[:1])[0]

    def convolve_with_grad(self, func: Callable, x):
        """Value and gradient of func * chi_k in a single pass over func.

        Returns ``(value, grad)`` with shapes ``(..., *out)`` and
        ``(..., *out, dim)``.
        """
        out = self._quadrature(func, x, self._weights)
        return out[0], np.moveaxis(out[1:], 0, -1)

    def _quadrature(self, func, x, weights):
        """``sum_q weights[j, q] func(x - u_q / k)`` at every point x.

        Returns shape ``(J,) + batch + out``.  Points go in blocks of at most
        ``_MAX_EVAL_BLOCK`` point-node pairs, and each block's ``(B, Q, K)``
        function values are reduced with one matrix product.
        """
        pts = self._points(x)
        batch = pts.shape[:-1]
        flat = pts.reshape(-1, self.dim)
        q = self._nodes.shape[0]
        block = max(1, _MAX_EVAL_BLOCK // q)
        outs = []
        for start in range(0, flat.shape[0], block):
            chunk = flat[start:start + block]                      # (B, dim)
            shifted = chunk[:, None, :] - self._nodes[None, :, :] / self.level
            f = np.asarray(func(shifted), dtype=np.float64)        # (B, Q, *out)
            red = np.matmul(weights, f.reshape(f.shape[:2] + (-1,)))  # (B, J, K)
            outs.append(red.reshape(red.shape[:2] + f.shape[2:]))
        out = np.moveaxis(np.concatenate(outs, axis=0), 1, 0)    # (J, nb, *out)
        return out.reshape(out.shape[:1] + batch + out.shape[2:])


class _Smoother:
    """``f_k = (f * chi_k) psi_k`` of a rough evaluation, with analytic
    derivatives: ``mollify`` makes one the ``_eval`` of a smoothed field, or
    the ``_second`` of a smoothed structured field.

    ``rough(y, sigma, drift)`` is the rough field's own ``_eval`` (or
    ``_second``); its sigma has shape ``sigma_shape``.  A call packs the
    requested rough components into one function, so that one quadrature
    pass serves them all: ``convolve`` for values, ``convolve_with_grad``
    for the Jacobian ``(f * grad chi_k) psi_k + (f * chi_k) grad psi_k``.
    For a declared-constant sigma (``sigma0``, its value) the convolution
    is the identity (the discrete kernel weights sum to one), so sigma_k
    reduces exactly to sigma * psi_k and only the cutoff is evaluated.
    """

    def __init__(self, spec: MollifierSpec, rough: Callable, sigma_shape: tuple,
                 sigma0: Optional[NDArray[np.float64]] = None):
        self.spec, self.rough, self.sigma0 = spec, rough, sigma0
        self.shapes = dict(sigma=sigma_shape, drift=sigma_shape[:1])

    def __call__(self, pts, sigma=True, drift=True, jac=False) -> FieldEval:
        spec, out = self.spec, FieldEval(None, None)
        names = [name for name, on in (("sigma", sigma and self.sigma0 is None),
                                       ("drift", drift)) if on]
        if names:
            def packed(y):
                ev = self.rough(y, "sigma" in names, drift)
                cols = [np.asarray(getattr(ev, name), dtype=np.float64)
                        .reshape(y.shape[:-1] + (-1,)) for name in names]
                return cols[0] if len(cols) == 1 else np.concatenate(cols, axis=-1)

            psi = spec.cutoff(pts)[..., None]
            if jac:
                conv, grad = spec.convolve_with_grad(packed, pts)
                grad = grad * psi[..., None] + conv[..., None] * spec.cutoff_grad(pts)[..., None, :]
            else:
                conv = spec.convolve(packed, pts)
            val, lead, start = conv * psi, pts.shape[:-1], 0
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
            out.sigma = s0 * spec.cutoff(pts)[..., None, None]
            if jac:
                out.sigma_jac = s0[..., None] * spec.cutoff_grad(pts)[..., None, None, :]
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
        sigma0 = field.sigma(np.zeros((1, n)))[0] if field.sigma_constant else None
        smooth = CoefficientField(n, m, None, None, name=f"{field.name}|k={spec.level:g}")
        smooth._eval = _Smoother(spec, field._eval, (n, m), sigma0)
        return smooth
    if field.blocks.sigma1_jac is None:
        raise ValueError("structured mollification needs analytic first-block Jacobians")
    if isinstance(field._second, _Smoother):
        raise ValueError("field is already smoothed; smooth its rough base instead")
    smooth = StructuredCoefficient(field.n1, field.blocks, n, m,
                                   name=f"{field.name}|k2={spec.level:g}")
    smooth._second = _Smoother(spec, field._second, (field.n2, m))
    return smooth


# ---------------------------------------------------------------------------
# density-exponent functionals
# ---------------------------------------------------------------------------


def density_noise_term(
    field: CoefficientField, m: ReferenceMeasure, x, ev: Optional[FieldEval] = None
) -> NDArray[np.float64]:
    """Vector integrand of the stochastic integral in the log-density.

    Component l is ``div(sigma^{.,l})(x) + <sigma^{.,l}(x), grad log w(x)>``.
    ``ev`` is ``field.evaluate(x, jac=True)`` when the caller already has it.
    """
    pts = field._pts(x)
    ev = field.evaluate(pts, jac=True) if ev is None else ev
    div = np.einsum("...iki->...k", ev.sigma_jac)
    return div + np.einsum("...nm,...n->...m", ev.sigma, m.grad_log_weight(pts))


def density_noise_with_gradient(
    field: CoefficientField, m: ReferenceMeasure, x, h: float,
    ev: Optional[FieldEval] = None,
):
    """Noise term ``lam1`` and its derivatives along the sigma columns.

    Returns ``(lam1, G)`` with ``G[..., k, l] = <sigma^{.,k}, grad lam1^l>``,
    the coefficient of the Ito-Taylor (Milstein) term of the stochastic
    integral in the log-density.  With ``g = grad log w``,

        G_kl = sigma^{.,k}^T Hess(log w) sigma^{.,l}
               + sum_ij sigma^{ik} d_i sigma^{jl} g_j
               + <sigma^{.,k}, grad div sigma^{.,l}>.

    The weight Hessian is ``-2 alpha/(1+|x|^2) I + g g^T / alpha``, so the
    first term needs only ``sigma^T sigma`` and ``sigma^T g``.  The last
    term is the only one with second derivatives of sigma; it is taken as
    the one-sided difference of the column divergences along
    ``h sigma^{.,k}`` (Platen's derivative-free form; ``h = sqrt(dt)`` in
    the density tracker), which stays bounded where sigma jumps.  That
    difference is the only evaluation besides ``ev`` (``field.evaluate(x,
    jac=True)``, shared with ``density_drift_term``), and it needs the
    sigma Jacobian only.  For a declared-constant sigma the divergence and
    the last two terms vanish and are skipped.
    """
    pts = field._pts(x)
    ev = field.evaluate(pts, jac=True) if ev is None else ev
    sig, g = ev.sigma, m.grad_log_weight(pts)
    sg = np.einsum("...nm,...n->...m", sig, g)
    grad = np.einsum("...ik,...il->...kl", sig, sig)
    grad *= (-2.0 * m.alpha / (1.0 + np.sum(pts * pts, axis=-1)))[..., None, None]
    grad += np.einsum("...k,...l->...kl", sg, sg / m.alpha)
    if field.sigma_constant:  # div sigma = 0
        return sg, grad
    jac = ev.sigma_jac
    div = np.einsum("...iki->...k", jac)
    grad += np.einsum("...ik,...jli,...j->...kl", sig, jac, g)
    for k in range(field.dim_noise):
        shifted = field.sigma_divergence(pts + h * sig[..., :, k])
        grad[..., k, :] += (shifted - div) / h
    return div + sg, grad


def density_drift_term(
    field: CoefficientField, m: ReferenceMeasure, x, ev: Optional[FieldEval] = None
) -> NDArray[np.float64]:
    """Scalar integrand of the time integral in the log-density.

    ``div(b) + 1/2 <sigma sigma^T, Hess log w> + <b, grad log w>
    - 1/2 sum_kij (d_i sigma^{jk})(d_j sigma^{ik})``.  With ``g = grad log w`` the weight
    term is ``-2 alpha/(1+|x|^2) |sigma|_F^2 + |sigma^T g|^2 / alpha``, so
    neither the Hessian nor ``sigma sigma^T`` is formed.  ``ev`` is
    ``field.evaluate(x, jac=True)`` when the caller already has it.
    """
    pts = field._pts(x)
    ev = field.evaluate(pts, jac=True) if ev is None else ev
    sig, g = ev.sigma, m.grad_log_weight(pts)
    sg = np.einsum("...nm,...n->...m", sig, g)
    weight = (
        -2.0 * m.alpha / (1.0 + np.sum(pts * pts, axis=-1))
        * np.einsum("...ik,...ik->...", sig, sig)
        + np.einsum("...k,...k->...", sg, sg) / m.alpha
    )
    return (
        np.einsum("...ii->...", ev.drift_jac)
        + 0.5 * weight
        + np.einsum("...i,...i->...", ev.drift, g)
        - 0.5 * _contraction(ev.sigma_jac)
    )


def _contraction(jac) -> NDArray[np.float64]:
    return np.einsum("...jki,...ikj->...", jac, jac)


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    """Exponential-integrability report for a coefficient pair."""

    estimates: list          # estimate per doubling stage
    standard_errors: list
    n_nonfinite: int
    max_share: float
    divergent: bool

    @property
    def value(self) -> float:
        return self.estimates[-1]


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


def _stabilized_expect(m: ReferenceMeasure, fn, budget: int, rng, stages: int = 3):
    """Estimates at doubling budgets plus a divergence flag.

    A non-integrable exponential shows up as a last-stage estimate still
    dominated by a single sample (integrable heavy tails dilute under a
    larger budget) or as a running estimate that keeps moving by more than
    10% between the last two stages.
    """
    estimates, ses = [], []
    n_bad = 0
    last_share = 0.0
    for i in range(stages):
        est = m.expect(fn, budget * 2**i, rng)
        estimates.append(est.value)
        ses.append(est.se)
        n_bad += est.n_nonfinite
        last_share = est.max_share
    rel_change = (
        abs(estimates[-1] - estimates[-2]) / abs(estimates[-1])
        if estimates[-1] not in (0.0,) and np.isfinite(estimates[-1])
        else np.inf
    )
    divergent = (
        last_share > 0.1 or rel_change > 0.1 or not np.isfinite(estimates[-1])
    )
    return estimates, ses, n_bad, last_share, divergent


def condition_integrals(
    field: CoefficientField,
    m: ReferenceMeasure,
    p0: float,
    budget: int,
    rng: np.random.Generator,
) -> ConditionReport:
    """Monte Carlo check of exp-integrability of the coefficient functionals.

    Estimates ``integral exp[p0([div b]^- + |b/(1+|x|)| + |s/(1+|x|)|^2
    + |grad s|^2)] d mu`` at doubling budgets and flags divergence when the
    running estimate keeps growing beyond its error bars or a single sample
    dominates.
    """

    def integrand(x):
        pts = field._pts(x)
        return exp_integrand(pts, field.evaluate(pts, jac=True), p0)[0]

    return ConditionReport(*_stabilized_expect(m, integrand, budget, rng))


def block_condition_integrals(
    field: StructuredCoefficient,
    m: ReferenceMeasure,
    m1: ReferenceMeasure,
    p0: float,
    budget: int,
    rng: np.random.Generator,
):
    """Blockwise exp-integrability: first block against mu1, second against mu.

    Returns ``(report_block1, report_block2)``; each uses only the partial
    derivatives of its own block (``first_block`` on samples of mu1,
    ``second_block`` on samples of mu), so nothing differentiates the second
    block in the first variables.
    """
    rep1 = ConditionReport(*_stabilized_expect(
        m1, lambda x1: exp_integrand(x1, field.first_block(x1), p0)[0], budget, rng))
    rep2 = ConditionReport(*_stabilized_expect(
        m, lambda x: exp_integrand(x, field.second_block(x), p0)[0], budget, rng))
    return rep1, rep2


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
    pts = spec._points(grid)
    conv = spec.convolve(func, pts)
    extra = tuple(range(pts.ndim - 1, conv.ndim))
    lhs = np.sqrt(np.sum(conv**2, axis=extra)) if extra else np.abs(conv)
    lhs = lhs / (1.0 + np.linalg.norm(pts, axis=-1))

    def scaled_abs(y):
        v = np.asarray(func(y), dtype=np.float64)
        extra_axes = tuple(range(y.ndim - 1, v.ndim))
        mag = np.sqrt(np.sum(v**2, axis=extra_axes)) if extra_axes else np.abs(v)
        return mag / (1.0 + np.linalg.norm(y, axis=-1))

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
    if m.dim == 1:
        pts = axis[:, None]
        cell = h
    else:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([g1.ravel(), g2.ravel()], axis=-1)
        cell = h * h
    inside = np.linalg.norm(pts, axis=-1) <= radius
    pts = pts[inside]
    w = m.weight(pts) * cell
    base = np.asarray(func(pts), dtype=np.float64)
    norms = []
    for k in levels:
        spec = mollifier(k) if mollifier else MollifierSpec(dim=m.dim, level=k)
        fk = spec.convolve(func, pts)
        fk = fk * spec.cutoff(pts).reshape(fk.shape[:1] + (1,) * (fk.ndim - 1))
        diff = np.abs(fk - base)
        if diff.ndim > 1:
            diff = np.sqrt(np.sum(diff**2, axis=tuple(range(1, diff.ndim))))
        norms.append(float((np.sum(w * diff**exponent)) ** (1.0 / exponent)))
    return norms


def noise_term_domination_constant(
    field: CoefficientField,
    mollified: CoefficientField,
    spec: MollifierSpec,
    m: ReferenceMeasure,
    grid,
) -> float:
    """Fitted constant C with |noise term of f_k|^2 <= C (|div s|^2+|s bar|^2)*chi_k.

    The theory guarantees some finite, level-independent C; its value is
    not pinned down, so callers assert finiteness and stability across
    levels rather than a specific number.
    """
    pts = field._pts(grid)
    lam1 = density_noise_term(mollified, m, pts)
    lhs = np.sum(lam1**2, axis=-1)

    def envelope(y):
        ev = field.evaluate(y, jac=True)
        div = np.einsum("...iki->...k", ev.sigma_jac)
        return np.sum(div**2, axis=-1) + exp_integrand(y, ev, 0.0)[2] ** 2

    rhs = spec.convolve(envelope, pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 1e-300, lhs / np.maximum(rhs, 1e-300), 0.0)
    return float(np.max(ratio))
