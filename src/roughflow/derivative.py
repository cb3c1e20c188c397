"""Weak differentiability of the flow with respect to its initial point.

The derivative process Y solves the coupled system on R^(2d)

    dX_t = sigma(X_t) dB_t + b(X_t) dt,            X_0 = x,
    dY_t = [grad sigma(X_t)] Y_t dB_t
         + [grad b(X_t)] Y_t dt,                   Y_0 = y,

which is block-structured: the first block does not depend on y, and the
second block is linear in y with coefficients evaluated along X.  Its
finite-difference counterpart replaces the second equation by the scaled
difference of two copies of the base flow started at x and x + eps y.
Both are instances of the partially Sobolev structure, so the whole flow
and density machinery applies on the doubled space.

``weak_derivative_convergence`` measures the clipped distance between the
difference flows and the derivative flow over a joint sample of (x, y);
``verify_hypotheses`` checks the pointwise dominations and the eps-uniform
exponential integrability that the doubled systems must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import CoefficientField, FieldBlocks, StructuredCoefficient, exp_integrand
from .flow import BrownianDriver, FlowEnsemble, integrate
from .measure import ReferenceMeasure

__all__ = [
    "DerivativeSystem",
    "lift",
    "derivative_flow",
    "difference_flow",
    "weak_derivative_convergence",
    "verify_hypotheses",
    "ConvergenceRow",
    "ConvergenceTable",
    "HypothesisReport",
]


@dataclass
class DerivativeSystem:
    """Base coefficients on R^d together with their doubled-space lifts."""

    base: CoefficientField

    def __post_init__(self):
        if not self.base.is_analytic:
            raise ValueError("the derivative system needs analytic base Jacobians")
        self._lifted = self._build_lifted()

    @property
    def dim(self) -> int:
        return self.base.dim_state

    @property
    def lifted(self) -> StructuredCoefficient:
        """Doubled-space coefficients of the derivative system."""
        return self._lifted

    def _build_lifted(self) -> StructuredCoefficient:
        base, d = self.base, self.dim

        def sigma2_fn(xy):
            jac = base.sigma_jac_fn(xy[..., :d])
            return np.einsum("...ikj,...j->...ik", jac, xy[..., d:])

        def drift2_fn(xy):
            jac = base.drift_jac_fn(xy[..., :d])
            return np.einsum("...ij,...j->...i", jac, xy[..., d:])

        return self._doubled(sigma2_fn, drift2_fn,
                             lambda xy: base.sigma_jac_fn(xy[..., :d]),
                             lambda xy: base.drift_jac_fn(xy[..., :d]),
                             f"{base.name}|derivative")

    def epsilon_system(self, eps: float) -> StructuredCoefficient:
        """Doubled-space coefficients of the finite-difference system.

        The second-block coefficients are exactly computable from two base
        evaluations: ``(f(x + eps y) - f(x)) / eps``.
        """
        if eps <= 0:
            raise ValueError("eps must be positive")
        base, d = self.base, self.dim

        def sigma2_fn(xy):
            x, y = xy[..., :d], xy[..., d:]
            return (base.sigma(x + eps * y) - base.sigma(x)) / eps

        def drift2_fn(xy):
            x, y = xy[..., :d], xy[..., d:]
            return (base.drift(x + eps * y) - base.drift(x)) / eps

        return self._doubled(sigma2_fn, drift2_fn,
                             lambda xy: base.sigma_jac_fn(xy[..., :d] + eps * xy[..., d:]),
                             lambda xy: base.drift_jac_fn(xy[..., :d] + eps * xy[..., d:]),
                             f"{base.name}|difference(eps={eps:g})")

    def _doubled(self, sigma2, drift2, sigma2_jac, drift2_jac, name) -> StructuredCoefficient:
        """Doubled-space field: the base's callables on the first block, the
        given second block (with its y-Jacobians) on the second."""
        base = self.base
        return StructuredCoefficient(
            self.dim,
            FieldBlocks(base.sigma_fn, base.drift_fn, sigma2, drift2,
                        base.sigma_jac_fn, base.drift_jac_fn, sigma2_jac, drift2_jac),
            dim_state=2 * self.dim, dim_noise=base.dim_noise, name=name,
        )


def lift(base: CoefficientField) -> DerivativeSystem:
    """Build the derivative system of a base field with analytic Jacobians."""
    return DerivativeSystem(base)


def derivative_flow(
    sys: DerivativeSystem,
    driver: BrownianDriver,
    xy0s,
    T: float,
) -> FlowEnsemble:
    """Coupled Euler-Maruyama run of (X_t, Y_t) on the doubled space."""
    return integrate(sys.lifted, driver, xy0s, T)


def difference_flow(
    sys: DerivativeSystem,
    eps: float,
    driver: BrownianDriver,
    xy0s,
    T: float,
) -> FlowEnsemble:
    """Scaled difference of two base flows under the same increments.

    Integrates the base field from x and from x + eps y and returns the
    doubled-space ensemble (X_t, (X_t(x + eps y) - X_t(x)) / eps).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = sys.dim
    xy0s = np.asarray(xy0s, dtype=np.float64)
    if xy0s.ndim != 2 or xy0s.shape[1] != 2 * d:
        raise ValueError("xy0s must have shape (n, 2d)")
    x0, y0 = xy0s[:, :d], xy0s[:, d:]
    e_base = integrate(sys.base, driver, x0, T)
    e_pert = integrate(sys.base, driver, x0 + eps * y0, T)
    diff = (e_pert.states - e_base.states) / eps
    states = np.concatenate([e_base.states, diff], axis=-1)
    return FlowEnsemble(
        states=states,
        times=e_base.times,
        x0s=xy0s,
        field=sys.epsilon_system(eps),
        driver=driver,
        exploded=e_base.exploded | e_pert.exploded,
    )


# ---------------------------------------------------------------------------
# convergence of the difference flows
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceRow:
    epsilon: float
    metric: float
    se: float


@dataclass
class ConvergenceTable:
    rows: list

    def metrics(self) -> list:
        return [r.metric for r in self.rows]

    def monotone_decreasing(self) -> bool:
        ms = self.metrics()
        return all(b < a for a, b in zip(ms, ms[1:]))


def weak_derivative_convergence(
    sys: DerivativeSystem,
    eps_sequence: Sequence[float],
    driver: BrownianDriver,
    xy0s,
    T: float,
) -> ConvergenceTable:
    """Clipped distance of the difference flows from the derivative flow.

    For each eps, reports the sample mean of 1 ^ sup_t |Y^eps_t - Y_t| over
    the joint (omega, (x, y)) ensemble, with its standard error.
    """
    e_deriv = derivative_flow(sys, driver, xy0s, T)
    d = sys.dim
    rows = []
    for eps in eps_sequence:
        e_diff = difference_flow(sys, eps, driver, xy0s, T)
        gap = np.linalg.norm(
            e_diff.states[..., d:] - e_deriv.states[..., d:], axis=-1
        ).max(axis=-1)
        ok = e_diff.valid() & e_deriv.valid()
        clipped = np.minimum(1.0, gap)[ok]
        rows.append(
            ConvergenceRow(
                epsilon=float(eps),
                metric=float(clipped.mean()),
                se=float(clipped.std(ddof=1) / np.sqrt(clipped.size)),
            )
        )
    return ConvergenceTable(rows)


# ---------------------------------------------------------------------------
# hypothesis verification for the doubled systems
# ---------------------------------------------------------------------------


_EPS_RATIO_BOUND = 10.0  # eps-uniform band: max/min of the eps integrals


@dataclass
class HypothesisReport:
    lifted_integral: float
    eps_integrals: dict
    eps_ratio: float            # max/min across the eps set
    drift_domination_fraction: float
    sigma_domination_fraction: float
    n_samples: int
    any_dominated: bool
    passed: bool


def verify_hypotheses(
    sys: DerivativeSystem,
    m2: ReferenceMeasure,
    p0: float,
    eps_set: Sequence[float],
    budget: int,
    rng: np.random.Generator,
) -> HypothesisReport:
    """Check the doubled systems' integrability and domination hypotheses.

    Estimates the second-block exponential integral

        integral exp[p0([div_y drift2]^- + |drift2-bar| + |sigma2-bar|^2
                        + |grad_y sigma2|^2)] d mu2

    for the derivative system and for each finite-difference system in
    ``eps_set``, and asserts the eps-uniform band (max/min below
    ``_EPS_RATIO_BOUND``).  The integrand is ``coefficients.exp_integrand`` of
    each system's ``second_block``, on one shared sample of mu2.  Also
    verifies the pointwise dominations |drift2-bar| <= |grad b(x)| and
    |sigma2-bar| <= |grad sigma(x)| on the sample, with the base Jacobians
    from one ``evaluate``.  ``m2`` is the doubled-space measure (its decay
    exponent must exceed 2 alpha1 + q + d/2 for the base measure exponent
    alpha1).
    """
    d = sys.dim
    if m2.dim != 2 * d:
        raise ValueError("m2 must live on the doubled space")
    pts = m2.sample(rng, budget)
    mass2 = m2.total_mass()

    def h4_bundle(field: StructuredCoefficient):
        vals, bbar, sbar = exp_integrand(pts, field.second_block(pts), p0)
        vals = vals[np.isfinite(vals)]
        share = float(vals.max() / vals.sum()) if vals.sum() > 0 else 0.0
        return mass2 * float(vals.mean()), share, bbar, sbar

    lifted_integral, share0, bbar, sbar = h4_bundle(sys.lifted)
    base = sys.base.evaluate(pts[:, :d], jac=True)
    base_grad_b = np.sqrt(np.einsum("...ij,...ij->...", base.drift_jac, base.drift_jac))
    base_grad_s = np.sqrt(np.einsum("...ikj,...ikj->...", base.sigma_jac, base.sigma_jac))
    tol = 1e-9
    drift_frac = float((bbar <= base_grad_b + tol).mean())
    sigma_frac = float((sbar <= base_grad_s + tol).mean())

    eps_integrals, shares = {}, [share0]
    for eps in eps_set:
        val, share, _, _ = h4_bundle(sys.epsilon_system(eps))
        eps_integrals[float(eps)] = val
        shares.append(share)
    vals = np.array(list(eps_integrals.values()))
    eps_ratio = float(vals.max() / vals.min()) if vals.min() > 0 else np.inf
    any_dominated = bool(max(shares) > 0.5)
    passed = bool(
        eps_ratio < _EPS_RATIO_BOUND
        and drift_frac == 1.0
        and sigma_frac == 1.0
        and not any_dominated
        and np.isfinite(lifted_integral)
    )
    return HypothesisReport(
        lifted_integral=lifted_integral,
        eps_integrals=eps_integrals,
        eps_ratio=eps_ratio,
        drift_domination_fraction=drift_frac,
        sigma_domination_fraction=sigma_frac,
        n_samples=budget,
        any_dominated=any_dominated,
        passed=passed,
    )
