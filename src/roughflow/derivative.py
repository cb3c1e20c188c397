"""Weak differentiability of the flow with respect to its initial point.

The derivative process Y solves the coupled system on R^(2d)

    dX_t = sigma(X_t) dB_t + b(X_t) dt,            X_0 = x,
    dY_t = [grad sigma(X_t)] Y_t dB_t
         + [grad b(X_t)] Y_t dt,                   Y_0 = y,

which is block-structured: the first block does not depend on y, and the
second block is linear in y with coefficients evaluated along X.  It is an
instance of the partially Sobolev structure, so the whole flow and density
machinery applies on the doubled space: ``DerivativeSystem(base).lifted``
is its field, and the derivative flow is
``integrate(DerivativeSystem(base).lifted, driver, xy0s, T)``.  The
finite-difference counterpart replaces the second equation by the scaled
difference of two copies of the base flow started at x and x + eps y
(``difference_flows``); its second block, ``(f(x + eps y) - f(x)) / eps``
for f = sigma, b, is ``DerivativeSystem.difference_block``.

``weak_derivative_convergence`` measures the clipped distance between the
difference flows and the derivative flow over a joint sample of (x, y);
``verify_hypotheses`` checks the pointwise dominations and the eps-uniform
exponential integrability that the doubled systems must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .coefficients import (
    CoefficientField, FieldBlocks, FieldEval, StructuredCoefficient, exp_integrand,
)
from .flow import BrownianDriver, integrate
from .measure import MonteCarloEstimate, ReferenceMeasure, sq_norm

__all__ = [
    "DerivativeSystem",
    "difference_flows",
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
        base = self.base

        # the second block is grad f(x) y, linear in y, for f = sigma and b
        def sigma2_fn(x, y):
            return np.einsum("...ikj,...j->...ik", base.sigma_jac_fn(x), y)

        def drift2_fn(x, y):
            return np.einsum("...ij,...j->...i", base.drift_jac_fn(x), y)

        return StructuredCoefficient(
            self.dim,
            FieldBlocks(base.sigma_fn, base.drift_fn, sigma2_fn, drift2_fn,
                        base.sigma_jac_fn, base.drift_jac_fn,
                        lambda x, y: base.sigma_jac_fn(x), lambda x, y: base.drift_jac_fn(x)),
            dim_state=2 * self.dim, dim_noise=base.dim_noise, name=f"{base.name}|derivative",
        )

    def difference_block(self, xy, eps: float, at_x: FieldEval) -> FieldEval:
        """Second block of the finite-difference system at the points ``xy``
        of the doubled space: ``(f(x + eps y) - f(x)) / eps`` for f = sigma
        and b, with the y-Jacobians ``grad f(x + eps y)``.  ``at_x`` is the
        base's ``evaluate`` at x, so each eps evaluates the base once more."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        d = self.dim
        shifted = self.base.evaluate(xy[..., :d] + eps * xy[..., d:], jac=True)
        return FieldEval((shifted.sigma - at_x.sigma) / eps, (shifted.drift - at_x.drift) / eps,
                         shifted.sigma_jac, shifted.drift_jac)


def difference_flows(
    sys: DerivativeSystem,
    eps_sequence: Sequence[float],
    driver: BrownianDriver,
    xy0s,
    T: float,
) -> Iterator[tuple]:
    """Scaled differences of base flows under the same increments, one per eps.

    The base field is integrated in one pass from the starts ``x`` and
    ``x + eps y`` of every eps, stacked as ``[x, x + eps_1 y, ...]``: its
    states array has shape ``(n_omega, (1 + len(eps)) n_x, n_steps + 1, d)``.
    Euler-Maruyama treats each state on its own (an exploded track is frozen
    alone), so each eps's tracks are bitwise those of a pass of their own.
    For each eps, as it is requested, yields ``(diff, exploded)``: the
    scaled difference ``(X_t(x + eps y) - X_t(x)) / eps``, shape
    ``(n_omega, n_x, n_steps + 1, d)``, and the ``(n_omega, n_x)`` mask of
    the tracks exploded in either flow.
    """
    d = sys.dim
    xy0s = np.asarray(xy0s, dtype=np.float64)
    if xy0s.ndim != 2 or xy0s.shape[1] != 2 * d:
        raise ValueError("xy0s must have shape (n, 2d)")
    if any(eps <= 0 for eps in eps_sequence):
        raise ValueError("eps must be positive")
    n, x0, y0 = len(xy0s), xy0s[:, :d], xy0s[:, d:]
    flow = integrate(sys.base, driver,
                     np.concatenate([x0] + [x0 + eps * y0 for eps in eps_sequence]), T)
    base, base_exploded = flow.states[:, :n], flow.exploded[:, :n]

    def scaled_difference(i, eps):
        pert = slice((i + 1) * n, (i + 2) * n)
        return (flow.states[:, pert] - base) / eps, base_exploded | flow.exploded[:, pert]

    return map(scaled_difference, range(len(eps_sequence)), eps_sequence)


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
    the joint (omega, (x, y)) ensemble, with its standard error.  The base
    flow from x and from every x + eps y is one pass (``difference_flows``).
    An eps with fewer than two tracks valid in both flows raises a ``ValueError``.
    """
    e_deriv = integrate(sys.lifted, driver, xy0s, T)
    d = sys.dim
    rows = []
    for eps, (diff, exploded) in zip(eps_sequence,
                                     difference_flows(sys, eps_sequence, driver, xy0s, T)):
        gap = np.sqrt(sq_norm(diff - e_deriv.states[..., d:])).max(axis=-1)
        ok = ~exploded & e_deriv.valid()
        if ok.sum() < 2:
            raise ValueError(f"weak-derivative convergence: at eps = {eps:g} {ok.sum()} "
                             "track(s) valid in both the difference and the derivative "
                             "flow, fewer than the two a standard error needs")
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
    the lifted field's ``second_block`` and of each ``difference_block``, on
    one shared sample of mu2.  The base is evaluated once at x and once per
    eps at x + eps y.  Also verifies the pointwise dominations
    |drift2-bar| <= |grad b(x)| and |sigma2-bar| <= |grad sigma(x)| on the
    sample, with the base Jacobians at x.  ``m2`` is the doubled-space measure (its decay
    exponent must exceed 2 alpha1 + q + d/2 for the base measure exponent
    alpha1).
    """
    d = sys.dim
    if m2.dim != 2 * d:
        raise ValueError("m2 must live on the doubled space")
    pts = m2.sample(rng, budget)
    mass2 = m2.total_mass()

    def h4_bundle(second: FieldEval):
        vals, bbar, sbar = exp_integrand(pts, second, p0)
        return MonteCarloEstimate.of(vals, mass2), bbar, sbar

    lifted, bbar, sbar = h4_bundle(sys.lifted.second_block(pts))
    base = sys.base.evaluate(pts[:, :d], jac=True)
    base_grad_b = np.sqrt(np.einsum("...ij,...ij->...", base.drift_jac, base.drift_jac))
    base_grad_s = np.sqrt(np.einsum("...ikj,...ikj->...", base.sigma_jac, base.sigma_jac))
    tol = 1e-9
    drift_frac = float((bbar <= base_grad_b + tol).mean())
    sigma_frac = float((sbar <= base_grad_s + tol).mean())

    estimates = {float(eps): h4_bundle(sys.difference_block(pts, eps, base))[0]
                 for eps in eps_set}
    eps_integrals = {eps: est.value for eps, est in estimates.items()}
    vals = np.array(list(eps_integrals.values()))
    eps_ratio = float(vals.max() / vals.min()) if vals.min() > 0 else np.inf
    any_dominated = any(est.dominated() for est in [lifted, *estimates.values()])
    passed = bool(
        eps_ratio < _EPS_RATIO_BOUND
        and drift_frac == 1.0
        and sigma_frac == 1.0
        and not any_dominated
        and np.isfinite(lifted.value)
    )
    return HypothesisReport(
        lifted_integral=lifted.value,
        eps_integrals=eps_integrals,
        eps_ratio=eps_ratio,
        drift_domination_fraction=drift_frac,
        sigma_domination_fraction=sigma_frac,
        n_samples=budget,
        any_dominated=any_dominated,
        passed=passed,
    )
