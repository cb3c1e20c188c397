"""Log-type stability functional between two flows and the experiments
built on it: comparison against the a-priori bounds, Cauchy convergence
across smoothing levels, and the empirical uniqueness check.

The functional is the level-set-restricted expectation

    E integral_{G_R and G~_R} log(|X - X~|^2_{sup,T} / delta^2 + 1) d mu

computed under a shared Brownian driver.  Bounds are assembled from the
theory's right-hand sides with every inexplicit multiplicative constant set
to 1 and the measured ratio reported instead; Lebesgue norms over balls are
evaluated by Halton quasi-Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .catalog import Family
from .coefficients import CoefficientField, StructuredCoefficient, mollify
from .density import sup_lp_density_norm
from .flow import BrownianDriver, FlowEnsemble, check_coupled, convergence_metric, integrate
from .measure import ReferenceMeasure, magnitude, sq_norm

__all__ = [
    "stability_functional",
    "stability_bound",
    "cauchy_experiment",
    "StabilityValue",
    "StabilityBound",
    "CauchyRow",
    "CauchyExperiment",
]


# ---------------------------------------------------------------------------
# functional and bound
# ---------------------------------------------------------------------------


@dataclass
class StabilityValue:
    value: float              # unnormalized-mu expectation
    restricted_mass: float    # (P x mu) mass of G_R and G~_R
    support_fraction: float
    zero_support: bool


def stability_functional(
    e1: FlowEnsemble,
    e2: FlowEnsemble,
    radius: float,
    delta: float,
    m: ReferenceMeasure,
) -> StabilityValue:
    """Level-set-restricted log distance between two coupled flows
    (``check_coupled``; else a ``ValueError``)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    check_coupled(e1, e2)
    inside = (
        (e1.sup_norm() <= radius)
        & (e2.sup_norm() <= radius)
        & e1.valid()
        & e2.valid()
    )
    mass = m.total_mass()
    frac = float(inside.mean())
    if frac == 0.0:
        return StabilityValue(0.0, 0.0, 0.0, True)
    diff = e1.diff_sup(e2)[inside]
    vals = np.log1p(diff**2 / delta**2)
    return StabilityValue(
        value=mass * float(vals.sum() / inside.size),
        restricted_mass=mass * frac,
        support_fraction=frac,
        zero_support=False,
    )


def _halton(n: int, dim: int):
    """The first n points of the unscrambled Halton sequence in [0, 1)^dim,
    starting at the origin (index 0): coordinate i is the radical inverse
    of the index in the i-th prime base, its digits summed from the lowest,
    which is ``scipy.stats.qmc.Halton(dim, scramble=False).random(n)`` bit
    for bit."""
    bases = []
    p = 2
    while len(bases) < dim:
        if all(p % b for b in bases):
            bases.append(p)
        p += 1
    out = np.zeros((n, dim))
    for col, base in enumerate(bases):
        i, f = np.arange(n), 1.0
        while i.any():
            f /= base
            out[:, col] += f * (i % base)
            i //= base
    return out


def _halton_ball(radius: float, dim: int, budget: int):
    """Halton points on the cube around B(0, radius), and the L^q norm over
    the ball of values at those points (their ``magnitude`` over trailing
    axes).  Unscrambled: one draw serves every norm on the ball.
    """
    pts = (2.0 * _halton(budget, dim) - 1.0) * radius
    inside = np.sqrt(sq_norm(pts)) <= radius

    def norm(vals, q: float) -> float:
        cube_vol = (2.0 * radius) ** dim
        integral = cube_vol * float(np.mean(magnitude(vals, 1) ** q * inside))
        return integral ** (1.0 / q)

    return pts, norm


@dataclass
class StabilityBound:
    value: float
    gradient_terms: float
    difference_terms: float
    sigma_diff_norm: float
    drift_diff_norm: float
    lambda_pt: float
    partial_form: bool
    gradient_ball_radius: float


def stability_bound(f1: CoefficientField, f2: CoefficientField, radius: float, q: float,
                    budget: int):
    """The stability right-hand side with unit proof constants.

    For plain fields the gradient terms use the full Jacobians over B(3R);
    for a structured pair (sharing the first block) the partial form is
    used: second-block gradients in the second variables only, over B(4R),
    and second-block differences over B(R).  The inexplicit constants are
    set to 1 and reported through the assembled components.  The Halton
    ball norms take three evaluations on two draws of ``budget`` points:
    ``f1.evaluate(jac=True)`` on the gradient ball, ``f1.evaluate`` and
    ``f2.evaluate`` on B(R).

    Returns ``(sd, bd, bound)``: the sigma and drift difference norms and
    ``bound(delta, lambda_pt) -> StabilityBound``, since delta enters only
    the assembly.
    """
    structured = isinstance(f1, StructuredCoefficient) and isinstance(
        f2, StructuredCoefficient
    )
    r = f1.n1 if structured else 0  # second-block rows and variables only
    grad_radius = (4.0 if structured else 3.0) * radius
    pts, norm = _halton_ball(grad_radius, f1.dim_state, budget)
    ev = f1.evaluate(pts, jac=True)
    nb = norm(ev.drift_jac[..., r:, r:], q)
    ns = norm(ev.sigma_jac[..., r:, :, r:], 2 * q)
    pts, norm = _halton_ball(radius, f1.dim_state, budget)
    e1, e2 = f1.evaluate(pts), f2.evaluate(pts)
    sd = norm(e1.sigma[..., r:, :] - e2.sigma[..., r:, :], 2 * q)
    bd = norm(e1.drift[..., r:] - e2.drift[..., r:], q)
    grad_terms = nb + ns + ns**2

    def bound(delta: float, lambda_pt: float) -> StabilityBound:
        diff_terms = sd**2 / delta**2 + (sd + bd) / delta
        return StabilityBound(
            value=lambda_pt * (grad_terms + diff_terms),
            gradient_terms=grad_terms,
            difference_terms=diff_terms,
            sigma_diff_norm=sd,
            drift_diff_norm=bd,
            lambda_pt=lambda_pt,
            partial_form=structured,
            gradient_ball_radius=grad_radius,
        )

    return sd, bd, bound


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _pick_radius(ensembles, candidates=(2.0, 5.0, 10.0, 20.0), target=0.05):
    sup = np.maximum.reduce([e.sup_norm() for e in ensembles])
    for r in candidates:
        if float((sup > r).mean()) < target:
            return float(r)
    return float(np.quantile(sup, 1.0 - target) * 1.05)


_UNIQUENESS_SHAPE = 3.0  # bump shape of the second smoothing scheme


@dataclass
class CauchyRow:
    k: float
    l: float
    delta_kl: float
    lhs: float
    rhs: float
    metric: float
    support_fraction: float  # share of tracks in both level sets (the functional's)


@dataclass
class CauchyExperiment:
    rows: list
    radius: float
    lambda_pt: float
    uniqueness_metric: float  # the last level's two kernels: clipped convergence metric

    def metrics(self) -> list:
        return [r.metric for r in self.rows]


def cauchy_experiment(
    family: Family,
    levels: Sequence[float],
    driver: BrownianDriver,
    x0s,
    T: float,
    norm_budget: int,
) -> CauchyExperiment:
    """Pathwise Cauchy table across consecutive smoothing levels.

    Each level smooths the family with ``family.mollifier``.  For each
    consecutive pair (k, l) of levels, computes the coefficient gap
    delta_kl (ball L^{2q}/L^q norms of the differences), the stability
    functional at delta = delta_kl, the unit-constant bound, and the
    clipped convergence metric.  The gap is the bound's own difference
    norms, so a pair costs the bound's three evaluations and no more.  For
    a structured family these are second-block norms; the first block is
    shared across levels, so its difference is zero.  Convergence of the
    scheme shows as the metric column decreasing in k.  The bound's
    ``lambda_pt`` is the sup L^p norm of the last level's tracked density.

    ``uniqueness_metric`` compares the limits of two smoothing schemes: the
    clipped convergence metric between the last level's flow and the flow
    at the same level, quadrature, driver, starts and horizon under a second
    admissible kernel, the bump of shape ``_UNIQUENESS_SHAPE`` (sharper than
    the Cauchy kernel's).  A value below the final Cauchy gap evidences a
    common limit, i.e. uniqueness of the generalized flow.

    Two flows are integrated: the last level alone, with its density, and
    one stack (``mollify`` of several specs) of the other levels and of the
    last level under the uniqueness kernel.  Each stacked flow is bitwise
    the flow its spec gives alone.
    """
    m, q = family.measure, family.q
    specs = [family.mollifier(k) for k in levels]
    stack = mollify(family.field, specs[:-1] + [replace(specs[-1], shape=_UNIQUENESS_SHAPE)])
    *ensembles, second = integrate(stack, driver, x0s, T)
    # one level's density suffices for the reported bound: the density norms
    # are level-uniform by construction (and that is asserted elsewhere)
    ensembles.append(integrate(mollify(family.field, specs[-1]), driver, x0s, T, density=m))
    radius = _pick_radius(ensembles)
    lambda_pt = sup_lp_density_norm(ensembles[-1].density, family.p).value
    rows, by_level = [], list(zip(levels, ensembles))
    for (k, ek), (l, el) in zip(by_level, by_level[1:]):
        sd, bd, bound = stability_bound(ek.field, el.field, radius, q, norm_budget)
        delta_kl = sd + bd
        if delta_kl <= 0:
            delta_kl = 1e-12
        lhs = stability_functional(ek, el, radius, delta_kl, m)
        rhs = bound(delta_kl, lambda_pt)
        rows.append(
            CauchyRow(
                k=k, l=l, delta_kl=delta_kl,
                lhs=lhs.value, rhs=rhs.value,
                metric=convergence_metric(ek, el),
                support_fraction=lhs.support_fraction,
            )
        )
    return CauchyExperiment(rows=rows, radius=radius, lambda_pt=float(lambda_pt),
                            uniqueness_metric=convergence_metric(ensembles[-1], second))
