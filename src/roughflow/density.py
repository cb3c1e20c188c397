"""Pathwise push-forward density tracking and its theoretical bounds.

Along each trajectory ``integrate(..., density=m)`` accumulates the log of
the inverse-flow density (a ``DensityTrack``) as

    log rho~_t = sum [<lam1(X_i), dB_i>
                      + 1/2 sum_kl G_kl(X_i) (dB_i^k dB_i^l - delta_kl dt)]
                 + sum lam2(X_i) dt

with left-point evaluation, matching the Ito convention of the integrator;
``coefficients.density_terms`` gives the noise term lam1, the drift term
lam2 and G (and ``density_bound_rhs`` reads lam1 and lam2 from it).
The second stochastic term is the Ito-Taylor (Milstein) correction, with
``G_kl = <sigma^{.,k}, grad lam1^l>`` (Kloeden-Platen 1992, 10.3);
it lifts the stochastic sum from strong order 1/2 to strong order 1 where
G is symmetric (m = 1, or constant sigma).  For m >= 2 with an asymmetric
G the Levy-area term is omitted and the order stays 1/2.
The push-forward density rho_t itself is never materialized through flow
inversion; every functional uses exact pullback identities instead:

* ``|rho_t|_{L^p(P x mu)}^p = E_{P x mu}[rho~_t^(1-p)]``
* ``E int rho_t |log rho_t| d mu = E_{P x mu} |log rho~_t|``

All estimators report values for the unnormalized measure (sample means are
rescaled by the total mass).  Moment estimates of exponentials are
fat-tailed, so each estimate carries the largest single-sample share of its
mass as a heavy-tail diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .catalog import Family
from .coefficients import (
    CoefficientField,
    StructuredCoefficient,
    condition_integrals,
    density_terms,
    mollify,
)
from .flow import BrownianDriver, DensityTrack, FlowEnsemble, integrate
from .measure import (
    MonteCarloEstimate, ReferenceMeasure, grid_points, largest_share, sq_norm,
)

_RHS_TIME_PROBES = 9  # probe times of the sup over [0, T] in density_bound_rhs
_KDE_PROBES = 33      # probe points of kde_crosscheck (a side of 33^(1/n) per axis)

__all__ = [
    "DensityTrack",
    "lp_density_norm",
    "sup_lp_density_norm",
    "density_bound_rhs",
    "uniform_density_bound",
    "entropy",
    "kde_crosscheck",
    "select_t0",
]


# ---------------------------------------------------------------------------
# L^p norms, entropy
# ---------------------------------------------------------------------------


def _require_valid(valid: NDArray) -> None:
    if not valid.any():
        raise ValueError("density track has no valid sample")


def _log_density(track: DensityTrack) -> NDArray:
    """The track's log density, 0 on its invalid tracks: the estimators
    leave those out, and an exploded track's value may overflow ``exp``."""
    return np.where(track.valid[..., None], track.log_density(), 0.0)


def _estimate(track: DensityTrack, samples: NDArray, p: Optional[float] = None
              ) -> MonteCarloEstimate:
    """The (P x mu) integral of ``samples`` (n_omega, n_x) over the track's
    valid samples or, given ``p``, its p-th root (an L^p norm, with the
    delta-method standard error).

    Samples sharing a Brownian path are dependent, so the error is taken
    across per-path means rather than pretending all (omega, x) samples are
    independent.  ``n_samples`` counts the tracks and ``n_nonfinite`` the
    invalid ones; a track without a valid sample is rejected.
    """
    valid = track.valid
    _require_valid(valid)
    flat = samples[valid]
    mean = float(flat.mean())
    rows = valid.sum(axis=1) > 0
    if rows.sum() > 1:
        omega_means = np.array([samples[j][valid[j]].mean() for j in np.nonzero(rows)[0]])
        se = float(omega_means.std(ddof=1) / np.sqrt(omega_means.size))
    else:
        se = float(flat.std(ddof=1) / np.sqrt(flat.size)) if flat.size > 1 else np.inf
    max_share = largest_share(flat)
    if p is None:
        value, se = track.total_mass * mean, track.total_mass * se
    else:
        value = (track.total_mass * mean) ** (1.0 / p)
        se = value / (p * mean) * se if mean > 0 else np.inf
    return MonteCarloEstimate(value, se, int((~valid).sum()), valid.size, max_share)


def lp_density_norm(track: DensityTrack, p: float, t: Optional[float] = None
                    ) -> MonteCarloEstimate:
    """L^p(P x mu) norm of the push-forward density at time t (default: final).

    Uses the pullback identity: the p-th power of the norm equals the
    (P x mu)-integral of rho~^(1-p); no inverse flow is computed.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    logr = _log_density(track)[:, :, -1 if t is None else track.time_index(t)]
    return _estimate(track, np.exp((1.0 - p) * logr), p)


def sup_lp_density_norm(track: DensityTrack, p: float) -> MonteCarloEstimate:
    """sup over the track's grid times of the L^p(P x mu) density norm."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    _require_valid(track.valid)
    samples = np.exp((1.0 - p) * _log_density(track))
    j = int(np.argmax(samples[track.valid].mean(axis=0)))
    return _estimate(track, samples[:, :, j], p)


def entropy(track: DensityTrack, t: Optional[float] = None) -> MonteCarloEstimate:
    """E int rho_t |log rho_t| d mu via the pullback E|log rho~_t|."""
    logr = _log_density(track)[:, :, -1 if t is None else track.time_index(t)]
    return _estimate(track, np.abs(logr))


# ---------------------------------------------------------------------------
# theoretical bounds
# ---------------------------------------------------------------------------


@dataclass
class DensityBound:
    value: float
    divergent: bool
    max_share: float
    sup_time: float


def density_bound_rhs(
    field: CoefficientField,
    m: ReferenceMeasure,
    p: float,
    T: float,
    budget: int,
    rng: np.random.Generator,
) -> DensityBound:
    """Monte Carlo value of the smooth-field density-norm bound.

    ``mass^(1/(p+1)) (sup_{t<=T} integral exp(p^3 t |lam1|^2
    - p^2 t lam2) d mu)^(1/(p(p+1)))`` (``density_terms``), with the sup over
    ``_RHS_TIME_PROBES`` equally spaced probe times in [0, T].  A heavy-tail
    flag marks the bound as untrustworthy (vacuous) when a single sample
    dominates or the estimate does not stabilize under doubling of the
    budget.
    """
    mass = m.total_mass()
    pts = m.sample(rng, budget)
    lam1, lam2, _ = density_terms(field, m, pts)
    g = p**3 * sq_norm(lam1) - p**2 * lam2
    g = g[np.isfinite(g)]
    sup_val, sup_share, sup_t = -np.inf, 0.0, 0.0
    unstable = False
    for t in np.linspace(0.0, T, _RHS_TIME_PROBES):
        with np.errstate(over="ignore"):  # inf feeds the divergence flag
            vals = np.exp(t * g)
        est = MonteCarloEstimate.of(vals, mass)
        if est.n_nonfinite or not np.isfinite(est.value):
            unstable = True
            sup_val, sup_share, sup_t = np.inf, 1.0, float(t)
            continue
        half = MonteCarloEstimate.of(vals[: vals.size // 2], mass).value
        if est.value > 0 and abs(est.value - half) > 0.2 * est.value:
            unstable = True
        if est.value > sup_val:
            sup_val, sup_share, sup_t = est.value, est.max_share, float(t)
    value = mass ** (1.0 / (p + 1.0)) * sup_val ** (1.0 / (p * (p + 1.0)))
    divergent = sup_share > 0.1 or unstable or not np.isfinite(value)
    return DensityBound(float(value), bool(divergent), sup_share, sup_t)


def _c2p(p: float, product_form: bool) -> float:
    """``C_{2,p} = 2 p^3 C0`` (plain) or ``4 p^3 C0`` (product form), C0 = 1."""
    return (4.0 if product_form else 2.0) * p**3


def select_t0(p0: float, p: float, product_form: bool = False) -> float:
    """Horizon on which the level-uniform density estimate is guaranteed.

    The proof needs ``C_{2,p} T0 <= p0`` (``_c2p``), with C0 the kernel
    domination constant.  C0 is not pinned down by the theory; it is set to
    1 here and the fitted ratios are reported with each experiment.
    """
    return min(1.0, p0 / _c2p(p, product_form))


@dataclass
class UniformDensityReport:
    levels: list
    norms: list                  # measured sup_{t<=T0} L^p norms per level
    rhs: float                   # level-free bound, proof constants set to 1
    rhs_divergent: bool
    estimates: list              # MonteCarloEstimate per condition integral (one per block)
    fitted_constants: list       # norm / rhs per level
    passed: bool
    t0: float
    product_form: bool


def uniform_density_bound(
    family: Family,
    levels: Sequence[float],
    driver: BrownianDriver,
    x0s,
    p: float,
    budget: int,
    rng: np.random.Generator,
) -> UniformDensityReport:
    """Level-uniform density bound across a mollification family.

    Simulates the field smoothed by ``family.mollifier`` at every level as
    one stacked flow (``mollify`` of the levels' specs) under the shared
    driver, each level with its own density, bitwise as that level's flow
    alone; measures ``sup_{t<=T0} |rho^k_t|_{L^p}`` per level and
    compares every level against one level-free right-hand side built from
    the rough field: the single exponential integral for plain fields, or
    the product of the two blockwise integrals for structured fields (which
    never differentiates the second block in the first variables).  All
    explicit proof factors are kept (mass prefactor, the 3^alpha
    weight-mollification factor, the p-power exponent multipliers, the
    second-block measure mass); only the kernel domination constant is set
    to 1, with the fitted ratios reported.  The horizon is the guaranteed
    one, ``select_t0``: p0 / C_{2,p}.
    """
    field = family.field
    m = family.measure
    structured = isinstance(field, StructuredCoefficient)
    t0 = select_t0(family.p0, p, product_form=structured)
    stack = mollify(field, [family.mollifier(k) for k in levels])
    norms = [sup_lp_density_norm(ens.density, p).value
             for ens in integrate(stack, driver, x0s, t0, density=m)]
    mass = m.total_mass()
    mult = _c2p(p, structured) * t0  # exponent multiplier C_{2,p} t0
    if structured:
        m1 = family.measure1
        est1, div1 = condition_integrals(m1, field.first_block, mult, budget, rng)
        est2, div2 = condition_integrals(m, field.second_block, mult, budget, rng)
        mu2_mass = ReferenceMeasure(
            field.dim_state - field.n1, m.alpha - m1.alpha
        ).total_mass()
        explicit = mu2_mass * 3.0**m1.alpha * 3.0**m.alpha
        rhs = mass ** (1.0 / (p + 1.0)) * (
            explicit * max(est1.value, 0.0) * max(est2.value, 0.0)
        ) ** (1.0 / (2.0 * p * (p + 1.0)))
        estimates, divergent = [est1, est2], div1 or div2
    else:
        est, divergent = condition_integrals(
            m, lambda x: field.evaluate(x, jac=True), mult, budget, rng
        )
        rhs = mass ** (1.0 / (p + 1.0)) * (
            3.0**m.alpha * max(est.value, 0.0)
        ) ** (1.0 / (p * (p + 1.0)))
        estimates = [est]
    fitted = [n / rhs for n in norms]
    passed = bool(np.isfinite(rhs) and not divergent and all(n <= rhs for n in norms))
    return UniformDensityReport(
        levels=list(levels),
        norms=norms,
        rhs=float(rhs),
        rhs_divergent=bool(divergent),
        estimates=estimates,
        fitted_constants=fitted,
        passed=passed,
        t0=t0,
        product_form=structured,
    )


# ---------------------------------------------------------------------------
# kernel-density cross-check
# ---------------------------------------------------------------------------


@dataclass
class KdeReport:
    probe_points: NDArray[np.float64]
    ratio: NDArray[np.float64]        # KDE estimate of rho_t on the probes
    qq_distance: Optional[float]      # vs pathwise 1/rho~ values, pooled


def kde_crosscheck(
    ensemble: FlowEnsemble,
    m: ReferenceMeasure,
    t: float,
    bandwidth: float,
    omega_index: int = 0,
) -> KdeReport:
    """Independent kernel-density estimate of the push-forward density.

    For one Brownian path, the terminal x-samples are smoothed with a
    Gaussian kernel of *absolute* bandwidth (the reference measures are
    heavy-tailed, so sample-variance-relative bandwidths are unreliable),
    then divided by the normalized reference weight to give a density
    relative to mu on a probe grid of about ``_KDE_PROBES`` points spanning
    the 10-90% sample quantiles of each axis.  When the ensemble carries
    its density (``integrate(..., density=m)``), the distribution of KDE
    values at the sample points is compared with the pathwise values 1/rho~
    by a relative quantile-quantile distance.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    pts = ensemble.state_at(t)[omega_index]              # (n_x, n)
    n = pts.shape[-1]

    def kde(query):  # (k, n) -> (k,)
        d2 = np.sum((query[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        norm = (2.0 * np.pi * bandwidth**2) ** (n / 2.0)
        return np.exp(-d2 / (2.0 * bandwidth**2)).mean(axis=1) / norm

    mass = m.total_mass()
    lo = np.quantile(pts, 0.1, axis=0)
    hi = np.quantile(pts, 0.9, axis=0)
    side = max(3, int(round(_KDE_PROBES ** (1.0 / n))))
    probes = grid_points([np.linspace(lo[j], hi[j], side) for j in range(n)]).reshape(-1, n)
    ratio = mass * kde(probes) / m.weight(probes)
    qq = None
    if ensemble.density is not None:
        pathwise = 1.0 / ensemble.density.density(t)[omega_index]
        at_samples = mass * kde(pts) / m.weight(pts)
        a = np.sort(at_samples)
        b = np.sort(pathwise)
        qq = float(np.mean(np.abs(a - b)) / max(np.mean(np.abs(b)), 1e-300))
    return KdeReport(probe_points=probes, ratio=ratio, qq_distance=qq)
