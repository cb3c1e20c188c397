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
    block_condition_integrals,
    condition_integrals,
    density_terms,
    mollify,
)
from .flow import BrownianDriver, DensityTrack, FlowEnsemble, integrate
from .measure import ReferenceMeasure

_RHS_TIME_PROBES = 9  # probe times of the sup over [0, T] in density_bound_rhs

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


@dataclass
class NormEstimate:
    value: float
    se: float
    max_share: float

    def dominated(self, threshold: float = 0.5) -> bool:
        return self.max_share > threshold


def _require_valid(valid: NDArray) -> None:
    if not valid.any():
        raise ValueError("density track has no valid sample")


def _clustered_mean(samples_2d: NDArray, valid: NDArray):
    """Mean with a standard error that respects shared-driver correlation.

    Samples sharing a Brownian path are dependent, so the error is taken
    across per-path means rather than pretending all (omega, x) samples are
    independent.  A track without a valid sample is rejected.
    """
    _require_valid(valid)
    flat = samples_2d[valid]
    mean = float(flat.mean())
    counts = valid.sum(axis=1)
    rows = counts > 0
    if rows.sum() > 1:
        omega_means = np.array([
            samples_2d[j][valid[j]].mean() for j in np.nonzero(rows)[0]
        ])
        se = float(omega_means.std(ddof=1) / np.sqrt(omega_means.size))
    else:
        se = float(flat.std(ddof=1) / np.sqrt(flat.size)) if flat.size > 1 else np.inf
    total = flat.sum()
    max_share = float(flat.max() / total) if total > 0 else 0.0
    return mean, se, max_share


def lp_density_norm(track: DensityTrack, p: float, t: Optional[float] = None) -> NormEstimate:
    """L^p(P x mu) norm of the push-forward density at time t (default: final).

    Uses the pullback identity: the p-th power of the norm equals the
    (P x mu)-integral of rho~^(1-p); no inverse flow is computed.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    idx = track.time_index(t) if t is not None else len(track.times) - 1
    samples = np.exp((1.0 - p) * track.log_density()[:, :, idx])
    mean, se, max_share = _clustered_mean(samples, track.valid)
    value = (track.total_mass * mean) ** (1.0 / p)
    # delta method for the norm's standard error
    se_value = value / (p * mean) * se if mean > 0 else np.inf
    return NormEstimate(value, se_value, max_share)


def sup_lp_density_norm(
    track: DensityTrack, p: float, t_max: Optional[float] = None
) -> NormEstimate:
    """sup over grid times <= t_max of the L^p(P x mu) density norm."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    _require_valid(track.valid)
    idx = track.time_index(t_max) if t_max is not None else len(track.times) - 1
    samples = np.exp((1.0 - p) * track.log_density()[:, :, : idx + 1])
    means = samples[track.valid].mean(axis=0)
    j = int(np.argmax(means))
    mean, se, max_share = _clustered_mean(samples[:, :, j], track.valid)
    value = (track.total_mass * mean) ** (1.0 / p)
    se_value = value / (p * mean) * se if mean > 0 else np.inf
    return NormEstimate(value, se_value, max_share)


def entropy(track: DensityTrack, t: Optional[float] = None) -> NormEstimate:
    """E int rho_t |log rho_t| d mu via the pullback E|log rho~_t|."""
    idx = track.time_index(t) if t is not None else len(track.times) - 1
    samples = np.abs(track.log_density()[:, :, idx])
    mean, se, max_share = _clustered_mean(samples, track.valid)
    return NormEstimate(track.total_mass * mean, track.total_mass * se, max_share)


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
    g = p**3 * np.sum(lam1**2, axis=-1) - p**2 * lam2
    g = g[np.isfinite(g)]
    sup_val, sup_share, sup_t = -np.inf, 0.0, 0.0
    unstable = False
    for t in np.linspace(0.0, T, _RHS_TIME_PROBES):
        with np.errstate(over="ignore"):  # inf feeds the divergence flag
            vals = np.exp(t * g)
        mean = vals.mean()
        if not np.isfinite(mean):
            unstable = True
            sup_val, sup_share, sup_t = np.inf, 1.0, float(t)
            continue
        half = vals[: vals.size // 2].mean()
        if mean > 0 and abs(mean - half) > 0.2 * mean:
            unstable = True
        share = float(vals.max() / vals.sum()) if vals.sum() > 0 else 0.0
        if mass * mean > sup_val:
            sup_val, sup_share, sup_t = mass * mean, share, float(t)
    value = mass ** (1.0 / (p + 1.0)) * sup_val ** (1.0 / (p * (p + 1.0)))
    divergent = sup_share > 0.1 or unstable or not np.isfinite(value)
    return DensityBound(float(value), bool(divergent), sup_share, sup_t)


def select_t0(p0: float, p: float, product_form: bool = False) -> float:
    """Horizon on which the level-uniform density estimate is guaranteed.

    The proof needs ``C_{2,p} T0 <= p0`` where ``C_{2,p} = 2 p^3 C0``
    (plain) or ``4 p^3 C0`` (blockwise product form), with C0 the kernel
    domination constant.  C0 is not pinned down by the theory; it is set to
    1 here and the fitted ratios are reported with each experiment.
    """
    c2p = (4.0 if product_form else 2.0) * p**3
    return min(1.0, p0 / c2p)


@dataclass
class UniformDensityReport:
    levels: list
    norms: list                  # measured sup_{t<=T0} L^p norms per level
    rhs: float                   # level-free bound, proof constants set to 1
    rhs_divergent: bool
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
    t0: Optional[float] = None,
    budget: int = 20000,
    rng: Optional[np.random.Generator] = None,
) -> UniformDensityReport:
    """Level-uniform density bound across a mollification family.

    Simulates the field smoothed by ``family.mollifier`` at each level
    under a shared driver, measures ``sup_{t<=T0} |rho^k_t|_{L^p}`` and
    compares every level against one level-free right-hand side built from
    the rough field: the single exponential integral for plain fields, or
    the product of the two blockwise integrals for structured fields (which
    never differentiates the second block in the first variables).  All
    explicit proof factors are kept (mass prefactor, the 3^alpha
    weight-mollification factor, the p-power exponent multipliers, the
    second-block measure mass); only the kernel domination constant is set
    to 1, with the fitted ratios reported.  The default horizon is the
    guaranteed one, p0 / C_{2,p}.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    field = family.field
    m = family.measure
    structured = isinstance(field, StructuredCoefficient)
    t0 = t0 if t0 is not None else select_t0(family.p0, p, product_form=structured)
    norms = []
    for k in levels:
        smooth = mollify(field, family.mollifier(k))
        track = integrate(smooth, driver, x0s, t0, density=m).density
        norms.append(sup_lp_density_norm(track, p).value)
    mass = m.total_mass()
    # exponent multiplier C_{2,p} t0 with the kernel constant set to 1
    if structured:
        mult = 4.0 * p**3 * t0
        rep1, rep2 = block_condition_integrals(
            field, m, family.measure1, mult, budget, rng
        )
        m1 = family.measure1
        mu2_mass = ReferenceMeasure(
            field.dim_state - field.n1, m.alpha - m1.alpha
        ).total_mass()
        explicit = mu2_mass * 3.0**m1.alpha * 3.0**m.alpha
        rhs = mass ** (1.0 / (p + 1.0)) * (
            explicit * max(rep1.value, 0.0) * max(rep2.value, 0.0)
        ) ** (1.0 / (2.0 * p * (p + 1.0)))
        divergent = rep1.divergent or rep2.divergent
    else:
        mult = 2.0 * p**3 * t0
        rep = condition_integrals(field, m, mult, budget, rng)
        rhs = mass ** (1.0 / (p + 1.0)) * (
            3.0**m.alpha * max(rep.value, 0.0)
        ) ** (1.0 / (p * (p + 1.0)))
        divergent = rep.divergent
    fitted = [n / rhs for n in norms]
    passed = bool(np.isfinite(rhs) and not divergent and all(n <= rhs for n in norms))
    return UniformDensityReport(
        levels=list(levels),
        norms=norms,
        rhs=float(rhs),
        rhs_divergent=bool(divergent),
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
    n_probe: int = 33,
    omega_index: int = 0,
) -> KdeReport:
    """Independent kernel-density estimate of the push-forward density.

    For one Brownian path, the terminal x-samples are smoothed with a
    Gaussian kernel of *absolute* bandwidth (the reference measures are
    heavy-tailed, so sample-variance-relative bandwidths are unreliable),
    then divided by the normalized reference weight to give a density
    relative to mu on a probe grid.  When the ensemble carries its density
    (``integrate(..., density=m)``), the distribution of KDE values at the
    sample points is compared with the pathwise values 1/rho~ by a relative
    quantile-quantile distance.
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
    if n == 1:
        probes = np.linspace(lo[0], hi[0], n_probe)[:, None]
    else:
        side = max(3, int(round(n_probe ** (1.0 / n))))
        axes = [np.linspace(lo[j], hi[j], side) for j in range(n)]
        grids = np.meshgrid(*axes, indexing="ij")
        probes = np.stack([g.ravel() for g in grids], axis=-1)
    ratio = mass * kde(probes) / m.weight(probes)
    qq = None
    if ensemble.density is not None:
        pathwise = 1.0 / ensemble.density.density(t)[omega_index]
        at_samples = mass * kde(pts) / m.weight(pts)
        a = np.sort(at_samples)
        b = np.sort(pathwise)
        qq = float(np.mean(np.abs(a - b)) / max(np.mean(np.abs(b)), 1e-300))
    return KdeReport(probe_points=probes, ratio=ratio, qq_distance=qq)
