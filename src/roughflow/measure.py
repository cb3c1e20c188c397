"""Polynomial-weight reference measures on R^n.

The measure is ``d mu = (1 + |x|^2)^(-alpha) dx`` with ``alpha > n/2`` so
that the total mass is finite.  The module provides the closed-form
calculus of the log-weight, exact total mass, i.i.d. sampling via a
spherical Student-t construction, and Monte Carlo integration against the
(unnormalized) measure.

Conventions: ``sample`` draws from the *normalized* measure; every
integral estimator (``expect``, ``lp_norm``) reports values for the
*unnormalized* measure, i.e. it rescales sample means by ``total_mass``.

The module is also the one home of the array conventions every layer
shares: ``as_points`` (batches of points on R^dim), ``grid_points``
(tensor grids in ``ij`` order), ``sq_norm`` (the squared Euclidean norm
over the last axis) and ``magnitude`` (the Euclidean norm over value axes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import special

__all__ = [
    "InfiniteMassError",
    "MonteCarloEstimate",
    "ReferenceMeasure",
    "as_points",
    "grid_points",
    "magnitude",
    "sq_norm",
]


def as_points(x, dim: int, owner: str) -> NDArray[np.float64]:
    """``x`` as float points of shape (..., dim): for dim = 1 a bare scalar,
    or an array whose last axis is not 1, gains a trailing axis; any other
    last axis than dim raises a ValueError naming ``owner``."""
    pts = np.asarray(x, dtype=np.float64)
    if dim == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
        pts = pts[..., np.newaxis]
    if pts.shape[-1] != dim:
        raise ValueError(f"points have dimension {pts.shape[-1]}, the {owner} lives on R^{dim}")
    return pts


def grid_points(axes) -> NDArray[np.float64]:
    """The points of the tensor grid of ``axes`` in ``ij`` order, shape
    ``(len(axes[0]), ..., len(axes[-1]), len(axes))``."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def sq_norm(v) -> NDArray[np.float64]:
    """Squared Euclidean norm over the last axis, ``sum_j v[..., j]^2``,
    summed one component at a time.

    For fewer than 8 components (numpy's pairwise summation starts at 8)
    it is bitwise ``np.sum(v * v, axis=-1)``, without the overhead of a
    reduction over a short trailing axis.
    """
    v = np.asarray(v, dtype=np.float64)
    out = v[..., 0] * v[..., 0]
    for j in range(1, v.shape[-1]):
        out += v[..., j] * v[..., j]
    return out


def magnitude(v, lead: int) -> NDArray[np.float64]:
    """Euclidean norm of ``v`` over its axes after the first ``lead``, read
    flat in C order by ``sq_norm``, or ``|v|`` when it has no such axis."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == lead:
        return np.abs(v)
    return np.sqrt(sq_norm(v.reshape(v.shape[:lead] + (math.prod(v.shape[lead:]),))))


class InfiniteMassError(ValueError):
    """Raised when an operation needs mu(R^n) < infinity but alpha <= n/2."""


@dataclass(frozen=True)
class ReferenceMeasure:
    """Weight measure ``(1 + |x|^2)^(-alpha) dx`` on R^dim."""

    dim: int
    alpha: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError(f"alpha must be a positive real, got {self.alpha}")

    # -- point handling ---------------------------------------------------

    def _as_points(self, x) -> NDArray[np.float64]:
        """``as_points`` on R^dim, rejecting non-finite points."""
        pts = as_points(x, self.dim, "measure")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite point passed to a weight evaluation")
        return pts

    # -- weight calculus --------------------------------------------------

    def weight(self, x) -> NDArray[np.float64]:
        """Weight ``(1 + |x|^2)^(-alpha)``; equals exp(log_weight)."""
        return (1.0 + sq_norm(self._as_points(x))) ** (-self.alpha)

    def log_weight(self, x) -> NDArray[np.float64]:
        """Log-weight ``-alpha * log(1 + |x|^2)``."""
        return -self.alpha * np.log1p(sq_norm(self._as_points(x)))

    def grad_log_weight(self, x) -> NDArray[np.float64]:
        """Gradient of the log-weight: ``-2 alpha x / (1 + |x|^2)``."""
        pts = self._as_points(x)
        return -2.0 * self.alpha * pts / (1.0 + sq_norm(pts)[..., None])

    # -- mass and moments -------------------------------------------------

    def _require_finite_mass(self):
        if 2.0 * self.alpha <= self.dim:
            raise InfiniteMassError(
                f"measure has infinite mass: alpha={self.alpha} <= dim/2={self.dim / 2}"
            )

    def total_mass(self) -> float:
        """Exact mass ``pi^(n/2) Gamma(alpha - n/2) / Gamma(alpha)``."""
        self._require_finite_mass()
        n = self.dim
        return float(
            np.pi ** (n / 2.0)
            * np.exp(special.gammaln(self.alpha - n / 2.0) - special.gammaln(self.alpha))
        )

    def first_radial_moment(self) -> float:
        """Exact ``integral |x| d mu``; finite for alpha > (n+1)/2."""
        n = self.dim
        if 2.0 * self.alpha <= n + 1:
            raise InfiniteMassError(
                f"first moment infinite: alpha={self.alpha} <= (dim+1)/2"
            )
        # surface(S^{n-1}) * 1/2 * B((n+1)/2, alpha - (n+1)/2)
        log_surf = np.log(2.0) + (n / 2.0) * np.log(np.pi) - special.gammaln(n / 2.0)
        log_beta = (
            special.gammaln((n + 1) / 2.0)
            + special.gammaln(self.alpha - (n + 1) / 2.0)
            - special.gammaln(self.alpha)
        )
        return float(np.exp(log_surf + log_beta) / 2.0)

    # -- sampling ----------------------------------------------------------

    def student_dof(self) -> float:
        """Degrees of freedom of the Student-t representation, 2 alpha - n."""
        self._require_finite_mass()
        return 2.0 * self.alpha - self.dim

    def sample(self, rng: np.random.Generator, count: int) -> NDArray[np.float64]:
        """Draw ``count`` i.i.d. points from the normalized measure.

        Uses the spherical Student-t representation x = z / sqrt(w) with
        z ~ N(0, I_n) and w ~ chi-square(2 alpha - n); the resulting
        density is proportional to (1 + |x|^2)^(-alpha).
        """
        self._require_finite_mass()
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.empty((0, self.dim))
        z = rng.normal(size=(count, self.dim))
        w = rng.chisquare(self.student_dof(), size=(count, 1))
        return z / np.sqrt(w)

    # -- integrals ----------------------------------------------------------

    def expect(self, f, count: int, rng: np.random.Generator) -> "MonteCarloEstimate":
        """Monte Carlo estimate of ``integral f d mu`` (unnormalized mu).

        Non-finite integrand values are excluded from the mean but counted
        and reported, since the integrands of interest are only defined
        almost everywhere.
        """
        pts = self.sample(rng, count)
        vals = np.asarray(f(pts), dtype=np.float64)
        if vals.shape != (count,):
            vals = vals.reshape(count)
        good = np.isfinite(vals)
        n_bad = int(count - good.sum())
        vals = vals[good]
        mass = self.total_mass()
        if vals.size == 0:
            return MonteCarloEstimate(np.nan, np.nan, n_bad, count, 1.0)
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else np.inf
        total_abs = np.abs(vals).sum()
        max_share = float(np.abs(vals).max() / total_abs) if total_abs > 0 else 0.0
        return MonteCarloEstimate(mass * mean, mass * se, n_bad, count, max_share)

    def lp_norm(self, f, q: float, count: int, rng: np.random.Generator) -> float:
        """Monte Carlo ``L^q(mu)`` norm of a scalar field (unnormalized mu)."""
        est = self.expect(lambda x: np.abs(np.asarray(f(x), dtype=np.float64)) ** q,
                          count, rng)
        return float(est.value ** (1.0 / q))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Integral estimate with its standard error and diagnostics.

    ``n_samples`` counts the samples drawn and ``n_nonfinite`` those left
    out of the mean (for a density functional: the tracks, and the invalid
    ones).  ``max_share`` is the largest single-sample share of the
    absolute mass of the estimate; values near 1 flag a heavy-tailed,
    untrustworthy mean.
    """

    value: float
    se: float
    n_nonfinite: int
    n_samples: int
    max_share: float

    def dominated(self, threshold: float = 0.5) -> bool:
        return self.max_share > threshold
