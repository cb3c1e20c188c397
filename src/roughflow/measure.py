"""Polynomial-weight reference measures on R^n.

The measure is ``d mu = (1 + |x|^2)^(-alpha) dx`` with ``alpha > n/2`` so
that the total mass is finite.  The module provides the closed-form
calculus of the log-weight, exact total mass, i.i.d. sampling via a
spherical Student-t construction, and Monte Carlo integration against the
(unnormalized) measure.

Conventions: ``sample`` draws from the *normalized* measure; every
integral estimator reports values for the *unnormalized* measure, i.e. it
rescales sample means by ``total_mass``.  ``MonteCarloEstimate.of`` is the
one builder of an estimate from such samples (the finite filter, the
mass-scaled mean and standard error, the non-finite count and the
``largest_share`` heavy-tail diagnostic); ``expect`` is ``sample`` plus
``of``, and the density bound, the condition integrals and the doubled
systems' hypotheses build their estimates through it too.

The module is also the one home of the array conventions every layer
shares: ``as_points`` (batches of points on R^dim), ``grid_points``
(tensor grids in ``ij`` order), ``sq_norm`` (the squared Euclidean norm
over the last axis), ``magnitude`` (the Euclidean norm over value axes)
and ``is_count`` (a dimension or count: a positive integer, not a bool).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "InfiniteMassError",
    "MonteCarloEstimate",
    "ReferenceMeasure",
    "as_points",
    "grid_points",
    "is_count",
    "largest_share",
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


def is_count(v) -> bool:
    """A positive integer that is not a bool: a dimension, order or count."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


class InfiniteMassError(ValueError):
    """Raised when an operation needs mu(R^n) < infinity but alpha <= n/2."""


@dataclass(frozen=True)
class ReferenceMeasure:
    """Weight measure ``(1 + |x|^2)^(-alpha) dx`` on R^dim."""

    dim: int
    alpha: float

    def __post_init__(self):
        if not is_count(self.dim):
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
            * np.exp(math.lgamma(self.alpha - n / 2.0) - math.lgamma(self.alpha))
        )

    def first_radial_moment(self) -> float:
        """Exact ``integral |x| d mu``; finite for alpha > (n+1)/2."""
        n = self.dim
        if 2.0 * self.alpha <= n + 1:
            raise InfiniteMassError(
                f"first moment infinite: alpha={self.alpha} <= (dim+1)/2"
            )
        # surface(S^{n-1}) * 1/2 * B((n+1)/2, alpha - (n+1)/2)
        log_surf = np.log(2.0) + (n / 2.0) * np.log(np.pi) - math.lgamma(n / 2.0)
        log_beta = (
            math.lgamma((n + 1) / 2.0)
            + math.lgamma(self.alpha - (n + 1) / 2.0)
            - math.lgamma(self.alpha)
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
        """Monte Carlo estimate of ``integral f d mu`` (unnormalized mu) from
        ``count`` samples (``MonteCarloEstimate.of``)."""
        return MonteCarloEstimate.of(f(self.sample(rng, count)), self.total_mass())

    def lp_norm(self, f, q: float, count: int, rng: np.random.Generator) -> float:
        """Monte Carlo ``L^q(mu)`` norm of a scalar field (unnormalized mu)."""
        est = self.expect(lambda x: np.abs(np.asarray(f(x), dtype=np.float64)) ** q,
                          count, rng)
        return float(est.value ** (1.0 / q))


def largest_share(values) -> float:
    """Largest single-sample share of the absolute mass of ``values`` (0 when
    that mass is 0, or overflows): the heavy-tail diagnostic of every
    estimate, near 1 when one sample carries the mean."""
    a = np.abs(values)
    with np.errstate(over="ignore"):
        total = a.sum()
    return float(a.max() / total) if total > 0 else 0.0


_SQUARE_SAFE = 1e150  # samples above this magnitude are rescaled before squaring


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Integral estimate with its standard error and diagnostics.

    ``n_samples`` counts the samples drawn and ``n_nonfinite`` those left
    out of the mean (for a density functional: the tracks, and the invalid
    ones).  ``max_share`` is ``largest_share`` of the samples; values near 1
    flag a heavy-tailed, untrustworthy mean.
    """

    value: float
    se: float
    n_nonfinite: int
    n_samples: int
    max_share: float

    @classmethod
    def of(cls, values, mass: float) -> "MonteCarloEstimate":
        """The estimate of ``mass * E[values]`` from i.i.d. samples of a
        normalized measure of total mass ``mass``.

        Non-finite values are left out of the mean but counted, since the
        integrands of interest are only defined almost everywhere.  A sum
        that overflows gives an infinite value; samples too large to square
        are scaled by the largest one for the standard error.
        """
        vals = np.asarray(values, dtype=np.float64).reshape(-1)
        count = vals.size
        good = np.isfinite(vals)
        n_bad = int(count - good.sum())
        vals = vals[good]
        if vals.size == 0:
            return cls(np.nan, np.nan, n_bad, count, 1.0)
        with np.errstate(over="ignore"):
            mean = float(vals.mean())
        se = np.inf
        if vals.size > 1:
            top = float(np.abs(vals).max())
            scale = top if top > _SQUARE_SAFE else 1.0
            se = scale * float((vals / scale).std(ddof=1)) / math.sqrt(vals.size)
        return cls(mass * mean, mass * se, n_bad, count, largest_share(vals))

    def dominated(self) -> bool:
        """Whether one sample carries more than half the estimate's mass."""
        return self.max_share > 0.5
