"""Ensemble simulation of Ito flows under a shared Brownian driver.

Trajectories are indexed by (omega_j, x_i): every starting point is driven
by every Brownian path of the driver, so pathwise comparisons between two
flows (stability, mollification levels, time-shift composition) are made
under identical noise.  Integration is Euler-Maruyama with the left-point
convention; ``integrate(..., density=m)`` accumulates the density exponent
of ``roughflow.density``, its terms from ``coefficients.density_terms``, at
the same left points.

Determinism contract: states are produced by a fixed serial reduction
order, so identical (seed, config) reruns are bitwise identical, and a
time-shift composition consumes the same increments in the same order as a
direct run, giving bitwise equal trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from ._seeds import derive_rng
from .coefficients import CoefficientField, FieldEval, density_terms
from .measure import ReferenceMeasure, sq_norm

__all__ = [
    "BrownianDriver",
    "DensityTrack",
    "FlowEnsemble",
    "FlowStack",
    "integrate",
    "compose_time_shift",
    "convergence_metric",
    "check_coupled",
    "level_set_tail",
    "LevelSetReport",
]

EXPLOSION_THRESHOLD = 1e8
_TRACK_BLOCK_STATES = 2**15  # states per density-exponent block


@dataclass
class BrownianDriver:
    """Pre-generated Brownian increments on a uniform grid.

    ``increments[j, i, :]`` is the step of path j over ``[i dt, (i+1) dt)``;
    their shape ``(n_omega, n_steps, dim_noise)`` gives the three counts.
    ``offset`` counts the steps of the generated path that precede this
    driver's first increment (nonzero after ``time_shift``).
    """

    dt: float
    seed: int
    increments: NDArray[np.float64] = dc_field(repr=False)
    offset: int = 0

    @classmethod
    def generate(cls, dim_noise: int, dt: float, n_steps: int, n_omega: int,
                 seed: int) -> "BrownianDriver":
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"driver step dt must be finite and positive, got {dt}")
        rng = derive_rng(seed, "brownian-driver")
        inc = rng.normal(0.0, np.sqrt(dt), size=(n_omega, n_steps, dim_noise))
        return cls(dt, seed, inc)

    @property
    def n_omega(self) -> int:
        return self.increments.shape[0]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]

    @property
    def dim_noise(self) -> int:
        return self.increments.shape[2]

    @property
    def fingerprint(self) -> tuple:
        """What two drivers must share to drive the same noise on one grid."""
        return (self.seed, self.dt, self.offset, self.n_omega, self.dim_noise)

    @property
    def times(self) -> NDArray[np.float64]:
        return np.arange(self.n_steps + 1) * self.dt

    def step_index(self, t: float) -> int:
        return grid_index(self.times, t, "driver")

    def time_shift(self, s: float) -> "BrownianDriver":
        """Driver of the shifted path B_{t+s} - B_s (a view, same memory)."""
        j = self.step_index(s)
        return BrownianDriver(self.dt, self.seed, self.increments[:, j:, :], self.offset + j)

    def coarsen(self, factor: int) -> "BrownianDriver":
        """Aggregate consecutive increments: the same path on a coarser grid."""
        if factor < 1:
            raise ValueError(f"coarsening factor must be >= 1, got {factor}")
        if self.n_steps % factor or self.offset % factor:
            raise ValueError("factor must divide n_steps and the step offset")
        inc = self.increments.reshape(
            self.n_omega, self.n_steps // factor, factor, self.dim_noise
        ).sum(axis=2)
        return BrownianDriver(self.dt * factor, self.seed, inc, self.offset // factor)


def grid_index(times: NDArray[np.float64], t: float, grid: str) -> int:
    """Index of ``t`` on the uniform ``times`` from 0; else a ValueError
    naming ``grid``.  A one-time grid (a driver shifted to its end) holds
    t = 0 only."""
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    idx = int(round(t / dt))
    if not 0 <= idx < len(times) or abs(idx * dt - t) > 1e-12 * max(1.0, abs(t)):
        raise ValueError(f"time {t} not on the {grid} grid")
    return idx


@dataclass
class DensityTrack:
    """Per-trajectory accumulators of the inverse-flow density.

    ``stochastic`` and ``time_integral`` are cumulative sums over grid
    times (shape (n_omega, n_x, n_times)); the density is
    ``exp(stochastic + time_integral)``, which is 1 at t=0 and positive.
    """

    times: NDArray[np.float64]
    stochastic: NDArray[np.float64]
    time_integral: NDArray[np.float64]
    valid: NDArray[np.bool_]
    total_mass: float

    def log_density(self) -> NDArray[np.float64]:
        return self.stochastic + self.time_integral

    def density(self, t: Optional[float] = None) -> NDArray[np.float64]:
        logr = self.log_density()
        if t is None:
            return np.exp(logr)
        return np.exp(logr[:, :, self.time_index(t)])

    def time_index(self, t: float) -> int:
        return grid_index(self.times, t, "track")


@dataclass
class FlowEnsemble:
    """Trajectories X_t(omega_j, x_i), shape (n_omega, n_x, n_times, n),
    with their ``DensityTrack`` when integrated with ``density=m``.

    ``field`` is the field that moved them: a single-spec field also for a
    member of a ``FlowStack``, whose states are a view of the stack's."""

    states: NDArray[np.float64]
    times: NDArray[np.float64]
    x0s: NDArray[np.float64]
    field: CoefficientField
    driver: BrownianDriver
    exploded: NDArray[np.bool_]
    density: Optional[DensityTrack] = None
    _sup_norm: Optional[NDArray[np.float64]] = dc_field(default=None, init=False, repr=False,
                                                        compare=False)

    @property
    def n_omega(self) -> int:
        return self.states.shape[0]

    @property
    def n_x(self) -> int:
        return self.states.shape[1]

    @property
    def n_exploded(self) -> int:
        return int(self.exploded.sum())

    def valid(self) -> NDArray[np.bool_]:
        return ~self.exploded

    def sup_norm(self) -> NDArray[np.float64]:
        """max over grid times of |X_t|, per (omega, x): computed on the
        first call and returned read-only from then on."""
        if self._sup_norm is None:
            self._sup_norm = np.sqrt(sq_norm(self.states)).max(axis=-1)
            self._sup_norm.flags.writeable = False
        return self._sup_norm

    def time_index(self, t: float) -> int:
        return grid_index(self.times, t, "ensemble")

    def state_at(self, t: float) -> NDArray[np.float64]:
        return self.states[:, :, self.time_index(t), :]

    def diff_sup(self, other: "FlowEnsemble") -> NDArray[np.float64]:
        """max over grid times of |X - Y|, per (omega, x), for a coupled
        ``other`` (``check_coupled``)."""
        return np.sqrt(sq_norm(self.states - other.states)).max(axis=-1)


class FlowStack(tuple):
    """The flows of a stacked smoothed field (``mollify`` with several
    specs), one ``FlowEnsemble`` per spec in the order of its spec axis, as
    ``integrate`` returns them, each with its own ``DensityTrack`` when
    integrated with ``density=m``.  ``states`` holds every member's states
    in one array, the spec axis folded into the paths (shape (n_spec
    n_omega, n_x, n_times, n)); ``n_exploded`` counts every member's
    exploded tracks."""

    states: NDArray[np.float64]

    @property
    def n_exploded(self) -> int:
        return sum(e.n_exploded for e in self)


def _initial_states(x0s, n_omega: int, dim: int):
    x0s = np.asarray(x0s, dtype=np.float64)
    if x0s.ndim == 1:
        x0s = x0s[:, None] if dim == 1 else x0s[None, :]
    if x0s.ndim == 2:
        init = np.broadcast_to(x0s[None, :, :], (n_omega,) + x0s.shape).copy()
    elif x0s.ndim == 3:
        init = x0s.copy()
    else:
        raise ValueError("x0s must have shape (n_x, n) or (n_omega, n_x, n)")
    if init.shape[-1] != dim:
        raise ValueError(f"x0s dimension {init.shape[-1]} != field dimension {dim}")
    return x0s if x0s.ndim == 2 else None, init


def integrate(
    field: CoefficientField,
    driver: BrownianDriver,
    x0s,
    T: float,
    density: Optional[ReferenceMeasure] = None,
):
    """Euler-Maruyama ensemble over [0, T] on the driver's grid.

    ``x0s`` has shape (n_x, n) (shared across Brownian paths) or
    (n_omega, n_x, n) for restarts.  Trajectories whose state norm exceeds
    1e8 are flagged as exploded and frozen; estimators exclude them and
    report the count.

    A stacked smoothed field (``mollify`` with several specs: ``field.members``)
    moves every spec's copy of the starts in one state loop, one evaluation
    per step for all of them under the one driver, and returns a
    ``FlowStack``: one ``FlowEnsemble`` per spec, holding that spec's
    single-spec field, bitwise the ensemble its own ``integrate`` gives,
    its ``DensityTrack`` included.  Any other field runs as a one-member
    stack (its states keep a spec axis of length 1) and returns its
    ``FlowEnsemble``.

    With ``density=m`` the ensemble carries the ``DensityTrack`` of the
    push-forward of ``m`` (the field must provide Jacobians), accumulated in
    blocks of whole steps of at most ``_TRACK_BLOCK_STATES`` states of one
    spec (at least one step).  A smoothed field's Jacobians come from each
    step's quadrature pass (for a stack, one pass for every spec) and are
    buffered per block, all but a declared-constant sigma and its Jacobian,
    which the terms read from the field's ``sigma0`` (``density_terms``);
    any other field evaluates them once per block.  Each block's exponent
    terms run spec by spec, with the member's own field and its part of the
    buffer, and are written into the track's arrays, which are summed in
    place.  The states do not depend on ``density``.
    """
    dt = driver.dt
    n_steps = driver.step_index(T)
    if n_steps < 1:
        raise ValueError("T must cover at least one step")
    if field.dim_noise != driver.dim_noise:
        raise ValueError("field noise dimension does not match the driver")
    fields = field.members or (field,)
    shared_x0s, init = _initial_states(x0s, driver.n_omega, field.dim_state)
    n_omega, n_x, n = init.shape
    # one field runs as a one-member stack: every array has the leading spec axis
    states = np.empty((len(fields), n_omega, n_x, n_steps + 1, n))
    states[..., 0, :] = init
    x = states[..., 0, :].copy()
    alive, frozen = np.ones(states.shape[:3], dtype=bool), False
    if density is not None:
        per_step, buf = field.is_smoothed, None
        # the terms read a declared-constant sigma from the field, not the buffer
        unread = () if field.sigma0 is None else ("sigma", "sigma_jac")
        per_block = max(1, _TRACK_BLOCK_STATES // (n_omega * n_x))
        # the stochastic sum and the time integral: per-step terms, summed at the end
        track = np.zeros((2,) + states.shape[:-1])
    for i in range(n_steps):
        ev = field.evaluate(x, jac=density is not None and per_step)
        step = (
            np.einsum("...oxnm,om->...oxn", ev.sigma, driver.increments[:, i, :])
            + ev.drift * dt
        )
        moved = x + step
        if frozen:
            moved = np.where(alive[..., None], moved, x)
        # one sum of squares per state; nan and inf fail the comparison
        newly = ~(sq_norm(moved) <= EXPLOSION_THRESHOLD**2) & alive
        if newly.any():
            # freeze at the last finite state
            moved = np.where(newly[..., None], x, moved)
            alive &= ~newly
            frozen = True
        x = moved
        states[..., i + 1, :] = x
        if density is None:
            continue
        j = i % per_block  # this step's place in its block
        if per_step:
            if j == 0:
                size = min(per_block, n_steps - i)
                buf = None  # the last block's buffer goes before the next one is made
                # (spec, omega, x, step) axes, then each value's own axes
                buf = FieldEval(*(None if name in unread
                                  else np.empty(states.shape[:3] + (size,) + v.shape[3:])
                                  for name, v in vars(ev).items()))
            for name, v in vars(buf).items():
                if v is not None:
                    v[:, :, :, j] = getattr(ev, name)
        if j + 1 == per_block or i + 1 == n_steps:
            steps = slice(i - j, i + 1)
            after = slice(i - j + 1, i + 2)  # the terms' places in the track
            for s, fld in enumerate(fields):
                track[0, s, :, :, after], track[1, s, :, :, after] = _exponent_terms(
                    fld, density, states[s, :, :, steps, :], driver.increments[:, steps, :],
                    dt, None if buf is None else FieldEval(
                        *(None if v is None else v[s] for v in vars(buf).values())))
    times = np.arange(n_steps + 1) * dt
    if density is not None:
        terms = track[..., 1:]
        terms[1] *= dt
        np.cumsum(terms, axis=-1, out=terms)  # in place: no second array of the track's size

    def ensemble(s):
        return FlowEnsemble(
            states=states[s], times=times,
            x0s=shared_x0s if shared_x0s is not None else states[s, 0, :, 0, :],
            field=fields[s], driver=driver, exploded=~alive[s],
            density=None if density is None else _track(times, track[:, s], alive[s], density))

    if field.members is None:
        return ensemble(0)
    stack = FlowStack(ensemble(s) for s in range(len(fields)))
    stack.states = states.reshape((-1,) + states.shape[2:])
    return stack


def _exponent_terms(field, m, left, inc, dt, ev):
    """Stochastic step (with its Ito-Taylor term) and drift term of the
    exponent at a block's left points ``left`` (n_omega, n_x, steps, n), from
    ``ev``, the field there with Jacobians (evaluated here when None)."""
    lam1, lam2, grad = density_terms(field, m, left, ev, np.sqrt(dt))
    quad = inc[..., :, None] * inc[..., None, :] - dt * np.eye(inc.shape[-1])
    return (np.einsum("oxnm,onm->oxn", lam1, inc)
            + 0.5 * np.einsum("oxnkl,onkl->oxn", grad, quad)), lam2


def _track(times, track, alive, m: ReferenceMeasure) -> DensityTrack:
    """The ``DensityTrack`` of one flow from its summed ``track`` (the
    stochastic sum and the time integral)."""
    stochastic, time_integral = track
    valid = alive & np.isfinite(stochastic[:, :, -1]) & np.isfinite(time_integral[:, :, -1])
    return DensityTrack(times, stochastic, time_integral, valid, m.total_mass())


def compose_time_shift(ensemble: FlowEnsemble, s: float, horizon: float) -> FlowEnsemble:
    """Restart the flow of ``ensemble.field`` at time s with the time-shifted
    driver.

    The composed trajectories consume the same increments in the same order
    as a direct run, so for every coefficient field the composed states are
    bitwise equal to ``ensemble`` over [s, s + horizon].
    """
    shifted = ensemble.driver.time_shift(s)
    return integrate(ensemble.field, shifted, ensemble.state_at(s), horizon)


def check_coupled(e1: FlowEnsemble, e2: FlowEnsemble) -> None:
    """Raise a ``ValueError`` unless two ensembles are coupled: one shape
    (so one time grid), one driver (``BrownianDriver.fingerprint``) and
    one set of starting points."""
    if e1.states.shape != e2.states.shape:
        raise ValueError("ensembles have mismatched shapes")
    if e1.driver.fingerprint != e2.driver.fingerprint:
        raise ValueError("ensembles do not share a driver")
    if not np.array_equal(e1.states[:, :, 0, :], e2.states[:, :, 0, :]):
        raise ValueError("ensembles do not share starting points")


def convergence_metric(e1: FlowEnsemble, e2: FlowEnsemble) -> float:
    """Mean of 1 ^ sup_t |X1 - X2| over (omega, x), normalized in mu.

    Both ensembles must be coupled (``check_coupled``) and at least one
    track must be valid in both (else a ``ValueError``).
    """
    check_coupled(e1, e2)
    ok = e1.valid() & e2.valid()
    if not ok.any():
        raise ValueError("convergence metric: no track is valid in both ensembles")
    clipped = np.minimum(1.0, e1.diff_sup(e2))
    return float(clipped[ok].mean())


@dataclass
class LevelSetReport:
    """Empirical vs theoretical tail of the trajectory level set."""

    radius: float
    empirical: float          # (P x mu)(sup |X| > R), unnormalized mu
    constant: float           # C of the first-moment bound
    bound: float              # C / R
    passed: bool
    first_moment_bound: float  # measured E int sup|X| dmu
    sigma_norm: float
    drift_norm: float
    n_excluded: int


def level_set_tail(
    ensemble: FlowEnsemble,
    radius: float,
    m: ReferenceMeasure,
    q: float,
    lambda_pt: float,
    mc_budget: int,
    rng: np.random.Generator,
) -> LevelSetReport:
    """Check the level-set tail bound (P x mu)(G_R^c) <= C / R.

    ``C = C1 + 2 (mass T lambda_pt)^(1/2) |sigma|_{L^{2q}(mu)}
    + T lambda_pt |b|_{L^q(mu)}`` with ``C1 = integral |x| d mu`` and
    ``lambda_pt`` the measured sup-in-time L^p norm of the push-forward
    density (p conjugate to q).  The empirical side weights the sample
    fraction by the measure mass, matching the unnormalized statement; an
    ensemble with no valid track is rejected with a ``ValueError``.
    """
    ok = ensemble.valid()
    if not ok.any():
        raise ValueError("level-set tail: every track of the ensemble exploded")
    mass = m.total_mass()
    field = ensemble.field
    sigma_norm = m.lp_norm(
        lambda x: np.linalg.norm(field.sigma(x), axis=(-2, -1)), 2 * q, mc_budget, rng
    )
    drift_norm = m.lp_norm(
        lambda x: np.linalg.norm(field.drift(x), axis=-1), q, mc_budget, rng
    )
    T = float(ensemble.times[-1])
    c1 = m.first_radial_moment()
    constant = (
        c1
        + 2.0 * np.sqrt(mass * T * lambda_pt) * sigma_norm
        + T * lambda_pt * drift_norm
    )
    sup = ensemble.sup_norm()[ok]
    empirical = mass * float((sup > radius).mean())
    bound = constant / radius
    return LevelSetReport(
        radius=radius,
        empirical=empirical,
        constant=constant,
        bound=bound,
        passed=bool(empirical <= bound),
        first_moment_bound=mass * float(sup.mean()),
        sigma_norm=sigma_norm,
        drift_norm=drift_norm,
        n_excluded=int((~ok).sum()),
    )
