"""Desk-scale acceptance suite.

Each criterion function runs one end-to-end verification at pinned
tolerances and returns a result record; ``run_all`` executes the whole
suite and prints one pass/fail line per criterion.  ``budget_scale``
multiplies the Monte Carlo budgets (sample counts, never tolerances) for
quick smoke runs; pass/fail semantics are unchanged.  The pass rules
that the command line asserts as well are the public ``*_checks`` and
``ring_ratio_closed_form`` functions here, called by both.

All randomness derives from the master seed through named child streams,
so repeated runs produce identical results.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from . import analysis as an
from . import derivative as dv
from . import stability as st
from ._seeds import derive_rng, derive_seed
from .catalog import doubled_measure, make_family
from .coefficients import MollifierSpec, mollify
from .density import (
    density_bound_rhs,
    select_t0,
    sup_lp_density_norm,
    uniform_density_bound,
)
from .flow import BrownianDriver, compose_time_shift, integrate, level_set_tail
from .measure import ReferenceMeasure, grid_points

__all__ = [
    "CriterionResult", "run_all", "CRITERIA", "draw_paths", "lp_density_checks",
    "level_set_checks", "cauchy_uniqueness_checks", "weak_derivative_checks",
    "ring_ratio_closed_form",
]

DEFAULT_SEED = 20240915

# The rough families that criteria 4 and 8 smooth, each with its own
# quadrature (``Family.mollifier``).
_SMOOTHED_FAMILIES = ("log-singular", "partially-sobolev")


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    seconds: float
    details: dict = dc_field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        keys = ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"[{status}] criterion {self.index}: {self.name} ({self.seconds:.1f}s) {keys}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, (list, tuple)) and v and isinstance(v[0], float):
        return "[" + ", ".join(f"{x:.3g}" for x in v) + "]"
    return str(v)


def _scaled(value: int, scale: float, minimum: int = 8) -> int:
    return max(minimum, int(round(value * scale)))


CRITERIA: dict = {}


def _criterion(index: int, name: str):
    """Register ``body(seed, scale) -> (passed, details)`` in ``CRITERIA``,
    timed and wrapped into its ``CriterionResult``."""

    def register(body):
        @functools.wraps(body)
        def timed(seed: int, scale: float) -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = body(seed, scale)
            return CriterionResult(index, name, passed, time.perf_counter() - t0, details)

        CRITERIA[index] = timed
        return timed

    return register


def draw_paths(seed: int, measure: ReferenceMeasure, dim_noise: int, dt: float,
               T: float, n_omega: int, n_x: int, driver_stream: str, x0_stream: str):
    """``(driver, x0)``: ``n_omega`` Brownian paths on ``[0, T]`` with step
    ``dt`` and ``n_x`` start points sampled from ``measure``, each from its
    own named child stream of ``seed``."""
    driver = BrownianDriver.generate(
        dim_noise, dt, int(round(T / dt)), n_omega, derive_seed(seed, driver_stream)
    )
    return driver, measure.sample(derive_rng(seed, x0_stream), n_x)


# ---------------------------------------------------------------------------
# checks shared with the command line
# ---------------------------------------------------------------------------


def lp_density_checks(
    track, field, measure: ReferenceMeasure, p: float, q: float, horizon: float,
    budget: int, seed: int, stream: str,
) -> list:
    """The L^p density bound at ``p`` and at the conjugate exponent of ``q``:
    per exponent ``e`` (ascending) ``(e, measured, rhs, passed)``.  The
    sup-in-time norm of the tracked density passes when the right-hand side
    at ``horizon`` (drawn from stream ``f"{stream}{e}"``) is not divergent
    and exceeds it by at least two standard errors of the norm."""
    checks = []
    for e in sorted({p, q / (q - 1.0)}):
        measured = sup_lp_density_norm(track, e)
        rhs = density_bound_rhs(
            field, measure, e, horizon, budget, derive_rng(seed, f"{stream}{e}")
        )
        ok = (not rhs.divergent) and measured.value <= rhs.value + 2.0 * measured.se
        checks.append((e, measured, rhs, ok))
    return checks


def level_set_checks(
    ens, measure: ReferenceMeasure, q: float, radii, budget: int, seed: int, stream: str,
):
    """The level-set tail bound per radius: ``(lambda, [LevelSetReport])``,
    lambda the sup-in-time L^{q'} norm of the ensemble's tracked density (q'
    conjugate to ``q``); radius ``r`` draws from stream ``f"{stream}{r}"``."""
    lam = sup_lp_density_norm(ens.density, q / (q - 1.0)).value
    return lam, [
        level_set_tail(ens, r, measure, q, lam, mc_budget=budget,
                       rng=derive_rng(seed, f"{stream}{r}"))
        for r in radii
    ]


def cauchy_uniqueness_checks(fam, levels, driver, x0, T: float, norm_budget: int):
    """Stability and uniqueness of the generalized flow, smoothed with
    ``fam.mollifier``: ``(table, uniqueness, decreasing,
    below_final_gap)``.  The Cauchy metrics must decrease along ``levels``
    and the uniqueness metric at the last level sit below the final gap.
    An affine family (``Family.affine``) is rejected with a ``ValueError``."""
    if fam.affine:
        raise ValueError(
            f"family {fam.name!r} has affine coefficients, which the mollifier "
            "reproduces: its Cauchy and uniqueness metrics are rounding noise"
        )
    table = st.cauchy_experiment(fam, levels, driver, x0, T, norm_budget)
    metrics = table.metrics()
    decreasing = all(b < a for a, b in zip(metrics, metrics[1:]))
    unq = st.uniqueness_experiment(fam, table)
    return table, unq, decreasing, unq.metric < metrics[-1]


def weak_derivative_checks(fam, eps_list, driver, xy0, T: float):
    """Weak differentiability of the flow of ``fam`` (a deriv-* family):
    ``(table, passed)`` for the ``weak_derivative_convergence`` table of its
    difference flows at ``eps_list`` (at least two values).  An affine family
    (``Family.affine``) passes when its largest metric is below 1e-10; any
    other when the metrics decrease and the last is below ``2 eps_last /
    eps_first`` times the first (a quarter of it for eps 1/2 ... 1/16)."""
    if len(eps_list) < 2:
        raise ValueError(f"the derivative check needs at least two eps values, got {eps_list}")
    table = dv.weak_derivative_convergence(dv.DerivativeSystem(fam.field), eps_list,
                                           driver, xy0, T)
    ms = table.metrics()
    if fam.affine:
        return table, max(ms) < 1e-10
    rate = 2.0 * (eps_list[-1] / eps_list[0])
    return table, table.monotone_decreasing() and ms[-1] < rate * ms[0]


def ring_ratio_closed_form():
    """The ring-ratio scan against its closed form ``(1 + 4 delta^2)^alpha``
    for alpha in (1, 1.5, 2.5) and delta in (1, 2, 5).  The scan reads only
    the weight exponent, so one dimension covers all.  Returns the largest
    relative error and whether every one is below 1e-6."""
    errors = []
    for alpha in (1.0, 1.5, 2.5):
        for delta in (1.0, 2.0, 5.0):
            scan = an.weight_ring_ratio(ReferenceMeasure(1, alpha), delta)
            closed = (1.0 + 4.0 * delta**2) ** alpha
            errors.append(abs(scan - closed) / closed)
    return max(errors), all(e < 1e-6 for e in errors)


# ---------------------------------------------------------------------------
# 1. pathwise density oracle, translation flow
# ---------------------------------------------------------------------------


@_criterion(1, "pathwise density oracle (translation flow)")
def criterion_1(seed: int, scale: float):
    """Translation flow: tracked density vs the exact weight ratio.

    The check requires per-path relative error below 1e-2 at every grid
    time and a median error that halves under dt halving, i.e. strong
    order 1.  A plain left-point Riemann sum of the stochastic integral
    carries a pathwise error of order sqrt(dt) (a martingale of per-step
    variance ~ dt^2) and contracts by 1/sqrt(2) only; the Ito-Taylor term
    of the tracked exponent removes that leading error.  Here m = 1, so the
    corrected sum has strong order 1.
    """
    fam = make_family("translation")
    m = fam.measure
    n_omega, n_x = _scaled(50, scale), 20  # 1000 trajectories at scale 1
    fine, x0 = draw_paths(seed, m, 1, 2.0**-11, 1.0, n_omega, n_x, "c1-driver", "c1-x0")

    def path_errors(drv):
        ens = integrate(fam.field, drv, x0, 1.0, density=m)
        logw = m.log_weight(ens.states)
        oracle = logw - logw[:, :, 0:1]
        rel = np.abs(np.exp(ens.density.log_density() - oracle) - 1.0)
        return rel.max(axis=2)

    err_coarse = path_errors(fine.coarsen(2))
    err_fine = path_errors(fine)
    frac_within = float((err_coarse < 1e-2).mean())
    med_coarse = float(np.median(err_coarse))
    med_fine = float(np.median(err_fine))
    ratio = med_fine / med_coarse
    return frac_within == 1.0 and ratio <= 0.55, dict(
        frac_paths_within_1e2=frac_within,
        median_err=med_coarse,
        median_err_half_dt=med_fine,
        median_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# 2. pathwise density oracle, linear drift
# ---------------------------------------------------------------------------


@_criterion(2, "pathwise density oracle (linear drift)")
def criterion_2(seed: int, scale: float):
    fam = make_family("pure-drift")
    m = fam.measure
    dt = 2.0**-10
    drv, x0 = draw_paths(seed, m, 1, dt, 1.0, 1, _scaled(500, scale), "c2-driver", "c2-x0")
    ens = integrate(fam.field, drv, x0, 1.0, density=m)
    t = ens.times
    exact = x0[None, :, None, :] * np.exp(-t)[None, None, :, None]
    oracle = (
        -1.0 * t[None, None, :]
        + m.log_weight(exact)
        - m.log_weight(x0)[None, :, None]
    )
    rel = np.abs(np.exp(ens.density.log_density() - oracle) - 1.0)
    worst = float(rel.max())
    return worst < 10.0 * dt, dict(max_rel_err=worst, tolerance=10.0 * dt)


# ---------------------------------------------------------------------------
# 3. L^p density bound per catalog family
# ---------------------------------------------------------------------------

_DENSITY_FAMILIES = ("linear", "log-singular", "partially-sobolev", "deriv-rough")


@_criterion(3, "L^p density bound per family")
def criterion_3(seed: int, scale: float):
    p = q = 2.0  # q = 2 is its own conjugate: one exponent
    results = {}
    passed = True
    for name in _DENSITY_FAMILIES:
        fam = make_family(name)
        m = fam.measure
        t_horizon = select_t0(fam.p0, p)
        n_omega, n_x = _scaled(100, np.sqrt(scale)), _scaled(100, np.sqrt(scale))
        drv, x0 = draw_paths(
            seed, m, fam.field.dim_noise, 2.0**-10, t_horizon, n_omega, n_x,
            f"c3-driver-{name}", f"c3-x0-{name}",
        )
        track = integrate(fam.field, drv, x0, t_horizon, density=m).density
        for e, measured, rhs, ok in lp_density_checks(
            track, fam.field, m, p, q, t_horizon,
            _scaled(20000, scale), seed, f"c3-rhs-{name}-",
        ):
            passed &= ok
            results[f"{name}:p={e:g}"] = (
                round(measured.value, 4), round(rhs.value, 4), ok
            )
            results[f"{name}:p={e:g}:diagnostics"] = dict(
                rhs_divergent=rhs.divergent, rhs_max_share=round(rhs.max_share, 6),
                n_nonfinite=measured.n_nonfinite,
            )
    return passed, results


# ---------------------------------------------------------------------------
# 4. uniform density estimate across mollification levels
# ---------------------------------------------------------------------------


@_criterion(4, "uniform density estimate over levels")
def criterion_4(seed: int, scale: float):
    levels = [2.0, 4.0, 8.0, 16.0]
    p = 2.0
    details = {}
    passed = True
    for name in _SMOOTHED_FAMILIES:
        fam = make_family(name)
        t_horizon = select_t0(fam.p0, p)
        n_omega, n_x = _scaled(40, np.sqrt(scale)), _scaled(50, np.sqrt(scale))
        drv, x0 = draw_paths(
            seed, fam.measure, fam.field.dim_noise, 2.0**-10, t_horizon, n_omega, n_x,
            f"c4-driver-{name}", f"c4-x0-{name}",
        )
        report = uniform_density_bound(
            fam, levels, drv, x0, p,
            budget=_scaled(20000, scale),
            rng=derive_rng(seed, f"c4-rhs-{name}"),
        )
        passed &= report.passed
        details[name] = dict(
            norms=[round(v, 4) for v in report.norms],
            rhs=round(report.rhs, 4),
            rhs_divergent=report.rhs_divergent,
            rhs_max_share=[round(est.max_share, 6) for est in report.estimates],
            rhs_n_nonfinite=[est.n_nonfinite for est in report.estimates],
            fitted_constants=[round(v, 4) for v in report.fitted_constants],
            product_form=report.product_form,
            ok=report.passed,
        )
    return passed, details


# ---------------------------------------------------------------------------
# 5. level-set tail bound
# ---------------------------------------------------------------------------

@_criterion(5, "level-set tail bound")
def criterion_5(seed: int, scale: float):
    radii = (2.0, 5.0, 10.0, 20.0)
    q = 2.0
    details = {}
    passed = True
    for name in _DENSITY_FAMILIES:
        fam = make_family(name)
        m = fam.measure
        drv, x0 = draw_paths(
            seed, m, fam.field.dim_noise, 2.0**-10, 1.0,
            _scaled(40, np.sqrt(scale)), _scaled(50, np.sqrt(scale)),
            f"c5-driver-{name}", f"c5-x0-{name}",
        )
        ens = integrate(fam.field, drv, x0, 1.0, density=m)
        lam, reports = level_set_checks(
            ens, m, q, radii, _scaled(20000, scale), seed, f"c5-norms-{name}-"
        )
        fam_ok = all(rep.passed for rep in reports)
        ratios = [
            float(round(rep.empirical / rep.bound, 4)) if rep.bound > 0 else np.inf
            for rep in reports
        ]
        passed &= fam_ok
        details[name] = dict(tail_over_bound=ratios, lambda_pt=float(round(lam, 3)),
                             ok=fam_ok, n_excluded=reports[0].n_excluded)
    return passed, details


# ---------------------------------------------------------------------------
# 6. maximal-function inequalities
# ---------------------------------------------------------------------------


@_criterion(6, "maximal-function inequalities")
def criterion_6(seed: int, scale: float):
    n_funcs = _scaled(200, scale, minimum=20)
    total = failures = 0
    lp_ratios, exp_slacks = [], []
    for n in (1, 2):
        rng = derive_rng(seed, f"c6-funcs-{n}")
        for _, _, rep in an.random_maximal_checks(n, rng, n_funcs):
            total += 1
            failures += not rep.passed
            if isinstance(rep, an.MaximalReport):
                lp_ratios.append(rep.ratio)
            else:
                exp_slacks.append(rep.slack / rep.bound)
    lam_err, lam_ok = ring_ratio_closed_form()
    return failures == 0 and lam_ok, dict(
        checks=total, failures=failures, ring_scan_max_rel_err=lam_err,
        max_lp_ratio=max(lp_ratios), min_exp_slack_rel=min(exp_slacks),
    )


# ---------------------------------------------------------------------------
# 7. weight-mollification inequality
# ---------------------------------------------------------------------------


@_criterion(7, "weight-mollification inequality")
def criterion_7(seed: int, scale: float):
    levels = (1.0, 2.0, 4.0, 8.0)
    margins = {}
    passed = True
    for n, alpha, n_grid in ((1, 3.0, 201), (2, 3.0, 41)):
        m = ReferenceMeasure(n, alpha)
        pts = grid_points((np.linspace(-6.0, 6.0, n_grid),) * n).reshape(-1, n)
        for k in levels:
            spec = MollifierSpec(dim=n, level=k, order=16, panels=2)
            conv = spec.convolve(m.log_weight, pts)
            margin = float(np.min(conv + alpha * np.log(3.0) - m.log_weight(pts)))
            margins[f"n{n}-k{k:g}"] = round(margin, 5)
            passed &= margin >= 0.0
    return passed, margins


# ---------------------------------------------------------------------------
# 8. Cauchy / stability convergence and uniqueness
# ---------------------------------------------------------------------------


@_criterion(8, "Cauchy/stability convergence and uniqueness")
def criterion_8(seed: int, scale: float):
    levels = [2.0, 4.0, 8.0, 16.0]
    details = {}
    passed = True
    for name in _SMOOTHED_FAMILIES:
        fam = make_family(name)
        T = 0.25
        drv, x0 = draw_paths(
            seed, fam.measure, fam.field.dim_noise, 2.0**-10, T,
            _scaled(20, np.sqrt(scale)), _scaled(32, np.sqrt(scale)),
            f"c8-driver-{name}", f"c8-x0-{name}",
        )
        table, unq, decreasing, below_gap = cauchy_uniqueness_checks(
            fam, levels, drv, x0, T, _scaled(20000, scale)
        )
        passed &= decreasing and below_gap
        details[name] = dict(
            metrics=[round(v, 5) for v in table.metrics()],
            support_fraction=[r.support_fraction for r in table.rows],
            uniqueness_metric=round(unq.metric, 6),
            radius=float(table.radius),
            lambda_pt=float(round(table.lambda_pt, 4)),
            decreasing=decreasing,
            below_final_gap=below_gap,
        )
    return passed, details


# ---------------------------------------------------------------------------
# 9. weak differentiability
# ---------------------------------------------------------------------------


@_criterion(9, "weak differentiability")
def criterion_9(seed: int, scale: float):
    eps_seq = [2.0**-j for j in range(1, 5)]
    m2 = doubled_measure(1, 2.0)
    drv, xy0 = draw_paths(
        seed, m2, 1, 2.0**-10, 1.0,
        _scaled(24, np.sqrt(scale)), _scaled(48, np.sqrt(scale)),
        "c9-driver", "c9-xy0",
    )
    details = {}

    tab, passed = weak_derivative_checks(make_family("deriv-linear"), eps_seq, drv, xy0, 1.0)
    details["linear_max_metric"] = float(max(tab.metrics()))
    for name in ("deriv-smooth", "deriv-rough"):
        tab, ok = weak_derivative_checks(make_family(name), eps_seq, drv, xy0, 1.0)
        passed &= ok
        details[name] = dict(metrics=[round(v, 5) for v in tab.metrics()], ok=ok)

    sys_rough = dv.DerivativeSystem(make_family("deriv-rough").field)
    hyp = dv.verify_hypotheses(
        sys_rough, m2, p0=0.5, eps_set=[0.5, 0.25, 0.125],
        budget=_scaled(10000, scale), rng=derive_rng(seed, "c9-hyp"),
    )
    passed &= hyp.passed
    details["hypotheses"] = dict(
        eps_ratio=round(hyp.eps_ratio, 3),
        drift_domination=hyp.drift_domination_fraction,
        sigma_domination=hyp.sigma_domination_fraction,
        ok=hyp.passed,
    )
    return passed, details


# ---------------------------------------------------------------------------
# 10. flow property and determinism
# ---------------------------------------------------------------------------


@_criterion(10, "flow property and determinism")
def criterion_10(seed: int, scale: float):
    dt = 2.0**-7
    details = {}
    passed = True
    for name in ("linear", "translation", "pure-drift", "log-singular",
                 "partially-sobolev", "deriv-smooth"):
        fam = make_family(name)
        field = fam.field
        if name == "log-singular":
            field = mollify(field, fam.mollifier(4.0))
        drv, x0 = draw_paths(seed, fam.measure, field.dim_noise, dt, 1.0, 4, 8,
                             f"c10-{name}", f"c10-x0-{name}")
        ens = integrate(field, drv, x0, 1.0)
        comp = compose_time_shift(ens, 0.5, 0.5)
        bitwise = bool(
            np.array_equal(comp.states, ens.states[:, :, drv.step_index(0.5):, :])
        )
        drv2 = BrownianDriver.generate(
            field.dim_noise, dt, 2**7, 4, derive_seed(seed, f"c10-{name}")
        )
        ens2 = integrate(field, drv2, x0, 1.0)
        identical = ens.states.tobytes() == ens2.states.tobytes()
        passed &= bitwise and identical
        details[name] = dict(compose_bitwise=bitwise, rerun_identical=identical)
    return passed, details


def run_all(
    seed: int = DEFAULT_SEED,
    budget_scale: float = 1.0,
    printer: Optional[Callable[[str], None]] = print,
) -> list:
    """Run the acceptance criteria and return their results.

    Prints one pass/fail line per criterion through ``printer`` (pass
    ``None`` to silence).
    """
    results = []
    for idx in sorted(CRITERIA):
        res = CRITERIA[idx](seed, budget_scale)
        results.append(res)
        if printer is not None:
            printer(res.line())
    return results
