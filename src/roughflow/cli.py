"""Experiment orchestration: config ingestion, deterministic seeding,
report emission.

Subcommands: ``simulate``, ``density``, ``stability``, ``derivative``,
``analysis``, ``verify-hypotheses``, ``verify-all``.  Each accepts
``--config PATH`` (JSON), ``--seed U64``, ``--out DIR``,
``--budget-scale FLOAT`` and ``--family NAME``.  Outputs are a
``summary.json`` that embeds the fully resolved configuration and the
package version, plus one CSV table written by ``_write_table``:
``ensemble.csv`` (simulate), ``density.csv``, ``stability.csv``,
``derivative.csv`` or ``maximal.csv`` (analysis).  The exit status is 0
exactly when every asserted inequality passed, and 2 for a config that
``ExperimentConfig.validate`` rejects or a budget scale that is not finite
and positive, before the output directory exists.
A ``measure`` (``alpha`` and ``dim``) replaces the exponent of the measure
the start points are drawn from, the doubled-space one of
``catalog.doubled_measure`` for ``derivative`` and ``verify-hypotheses``;
``analysis`` and ``verify-all`` draw from none and reject it.

All randomness flows from the master seed through named child streams
(component label + index hashed into the seed), so reruns with the same
configuration are byte-identical.

``density``, ``simulate``, ``stability``, ``analysis`` and ``derivative``
assert the checks of acceptance criteria 3, 5, 8, 6 and 9 through the same
``acceptance`` functions, on the configured family and budget and their
own streams.
"""

from __future__ import annotations

import argparse
import itertools
import json
import numbers
import sys
from dataclasses import asdict, dataclass, field as dc_field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import acceptance
from . import analysis as an
from . import derivative as dv
from ._seeds import derive_rng
from .catalog import FAMILY_NAMES, doubled_measure, make_family
from .density import entropy, select_t0
from .flow import integrate
from .measure import ReferenceMeasure, grid_points

__all__ = ["ExperimentConfig", "run", "verify_all", "main"]

KINDS = (
    "simulate",
    "density",
    "stability",
    "derivative",
    "analysis",
    "verify-hypotheses",
    "verify-all",
)
_LIFTED_KINDS = ("derivative", "verify-hypotheses")  # sample the doubled space


def _finite_reals(values) -> bool:
    return isinstance(values, (list, tuple)) and all(
        isinstance(v, numbers.Real) and np.isfinite(v) for v in values)


@dataclass
class ExperimentConfig:
    """Validated experiment description with a JSON-compatible data model."""

    kind: str
    family: str = "linear"
    family_params: dict = dc_field(default_factory=dict)
    measure: Optional[dict] = None      # {"dim":…, "alpha":…}
    T: float = 1.0
    dt: float = 2.0**-10
    radii: list = dc_field(default_factory=lambda: [2.0, 5.0, 10.0, 20.0])
    p: float = 2.0
    q: float = 2.0
    p0: float = 1.0
    eps_list: list = dc_field(default_factory=lambda: [0.5, 0.25, 0.125, 0.0625])
    k_list: list = dc_field(default_factory=lambda: [2.0, 4.0, 8.0, 16.0])
    n_omega: int = 16
    n_x: int = 32
    mc_budget: int = 20000
    quadrature_points: int = 20000
    seed: int = acceptance.DEFAULT_SEED
    out: Optional[str] = None

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "kind" not in raw:
            raise ValueError("config must name an experiment kind")
        return cls(**raw)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.kind != "verify-all" and self.family not in FAMILY_NAMES:
            raise ValueError(
                f"unknown family {self.family!r}; known: {', '.join(FAMILY_NAMES)}"
            )
        if not self.q > 1:
            raise ValueError(f"q must exceed 1, got {self.q}")
        if not self.p > 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not (np.isfinite(self.p0) and self.p0 > 0):
            raise ValueError(f"p0 must be finite and positive, got {self.p0}")
        for key in ("n_omega", "n_x", "mc_budget", "quadrature_points"):
            value = getattr(self, key)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{key} must be a positive integer, got {value!r}")
        if not (0 < self.dt < np.inf and 0 < self.T < np.inf):
            raise ValueError("T and dt must be finite and positive")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("dt must divide T")
        if self.kind in _LIFTED_KINDS and not self.family.startswith("deriv"):
            raise ValueError(f"{self.kind} needs a deriv-* family, got {self.family!r}")
        sampling = self.kind not in ("analysis", "verify-all")  # build a family and sample
        if self.family_params and not sampling:
            raise ValueError(f"{self.kind} builds no family; "
                             "remove 'family_params' from the config")
        if self.measure is not None:
            if not sampling:
                raise ValueError(f"{self.kind} draws from no configured measure; "
                                 "remove 'measure' from the config")
            unknown = sorted(set(self.measure) - {"alpha", "dim"})
            if unknown:
                raise ValueError(f"unknown measure keys {unknown}; known: alpha, dim")
            if "alpha" not in self.measure:
                raise ValueError("measure.alpha is required when a measure is given")
        if sampling:  # rejects unused family parameters and a lifted alpha at its bound
            space = self.build()[1].dim
        if self.measure is not None:
            alpha, dim = float(self.measure["alpha"]), int(self.measure.get("dim", space))
            if dim != space:
                raise ValueError(f"measure.dim {dim} does not match the {space}-"
                                 f"dimensional space that {self.kind} samples")
            if not alpha > self.q + dim / 2.0:
                raise ValueError(
                    f"alpha must exceed q + n/2 = {self.q + dim / 2.0}, got {alpha}"
                )
        if not (_finite_reals(self.k_list) and len(self.k_list) >= 2
                and min(self.k_list) >= 1):
            raise ValueError("k_list needs at least two finite mollification levels >= 1, "
                             f"got {self.k_list}")
        for key in ("eps_list", "radii"):
            values = getattr(self, key)
            if not (_finite_reals(values) and values and min(values) > 0):
                raise ValueError(f"{key} needs at least one value, each finite and "
                                 f"positive, got {values}")
        if self.kind == "derivative" and len(self.eps_list) < 2:
            raise ValueError("derivative needs at least two eps_list values to compare, "
                             f"got {self.eps_list}")
        if self.kind == "derivative" and self.n_omega * self.n_x < 2:
            raise ValueError(f"derivative needs n_omega * n_x >= 2, got {self.n_omega * self.n_x}")
        if self.kind == "verify-hypotheses" and min(self.eps_list) > 0.5:
            raise ValueError("verify-hypotheses needs an eps_list value <= 0.5, "
                             f"got {self.eps_list}")

    # -- derived objects ----------------------------------------------------

    def build(self):
        """``(family, measure)``: the configured family and the measure its
        start points are drawn from, the family's own or, for the lifted
        kinds, the doubled-space measure at ``q``; ``measure.alpha`` replaces
        its exponent."""
        fam = make_family(self.family, p0=self.p0, **self.family_params)
        alpha = None if self.measure is None else float(self.measure["alpha"])
        if self.kind in _LIFTED_KINDS:
            return fam, doubled_measure(fam.field.dim_state, self.q, alpha)
        if alpha is not None:
            fam.measure = ReferenceMeasure(fam.measure.dim, alpha)
        return fam, fam.measure


def _write_table(path: Path, columns: dict, rows) -> None:
    """CSV report table: the column names, then per row each value ``v`` of
    column ``c`` as ``format(v, columns[c])``."""
    formats = list(columns.values())
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format(v, f) for v, f in zip(row, formats)) + "\n")


def _path_rows(times, n_omega: int, n_x: int):
    """``(omega, x, time)`` indices of a per-path table: every time, or
    every ``len(times) // 65``-th from 130 times on."""
    return itertools.product(range(n_omega), range(n_x),
                             range(0, len(times), max(1, len(times) // 65)))


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _run_simulate(cfg: ExperimentConfig, out: Path) -> list:
    fam, m = cfg.build()
    drv, x0 = acceptance.draw_paths(
        cfg.seed, m, fam.field.dim_noise, cfg.dt, cfg.T,
        cfg.n_omega, cfg.n_x, "driver", "x0",
    )
    ens = integrate(fam.field, drv, x0, cfg.T, density=m)
    _write_table(
        out / "ensemble.csv",
        dict(omega_index="d", x_index="d", t=".10g",
             **{f"x{i}": ".17g" for i in range(fam.field.dim_state)}),
        ([j, i, ens.times[t], *ens.states[j, i, t]]
         for j, i, t in _path_rows(ens.times, ens.n_omega, ens.n_x)),
    )
    _, reports = acceptance.level_set_checks(
        ens, m, cfg.q, cfg.radii, cfg.mc_budget, cfg.seed, "norms-"
    )
    return [dict(
        name=f"level-set tail R={r:g}",
        passed=rep.passed,
        empirical=rep.empirical,
        bound=rep.bound,
        excluded=rep.n_excluded,
    ) for r, rep in zip(cfg.radii, reports)]


def _run_density(cfg: ExperimentConfig, out: Path) -> list:
    fam, m = cfg.build()
    t0 = min(cfg.T, select_t0(fam.p0, cfg.p))
    steps = max(1, int(round(t0 / cfg.dt)))
    drv, x0 = acceptance.draw_paths(
        cfg.seed, m, fam.field.dim_noise, cfg.dt, steps * cfg.dt,
        cfg.n_omega, cfg.n_x, "driver", "x0",
    )
    ens = integrate(fam.field, drv, x0, steps * cfg.dt, density=m)
    track = ens.density
    logr = track.log_density()
    _write_table(
        out / "density.csv",
        dict(omega_index="d", x_index="d", t=".10g", rho_tilde=".17g", S=".17g",
             A=".17g"),
        ([j, i, track.times[t], np.exp(logr[j, i, t]), track.stochastic[j, i, t],
          track.time_integral[j, i, t]]
         for j, i, t in _path_rows(track.times, ens.n_omega, ens.n_x)),
    )
    checks = [dict(
        name=f"L^p density bound p={p:g}",
        passed=ok,
        measured=measured.value,
        se=measured.se,
        bound=rhs.value,
        bound_divergent=rhs.divergent,
    ) for p, measured, rhs, ok in acceptance.lp_density_checks(
        track, fam.field, m, cfg.p, cfg.q, steps * cfg.dt,
        cfg.mc_budget, cfg.seed, "rhs-",
    )]
    ent = entropy(track)
    checks.append(dict(
        name="entropy finite", passed=bool(np.isfinite(ent.value)),
        value=ent.value, se=ent.se,
    ))
    return checks


def _run_stability(cfg: ExperimentConfig, out: Path) -> list:
    fam, m = cfg.build()
    drv, x0 = acceptance.draw_paths(
        cfg.seed, m, fam.field.dim_noise, cfg.dt, cfg.T,
        cfg.n_omega, cfg.n_x, "driver", "x0",
    )
    table, unq, decreasing, below_gap = acceptance.cauchy_uniqueness_checks(
        fam, list(cfg.k_list), drv, x0, cfg.T, cfg.quadrature_points
    )
    _write_table(
        out / "stability.csv",
        dict(k="g", l="g", delta_kl=".10g", lhs=".10g", rhs=".10g", metric=".10g"),
        ([r.k, r.l, r.delta_kl, r.lhs, r.rhs, r.metric] for r in table.rows),
    )
    metrics = table.metrics()
    return [
        dict(name="convergence metric decreasing", passed=decreasing,
             metrics=metrics, support_fraction=[r.support_fraction for r in table.rows]),
        dict(name="uniqueness metric below final gap", passed=below_gap,
             uniqueness_metric=unq.metric, final_gap=metrics[-1]),
    ]


def _run_derivative(cfg: ExperimentConfig, out: Path) -> list:
    fam, m2 = cfg.build()
    drv, xy0 = acceptance.draw_paths(
        cfg.seed, m2, fam.field.dim_noise, cfg.dt, cfg.T,
        cfg.n_omega, cfg.n_x, "driver", "xy0",
    )
    table, passed = acceptance.weak_derivative_checks(
        fam, list(cfg.eps_list), drv, xy0, cfg.T)
    _write_table(out / "derivative.csv", dict(epsilon="g", metric=".10g", se=".10g"),
                 ([r.epsilon, r.metric, r.se] for r in table.rows))
    return [dict(
        name="difference flows converge to the derivative flow",
        passed=bool(passed),
        metrics=table.metrics(),
    )]


def _run_analysis(cfg: ExperimentConfig, out: Path) -> list:
    n_funcs = max(5, cfg.mc_budget // 400)
    checks = []
    rows = []
    for n in (1, 2):
        rng = derive_rng(cfg.seed, f"analysis-{n}")
        failures = 0
        total = 0
        for delta, p, rep in an.random_maximal_checks(n, rng, n_funcs):
            if isinstance(rep, an.MaximalReport):
                rows.append([n, delta, p, rep.ratio, int(rep.passed)])
            total += 1
            failures += not rep.passed
        checks.append(dict(
            name=f"maximal inequalities n={n}", passed=failures == 0,
            checks=total, failures=failures,
        ))
    _write_table(out / "maximal.csv",
                 dict(n="d", delta=".10g", p=".10g", ratio=".10g", passed="d"), rows)
    _, closed_ok = acceptance.ring_ratio_closed_form()
    checks.append(dict(name="ring-ratio closed form", passed=closed_ok))
    # f = cos(2 x2) on a 2-block grid: the fitted pointwise Sobolev constant
    # must be finite and stable across the partial-maximal radius
    ax1, ax2 = np.linspace(-1.0, 1.0, 9), np.linspace(-2.0, 2.0, 65)
    x2 = grid_points((ax1, ax2))[..., 1]
    g = an.GridFunction((ax1, ax2), np.cos(2.0 * x2))
    grad = an.GridFunction((ax1, ax2), np.abs(2.0 * np.sin(2.0 * x2)))
    fits = [
        an.pointwise_sobolev_check(
            g, grad, r, 3000, derive_rng(cfg.seed, f"analysis-sobolev-{r}")
        ).fitted_constant
        for r in (0.5, 1.0, 2.0)
    ]
    checks.append(dict(
        name="partial pointwise Sobolev inequality",
        passed=bool(all(np.isfinite(fits)) and max(fits) < 3 * min(fits)),
        fits=fits,
    ))
    return checks


def _run_verify_hypotheses(cfg: ExperimentConfig, out: Path) -> list:
    fam, m2 = cfg.build()
    eps = [e for e in cfg.eps_list if e <= 0.5]
    rep = dv.verify_hypotheses(
        dv.DerivativeSystem(fam.field), m2, cfg.p0 / 2.0, eps, cfg.mc_budget,
        derive_rng(cfg.seed, "hypotheses"),
    )
    return [dict(
        name="doubled-system hypotheses",
        passed=rep.passed,
        eps_ratio=rep.eps_ratio,
        drift_domination=rep.drift_domination_fraction,
        sigma_domination=rep.sigma_domination_fraction,
        lifted_integral=rep.lifted_integral,
    )]


def verify_all(seed: int, budget_scale: float = 1.0, printer=print) -> list:
    """Run the acceptance suite; returns per-criterion check records."""
    results = acceptance.run_all(seed, budget_scale, printer=printer)
    return [dict(
        name=f"criterion {r.index}: {r.name}",
        passed=r.passed,
        seconds=round(r.seconds, 2),
        **{k: _jsonable(v) for k, v in r.details.items()},
    ) for r in results]


_RUNNERS = {
    "simulate": _run_simulate,
    "density": _run_density,
    "stability": _run_stability,
    "derivative": _run_derivative,
    "analysis": _run_analysis,
    "verify-hypotheses": _run_verify_hypotheses,
}


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def run(cfg: ExperimentConfig, budget_scale: float = 1.0, printer=print) -> int:
    """Execute a configured experiment; returns the process exit status."""
    cfg.validate()
    if not (np.isfinite(budget_scale) and budget_scale > 0):
        raise ValueError(f"budget scale must be finite and positive, got {budget_scale}")
    out = Path(cfg.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    if budget_scale != 1.0:  # rescale a copy: the caller's config stays as given
        cfg = replace(
            cfg,
            n_omega=max(4, int(cfg.n_omega * np.sqrt(budget_scale))),
            n_x=max(8, int(cfg.n_x * np.sqrt(budget_scale))),
            mc_budget=max(500, int(cfg.mc_budget * budget_scale)),
            quadrature_points=max(500, int(cfg.quadrature_points * budget_scale)),
        )
    if cfg.kind == "verify-all":
        checks = verify_all(cfg.seed, budget_scale, printer=printer)
    else:
        checks = [
            {k: _jsonable(v) for k, v in c.items()}
            for c in _RUNNERS[cfg.kind](cfg, out)
        ]
    all_passed = all(c["passed"] for c in checks)
    summary = dict(
        kind=cfg.kind,
        version=__version__,
        config=cfg.to_dict(),
        checks=checks,
        all_passed=all_passed,
    )
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if printer is not None and cfg.kind != "verify-all":
        for c in checks:
            printer(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


# family a bare subcommand runs on: the kinds that reject the affine default
_DEFAULT_FAMILY = {
    "stability": "log-singular",
    "derivative": "deriv-smooth",
    "verify-hypotheses": "deriv-smooth",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughflow",
        description="Stochastic flows of Ito SDEs with weakly differentiable "
                    "coefficients: experiments and acceptance checks.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind)
        sp.add_argument("--config", type=str, default=None, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None, help="master seed (u64)")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--budget-scale", type=float, default=1.0,
                        help="multiply Monte Carlo budgets")
        sp.add_argument("--family", type=str, default=None,
                        help="catalog family name")
    args = parser.parse_args(argv)
    try:
        if args.config:
            cfg = ExperimentConfig.load(args.config)
            if cfg.kind != args.kind:
                raise ValueError(
                    f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}"
                )
        else:
            cfg = ExperimentConfig(kind=args.kind)
            cfg.family = _DEFAULT_FAMILY.get(args.kind, cfg.family)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        if args.family is not None:
            cfg.family = args.family
        return run(cfg, budget_scale=args.budget_scale)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
