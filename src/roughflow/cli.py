"""Experiment orchestration: config ingestion, deterministic seeding,
report emission.

Subcommands: ``simulate``, ``density``, ``stability``, ``derivative``,
``analysis``, ``verify-hypotheses``, ``verify-all``.  Each accepts
``--config PATH`` (JSON), ``--seed U64``, ``--out DIR``,
``--budget-scale FLOAT`` and ``--family NAME``.  Outputs are CSV tables
plus a ``summary.json`` that embeds the fully resolved configuration and
the package version; the exit status is 0 exactly when every asserted
inequality passed.

All randomness flows from the master seed through named child streams
(component label + index hashed into the seed), so reruns with the same
configuration are byte-identical.

``density``, ``simulate``, ``stability`` and ``analysis`` assert the
checks of acceptance criteria 3, 5, 8 and 6 through the same ``acceptance``
functions, on the configured family and budget and their own streams.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field as dc_field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import acceptance
from . import analysis as an
from . import derivative as dv
from ._seeds import derive_rng, derive_seed
from .catalog import FAMILY_NAMES, make_family
from .density import entropy, select_t0, track_density
from .flow import BrownianDriver, integrate
from .measure import ReferenceMeasure

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


@dataclass
class ExperimentConfig:
    """Validated experiment description with a JSON-compatible data model."""

    kind: str
    family: str = "linear"
    family_params: dict = dc_field(default_factory=dict)
    measure: Optional[dict] = None      # {"dim":…, "alpha":…, "alpha1":…}
    T: float = 1.0
    dt: float = 2.0**-10
    radii: list = dc_field(default_factory=lambda: [2.0, 5.0, 10.0, 20.0])
    p: float = 2.0
    q: float = 2.0
    p0: float = 1.0
    delta: float = 0.1
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
        if self.q <= 1:
            raise ValueError("q must exceed 1")
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        if not (self.dt > 0 and self.T > 0):
            raise ValueError("T and dt must be positive")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("dt must divide T")
        if self.measure is not None:
            if "alpha" not in self.measure:
                raise ValueError("measure.alpha is required when a measure is given")
            dim = int(self.measure.get("dim", 1))
            alpha = float(self.measure["alpha"])
            if alpha <= self.q + dim / 2.0:
                raise ValueError(
                    f"alpha must exceed q + n/2 = {self.q + dim / 2.0}, got {alpha}"
                )
        if self.kind == "derivative":
            alpha1 = self._alpha1()
            alpha = self._lifted_alpha()
            d = self._base_dim()
            if alpha <= 2 * alpha1 + self.q + d / 2.0:
                raise ValueError(
                    "lifted alpha must exceed 2 alpha1 + q + d/2 = "
                    f"{2 * alpha1 + self.q + d / 2.0}, got {alpha}"
                )
        if any(k < 1 for k in self.k_list):
            raise ValueError("mollification levels must be >= 1")
        if any(e <= 0 for e in self.eps_list):
            raise ValueError("eps values must be positive")

    # -- derived objects ----------------------------------------------------

    def _base_dim(self) -> int:
        return 1  # derivative bases in the catalog are one-dimensional

    def _alpha1(self) -> float:
        if self.measure and "alpha1" in self.measure:
            return float(self.measure["alpha1"])
        return self.q + self._base_dim() / 2.0 + 0.5

    def _lifted_alpha(self) -> float:
        if self.measure and "alpha" in self.measure:
            return float(self.measure["alpha"])
        d = self._base_dim()
        return 2 * self._alpha1() + self.q + d / 2.0 + 0.5

    def build_family(self):
        fam = make_family(self.family, p0=self.p0, **self.family_params)
        if self.measure is not None:
            dim = int(self.measure.get("dim", fam.measure.dim))
            fam.measure = ReferenceMeasure(dim, float(self.measure["alpha"]))
        return fam

    def build_driver(self, dim_noise: int) -> BrownianDriver:
        n_steps = int(round(self.T / self.dt))
        return BrownianDriver.generate(
            dim_noise, self.dt, n_steps, self.n_omega, derive_seed(self.seed, "driver")
        )


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _run_simulate(cfg: ExperimentConfig, out: Path) -> list:
    fam = cfg.build_family()
    drv = cfg.build_driver(fam.field.dim_noise)
    x0 = fam.measure.sample(derive_rng(cfg.seed, "x0"), cfg.n_x)
    ens = integrate(fam.field, drv, x0, cfg.T)
    ens.to_csv(out / "ensemble.csv", time_stride=max(1, len(ens.times) // 65))
    track = track_density(ens, fam.field, fam.measure)
    _, reports = acceptance.level_set_checks(
        ens, track, fam.measure, cfg.q, cfg.radii, cfg.mc_budget, cfg.seed, "norms-"
    )
    return [dict(
        name=f"level-set tail R={r:g}",
        passed=rep.passed,
        empirical=rep.empirical,
        bound=rep.bound,
        excluded=rep.n_excluded,
    ) for r, rep in zip(cfg.radii, reports)]


def _run_density(cfg: ExperimentConfig, out: Path) -> list:
    fam = cfg.build_family()
    t0 = min(cfg.T, select_t0(fam.p0, cfg.p))
    steps = max(1, int(round(t0 / cfg.dt)))
    drv, x0 = acceptance.draw_paths(
        cfg.seed, fam.measure, fam.field.dim_noise, cfg.dt, steps * cfg.dt,
        cfg.n_omega, cfg.n_x, "driver", "x0",
    )
    ens = integrate(fam.field, drv, x0, steps * cfg.dt)
    track = track_density(ens, fam.field, fam.measure)
    track.to_csv(out / "density.csv", time_stride=max(1, len(track.times) // 65))
    checks = [dict(
        name=f"L^p density bound p={p:g}",
        passed=ok,
        measured=measured.value,
        se=measured.se,
        bound=rhs.value,
        bound_divergent=rhs.divergent,
    ) for p, measured, rhs, ok in acceptance.lp_density_checks(
        track, fam.field, fam.measure, cfg.p, cfg.q, steps * cfg.dt,
        cfg.mc_budget, cfg.seed, "rhs-",
    )]
    ent = entropy(track)
    checks.append(dict(
        name="entropy finite", passed=bool(np.isfinite(ent.value)),
        value=ent.value, se=ent.se,
    ))
    return checks


def _run_stability(cfg: ExperimentConfig, out: Path) -> list:
    fam = cfg.build_family()
    drv = cfg.build_driver(fam.field.dim_noise)
    x0 = fam.measure.sample(derive_rng(cfg.seed, "x0"), cfg.n_x)
    table, unq, decreasing, below_gap = acceptance.cauchy_uniqueness_checks(
        fam, list(cfg.k_list), drv, x0, cfg.T, cfg.quadrature_points
    )
    table.to_csv(out / "stability.csv")
    metrics = table.metrics()
    return [
        dict(name="convergence metric decreasing", passed=decreasing,
             metrics=metrics),
        dict(name="uniqueness metric below final gap", passed=below_gap,
             uniqueness_metric=unq.metric, final_gap=metrics[-1]),
    ]


def _run_derivative(cfg: ExperimentConfig, out: Path) -> list:
    if not cfg.family.startswith("deriv"):
        raise ValueError("derivative experiments need a deriv-* family")
    fam = cfg.build_family()
    sys_ = dv.lift(fam.field)
    d = fam.field.dim_state
    m2 = ReferenceMeasure(2 * d, cfg._lifted_alpha())
    drv = cfg.build_driver(fam.field.dim_noise)
    xy0 = m2.sample(derive_rng(cfg.seed, "xy0"), cfg.n_x)
    table = dv.weak_derivative_convergence(sys_, list(cfg.eps_list), drv, xy0, cfg.T)
    table.to_csv(out / "derivative.csv")
    ms = table.metrics()
    return [dict(
        name="difference flows converge to the derivative flow",
        passed=bool(table.monotone_decreasing() and ms[-1] < max(ms[0], 1e-12)),
        metrics=ms,
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
    with open(out / "maximal.csv", "w") as fh:
        fh.write("n,delta,p,ratio,passed\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    _, closed_ok = acceptance.ring_ratio_closed_form()
    checks.append(dict(name="ring-ratio closed form", passed=closed_ok))
    return checks


def _run_verify_hypotheses(cfg: ExperimentConfig, out: Path) -> list:
    if not cfg.family.startswith("deriv"):
        raise ValueError("hypothesis verification needs a deriv-* family")
    fam = cfg.build_family()
    sys_ = dv.lift(fam.field)
    d = fam.field.dim_state
    m2 = ReferenceMeasure(2 * d, cfg._lifted_alpha())
    eps = [e for e in cfg.eps_list if e <= 0.5]
    rep = dv.verify_hypotheses(
        sys_, m2, cfg.p0 / 2.0, eps, cfg.mc_budget,
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
            if args.kind == "derivative" or args.kind == "verify-hypotheses":
                cfg.family = "deriv-smooth"
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
