"""Experiment orchestration: config ingestion, deterministic seeding,
report emission.

``KINDS`` is the one table of experiment kinds, the subcommands.  Each
entry holds the kind's runner, its default family (none for ``analysis``
and ``verify-all``, which build no family and reject ``family``,
``family_params`` and ``measure``) and whether it samples the family's
measure or, needing a ``deriv-*`` family, ``catalog.doubled_measure``.
Each subcommand accepts ``--config PATH`` (JSON), ``--seed U64``,
``--out DIR``, ``--budget-scale FLOAT`` and ``--family NAME``; a config
without ``family`` runs the kind's default, as the bare subcommand does.
Outputs are a ``summary.json`` that embeds the fully resolved
configuration and the package version, plus one CSV table written by
``_write_table`` (``ensemble.csv``, ``density.csv``, ``stability.csv``,
``derivative.csv`` or ``maximal.csv``).  The exit status is 0 exactly
when every asserted inequality passed, and 2, before the output directory
exists, for a budget scale that is not finite and positive or a config
that ``ExperimentConfig.validate`` rejects: it checks each setting once,
for its JSON type and its range, and names it.  A ``measure`` (``alpha``
and ``dim``) replaces the exponent of the sampled measure.  ``mc_budget``
is every kind's Monte Carlo budget (for ``stability``, the Halton points
of each ball norm).

All randomness flows from the master seed through named child streams,
so reruns with the same configuration are byte-identical.  ``density``,
``simulate``, ``stability``, ``analysis`` and ``derivative`` assert the
checks of acceptance criteria 3, 5, 8, 6 and 9 through the same
``acceptance`` functions, on their own streams.
"""

from __future__ import annotations

import argparse
import itertools
import json
import numbers
import sys
from dataclasses import asdict, dataclass, field as dc_field, replace
from pathlib import Path
from typing import Callable, Optional

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

__all__ = ["ExperimentConfig", "KINDS", "run", "verify_all", "main"]


def _number(v) -> bool:
    """A JSON number: a boolean is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _finite(v) -> bool:
    """A JSON number that is finite as a float (a long integer may not be)."""
    return _number(v) and abs(v) <= sys.float_info.max


def _count(v) -> bool:
    return _number(v) and isinstance(v, numbers.Integral) and v >= 1


def _finite_numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and all(_finite(x) for x in v)


# each setting's one check of its JSON type and range: (keys, holds, what each must be)
_SETTINGS = (
    (("T", "dt", "p0"), lambda v: _finite(v) and v > 0, "must be finite and positive"),
    (("p", "q"), lambda v: _finite(v) and v > 1, "must be finite and exceed 1"),
    (("n_omega", "n_x", "mc_budget"), _count, "must be a positive integer"),
    (("seed",), lambda v: _number(v) and isinstance(v, numbers.Integral),
     "must be an integer"),
    (("k_list",), lambda v: _finite_numbers(v) and len(v) >= 2 and min(v) >= 1,
     "needs at least two finite mollification levels >= 1"),
    (("eps_list", "radii"), lambda v: _finite_numbers(v) and len(v) >= 1 and min(v) > 0,
     "needs at least one value, each finite and positive"),
    (("family_params",), lambda v: isinstance(v, dict), "must be an object of parameters"),
    (("measure",), lambda v: v is None or isinstance(v, dict),
     "must be null or an object with alpha and dim"),
    (("out",), lambda v: v is None or isinstance(v, str), "must be null or a directory path"),
)


@dataclass
class ExperimentConfig:
    """Validated experiment description with a JSON-compatible data model."""

    kind: str
    family: Optional[str] = None        # None: the kind's default (``KINDS``)
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
    seed: int = acceptance.DEFAULT_SEED
    out: Optional[str] = None

    def __post_init__(self):
        if self.family is None and self.kind in KINDS:
            self.family = KINDS[self.kind].family

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"a config is a JSON object, got {raw!r}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if not isinstance(raw.get("kind"), str):
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
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {tuple(KINDS)}")
        for keys, holds, must in _SETTINGS:
            for key in keys:
                if not holds(getattr(self, key)):
                    raise ValueError(f"{key} {must}, got {getattr(self, key)!r}")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("dt must divide T")
        kind = KINDS[self.kind]
        if kind.family is None:  # builds no family and draws from no measure
            if self.family is not None or self.family_params:
                raise ValueError(f"{self.kind} builds no family; "
                                 "remove 'family' and 'family_params' from the config")
            if self.measure is not None:
                raise ValueError(f"{self.kind} draws from no configured measure; "
                                 "remove 'measure' from the config")
            return
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}; known: {', '.join(FAMILY_NAMES)}")
        if kind.doubled and not self.family.startswith("deriv"):
            raise ValueError(f"{self.kind} needs a deriv-* family, got {self.family!r}")
        if "p0" in self.family_params:
            raise ValueError("family_params cannot set p0; set the top-level p0")
        if self.measure is not None:
            unknown = sorted(set(self.measure) - {"alpha", "dim"})
            if unknown:
                raise ValueError(f"unknown measure keys {unknown}; known: alpha, dim")
            if not (_finite_numbers([self.measure.get("alpha")])
                    and _count(self.measure.get("dim", 1))):
                raise ValueError("measure.alpha is required, a finite number, and measure.dim "
                                 f"a positive integer if given; got {self.measure}")
        # rejects wrong or unused family parameters and a lifted alpha at its bound
        space = self.build()[1].dim
        if self.measure is not None:
            alpha, dim = float(self.measure["alpha"]), self.measure.get("dim", space)
            if dim != space:
                raise ValueError(f"measure.dim {dim} does not match the {space}-"
                                 f"dimensional space that {self.kind} samples")
            if not alpha > self.q + dim / 2.0:
                raise ValueError(
                    f"alpha must exceed q + n/2 = {self.q + dim / 2.0}, got {alpha}"
                )
        unmet = kind.needs(self) if kind.needs else None
        if unmet:
            raise ValueError(f"{self.kind} needs {unmet}")

    # -- derived objects ----------------------------------------------------

    def build(self):
        """``(family, measure)``: the configured family and the measure its
        start points are drawn from, the family's own or, for a kind that
        samples the doubled space, the doubled-space measure at ``q``;
        ``measure.alpha`` replaces its exponent."""
        fam = make_family(self.family, p0=self.p0, **self.family_params)
        alpha = None if self.measure is None else float(self.measure["alpha"])
        if KINDS[self.kind].doubled:
            return fam, doubled_measure(fam.field.dim_state, self.q, alpha)
        if alpha is not None:
            fam.measure = ReferenceMeasure(fam.measure.dim, alpha)
        return fam, fam.measure

    def paths(self, T: float, start: str = "x0"):
        """``(family, measure, driver, starts)``: ``build``, then the driver
        to ``T`` and the start points from the ``driver`` and ``start`` streams."""
        fam, m = self.build()
        drv, x0 = acceptance.draw_paths(self.seed, m, fam.field.dim_noise, self.dt, T,
                                        self.n_omega, self.n_x, "driver", start)
        return fam, m, drv, x0


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
    fam, m, drv, x0 = cfg.paths(cfg.T)
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
    # the guaranteed horizon, in whole steps of at least one
    T = max(1, int(round(min(cfg.T, select_t0(float(cfg.p0), cfg.p)) / cfg.dt))) * cfg.dt
    fam, m, drv, x0 = cfg.paths(T)
    ens = integrate(fam.field, drv, x0, T, density=m)
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
        bound_max_share=rhs.max_share,
    ) for p, measured, rhs, ok in acceptance.lp_density_checks(
        track, fam.field, m, cfg.p, cfg.q, T, cfg.mc_budget, cfg.seed, "rhs-",
    )]
    ent = entropy(track)
    checks.append(dict(
        name="entropy finite", passed=bool(np.isfinite(ent.value)),
        value=ent.value, se=ent.se,
    ))
    return checks


def _run_stability(cfg: ExperimentConfig, out: Path) -> list:
    fam, m, drv, x0 = cfg.paths(cfg.T)
    table, unq, decreasing, below_gap = acceptance.cauchy_uniqueness_checks(
        fam, list(cfg.k_list), drv, x0, cfg.T, cfg.mc_budget
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
    fam, _, drv, xy0 = cfg.paths(cfg.T, "xy0")
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


def _reported(runner):
    """A kind's runner from ``runner(cfg, out)``, which returns its check
    records: it prints one pass/fail line per record through ``printer``."""
    def run_kind(cfg, out, budget_scale, printer):
        checks = runner(cfg, out)
        for c in checks if printer is not None else ():
            printer(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}")
        return checks

    return run_kind


def _derivative_needs(cfg: ExperimentConfig) -> Optional[str]:
    # the rule compares eps values, and each metric's standard error needs two tracks
    if len(cfg.eps_list) < 2:
        return f"at least two eps_list values to compare, got {cfg.eps_list}"
    if cfg.n_omega * cfg.n_x < 2:
        return f"n_omega * n_x >= 2, got {cfg.n_omega * cfg.n_x}"


@dataclass(frozen=True)
class _Kind:
    """``runner(cfg, out, budget_scale, printer)`` returns the check records;
    ``family`` is the default (None: no family, no measure); ``doubled`` samples
    ``catalog.doubled_measure``; ``needs(cfg)`` names what else a config lacks."""

    runner: Callable
    family: Optional[str]
    doubled: bool = False
    needs: Optional[Callable[[ExperimentConfig], Optional[str]]] = None


KINDS = {
    "simulate": _Kind(_reported(_run_simulate), "linear"),
    "density": _Kind(_reported(_run_density), "linear"),
    "stability": _Kind(_reported(_run_stability), "log-singular",
                       needs=lambda cfg: acceptance.stability_needs(make_family(cfg.family))),
    "derivative": _Kind(_reported(_run_derivative), "deriv-smooth", doubled=True,
                        needs=_derivative_needs),
    "analysis": _Kind(_reported(_run_analysis), None),
    "verify-hypotheses": _Kind(
        _reported(_run_verify_hypotheses), "deriv-smooth", doubled=True,
        needs=lambda cfg: None if min(cfg.eps_list) <= 0.5
        else f"an eps_list value <= 0.5, got {cfg.eps_list}"),
    "verify-all": _Kind(lambda cfg, out, budget_scale, printer:
                        verify_all(cfg.seed, budget_scale, printer), None),
}


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
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
        root = np.sqrt(budget_scale)
        cfg = replace(cfg, n_omega=max(4, int(cfg.n_omega * root)),
                      n_x=max(8, int(cfg.n_x * root)),
                      mc_budget=max(500, int(cfg.mc_budget * budget_scale)))
    checks = [_jsonable(c) for c in KINDS[cfg.kind].runner(cfg, out, budget_scale, printer)]
    all_passed = all(c["passed"] for c in checks)
    with open(out / "summary.json", "w") as fh:
        json.dump(dict(kind=cfg.kind, version=__version__, config=cfg.to_dict(), checks=checks,
                       all_passed=all_passed), fh, indent=2, sort_keys=True)
        fh.write("\n")
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
        cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig(args.kind)
        if cfg.kind != args.kind:
            raise ValueError(f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}")
        for key in ("seed", "out", "family"):  # a given flag overrides the config
            if getattr(args, key) is not None:
                setattr(cfg, key, getattr(args, key))
        return run(cfg, budget_scale=args.budget_scale)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
