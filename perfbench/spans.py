"""Span recorder for the traced run, installed from outside the library.

The recorder wraps public entry points of each roughflow layer module by
module attribute (and methods by class attribute), keeps every span in
memory as ``[group, start, end, parent, outermost]`` and restores the
originals when the traced block ends.  A group's inclusive time counts
only its outermost spans; its self time is each span's duration minus the
durations of its direct child spans.  Work counters are taken at the same
boundaries from the call's arguments and result, so they repeat exactly
for the same inputs.  Needs nothing beyond the library's own numpy.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# -- counter hooks: (recorder, result, args, kwargs) ------------------------


def _count_integrate(rec, ens, args, kwargs):
    o, x, t, _ = ens.states.shape
    rec.add("flow.traj_steps", o * x * (t - 1))
    rec.add("flow.exploded", ens.n_exploded)


def _count_quad(rec, _result, args, kwargs):
    spec = args[0]
    shape = np.shape(_arg(args, kwargs, 2, "x"))
    # same point convention as MollifierSpec: a 1-d spec accepts bare scalars
    points = math.prod(shape if spec.dim == 1 and (not shape or shape[-1] != 1) else shape[:-1])
    panels = spec.panels if isinstance(spec.panels, (tuple, list)) else (spec.panels,) * spec.dim
    nodes = math.prod(spec.order * int(p) for p in panels)
    rec.add("coefficients.quad_calls", 1)
    rec.add("coefficients.quad_nodes", points * nodes)


def _count_track(rec, track, args, kwargs):
    o, x, t = track.stochastic.shape
    rec.add("density.track_states", o * x * (t - 1))
    rec.add("density.invalid", int((~track.valid).sum()))


def _count_norm(rec, est, args, kwargs):
    rec.maximum("density.max_share", est.max_share)


def _count_rhs(rec, bound, args, kwargs):
    rec.maximum("density.max_share", bound.max_share)
    rec.add("density.rhs_divergent", int(bound.divergent))


def _count_uniform(rec, report, args, kwargs):
    rec.add("density.rhs_divergent", int(report.rhs_divergent))


def _count_sample(rec, _pts, args, kwargs):
    rec.add("measure.sample_points", int(_arg(args, kwargs, 2, "count")))


def _count_expect(rec, est, args, kwargs):
    rec.add("measure.expect_points", est.n_samples)
    rec.add("measure.nonfinite", est.n_nonfinite)


def _count_ball_norm(rec, _value, args, kwargs):
    rec.add("stability.ball_norm_points", int(_arg(args, kwargs, 4, "budget", 100_000)))


def _counter(name):
    def hook(rec, _result, args, kwargs):
        rec.add(name, 1)

    return hook


# (module, attribute or Class.method, span group or None, counter hook)
PROBES = (
    ("flow", "integrate", "flow.integrate", _count_integrate),
    ("flow", "convergence_metric", "stability.metric", None),
    ("coefficients", "MollifierSpec.convolve", "coefficients.quad", _count_quad),
    ("coefficients", "MollifierSpec.convolve_with_grad", "coefficients.quad", _count_quad),
    ("coefficients", "density_noise_term", "coefficients.density_terms", None),
    ("coefficients", "density_drift_term", "coefficients.density_terms", None),
    ("coefficients", "condition_integrals", "coefficients.condition", None),
    ("coefficients", "block_condition_integrals", "coefficients.condition", None),
    ("density", "track_density", "density.track", _count_track),
    ("density", "lp_density_norm", "density.norm", _count_norm),
    ("density", "sup_lp_density_norm", "density.norm", _count_norm),
    ("density", "entropy", "density.norm", _count_norm),
    ("density", "density_bound_rhs", "density.rhs", _count_rhs),
    ("density", "uniform_density_bound", None, _count_uniform),
    ("measure", "ReferenceMeasure.sample", None, _count_sample),
    ("measure", "ReferenceMeasure.expect", "measure.expect", _count_expect),
    ("stability", "ball_lebesgue_norm", "stability.ball_norm", _count_ball_norm),
    ("stability", "stability_functional", "stability.functional", None),
    ("stability", "stability_bound", "stability.bound", None),
    ("analysis", "weight_ring_ratio", "analysis.ring_ratio", _counter("analysis.ring_ratio_calls")),
    ("analysis", "local_maximal", "analysis.local_maximal", None),
    ("analysis", "_ball_average", None, _counter("analysis.ball_averages")),
    ("analysis", "maximal_lp_check", "analysis.check", None),
    ("analysis", "maximal_exp_check", "analysis.check", None),
    ("derivative", "weak_derivative_convergence", "derivative.convergence", None),
    ("derivative", "verify_hypotheses", "derivative.hypotheses", None),
)

GROUPS = tuple(dict.fromkeys(g for _, _, g, _ in PROBES if g is not None))
COUNTS = (
    "flow.traj_steps", "flow.exploded",
    "coefficients.quad_calls", "coefficients.quad_nodes",
    "density.track_states", "density.invalid", "density.rhs_divergent",
    "measure.sample_points", "measure.expect_points", "measure.nonfinite",
    "stability.ball_norm_points",
    "analysis.ring_ratio_calls", "analysis.ball_averages",
)
MAXIMA = ("density.max_share",)


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self):
        self.spans = []   # [group, start, end, parent index, outermost of group]
        self.counts = {}
        self.missing = []
        self._open = []
        self._depth = {}

    def begin(self, group: str) -> list:
        depth = self._depth.get(group, 0)
        span = [group, time.perf_counter(), None,
                self._open[-1] if self._open else -1, depth == 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        self._depth[group] = depth + 1
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._open.pop()
        self._depth[span[0]] -= 1

    @contextmanager
    def span(self, group: str):
        token = self.begin(group)
        try:
            yield
        finally:
            self.end(token)

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, 0.0), float(value))

    def metrics(self) -> dict:
        """Per-layer metrics: ``<group>_s``, ``<group>_self_s``, counts, ratios."""
        child = [0.0] * len(self.spans)
        for group, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for g in GROUPS:
            out[g + "_s"] = 0.0
            out[g + "_self_s"] = 0.0
        for i, (group, start, end, _, outermost) in enumerate(self.spans):
            if group not in GROUPS:
                continue
            if outermost:
                out[group + "_s"] += end - start
            out[group + "_self_s"] += end - start - child[i]
        for name in COUNTS + MAXIMA:
            out[name] = self.counts.get(name, 0)
        steps = out["flow.traj_steps"]
        states = out["density.track_states"]
        out["flow.us_per_traj_step"] = 1e6 * out["flow.integrate_s"] / steps if steps else 0.0
        out["density.us_per_state"] = 1e6 * out["density.track_s"] / states if states else 0.0
        out["coefficients.nodes_per_state"] = (
            out["coefficients.quad_nodes"] / (steps + states) if steps + states else 0.0
        )
        return out

    def dump(self) -> dict:
        return {"fields": ["group", "start", "end", "parent", "outermost"],
                "spans": self.spans, "counts": self.counts, "missing": self.missing}


def _wrap(rec: Recorder, fn, group, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if group is None:
            result = fn(*args, **kwargs)
        else:
            token = rec.begin(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(token)
        if hook is not None:
            hook(rec, result, args, kwargs)
        return result

    return traced


@contextmanager
def installed(rec: Recorder):
    """Wrap every probe for the duration of the block, then restore.

    A module-level function is replaced in every ``roughflow`` module that
    holds a reference to it (``from .x import f`` copies the name), so
    calls route through the wrapper whichever module makes them.  A probe
    whose target no longer exists is listed in ``rec.missing`` and its
    metrics stay at zero.
    """
    importlib.import_module("roughflow.acceptance")
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "roughflow" or n.startswith("roughflow."))]
    patched = []
    try:
        for module_name, target, group, hook in PROBES:
            owner = importlib.import_module(f"roughflow.{module_name}")
            *path, name = target.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                rec.missing.append(f"{module_name}.{target}")
                continue
            wrapped = _wrap(rec, original, group, hook)
            holders = [owner] if path else [
                m for m in modules if any(v is original for v in vars(m).values())
            ]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        patched.append((holder, attr, original))
                        setattr(holder, attr, wrapped)
        yield rec
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)
