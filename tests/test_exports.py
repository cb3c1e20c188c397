"""The public surface: every exported name resolves, and removed names stay gone."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import roughflow

# names cut from the API; their callers use the names in the comments
REMOVED = {
    "density_noise_term",               # coefficients.density_terms
    "density_drift_term",
    "density_noise_with_gradient",
    "noise_term_domination_constant",
    "ball_lebesgue_norm",               # stability._halton_ball
    "lift",                             # derivative.DerivativeSystem
    "derivative_flow",                  # integrate(DerivativeSystem(base).lifted, ...)
    "block_condition_integrals",        # condition_integrals(m1, field.first_block, ...)
    "ConditionReport",                  # (MonteCarloEstimate, divergent) of condition_integrals
    "mollified_convergence",            # no criterion or CLI kind measured it
    "mollifier_domination_check",       # it needed the planar tensor rule; no criterion called it
    "DominationReport",
}


def test_every_export_resolves_and_no_removed_name_is_exported():
    modules = [roughflow] + [importlib.import_module(f"roughflow.{info.name}")
                             for info in pkgutil.iter_modules(roughflow.__path__)]
    for mod in modules:
        exported = getattr(mod, "__all__", ())
        missing = [name for name in exported if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names undefined {missing}"
        assert not REMOVED & (set(exported) | set(vars(mod))), mod.__name__
    assert not hasattr(roughflow.ReferenceMeasure, "hess_log_weight")
    # the difference system's second block is DerivativeSystem.difference_block
    assert not hasattr(roughflow.derivative.DerivativeSystem, "epsilon_system")
    # the kernel's mass is a test's own quadrature of MollifierSpec.kernel
    assert not hasattr(roughflow.MollifierSpec, "kernel_mass_quadrature")
    # a planar spec has no tensor rule: the slice rule, the polar rule
    # (convolve_radial) or a swirl's table
    assert not hasattr(roughflow.MollifierSpec(dim=2, level=4.0), "_nodes")
    assert not hasattr(roughflow.coefficients, "grid_points")
    # a Swirl is a field: one _eval, one profile call, a value-and-derivative
    # step formula (_smoothstep, catalog._zeta, catalog._loglip with deriv)
    assert not any(hasattr(roughflow.Swirl, name) for name in ("field", "radial"))
    assert "swirl" not in {f.name for f in dataclasses.fields(roughflow.CoefficientField)}
    # a second-block callable returns its block as an array, not as terms
    assert not hasattr(roughflow.StructuredCoefficient, "_terms")
    for mod, names in ((roughflow.coefficients, ("_step_band", "_smoothstep_deriv", "_term_sum")),
                       (roughflow.catalog, ("_zeta_deriv", "_loglip_deriv"))):
        assert not any(hasattr(mod, name) for name in names), mod.__name__


# scipy is a test dependency only: with it blocked, the package imports and
# runs the numpy code that stands in for its Halton sequence, FFTs and rules
NUMPY_ONLY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
import roughflow, roughflow.acceptance, roughflow.cli
from roughflow import make_family, mollify
from roughflow.analysis import GridFunction, local_maximal
from roughflow.stability import _halton_ball

pts, norm = _halton_ball(1.0, 2, 256)
assert abs(norm(np.ones(len(pts)), 2.0) - np.pi ** 0.5) < 0.1
axis = np.linspace(-2.0, 2.0, 33)
g = GridFunction((axis, axis), np.exp(-axis[:, None] ** 2 - axis ** 2))
assert np.all(local_maximal(g, 0.5).values >= g.values)
fam = make_family("log-singular")
ev = mollify(fam.field, fam.mollifier(4.0)).evaluate(np.array([[0.3, 0.1]]), jac=True)
assert np.all(np.isfinite(ev.drift)) and np.all(np.isfinite(ev.drift_jac))
# criterion 1's medians take a partition: np.median would import numpy.ma
assert roughflow.acceptance.criterion_1(1, 0.02).passed
assert "numpy.ma" not in sys.modules
"""


def test_the_package_runs_without_scipy():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", NUMPY_ONLY],
                          cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
