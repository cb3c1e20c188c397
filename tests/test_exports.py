"""The public surface: every exported name resolves, and removed names stay gone."""

import dataclasses
import importlib
import pkgutil

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
    # a Swirl is a field: one _eval, one profile call, a value-and-derivative
    # step formula (_smoothstep, catalog._zeta, catalog._loglip with deriv)
    assert not any(hasattr(roughflow.Swirl, name) for name in ("field", "radial"))
    assert "swirl" not in {f.name for f in dataclasses.fields(roughflow.CoefficientField)}
    # a second-block callable returns its block as an array, not as terms
    assert not hasattr(roughflow.StructuredCoefficient, "_terms")
    for mod, names in ((roughflow.coefficients, ("_step_band", "_smoothstep_deriv", "_term_sum")),
                       (roughflow.catalog, ("_zeta_deriv", "_loglip_deriv"))):
        assert not any(hasattr(mod, name) for name in names), mod.__name__
