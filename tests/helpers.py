"""Shared test helpers."""

from roughflow import CoefficientField
from roughflow.coefficients import Swirl


def quadrature_field(field):
    """``field`` for the quadrature path: a ``Swirl``'s rough evaluations as a
    plain field with a declared-constant sigma, which ``mollify`` smooths by
    quadrature instead of the swirl table; any other field as it is."""
    if not isinstance(field, Swirl):
        return field
    return CoefficientField(2, 2, field.sigma, field.drift, field.sigma_jac, field.drift_jac,
                            name=field.name, sigma_constant=True)
