"""roughflow: generalized stochastic flows of Ito SDEs with weakly
differentiable coefficients.

A numpy library for constructing, simulating and verifying flows of

    dX_t = sigma(X_t) dB_t + b(X_t) dt

under polynomial-weight reference measures, when sigma and b are only
Sobolev, partially Sobolev, or locally unbounded.  The toolkit covers bump
mollification of coefficients, pathwise Radon-Nikodym density tracking,
level-set / stability / entropy estimators, local and partial maximal
functions with weighted-integral inequalities, and the coupled system
defining the weak derivative of the flow with respect to its initial data.
"""

from ._seeds import derive_rng, derive_seed
from .catalog import FAMILY_NAMES, Family, make_family
from .coefficients import (
    CoefficientField,
    FieldBlocks,
    FieldEval,
    MollifierSpec,
    StructuredCoefficient,
    Swirl,
    condition_integrals,
    density_terms,
    mollify,
)
from .density import (
    DensityTrack,
    density_bound_rhs,
    entropy,
    kde_crosscheck,
    lp_density_norm,
    select_t0,
    sup_lp_density_norm,
    uniform_density_bound,
)
from .flow import (
    BrownianDriver,
    FlowEnsemble,
    compose_time_shift,
    convergence_metric,
    integrate,
    level_set_tail,
)
from .measure import InfiniteMassError, MonteCarloEstimate, ReferenceMeasure

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
