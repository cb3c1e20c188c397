"""Smoothing weakly differentiable coefficients.

Rough coefficient pairs are regularized as f_k = (f * chi_k) psi_k, where
chi_k is a scaled bump kernel supported in B(1/k) and psi_k a smooth cutoff
that is 1 on B(k).  The smoothed fields carry analytic derivatives computed
from f * grad(chi_k) -- the rough field is never differenced.

Shown here on the catalog's locally unbounded example: a two-dimensional
divergence-free vortex whose swirl magnitude blows up like log(1/|x|) at
the origin while staying Sobolev (W^{1,q} for q < 2).
"""

import numpy as np

from roughflow import (
    make_family,
    mollified_convergence,
    mollifier_domination_check,
    mollify,
)
from roughflow.measure import grid_points

fam = make_family("log-singular")
field = fam.field
print("family:", field.name)

probe = np.array([[0.02, 0.0], [0.2, 0.1], [1.0, -0.5]])
print("\n|drift| near the origin (unbounded):",
      np.linalg.norm(field.drift(probe), axis=1).round(3))

for k in (2.0, 8.0):
    smooth = mollify(field, fam.mollifier(k))
    print(f"  smoothed at level k={k:>4g}:",
          np.linalg.norm(smooth.drift(probe), axis=1).round(3))

spec = fam.mollifier(4.0)
print("\nkernel mass (numeric quadrature):", f"{spec.kernel_mass_quadrature():.8f}")

rep = mollifier_domination_check(
    lambda p: field.drift(p), spec,
    grid_points((np.linspace(-3, 3, 13),) * 2).reshape(-1, 2),
)
print("scaled-kernel domination  |f*chi_k|/(1+|x|) <= 2 (|f-bar|*chi_k):",
      f"max ratio {rep.max_ratio:.3f} (bound 2) ->",
      "holds" if rep.passed else "violated")

norms = mollified_convergence(
    lambda p: field.drift(p), fam.measure, [2, 4, 8, 16], radius=2.0,
    exponent=2.0, n_grid=129, mollifier=fam.mollifier,
)
print("\nL^2(mu) distance of the smoothed drift from the rough one on B(2):")
for k, v in zip([2, 4, 8, 16], norms):
    print(f"  k = {k:>2d}: {v:.5f}")
print("monotone decrease is the smoothing consistency the theory needs.")
