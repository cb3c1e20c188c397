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

from roughflow import make_family, mollifier_domination_check, mollify
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

# the check convolves with the spec's quadrature rule, not with the radial
# table that smooths this swirl in the flows
spec = fam.mollifier(4.0)
rep = mollifier_domination_check(
    lambda p: field.drift(p), spec,
    grid_points((np.linspace(-3, 3, 13),) * 2).reshape(-1, 2),
)
print("\nscaled-kernel domination  |f*chi_k|/(1+|x|) <= 2 (|f-bar|*chi_k),",
      "by the quadrature rule:",
      f"max ratio {rep.max_ratio:.3f} (bound 2) ->",
      "holds" if rep.passed else "violated")
