"""Smoothing weakly differentiable coefficients.

Rough coefficient pairs are regularized as f_k = (f * chi_k) psi_k, where
chi_k is a scaled bump kernel supported in B(1/k) and psi_k a smooth cutoff
that is 1 on B(k).  The smoothed fields carry analytic derivatives computed
from f * grad(chi_k) -- the rough field is never differenced.

Shown here on the catalog's locally unbounded example: a two-dimensional
divergence-free vortex whose swirl magnitude blows up like log(1/|x|) at
the origin while staying Sobolev (W^{1,q} for q < 2).  It is declared by
its rotation symmetry (a ``Swirl``), so the kernel's radial symmetry gives
its smoothing from a one-dimensional table of the smoothed swirl profile.
"""

import numpy as np

from roughflow import make_family, mollify

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
