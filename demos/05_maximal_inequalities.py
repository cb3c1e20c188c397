"""Local maximal functions against heavy-tailed weights.

The classical maximal inequality is an unweighted statement; against the
polynomial weight it survives with the explicit constant 3 C_p Lambda0,
where Lambda0 is the ring-ratio constant of the weight -- finite for
polynomial decay, infinite for Gaussian-type decay.  This script computes
maximal functions on grids, evaluates both sides of the L^p and
exponential-moment inequalities, and shows the Gaussian failure mode.
"""

import numpy as np

from roughflow import ReferenceMeasure
from roughflow._seeds import derive_rng
from roughflow.analysis import (
    local_maximal,
    maximal_exp_check,
    maximal_lp_check,
    partial_maximal,
    random_compact_grid,
    ring_ratio_scan,
    weight_ring_ratio,
)

m = ReferenceMeasure(dim=1, alpha=1.5)
rng = derive_rng(2024, "demo-max")

print("ring-ratio constant of the weight (closed form (1+4 d^2)^alpha):")
for delta in (1.0, 2.0, 5.0):
    scan = weight_ring_ratio(m, delta)
    closed = (1 + 4 * delta**2) ** m.alpha
    print(f"  delta = {delta:g}: scan {scan:.6f} vs closed {closed:.6f}")

gauss = ring_ratio_scan(lambda r: np.exp(-r * r), 1.0, k_max=40)
print(f"Gaussian-type profile: ring ratios keep growing "
      f"(diverging = {gauss.diverging}) -- the inequality fails there.\n")

g = random_compact_grid(1, rng)
mf = local_maximal(g, delta=1.0)
print("random compactly supported grid function:")
print(f"  max |f| = {np.abs(g.values).max():.3f}, max M_delta f = "
      f"{mf.values.max():.3f}")

rep = maximal_lp_check(g, m, delta=1.0, p=2.0)
print(f"  L^p form:  lhs {rep.lhs:.4f} <= 3 C_p Lambda0 rhs = {rep.bound:.3f} "
      f"(C_p = {rep.c_p:g}, achieved ratio {rep.ratio:.5f})")

rep2 = maximal_exp_check(g, m, delta=1.0, theta=0.5)
print(f"  exp form:  lhs {rep2.lhs:.4f} <= {rep2.bound:.3f} "
      f"(slack {rep2.slack:.3f})")

# partial maximal function: averages over the second block only
axes = (np.linspace(-2, 2, 9), np.linspace(-2, 2, 33))
from roughflow.analysis import GridFunction

vals = rng.normal(size=(9, 33))
g2 = GridFunction(axes, vals)
m2 = partial_maximal(g2, radius=0.5)
print(f"\npartial maximal on a 2-block grid: shape {m2.values.shape}, "
      f"dominates |f|: {np.all(m2.values >= np.abs(vals) - 1e-12)}")
