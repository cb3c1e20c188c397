"""Stability across smoothing levels and empirical uniqueness.

Flows of a rough family are approximated through smoothing at levels
k = 2, 4, 8, ...; all levels share one Brownian driver, so differences are
pathwise.  The log-type stability functional, evaluated at the coefficient
gap delta_kl, stays bounded while the clipped convergence metric decreases:
the scheme is Cauchy.  Running two different admissible kernels at the
finest level lands on the same limit -- the uniqueness evidence.
"""

from roughflow import BrownianDriver, make_family
from roughflow._seeds import derive_rng, derive_seed
from roughflow.stability import cauchy_experiment, uniqueness_experiment

fam = make_family("log-singular")
seed = 2024
T = 0.25
driver = BrownianDriver.generate(
    fam.field.dim_noise, 2.0**-9, int(T * 2**9), 16,
    derive_seed(seed, "demo-stab"),
)
x0 = fam.measure.sample(derive_rng(seed, "demo-stab-x0"), 24)

table = cauchy_experiment(fam, [2.0, 4.0, 8.0, 16.0], driver, x0, T, norm_budget=10_000)
print(f"family {fam.field.name}  (level-set radius R = {table.radius:g}, "
      f"measured density norm {table.lambda_pt:.3f})")
print(f"{'k':>4} {'l':>4} {'coef gap':>10} {'functional':>11} "
      f"{'bound':>9} {'metric':>9}")
for row in table.rows:
    print(f"{row.k:>4g} {row.l:>4g} {row.delta_kl:>10.5f} {row.lhs:>11.4f} "
          f"{row.rhs:>9.3f} {row.metric:>9.5f}")
print("the metric column decreasing in k is the Cauchy property.\n")

unq = uniqueness_experiment(fam, table)  # reuses the table's level-16 flow
final_gap = table.rows[-1].metric
print(f"two kernels at level {unq.level:g}: metric {unq.metric:.6f} "
      f"vs final Cauchy gap {final_gap:.6f}")
print("a common limit across schemes is the uniqueness evidence.")
