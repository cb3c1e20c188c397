"""Flow ensembles under a shared Brownian driver.

Trajectories are indexed by (Brownian path, starting point): one driver
serves every initial condition, so flows of different coefficient fields
can be compared pathwise under identical noise.  This script integrates a
catalog family, checks the flow property under time-shift composition
(restarting at X_s with the shifted driver reproduces the direct run
bitwise), and verifies the level-set tail bound.
"""

import numpy as np

from roughflow import (
    BrownianDriver,
    compose_time_shift,
    integrate,
    level_set_tail,
    make_family,
    sup_lp_density_norm,
)
from roughflow._seeds import derive_rng, derive_seed

fam = make_family("log-singular")
seed = 2024
driver = BrownianDriver.generate(
    dim_noise=fam.field.dim_noise, dt=2.0**-9, n_steps=2**9,
    n_omega=24, seed=derive_seed(seed, "demo-driver"),
)
x0 = fam.measure.sample(derive_rng(seed, "demo-x0"), 32)
ens = integrate(fam.field, driver, x0, T=1.0, density=fam.measure)
print(f"ensemble: {ens.n_omega} paths x {ens.n_x} starts, "
      f"{len(ens.times) - 1} steps of dt = {driver.dt:g}")
print(f"  exploded trajectories : {ens.n_exploded}")
print(f"  mean sup-norm         : {ens.sup_norm().mean():.3f}")

composed = compose_time_shift(ens, s=0.5, horizon=0.5)
direct = ens.states[:, :, driver.step_index(0.5):, :]
print(f"  flow property (bitwise): {np.array_equal(composed.states, direct)}")

lam = sup_lp_density_norm(ens.density, p=2.0).value
print(f"  measured sup_t |rho_t|_L2 : {lam:.3f}")

print("\nlevel-set tail (P x mu)(sup |X| > R) <= C/R:")
for radius in (2.0, 5.0, 10.0):
    rep = level_set_tail(ens, radius, fam.measure, q=2.0, lambda_pt=lam,
                         mc_budget=5000, rng=derive_rng(seed, f"norms{radius}"))
    print(f"  R = {radius:>4g}: empirical {rep.empirical:.4f} <= "
          f"{rep.bound:.3f}  -> {'holds' if rep.passed else 'violated'}")
