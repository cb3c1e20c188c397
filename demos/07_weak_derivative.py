"""Weak differentiability of the flow in its initial point.

The derivative process Y solves a coupled system on the doubled space that
is block-structured (the X block never sees y, the Y block is linear in y),
so the partial-Sobolev machinery applies.  Its finite-difference
counterpart integrates two copies of the base flow from x and x + eps y.
As eps decreases, the difference flows converge to Y in the clipped
L^1(P x mu) metric over a joint sample of (x, y).
"""

from roughflow import BrownianDriver, make_family
from roughflow._seeds import derive_rng, derive_seed
from roughflow.catalog import doubled_measure
from roughflow.derivative import (
    DerivativeSystem,
    verify_hypotheses,
    weak_derivative_convergence,
)

seed = 2024
m2 = doubled_measure(1, 2.0)  # (x, y) measure: alpha = 2 alpha1 + q + d/2 + 1/2
driver = BrownianDriver.generate(1, 2.0**-10, 2**10, 24,
                                 derive_seed(seed, "demo-deriv"))
xy = m2.sample(derive_rng(seed, "demo-deriv-xy"), 48)
eps_seq = [2.0**-j for j in range(1, 5)]

for name in ("deriv-linear", "deriv-smooth", "deriv-rough"):
    sys_ = DerivativeSystem(make_family(name).field)
    table = weak_derivative_convergence(sys_, eps_seq, driver, xy, T=1.0)
    cells = ", ".join(f"{r.epsilon:g}: {r.metric:.2e}" for r in table.rows)
    print(f"{name:>14}: E[1 ^ sup|Y^eps - Y|] = {{{cells}}}")
print("a linear base is exact for every eps; smooth and rough bases show "
      "the O(eps) trend.\n")

sys_rough = DerivativeSystem(make_family("deriv-rough").field)
rep = verify_hypotheses(sys_rough, m2, p0=0.5,
                        eps_set=[0.5, 0.25, 0.125], budget=10_000,
                        rng=derive_rng(seed, "demo-hyp"))
print("doubled-system hypotheses for the rough base:")
print(f"  eps-uniform integral band (max/min): {rep.eps_ratio:.3f}")
print(f"  pointwise |b2-bar| <= |grad b(x)|  : "
      f"{rep.drift_domination_fraction:.0%} of {rep.n_samples} samples")
print(f"  pointwise |s2-bar| <= |grad s(x)|  : "
      f"{rep.sigma_domination_fraction:.0%}")
print(f"  all checks pass: {rep.passed}")
