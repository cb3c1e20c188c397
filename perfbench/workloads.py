"""Workload table shared by the runner and its worker processes.

Each workload is a fixed set of acceptance criteria at one fixed
``budget_scale``; the workload seed is the criteria's master seed.  The
scales keep one repetition at seconds, so a run can take the median of
several: criteria 6 and 8 sit on their own floors (20 grid functions;
8 paths x 8 starts), criterion 4 just above its floor, and the analytic
set at a quarter of its acceptance budget.  Why each workload was chosen
is recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    criteria: tuple
    budget_scale: float


WORKLOADS = {
    "smoothed-density": Workload((4, 7), 0.05),
    "cauchy-stability": Workload((8,), 0.02),
    "maximal-grid": Workload((6,), 0.1),
    "analytic-suite": Workload((1, 2, 3, 5, 9, 10), 0.25),
}

# Criteria whose verdict is reported but not required to be green:
# criterion 1 is known red (left-point density exponent, see README), and
# criterion 4's right-hand side is flagged divergent for some seeds at the
# reduced Monte Carlo budget, which turns its verdict red without a norm
# exceeding the bound.
REPORTED_ONLY = {1: "known red", 4: "degraded at reduced budget for some seeds"}

# Criterion 1 at its acceptance seed and full scale is the accuracy probe
# behind the oracle metrics; it does not depend on the workload seed.
ORACLE_SCALE = 1.0

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
