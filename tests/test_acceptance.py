"""End-to-end acceptance suite: one test per criterion, each printing its
pass/fail line with the measured quantities.

Budgets can be reduced via the ROUGHFLOW_ACCEPT_SCALE environment variable
(default 1.0) for quick smoke runs; tolerances never change.

Criterion 1 asks for strong order 1 of the density exponent: a 1e-2
per-path tolerance at dt = 2^-10 and a halving of the median error per dt
halving.  A plain left-point Riemann sum of the stochastic integral has
strong order 1/2 only; the tracker meets the criterion through its
Ito-Taylor (Milstein) term, with the tolerances exactly as stated.  See
the criterion docstring.
"""

import os

import numpy as np
import pytest

from roughflow import acceptance

SCALE = float(os.environ.get("ROUGHFLOW_ACCEPT_SCALE", "1.0"))
SEED = int(os.environ.get("ROUGHFLOW_ACCEPT_SEED", str(acceptance.DEFAULT_SEED)))


@pytest.mark.parametrize("index", sorted(acceptance.CRITERIA))
def test_criterion(index, capsys):
    result = acceptance.CRITERIA[index](SEED, SCALE)
    with capsys.disabled():
        print(flush=True)
        print(result.line(), flush=True)
    assert result.passed, result.line()


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (50, 20), (25, 41)])
def test_median_is_numpys_bitwise(shape):
    a = np.random.default_rng(len(shape)).lognormal(-5.0, 2.0, shape)
    assert acceptance._median(a) == np.median(a)


def test_median_keeps_nan():
    # one nan in seven: a partition would sort it last and read a finite middle
    a = np.array([0.3, np.nan, 0.1, 0.2, 0.5, 0.4, 0.6])
    assert np.isnan(acceptance._median(a)) and np.isnan(np.median(a))
