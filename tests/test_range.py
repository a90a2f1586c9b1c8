"""Invariants that need no reference, over the documented range of nbar.

Each check holds at every nbar the package serves, so it is asserted across
the range rather than at nbar 85 alone.  The expansions are conftest's
``range_expansion``: at nbar 20, 85 and 150 those of the ledger's pipeline.
"""

import numpy as np
import pytest

from rydpack import spectral
from rydpack.analysis import timescales
from rydpack.squeezed import QuantumNumbers

RANGE = (3, 10, 20, 50, 85, 150, 230, 288)


@pytest.mark.parametrize("nbar", RANGE)
def test_uncertainty_bounds_hold_over_a_revival(nbar, range_expansion):
    # dr dp_r >= 1/2, and dR dP >= <r^-2>/2 for R = (2 - r)/(2r), P = p_r, at
    # 4001 times over [0, t_rev].  The fitted state saturates the second at
    # t = 0, so the scan's margin there is its own truncation: the smallest
    # ratios seen are 1.0011 for the first (nbar 230) and 1 + 2.1e-7 for the
    # second (nbar 50, at t = 0)
    exp = range_expansion(nbar)
    times = np.linspace(0.0, timescales(QuantumNumbers(nbar)).t_rev_au, 4001)
    records = [rec for block, _ in spectral._scan(exp, times) for rec in block]
    assert len(records) == times.size
    heisenberg = np.array([rec.product / 0.5 for rec in records])
    saturated = np.array([rec.dR * rec.dP / rec.bound_half_rm2 for rec in records])
    assert heisenberg.min() >= 1.0, (nbar, times[heisenberg.argmin()])
    assert saturated.min() >= 1.0, (nbar, times[saturated.argmin()])
