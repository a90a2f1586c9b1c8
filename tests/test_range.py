"""Invariants that need no reference, over the documented range of nbar.

Each check holds at every nbar the package serves, so it is asserted across
the range rather than at nbar 85 alone.  The expansions are conftest's
``range_expansion``: at nbar 20, 85 and 150 those of the ledger's pipeline.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from rydpack import spectral
from rydpack.analysis import count_packets, detect_revival, timescales
from rydpack.evolution import RadialGrid, autocorrelation, density, observables
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


@pytest.mark.parametrize("nbar", [3, 4, 6, 10, 20, 40, 60, 85, 120, 150, 200, 230, 288])
def test_records_are_even_in_time_bit_for_bit(nbar, range_expansion):
    # the state is real, so c(-t) is the conjugate of c(t), and every record
    # and autocorrelation at -t equals the one at t exactly, over [0, t_rev]
    exp = range_expansion(nbar)
    t_rev = timescales(QuantumNumbers(nbar)).t_rev_au
    times = np.random.default_rng(nbar).uniform(0.0, t_rev, 401)
    records, acs = spectral._scan_block(exp, times)
    mirrored, mirrored_acs = spectral._scan_block(exp, -times)
    assert [replace(rec, t=-rec.t) for rec in records] == mirrored
    assert acs == mirrored_acs


@pytest.mark.parametrize("nbar", [10, 20, 30, 50, 85, 120, 150, 200, 230, 285])
def test_one_packet_at_start_and_revival_timing_across_nbar(nbar, range_expansion):
    # criterion 5's t = 0 count and criterion 6 hold beyond nbar 85: one packet
    # on the CLI's default grid and smoothing width, and the autocorrelation,
    # sampled at T_cl/50 in [0.9, 1.1] t_rev, peaks within 5% of t_rev at no
    # less than twice its value at 4 T_cl.  The peak sits at 0.963 t_rev at
    # nbar 20 and at 1.045 and 1.046 t_rev at nbar 30 and 50.
    exp = range_expansion(nbar)
    grid = RadialGrid.uniform(4.0 * nbar**2, 16000)
    smooth = observables(exp, 0.0, grid).dr / 3.0
    assert count_packets(grid.points, density(exp, grid, 0.0), smooth=smooth).peak_count == 1
    ts = timescales(QuantumNumbers(nbar))
    t_cl, t_rev = ts.T_cl_au, ts.t_rev_au
    times = np.linspace(0.9 * t_rev, 1.1 * t_rev, int(math.ceil(0.2 * t_rev / (t_cl / 50.0))) + 1)
    values = [autocorrelation(exp, t) for t in times]
    t_peak, value = detect_revival(times, values, (0.9 * t_rev, 1.1 * t_rev))
    assert abs(t_peak - t_rev) <= 0.05 * t_rev, t_peak / t_rev
    assert value >= 2.0 * autocorrelation(exp, 4.0 * t_cl)
