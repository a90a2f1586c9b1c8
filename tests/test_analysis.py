import itertools
import math
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rydpack.analysis import (
    FRACTIONAL_ORDERS,
    _FFT_BLOCK,
    PacketReport,
    _gaussian_smooth,
    _prominent_peaks,
    count_packets,
    detect_revival,
    fractional_period_check,
    timescales,
)
from rydpack.evolution import BasisTable, RadialGrid, density, observables
from rydpack.specfun import NumericalError
from rydpack.spectral import decompose
from rydpack.squeezed import QuantumNumbers, fit_parameters
from rydpack.units import au_to_ns, au_to_ps


def gaussians(r, centers, heights, sigma=30.0):
    f = np.zeros_like(r)
    for c, h in zip(centers, heights):
        f += h * np.exp(-0.5 * ((r - c) / sigma) ** 2)
    return f


def test_timescales_reference_values():
    ts = timescales(QuantumNumbers(85))
    assert ts.T_cl_au == pytest.approx(2.0 * math.pi * 85**3, rel=1e-15)
    assert au_to_ps(ts.T_cl_au) == pytest.approx(93.3, abs=0.1)
    assert au_to_ns(ts.t_rev_au) == pytest.approx(2.64, abs=0.05)


def test_timescale_algebra():
    ts = timescales(QuantumNumbers(85))
    assert ts.t_rev_au / ts.T_cl_au == pytest.approx(85.0 / 3.0, rel=1e-15)
    t2, t3, t4 = ts.fractional
    assert (t2.order, t3.order, t4.order) == FRACTIONAL_ORDERS == (2, 3, 4)
    assert t2.t_au == pytest.approx(ts.t_rev_au / 2.0, rel=1e-15)
    assert t3.t_au == pytest.approx(ts.t_rev_au / 3.0, rel=1e-15)
    assert t4.t_au == pytest.approx(ts.t_rev_au / 4.0, rel=1e-15)
    assert t2.period_au == pytest.approx(ts.T_cl_au / 2.0, rel=1e-15)
    assert t4.period_au == pytest.approx(ts.T_cl_au / 4.0, rel=1e-15)


def test_timescales_refuse_a_revival_time_past_the_float_range():
    # t_rev = nbar T_cl / 3 is the largest time; nbar T_cl overflows from
    # about nbar = 7.3e76, and nbar^3 itself raises OverflowError from 5.6e102
    assert math.isfinite(timescales(QuantumNumbers(7 * 10**76)).t_rev_au)
    for nbar, shown in ((10**77, "1e+77"), (4 * 10**102, "4e+102"), (10**110, "1e+110")):
        with pytest.raises(NumericalError, match=rf"revival time of nbar={re.escape(shown)} passes the float range"):
            timescales(QuantumNumbers(nbar))


def test_count_packets_simple():
    r = np.linspace(0.0, 2000.0, 4001)
    f = gaussians(r, [600.0, 1400.0], [1.0, 0.7])
    rep = count_packets(r, f)
    assert isinstance(rep, PacketReport)
    assert rep.peak_count == 2
    assert rep.peak_positions[0] == pytest.approx(600.0, abs=2.0)
    assert rep.peak_positions[1] == pytest.approx(1400.0, abs=2.0)
    # the count is the number of positions, so it cannot go stale
    assert replace(rep, peak_positions=(600.0,)).peak_count == 1


def test_count_packets_scaling_invariance():
    r = np.linspace(0.0, 2000.0, 4001)
    f = gaussians(r, [600.0, 1400.0], [1.0, 0.7])
    a = count_packets(r, f)
    b = count_packets(r, 17.5 * f)
    assert a.peak_count == b.peak_count
    assert a.peak_positions == b.peak_positions


def test_count_packets_prominence_filters_ripples():
    r = np.linspace(0.0, 2000.0, 4001)
    f = gaussians(r, [1000.0], [1.0], sigma=150.0)
    ripple = 0.01 * np.sin(r / 5.0) * (f > 0.3)
    rep = count_packets(r, f + ripple)
    assert rep.peak_count == 1


def test_count_packets_smoothing_recovers_envelope():
    # two humps modulated by high-visibility interference fringes
    r = np.linspace(0.0, 2000.0, 4001)
    env = gaussians(r, [600.0, 1400.0], [1.0, 0.8], sigma=120.0)
    fringed = env * np.cos(r / 12.0) ** 2
    raw = count_packets(r, fringed)
    smoothed = count_packets(r, fringed, smooth=60.0)
    assert raw.peak_count > 2
    assert smoothed.peak_count == 2


def test_count_packets_wide_smoothing_on_a_fine_grid_is_fast():
    # a width just under the cap on 200 000 points: a direct sum over the
    # 400 000-sample kernel takes tens of seconds, while the overlap-add
    # blocks, each twice the kernel's length (here one), take a fraction of one
    r = np.linspace(0.0, 1600.0, 200_000)
    start = time.perf_counter()
    report = count_packets(r, gaussians(r, [800.0], [1.0], sigma=100.0), smooth=399.0)
    assert time.perf_counter() - start < 5.0
    assert report.peak_count == 1


def test_count_packets_edge_cases():
    r = np.linspace(0.0, 10.0, 11)
    assert count_packets(r, np.zeros_like(r)).peak_count == 0
    with pytest.raises(ValueError):
        count_packets(r, np.zeros(5))
    with pytest.raises(ValueError):
        count_packets(r, np.ones_like(r), prominence_threshold=0.0)
    with pytest.raises(ValueError):
        count_packets(np.cumsum(np.arange(11) + 1.0), np.ones(11), smooth=1.0)
    for size in (0, 1):  # no grid step to smooth over
        with pytest.raises(ValueError, match="two grid points"):
            count_packets(np.zeros(size), np.ones(size), smooth=1.0)
    # a 4-sigma kernel as wide as the grid is refused before it is built; a
    # width of 1e300 would otherwise ask for an impossible kernel
    assert count_packets(r, np.ones_like(r), smooth=2.49).peak_count == 0
    for smooth in (2.5, 1e300):
        with pytest.raises(ValueError, match="too wide"):
            count_packets(r, np.ones_like(r), smooth=smooth)
    # a negative or NaN width is refused, not read as no smoothing
    for smooth in (-5.0, math.nan):
        with pytest.raises(ValueError, match="non-negative"):
            count_packets(r, np.ones_like(r), smooth=smooth)
    # 2-d positions or values are refused by name, not by numpy's truth-value error
    for rr, ff in ((r[None], np.ones((1, 11))), (r, np.ones((11, 1))), (r[:, None], np.ones(11))):
        with pytest.raises(ValueError, match="1-d arrays"):
            count_packets(rr, ff)
    # a snapshot holding NaN or inf is refused, not counted as empty
    for bad in (math.nan, math.inf):
        f = np.ones_like(r)
        f[3] = bad
        with pytest.raises(ValueError, match="must be finite"):
            count_packets(r, f)
    # a reversed uniform grid is refused as such, not as a negative extent;
    # so is a step off by more than 1e-9
    bent = r.copy()
    bent[5] += 2e-9
    for grid in (r[::-1], bent):
        with pytest.raises(ValueError, match="increasing uniform grid"):
            count_packets(grid, np.ones_like(r), smooth=1.0)
    # a NaN or infinite radius is refused, smoothed or not, as a NaN density
    # is: it once came back as a peak position; an infinite first radius
    # passed the uniformity check
    for i, bad in ((5, math.nan), (1, math.nan), (0, -math.inf), (10, math.inf)):
        holed = r.copy()
        holed[i] = bad
        for smooth in (0.0, 1.0):
            with pytest.raises(ValueError, match="positions must be finite"):
                count_packets(holed, np.array([0.0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0]), smooth=smooth)
    # the report's time is finite too
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="time must be finite"):
            count_packets(r, np.ones_like(r), t=t)
    nudged = r.copy()
    nudged[5] += 4e-10  # steps 1 - 4e-10 and 1 + 4e-10: uniform within 1e-9
    assert count_packets(nudged, np.ones_like(r), smooth=1.0).peak_count == 0


def test_count_packets_memory_on_a_fine_grid():
    # 200 000 points with a smoothing width of 300 bohr: the uniform-grid
    # check reads the steps' extremes, so the traced peak is about 35 bytes a
    # point; comparing every step with np.allclose held about 43
    r = np.linspace(0.0, 4.0 * 85**2, 200_000)
    f = np.exp(-(((r - 15000.0) / 2000.0) ** 2)) * (1.0 + 0.3 * np.cos(r / 50.0))
    tracemalloc.start()
    try:
        count_packets(r, f, smooth=300.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * r.size, peak / r.size


def test_smoothing_kernel_of_radius_zero_is_the_identity():
    # sigma^2 underflows to 0 here, where the kernel's exponent would be NaN;
    # the suite turns any numpy RuntimeWarning into an error
    f = gaussians(np.linspace(0.0, 2000.0, 4001), [600.0, 1400.0], [1.0, 0.7])
    for sigma in (1e-200, 0.1, 0.124):
        assert np.array_equal(_gaussian_smooth(f, sigma), f)
    r = np.linspace(0.0, 1e300, 4001)
    scaled = count_packets(r, f, smooth=1e130)
    assert scaled.peak_positions == count_packets(r, f).peak_positions
    assert scaled.peak_count == 2


def test_detect_revival_constant_series_first_index():
    t = np.linspace(0.0, 10.0, 11)
    v = np.ones_like(t)
    t_peak, value = detect_revival(t, v, (2.0, 8.0))
    assert t_peak == 2.0 and value == 1.0


def test_detect_revival_beat_series():
    period = 144.0 * math.pi / 5.0
    t = np.linspace(0.0, 3.0 * period, 3001)
    v = np.cos(math.pi * t / period) ** 2
    t_peak, value = detect_revival(t, v, (0.5 * period, 1.5 * period))
    assert t_peak == pytest.approx(period, abs=period / 1000.0)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_detect_revival_shift_invariance():
    t = np.linspace(0.0, 100.0, 1001)
    v = np.exp(-0.5 * ((t - 40.0) / 3.0) ** 2)
    t1, v1 = detect_revival(t, v, (20.0, 60.0))
    shift = 17.5
    t2, v2 = detect_revival(t + shift, v, (20.0 + shift, 60.0 + shift))
    assert t2 - shift == pytest.approx(t1, abs=1e-12)
    assert v2 == v1


def test_detect_revival_errors():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        detect_revival(t, np.ones_like(t), (5.0, 6.0))
    with pytest.raises(ValueError):
        detect_revival(t, np.ones(3), (0.0, 1.0))
    # a window that is no pair raised IndexError or TypeError
    for window in ((), (0.0,), (0.0, 0.5, 1.0), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="window must be a pair"):
            detect_revival(t, np.ones_like(t), window)


def test_fractional_period_check_synthetic():
    r = np.linspace(0.0, 2000.0, 4001)
    a = gaussians(r, [600.0, 1400.0], [1.0, 0.8])
    b = gaussians(r, [640.0, 1380.0], [0.9, 1.0])
    c = gaussians(r, [1000.0], [1.0])
    assert fractional_period_check(r, a, a, r_out=1500.0)
    assert fractional_period_check(r, a, b, r_out=1500.0)
    assert not fractional_period_check(r, a, c, r_out=1500.0)  # counts differ
    far = gaussians(r, [300.0, 1700.0], [1.0, 0.8])
    assert not fractional_period_check(r, a, far, r_out=1500.0)  # positions differ
    empty = np.zeros_like(r)
    assert fractional_period_check(r, empty, empty, r_out=1500.0)  # no packets in either
    with pytest.raises(ValueError):
        fractional_period_check(r, a, b[:100], r_out=1500.0)


def test_fractional_period_check_pairs_packets_in_radial_order():
    # a nearest-pair search paired 700 with 680 first, leaving 500 with 880
    # (380 bohr); in radial order 500-680 and 700-880 each miss by 180 of the
    # 200-bohr tolerance
    r = np.linspace(0.0, 2000.0, 4001)
    a = gaussians(r, [500.0, 700.0], [1.0, 1.0], sigma=10.0)
    b = gaussians(r, [680.0, 880.0], [1.0, 1.0], sigma=10.0)
    assert fractional_period_check(r, a, b, r_out=4000.0)
    assert fractional_period_check(r, b, a, r_out=4000.0)
    assert not fractional_period_check(r, a, b, r_out=3000.0)  # 150 bohr


def test_fractional_period_check_matches_where_some_pairing_does():
    # 1-5 packets per snapshot, the second's displaced up to 300 bohr from the
    # first's or drawn anew; the verdict is that of the best of all pairings
    # of the two reports' positions, found by brute force
    rng = np.random.default_rng(9508019)
    r = np.linspace(0.0, 2000.0, 4001)
    tol = 0.05 * 4000.0
    verdicts = []
    for _ in range(150):
        centers_a = rng.uniform(100.0, 1900.0, rng.integers(1, 6))
        centers_b = centers_a + rng.uniform(-300.0, 300.0, centers_a.size)
        if rng.random() < 0.2:
            centers_b = rng.uniform(100.0, 1900.0, rng.integers(1, 6))
        f_a = gaussians(r, centers_a, rng.uniform(0.5, 1.0, centers_a.size), sigma=10.0)
        f_b = gaussians(r, centers_b, rng.uniform(0.5, 1.0, centers_b.size), sigma=10.0)
        pa, pb = count_packets(r, f_a), count_packets(r, f_b)
        want = pa.peak_count == pb.peak_count and any(
            all(abs(x - y) <= tol for x, y in zip(pa.peak_positions, order))
            for order in itertools.permutations(pb.peak_positions)
        )
        assert fractional_period_check(r, f_a, f_b, r_out=4000.0) == want, (pa, pb)
        verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)


# SciPy is the reference for the numpy envelope filter and peak finder; the
# package itself does not import it.


def _reference_arrays():
    rng = np.random.default_rng(9508019)
    cases = [np.array(v, dtype=float) for v in (
        [0], [1], [0, 1], [1, 0], [1, 1], [0, 1, 0], [1, 0, 1], [2, 2, 1], [1, 2, 2],
        [2, 2, 2], [0, 1, 1, 0], [0, 1, 1, 1, 0], [1, 1, 0, 1, 1], [0, 2, 1, 2, 0],
        [3, 3, 1, 2, 2, 0, 3, 3],
    )]
    for n in range(1, 60):
        cases.append(rng.normal(size=n))
        cases.append(rng.integers(0, 4, size=n).astype(float))  # plateaus and ties
    return cases


@pytest.fixture(scope="module")
def snapshots(exp85, grid85, basis85):
    """Density snapshots at nbar 20 and 85, each with the CLI's default
    smoothing width in samples (one third of the initial dr)."""
    exp20 = decompose(fit_parameters(QuantumNumbers(20)))
    grid20 = RadialGrid.uniform(4.0 * 20**2, 16000)
    out = []
    for nbar, exp, grid, basis in ((20, exp20, grid20, BasisTable.for_expansion(exp20, grid20)),
                                   (85, exp85, grid85, basis85)):
        sigma = observables(exp, 0.0, grid, basis).dr / 3.0 / (grid.points[1] - grid.points[0])
        ts = timescales(QuantumNumbers(nbar))
        for t in (0.0, 0.3 * ts.T_cl_au, ts.t_rev_au / 4.0, ts.t_rev_au / 3.0, ts.t_rev_au / 2.0):
            out.append((density(exp, grid, t, basis), sigma))
    return out


def test_prominent_peaks_match_scipy_find_peaks(snapshots):
    signal = pytest.importorskip("scipy.signal")
    ndimage = pytest.importorskip("scipy.ndimage")
    arrays = _reference_arrays()
    arrays += [f for f, _ in snapshots]
    arrays += [ndimage.gaussian_filter1d(f, sigma) for f, sigma in snapshots]
    for f in arrays:
        span = float(f.max() - f.min())
        # 1.0 hits integer prominences exactly: the threshold is inclusive
        for threshold in (0.0, 1e-3 * span, 0.05 * span, 0.2 * span, 1.0):
            expected, _ = signal.find_peaks(f, prominence=threshold)
            got = _prominent_peaks(f, threshold)
            assert np.array_equal(got, expected), (f.size, threshold)


def test_gaussian_smooth_matches_scipy_gaussian_filter1d(snapshots):
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(1995)
    cases = [(rng.normal(size=n), sigma) for n in (1, 2, 7, 40) for sigma in (0.3, 1.0, 2.5, 30.0)]
    # several overlap-add blocks of the minimum size, then of a size set by a
    # kernel longer than that minimum (8801 samples, blocks of 2^15)
    for n, sigma in ((40_000, 30.0), (80_000, 1100.0)):
        radius = int(4.0 * sigma + 0.5)
        size = max(_FFT_BLOCK, 1 << (2 * (2 * radius + 1) - 1).bit_length())
        assert (n + 2 * radius) / (size - 2 * radius) > 3.0
        cases.append((rng.normal(size=n), sigma))
    assert 2 * int(4.0 * 1100.0 + 0.5) + 1 > _FFT_BLOCK
    cases += snapshots
    for f, sigma in cases:
        expected = ndimage.gaussian_filter1d(f, sigma)
        got = _gaussian_smooth(f, sigma)
        assert got.shape == expected.shape
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-12 * scale, (f.size, sigma)


def test_gaussian_smooth_memory_stays_near_the_snapshot_size():
    # a width of the order of the CLI's default at its grid cap (about 9000
    # samples at nbar 85); the overlap-add holds the padded copy, the output
    # and one block's spectra (a whole-grid FFT held about 5.4 times the
    # input's bytes)
    f = np.random.default_rng(3).normal(size=1_000_000)
    tracemalloc.start()
    try:
        _gaussian_smooth(f, 6900.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * f.nbytes, peak / f.nbytes
