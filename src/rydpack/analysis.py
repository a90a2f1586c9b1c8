"""Timescales, packet counting and revival detection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import NumericalError, _real, _reals
from .squeezed import QuantumNumbers

__all__ = [
    "FRACTIONAL_ORDERS",
    "FractionalRevival",
    "Timescales",
    "PacketReport",
    "timescales",
    "count_packets",
    "detect_revival",
    "fractional_period_check",
]


@dataclass(frozen=True)
class FractionalRevival:
    order: int
    t_au: float
    period_au: float


@dataclass(frozen=True)
class Timescales:
    """Classical period, revival and fractional-revival times of nbar, in a.u."""

    T_cl_au: float
    t_rev_au: float
    fractional: tuple[FractionalRevival, ...]


@dataclass(frozen=True)
class PacketReport:
    """Packets found in the snapshot at time t, at or above the threshold;
    ``peak_count`` is the number of ``peak_positions``."""

    t: float
    peak_positions: tuple[float, ...]
    prominence_threshold: float

    @property
    def peak_count(self) -> int:
        return len(self.peak_positions)


# the orders r of the fractional revivals that `timescales` reports
FRACTIONAL_ORDERS = (2, 3, 4)


def timescales(q: QuantumNumbers) -> Timescales:
    """T_cl = 2 pi nbar^3 and t_rev = nbar T_cl / 3, plus fractional-revival
    times t_r = t_rev / r with periods T_r = T_cl / r for r in
    ``FRACTIONAL_ORDERS``.  Past about nbar = 7.3e76, nbar T_cl overflows, so
    t_rev, the largest time, is not finite: NumericalError names nbar."""
    n = float(q.nbar)
    try:
        t_cl = 2.0 * math.pi * n**3
    except OverflowError:  # nbar^3 raises from about 5.6e102, where nbar T_cl is long past the range
        t_cl = math.inf
    t_rev = n * t_cl / 3.0
    if not math.isfinite(t_rev):
        raise NumericalError(f"the revival time of nbar={q.nbar:.6g} passes the float range")
    fractional = tuple(
        FractionalRevival(order=int(r), t_au=t_rev / r, period_au=t_cl / r)
        for r in FRACTIONAL_ORDERS
    )
    return Timescales(T_cl_au=t_cl, t_rev_au=t_rev, fractional=fractional)


def count_packets(
    r,
    f,
    prominence_threshold: float = 0.05,
    t: float = 0.0,
    smooth: float = 0.0,
) -> PacketReport:
    """Count spatially separated packets in a density snapshot.

    A packet is a local maximum whose prominence is at or above
    ``prominence_threshold`` times the global maximum.  A run of equal values
    counts as one maximum, placed at the run's midpoint (lower middle index),
    when both neighbouring values are lower; runs touching either end of the
    grid never count.  Prominence is the height above the higher of the two
    bases, each base being the lowest value between the peak and the nearest
    strictly higher sample on that side (or the grid end).  Counting is
    invariant under positive rescaling of f.

    ``smooth`` (bohr) applies a Gaussian envelope filter before peak finding:
    the kernel exp(-x^2 / 2 sigma^2) is cut at 4 sigma, normalised to unit sum,
    and the snapshot is extended past its ends by mirror reflection
    (d c b a | a b c d | d c b a).  Overlapping sub-packets interfere, so the
    raw density carries fringes at the local de Broglie scale; smoothing at a
    fraction of the packet width recovers the envelope humps those fringes
    ride on.  Requires an increasing uniform grid of at least two points when
    non-zero, and a kernel narrower than the grid: 4 ``smooth`` at or above the
    grid's extent, or a negative or NaN width, raises ValueError before the
    kernel is built.  ``r`` and ``f`` must be finite 1-d arrays of one
    shape and ``t`` finite, and a string or an int past float range is a
    ValueError too; a smoothed snapshot past the float range, NumericalError.
    """
    r = _reals("positions", r)
    f = _reals("density snapshot", f)
    if r.ndim != 1 or f.ndim != 1:
        raise ValueError("positions and density values must be 1-d arrays")
    if r.shape != f.shape:
        raise ValueError("positions and density values must have the same shape")
    prominence_threshold = _real("prominence threshold", prominence_threshold, finite=False)
    if not 0.0 < prominence_threshold < 1.0:
        raise ValueError("prominence threshold must lie in (0, 1)")
    t = _real("time", t)
    smooth = _real("smoothing width", smooth, finite=False)
    if not smooth >= 0.0:  # a NaN width fails too
        raise ValueError(f"smoothing width must be non-negative, got {smooth!r}")
    if smooth > 0.0:
        if r.size < 2:
            raise ValueError("envelope smoothing needs at least two grid points")
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite step is no uniform grid
            steps = np.diff(r)
            step = steps[0]
            # every step within 1e-9 of the first, by the extremes alone (rounding
            # is monotone, so this is |steps - step| <= 1e-9 step, NaN refused)
            uniform = steps.max() - step <= 1e-9 * step and step - steps.min() <= 1e-9 * step
            extent = r[-1] - r[0]
        del steps  # before the smoothing allocates its blocks
        if not (step > 0.0 and uniform):
            raise ValueError("envelope smoothing requires an increasing uniform grid")
        if 4.0 * smooth >= extent:
            raise ValueError(
                f"smoothing width {smooth:g} bohr is too wide: its 4-sigma kernel "
                f"spans the whole grid extent of {extent:g} bohr"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            f = _gaussian_smooth(f, smooth / step)
        if not np.isfinite(f).all():
            raise NumericalError("smoothing the density snapshot passes the float range")
    fmax = f.max() if f.size else 0.0
    idx = _prominent_peaks(f, prominence_threshold * fmax) if fmax > 0.0 else []
    return PacketReport(t=t, peak_positions=tuple(r[idx].tolist()), prominence_threshold=prominence_threshold)


# the FFT size of `_gaussian_smooth`'s overlap-add blocks: at least 8192, so
# that a narrow kernel's blocks still carry thousands of new samples each and
# the per-transform overhead stays small, and at least twice the kernel's
# length, so that each block adds at least as many new samples as it spends on
# the kernel's tail
_FFT_BLOCK = 8192


def _gaussian_smooth(f: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian filter of width ``sigma`` samples: kernel cut at 4 sigma,
    mirror-reflected edges (numpy's "symmetric" padding).  The convolution is
    an overlap-add of real FFT products of one fixed size: the kernel's
    spectrum is computed once, and each slice of the padded snapshot is
    transformed, multiplied, transformed back and added into the output.  It
    costs O(n log m) for a kernel of m samples, and no spectrum grows with the
    grid.  A kernel of radius 0 is the identity, so the snapshot is returned
    unchanged (the exponent would be NaN where sigma^2 underflows)."""
    radius = int(4.0 * sigma + 0.5)
    if radius == 0:
        return f
    x = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 / (sigma * sigma) * x * x)
    kernel /= kernel.sum()
    padded = np.pad(f, radius, mode="symmetric")
    size = max(_FFT_BLOCK, 1 << (2 * kernel.size - 1).bit_length())
    step = size - kernel.size + 1
    spectrum = np.fft.rfft(kernel, size)
    out = np.zeros(f.size)
    # the full convolution's sample j lands in out[j - 2 radius]
    for start in range(0, padded.size, step):
        block = np.fft.irfft(np.fft.rfft(padded[start : start + step], size) * spectrum, size)
        lo = max(start, 2 * radius)
        hi = min(start + size, padded.size)
        out[lo - 2 * radius : hi - 2 * radius] += block[lo - start : hi - start]
    return out


def _prominent_peaks(f: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the local maxima of ``f`` whose prominence is at least
    ``min_prominence``, in ascending order (the rule in `count_packets`)."""
    # collapse runs of equal values; a run is a maximum when both neighbours are lower
    starts = np.flatnonzero(np.concatenate(([True], f[1:] != f[:-1])))
    ends = np.append(starts[1:] - 1, f.size - 1)
    v = f[starts]
    k = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = (starts[k] + ends[k]) // 2
    # prominence never exceeds the height above the global minimum; a height
    # past the float range is inf, and passes
    with np.errstate(over="ignore"):
        peaks = peaks[f[peaks] - f.min() >= min_prominence]
        keep = []
        for p in peaks:
            # each base spans from the peak to the nearest strictly higher sample
            h = f[p]
            left = np.flatnonzero(f[:p] > h)
            right = np.flatnonzero(f[p + 1 :] > h)
            lo = left[-1] + 1 if left.size else 0
            hi = p + 1 + right[0] if right.size else f.size
            base = max(f[lo : p + 1].min(), f[p:hi].min())
            keep.append(h - base >= min_prominence)
    return peaks[np.array(keep, dtype=bool)]


def detect_revival(times, values, window):
    """Maximum of an autocorrelation series inside ``window = (t_lo, t_hi)``.

    Returns (t_peak, value); ties resolve to the earliest time.  A NaN or
    infinite time or value, a window that is no pair of numbers (an end may
    be infinite), or a string or an int past float range is a ValueError.
    """
    times = _reals("times", times)
    values = _reals("values", values)
    if times.shape != values.shape:
        raise ValueError("times and values must have the same shape")
    window = _reals("window", window, finite=False)
    if window.shape != (2,):
        raise ValueError(f"window must be a pair (t_lo, t_hi), got shape {window.shape}")
    t_lo, t_hi = window.tolist()
    mask = (times >= t_lo) & (times <= t_hi)
    if not mask.any():
        raise ValueError(f"no samples inside window [{t_lo:g}, {t_hi:g}]")
    sub_t = times[mask]
    sub_v = values[mask]
    i = int(np.argmax(sub_v))
    return float(sub_t[i]), float(sub_v[i])


# two snapshots match when every paired peak agrees within this fraction of r_out
_POSITION_TOL = 0.05


def fractional_period_check(r, f_a, f_b, r_out: float, smooth: float = 0.0) -> bool:
    """True when two snapshots carry the same packet configuration.

    Packets are counted with `count_packets`' default prominence threshold.
    The counts must agree, and the peak positions are paired in radial
    order: the k-th nearest to the origin of one snapshot with the k-th of
    the other.  Every pair must agree within 0.05 ``r_out``, which must be
    positive and finite (else ValueError); ``count_packets`` checks the
    rest.  On a line this pairing keeps the largest gap the smallest of all
    pairings, since uncrossing two crossed pairs grows neither gap, so no
    other pairing matches where it does not.
    """
    r_out = _real("r_out", r_out, positive=True)
    pa = count_packets(r, f_a, smooth=smooth)
    pb = count_packets(r, f_b, smooth=smooth)
    if pa.peak_count != pb.peak_count:
        return False
    gaps = np.abs(np.sort(pa.peak_positions) - np.sort(pb.peak_positions))
    return bool(np.max(gaps, initial=0.0) <= _POSITION_TOL * r_out)
