"""Spectral time evolution, density sampling and time-dependent observables.

An expansion is real (``spectral``), and propagation is exact in the
bound-state basis: at time t each coefficient picks up the phase
exp(-i E_n t) where that time is evaluated; no evolved expansion is formed.
Every entry point refuses a time that is not finite, a string or an int
past float range by ``specfun``'s rule for real scalars (``_real``).  The
uncertainties come from the moment window of ``spectral``, and no
wavefunction is sampled for them: ``observables`` and ``autocorrelation``
are one-time blocks of the routines a scan runs on blocks of times.  Density
snapshots have one route, ``_densities``: per block of radii, a real (2, N)
product of each time's stacked Re/Im coefficients with the block's real
table (``spectral._amplitude_blocks``).  The block's table is built there, so
memory grows with snapshots times points, or read from a ``BasisTable``
that a caller holds whole (none in the package; ``perfbench``'s in-process
passes and the tests do), with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import _radial_rows, _real, _reals, _whole
from .spectral import (
    EigenExpansion,
    UncertaintyRecord,
    _amplitude_blocks,
    _autocorrelations,
    _phases,
    _records,
)
from .squeezed import L

__all__ = [
    "RadialGrid",
    "BasisTable",
    "autocorrelation",
    "density",
    "observables",
]


# the most points ``RadialGrid.uniform`` makes, as ``radial_quadrature``'s nodes
_MAX_GRID_POINTS = 1 << 20


@dataclass(frozen=True)
class RadialGrid:
    """Finite, strictly increasing sample radii in bohr, held in a read-only copy."""

    points: np.ndarray

    def __post_init__(self):
        pts = _reals("grid points", self.points).copy()
        if pts.ndim != 1 or pts.size < 3:
            raise ValueError("grid needs at least 3 points")
        if pts[0] < 0 or np.any(pts[1:] <= pts[:-1]):  # neighbours compared: a difference may overflow
            raise ValueError("grid points must be non-negative and strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, r_max: float, n_points: int) -> "RadialGrid":
        """``n_points`` evenly spaced radii from 0 to ``r_max``.  ValueError
        for a count that is not a whole number in [0, 2^20] (8 MB of radii)
        or an ``r_max`` that is no finite real number, each named, before any
        radius is made; fewer than 3 points, or radii that do not increase
        (``r_max`` <= 0), are the constructor's ValueError."""
        n_points = _whole("n_points", n_points, 0, _MAX_GRID_POINTS)
        return cls(np.linspace(0.0, _real("r_max", r_max), n_points))


class BasisTable:
    """Eigenfunction values R_nl of the levels ``ns``, l = ``L``, tabulated on
    fixed radii, for density snapshots.

    The table is one call of ``specfun._radial_rows``, which on a grid of
    many thousand points steps one Laguerre recurrence per anchor group of
    five levels and sums the group's other levels from it; ``density``
    reads its columns block by block, for any number of snapshot times.  It
    holds all levels times all points, and no code in the package builds
    one.  ``observables`` only checks one it is given against the expansion
    and grid.
    The constructor takes 1-d levels and radii, computes the values, and
    keeps an input array only when it is read-only and owns its data (an
    expansion's ``ns``, a grid's ``points``), else a read-only copy.  So a
    table built for an expansion and grid is accepted by identity, without
    comparing the radii again, and identity proves that its read-only values
    still belong to them.
    """

    def __init__(self, ns, points):
        self.ns = _read_only(np.asarray(ns))
        self.points = _read_only(_reals("radius", points, radii=True))
        if self.ns.ndim != 1 or self.points.ndim != 1:
            raise ValueError("levels and points must be 1-d arrays")
        self.values = _radial_rows(self.ns, L, self.points)
        self.values.flags.writeable = False

    @classmethod
    def build(cls, ns, points) -> "BasisTable":
        return cls(ns, points)

    @classmethod
    def for_expansion(cls, exp: EigenExpansion, grid: RadialGrid) -> "BasisTable":
        return cls.build(exp.ns, grid.points)

    def matches(self, exp: EigenExpansion, grid: RadialGrid) -> bool:
        if self.points is grid.points and self.ns is exp.ns:
            return True
        return (
            self.ns.size == exp.ns.size
            and np.array_equal(self.ns, exp.ns)
            and self.points.size == grid.points.size
            and np.array_equal(self.points, grid.points)
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.flags.writeable = False
    return a


def _table(exp, grid, basis) -> np.ndarray | None:
    """The values of ``basis``, None without one; ValueError unless it matches."""
    if basis is not None and not basis.matches(exp, grid):
        raise ValueError("basis table does not match the expansion/grid pair")
    return None if basis is None else basis.values


def autocorrelation(exp: EigenExpansion, t: float) -> float:
    """|<psi(0)|psi(t)>|^2 within the expansion, normalized to 1 at t = 0.

    A one-time block of the scan's routine (``spectral._autocorrelations``),
    so a scan gives each time the bits of this call.  The phases come from
    the cached rates -i E_n, with the bits of exp(-1j * E_n * t).  A time
    that is not finite raises ValueError."""
    return _autocorrelations(exp, _phases(exp, _real("time", t))[None])[0]


def density(exp: EigenExpansion, grid: RadialGrid, t: float = 0.0, basis: BasisTable | None = None):
    """Radial probability density f(r) = r^2 |psi_t(r)|^2 on the grid.

    One row of ``_densities``.  A supplied ``basis`` must match the expansion
    and grid (else ValueError), and its values serve as the table, block by
    block; without one, each block's table is built as it is needed.  Both
    give the same bits.  A time that is not finite raises ValueError.
    """
    return _densities(exp, grid.points, [_real("time", t)], _table(exp, grid, basis))[0]


def _densities(exp: EigenExpansion, r: np.ndarray, times, table=None) -> np.ndarray:
    """The (times, points) array of f = r^2 |psi_t(r)|^2 at each of the
    ``times`` on the 1-d radii ``r``, from the (levels, points) ``table`` of
    R_nl on ``r`` if one is given.

    f = (r re)^2 + (r im)^2 is formed in the memory of each block's parts
    (``spectral._amplitude_blocks``).  Scaling the amplitudes first keeps f
    finite on any finite grid: r^2 overflows past r = 1.3e154, where inf
    times an amplitude of 0 would be NaN.
    """
    coeff_rows = [exp.coeffs * _phases(exp, t) for t in times]
    out = np.empty((len(coeff_rows), r.size))
    for block, i, parts in _amplitude_blocks(exp.ns, coeff_rows, r, table):
        parts *= r[block]
        np.square(parts, out=parts)
        np.add(parts[0], parts[1], out=out[i, block])
    return out


def observables(
    exp: EigenExpansion, t: float, grid: RadialGrid | None = None, basis: BasisTable | None = None
) -> UncertaintyRecord:
    """Uncertainties of the state at time t, as matrix elements.

    The moments are c(t)^dagger M c(t), with c_n(t) = c_n exp(-i E_n t) and
    the cached operator matrices of the expansion window (r, r^2, r^-1,
    r^-2 and p_r), divided by the expansion's weight sum c_n^2, which is the
    norm at every time.  <p_r^2> follows from the energies and the r^-1 and
    r^-2 forms; no grid is sampled.  Neither ``grid`` nor ``basis`` enters
    the result: a supplied ``basis`` is only checked against the expansion
    and grid (a table built for them is accepted by identity), and a
    mismatch raises ValueError.

    This is a one-time block of the record routine (``spectral._records``)
    that ``scan`` runs on blocks of times, and every time takes the same
    one-row product there, so a record has the bits of its row in any
    block; its Python-float tail has the bits of the same arithmetic on
    NumPy scalars.  The quadrature is checked once per window, by three guards
    when its matrices are built (``spectral._moment_matrices``); past that,
    NumericalError arises only for a state with no momentum spread (dp_r = 0,
    so dr / dp_r is undefined), and ValueError for a time that is not finite.
    """
    t = _real("time", t)
    _table(exp, grid, basis)  # validated only; the moments need no table
    return _records(exp, [t], _phases(exp, t)[None])[0]
