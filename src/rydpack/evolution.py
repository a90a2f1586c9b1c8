"""Spectral time evolution, density sampling and time-dependent observables.

Propagation is exact in the bound-state basis: each coefficient picks up the
phase exp(-i E_n t).  The uncertainties of an evolved state come from the
moment window of ``spectral``, and no wavefunction is ever sampled for them:
``observables`` is a one-time block of its record routine, which a scan runs
on blocks of times.  Only density snapshots evaluate the wavefunction, on a
caller-supplied grid, from values of the same kernel: a snapshot is a real
(2, N) product of the stacked Re/Im coefficients with a real table, so no
table is ever copied to complex.  Without a ``BasisTable``, as ``rydpack
density`` calls it, the table is built one block of radii at a time
(``spectral._amplitude_blocks``) and every snapshot time is taken on each
block, so memory grows with snapshots times points: one block's table, and
within it one tile's Laguerre rows (``specfun._radial_rows``), are alive at
a time.  Only a caller that passes a ``BasisTable`` holds the whole
levels-times-points table (none in the package; ``perfbench``'s in-process
passes and the tests do), and the values have the same bits either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .specfun import _radial_rows
from .spectral import (
    EigenExpansion,
    UncertaintyRecord,
    _amplitude_blocks,
    _amplitude_parts,
    _phases,
    _records,
)
from .squeezed import L

__all__ = [
    "RadialGrid",
    "BasisTable",
    "evolve",
    "autocorrelation",
    "density",
    "observables",
]


@dataclass(frozen=True)
class RadialGrid:
    """Finite, strictly increasing sample radii in bohr, held in a read-only copy."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 3:
            raise ValueError("grid needs at least 3 points")
        if not np.isfinite(pts).all():
            raise ValueError("grid points must be finite")
        if pts[0] < 0 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be non-negative and strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, r_max: float, n_points: int) -> "RadialGrid":
        return cls(np.linspace(0.0, float(r_max), int(n_points)))


class BasisTable:
    """Eigenfunction values R_nl of the levels ``ns``, l = ``L``, tabulated on
    fixed radii, for density snapshots.

    The table is one call of ``specfun._radial_rows``, which on a grid of
    many thousand points steps one Laguerre recurrence per anchor group of
    five levels and sums the group's other levels from it; evaluating
    an evolved wavefunction afterwards is one real (2, N) product of the
    stacked Re/Im coefficients, so one table serves any number of snapshot
    times.  It holds all levels times all points, and no code in the package
    builds one: ``density`` without a table, ``rydpack density`` and
    ``spectral.reconstruct`` step blocks of radii instead.  The callers that
    hold one pass it to ``density`` call after call (``perfbench``'s
    in-process passes, the tests).  ``observables`` does not need a table;
    it only checks one it is given against the expansion and grid.
    The constructor computes the values, and keeps an input array only when
    it is read-only and owns its data (an expansion's ``ns``, a grid's
    ``points``), else a read-only copy.  So a table built for an expansion
    and grid is accepted by identity, without comparing the radii again, and
    identity proves that its read-only values still belong to them.
    """

    def __init__(self, ns, points):
        self.ns = _read_only(np.asarray(ns))
        self.points = _read_only(np.asarray(points, dtype=float))
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


def _check_table(exp, grid, basis) -> None:
    if not basis.matches(exp, grid):
        raise ValueError("basis table does not match the expansion/grid pair")


def evolve(exp: EigenExpansion, t: float) -> EigenExpansion:
    """Multiply each coefficient by exp(-i E_n t); the evolved coefficients
    give the same deficit up to rounding."""
    return replace(exp, coeffs=exp.coeffs * _phases(exp, t))


def autocorrelation(exp: EigenExpansion, t: float) -> float:
    """|<psi(0)|psi(t)>|^2 within the expansion, normalized to 1 at t = 0.

    The phases come from the expansion's cached rates -i E_n, with the bits
    of exp(-1j * E_n * t).  A scan's block of times gives each time the same
    bits as this call, whatever the block."""
    s = exp.weight
    if s == 0.0:
        raise ValueError("empty expansion has no autocorrelation")
    amp = np.dot(exp.populations, _phases(exp, t))
    return float(abs(amp)) ** 2 / s**2


def density(exp: EigenExpansion, grid: RadialGrid, t: float = 0.0, basis: BasisTable | None = None):
    """Radial probability density f(r) = r^2 |psi_t(r)|^2 on the grid.

    Re and Im of psi_t come from a real (2, N) product of the stacked Re/Im
    coefficients c(t) with the real table, and f = (r re)^2 + (r im)^2
    (``_radial_density``).  A supplied ``basis`` must match the expansion and
    grid (else ValueError) and serves as the whole table; without one, the
    table is built and used one block of radii at a time (``_densities``),
    with the same bits.
    """
    if basis is None:
        return _densities(exp, grid.points, [t])[0]
    _check_table(exp, grid, basis)
    return _radial_density(_amplitude_parts(exp.coeffs * _phases(exp, t), basis.values), grid.points)


def _radial_density(parts: np.ndarray, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f = (r re)^2 + (r im)^2 from the (2, N) ``parts`` [re, im], which are
    scaled and squared in place.  Scaling the amplitudes first keeps f
    finite on any finite grid: r^2 overflows past r = 1.3e154, where inf
    times an amplitude of 0 would be NaN."""
    parts *= r
    np.square(parts, out=parts)
    return np.add(parts[0], parts[1], out=out)


def _densities(exp: EigenExpansion, r: np.ndarray, times) -> np.ndarray:
    """The (times, points) array of f = r^2 |psi_t(r)|^2 at each of the
    ``times`` on the 1-d radii ``r``; each row has the bits of ``density``
    on a whole ``BasisTable`` (``_radial_density`` on each block).

    Each block of radii builds its table once and takes every time's product
    on it (``spectral._amplitude_blocks``), so besides the result only one
    block's table is held.
    """
    coeff_rows = [exp.coeffs * _phases(exp, t) for t in times]
    out = np.empty((len(coeff_rows), r.size))
    for block, i, parts in _amplitude_blocks(exp.ns, coeff_rows, r):
        _radial_density(parts, r[block], out=out[i, block])
    return out


def observables(
    exp: EigenExpansion,
    t: float,
    grid: RadialGrid | None,
    basis: BasisTable | None = None,
) -> UncertaintyRecord:
    """Uncertainties of the evolved state at time t, as matrix elements.

    The moments are c(t)^dagger M c(t) with the cached operator matrices of
    the expansion window (r, r^2, r^-1, r^-2 and p_r), divided by the
    expansion's weight sum |c_n|^2, which is the norm at every time.  <p_r^2>
    follows from the energies and the r^-1 and r^-2 forms; no grid is
    sampled.  Neither ``grid`` nor ``basis`` enters the result: a supplied
    ``basis`` is only checked against the expansion and grid (a table built
    for them is accepted by identity), and a mismatch raises ValueError.

    This is a one-time block of the record routine (``spectral._records``)
    that ``scan`` runs on blocks of times, and every time takes the same
    one-row product there, so a record has the bits of its row in any
    block; its Python-float tail has the bits of the same arithmetic on
    NumPy scalars.  The quadrature is checked once per window, by three guards
    when its matrices are built (``spectral._moment_matrices``); past that,
    NumericalError arises only for a state with no momentum spread (dp_r = 0,
    so dr / dp_r is undefined), and ValueError for an expansion of zero
    weight.
    """
    if basis is not None:
        _check_table(exp, grid, basis)  # validated only; the moments need no table
    return _records(exp, [float(t)], _phases(exp, t)[None])[0]
