"""Spectral time evolution, density sampling and time-dependent observables.

Propagation is exact in the bound-state basis: each coefficient picks up the
phase exp(-i E_n t).  Every moment an uncertainty needs comes from quadratic
forms c(t)^dagger M c(t) in those coefficients, so the matrices of 1, r, r^2,
r^-1 and r^-2 are integrated once per expansion window on a Gauss-Legendre
rule and no wavefunction is ever sampled for them.  The rule reaches
max(4 n_max^2, 196) bohr, so small windows keep their tails, and the window's
eigenfunctions come from ``specfun._radial_rows``, whose Laguerre recurrence
steps about 12 levels of the window at once.  The radial momentum
p_r = -i (d/dr + 1/r) needs no matrix of its own: [H, r] = -i p_r gives
<n|p_r|m> = -i (E_m - E_n) <n|r|m>, and the radial Hamiltonian gives
p_r^2 = 2 (H + 1/r) - l(l+1)/r^2.  Both hold exactly within the bound set.
Only density snapshots evaluate the wavefunction, on a caller-supplied grid,
from a table of the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .specfun import NumericalError, _radial_rows, radial_quadrature
from .spectral import EigenExpansion

__all__ = [
    "RadialGrid",
    "UncertaintyRecord",
    "BasisTable",
    "evolve",
    "autocorrelation",
    "density",
    "observables",
]


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing sample radii in bohr, held in a read-only copy."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 3:
            raise ValueError("grid needs at least 3 points")
        if pts[0] < 0 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be non-negative and strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, r_max: float, n_points: int) -> "RadialGrid":
        return cls(np.linspace(0.0, float(r_max), int(n_points)))

    @property
    def r_max(self) -> float:
        return float(self.points[-1])


@dataclass(frozen=True)
class UncertaintyRecord:
    """Uncertainties of one evolved state at time t (atomic units throughout).

    ``product`` = dr * dpr, ``ratio`` = dr / dpr (bohr^2), and
    ``bound_half_rm2`` = <r^-2>/2 is the lower bound on dR * dP.
    """

    t: float
    dr: float
    dpr: float
    product: float
    ratio: float
    dR: float
    dP: float
    bound_half_rm2: float


class BasisTable:
    """Eigenfunction values R_nl tabulated on fixed radii, for density snapshots.

    The table is one call of ``specfun._radial_rows``, which on a grid of
    many thousand points steps one level per Laguerre recurrence; evaluating
    an evolved wavefunction afterwards is a single matrix-vector product, so
    one table serves any number of snapshot times.  ``observables`` does not need
    a table; it only checks one it is given against the expansion and grid.
    ``build`` keeps the caller's arrays, so a table built for an expansion and
    grid holds their very ``ns`` and ``points`` and is accepted by identity,
    without comparing the radii again.  Both arrays are read-only, so
    identity proves that the values still belong to them.
    """

    def __init__(self, ns, l, points, values):
        self.ns = ns
        self.l = l
        self.points = points
        self.values = values

    @classmethod
    def build(cls, ns, l: int, points) -> "BasisTable":
        ns, points = np.asarray(ns), np.asarray(points, dtype=float)
        return cls(ns, l, points, _radial_rows(ns, l, points))

    @classmethod
    def for_expansion(cls, exp: EigenExpansion, grid: RadialGrid) -> "BasisTable":
        return cls.build(exp.ns, exp.l, grid.points)

    def matches(self, exp: EigenExpansion, grid: RadialGrid) -> bool:
        if self.points is grid.points and self.ns is exp.ns and self.l == exp.l:
            return True
        return (
            self.l == exp.l
            and self.ns.size == exp.ns.size
            and np.array_equal(self.ns, exp.ns)
            and self.points.size == grid.points.size
            and np.array_equal(self.points, grid.points)
        )


def _table_for(exp, grid, basis):
    if basis is None:
        return BasisTable.for_expansion(exp, grid)
    if not basis.matches(exp, grid):
        raise ValueError("basis table does not match the expansion/grid pair")
    return basis


# the moment matrices are trusted only while the Gram matrix S is this close
# to the identity in the spectral norm
_GRAM_TOL = 1e-6

# the moment rule reaches at least this far (bohr): 4 n^2 at n = 7.  Below
# that, 4 n_max^2 cuts the tail of the top level short (||S - I||_2 = 4e-4 on
# [2, 2]); every window with n_max >= 7 keeps 4 n_max^2
_R_MAX_FLOOR = 196.0


@lru_cache(maxsize=8)
def _moment_matrices(l: int, n_min: int, n_max: int) -> np.ndarray:
    """The (5, N, N) operator matrices of the window [n_min, n_max], read-only.

    In order: <n|m>, <n|r|m>, <n|r^2|m>, <n|r^-1|m> and <n|r^-2|m>, all
    integrated with the measure r^2 dr on a 2048-node panelized
    Gauss-Legendre rule over [0, max(4 n_max^2, 196)].  The R_nl values come
    from ``specfun._radial_rows``: one Laguerre recurrence steps about 12
    levels of the window at once, and each is read off at its own degree.
    The Gram matrix S = <n|m> must satisfy ||S - I||_2 <= _GRAM_TOL,
    else NumericalError; then |c^dagger S c - c^dagger c| <= _GRAM_TOL c^dagger c
    for every coefficient vector c, so one check covers every time.
    """
    x, w = radial_quadrature(max(4.0 * n_max * n_max, _R_MAX_FLOOR), 2048)
    vals = _radial_rows(np.arange(n_min, n_max + 1), l, x)
    wv = vals * (w * x * x)
    mats = np.stack(
        [
            wv @ vals.T,
            (wv * x) @ vals.T,
            (wv * x * x) @ vals.T,
            (wv / x) @ vals.T,
            (vals * w) @ vals.T,
        ]
    )
    gap = np.linalg.norm(mats[0] - np.eye(len(vals)), 2)
    if not gap <= _GRAM_TOL:  # a NaN gap fails too
        raise NumericalError(
            f"quadrature too coarse for the window [{n_min}, {n_max}]: "
            f"||S - I||_2 = {gap:.3e} > {_GRAM_TOL:g}"
        )
    mats.flags.writeable = False
    return mats


def _phases(exp: EigenExpansion, t: float) -> np.ndarray:
    return np.exp(-1j * exp.energies * t)


def evolve(exp: EigenExpansion, t: float) -> EigenExpansion:
    """Multiply each coefficient by exp(-i E_n t); the evolved coefficients
    give the same deficit up to rounding."""
    return replace(exp, coeffs=exp.coeffs * _phases(exp, t))


def autocorrelation(exp: EigenExpansion, t: float) -> float:
    """|<psi(0)|psi(t)>|^2 within the expansion, normalized to 1 at t = 0."""
    s = exp.weight
    if s == 0.0:
        raise ValueError("empty expansion has no autocorrelation")
    amp = np.dot(exp.populations, _phases(exp, t))
    return float(abs(amp)) ** 2 / s**2


def density(exp: EigenExpansion, grid: RadialGrid, t: float = 0.0, basis: BasisTable | None = None):
    """Radial probability density f(r) = r^2 |psi_t(r)|^2 on the grid."""
    basis = _table_for(exp, grid, basis)
    amp = (exp.coeffs * _phases(exp, t)) @ basis.values
    return grid.points**2 * np.abs(amp) ** 2


def observables(
    exp: EigenExpansion,
    t: float,
    grid: RadialGrid | None,
    basis: BasisTable | None = None,
) -> UncertaintyRecord:
    """Uncertainties of the evolved state at time t, as matrix elements.

    The r-moments are c(t)^dagger M c(t) with the cached operator matrices of
    the expansion window, normalized by the norm c(t)^dagger S c(t) on the
    Gram matrix S, so shared quadrature error cancels between numerator and
    denominator.  <p_r> and <p_r^2> follow from the energies and the r,
    r^-1 and r^-2 forms; no grid is sampled.  Neither ``grid`` nor ``basis``
    enters the result: a supplied ``basis`` is only checked against the
    expansion and grid (a table built for them is accepted by identity), and
    a mismatch raises ValueError.

    After the matrix products the arithmetic runs on Python floats, in the
    same IEEE operations and order as on NumPy scalars, so the record has the
    same bits either way.  The quadrature is checked once per window, when
    its matrices are built (see ``_GRAM_TOL``); past that, NumericalError
    arises only for a state with no momentum spread (dp_r = 0, so the ratio
    dr / dp_r is undefined), and ValueError for an expansion of zero weight.
    """
    if basis is not None:
        _table_for(exp, grid, basis)  # validated only; the moments need no table
    energies = exp.energies
    coeff_t = exp.coeffs * _phases(exp, t)
    mc = _moment_matrices(exp.l, exp.n_min, exp.n_max) @ coeff_t
    norm, m1, m2, w1, w2 = (mc @ np.conj(coeff_t)).real.tolist()
    if norm == 0.0:
        raise ValueError("empty expansion has no observables")
    m1, m2, w1, w2 = m1 / norm, m2 / norm, w1 / norm, w2 / norm

    # <n|(d/dr + 1/r)|m> = (E_m - E_n) <n|r|m>
    ec = energies * coeff_t
    pr = -2.0 * float(np.vdot(ec, mc[1]).imag) / norm
    pr2 = 2.0 * float(np.vdot(coeff_t, ec).real) / norm + 2.0 * w1 - exp.l * (exp.l + 1) * w2

    dr = math.sqrt(max(m2 - m1 * m1, 0.0))
    dpr = math.sqrt(max(pr2 - pr * pr, 0.0))
    if dpr == 0.0:
        raise NumericalError(f"no momentum spread at t = {t}: dp_r = 0, so dr / dp_r is undefined")
    dR = math.sqrt(max(w2 - w1 * w1, 0.0))
    return UncertaintyRecord(
        t=float(t),
        dr=dr,
        dpr=dpr,
        product=dr * dpr,
        ratio=dr / dpr,
        dR=dR,
        dP=dpr,
        bound_half_rm2=0.5 * w2,
    )
