"""Spectral time evolution, density sampling and time-dependent observables.

Propagation is exact in the bound-state basis: each coefficient picks up the
phase exp(-i E_n t).  Every moment an uncertainty needs is a quadratic form
c(t)^dagger M c(t) in those coefficients, so the operator matrices M are
integrated once per expansion window on a Gauss-Legendre rule and no
wavefunction is ever sampled for them.  Radial-momentum matrices use the
analytic (d/dr + 1/r) of the eigenfunctions, never finite differences.  Only
density snapshots evaluate the wavefunction, on a caller-supplied grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .specfun import NumericalError, hydrogen_radial, hydrogen_radial_pr, radial_quadrature
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
    """Strictly increasing sample radii in bohr."""

    points: np.ndarray
    description: str = "custom"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 3:
            raise ValueError("grid needs at least 3 points")
        if pts[0] < 0 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be non-negative and strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, r_max: float, n_points: int) -> "RadialGrid":
        return cls(
            points=np.linspace(0.0, float(r_max), int(n_points)),
            description=f"uniform[0,{r_max:g}]x{n_points}",
        )

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

    Building the table costs one Laguerre recurrence per level; evaluating an
    evolved wavefunction afterwards is a single matrix-vector product, so one
    table serves any number of snapshot times.  ``observables`` does not need
    a table; it only checks one it is given against the expansion and grid.
    """

    def __init__(self, ns, l, points, values):
        self.ns = ns
        self.l = l
        self.points = points
        self.values = values

    @classmethod
    def build(cls, ns, l: int, points) -> "BasisTable":
        points = np.asarray(points, dtype=float)
        values = np.empty((len(ns), points.size))
        for i, n in enumerate(ns):
            values[i] = hydrogen_radial(int(n), l, points)
        return cls(np.asarray(ns), l, points, values)

    @classmethod
    def for_expansion(cls, exp: EigenExpansion, grid: RadialGrid) -> "BasisTable":
        return cls.build(exp.ns, exp.l, grid.points)

    def matches(self, exp: EigenExpansion, grid: RadialGrid) -> bool:
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


@lru_cache(maxsize=8)
def _moment_matrices(l: int, n_min: int, n_max: int) -> np.ndarray:
    """The (7, N, N) operator matrices of the window [n_min, n_max], read-only.

    In order: <n|m>, <n|r|m>, <n|r^2|m>, <n|r^-1|m>, <n|r^-2|m>,
    <n|(d/dr + 1/r)|m> and <(d/dr + 1/r) n|(d/dr + 1/r) m>, all integrated
    with the measure r^2 dr on the 2048-node rule over [0, 4 n_max^2] (the
    check rule ``decompose`` uses).  The first matrix is the Gram matrix the
    norm guard compares against sum |c_n|^2.
    """
    x, w = radial_quadrature(4.0 * n_max * n_max, 2048)
    ns = range(n_min, n_max + 1)
    vals = np.array([hydrogen_radial(n, l, x) for n in ns])
    ders = np.array([hydrogen_radial_pr(n, l, x) for n in ns])
    wv = vals * (w * x * x)
    mats = np.stack(
        [
            wv @ vals.T,
            (wv * x) @ vals.T,
            (wv * x * x) @ vals.T,
            (wv / x) @ vals.T,
            (vals * w) @ vals.T,
            wv @ ders.T,
            (ders * (w * x * x)) @ ders.T,
        ]
    )
    mats.flags.writeable = False
    return mats


def evolve(exp: EigenExpansion, t: float) -> EigenExpansion:
    """Multiply each coefficient by exp(-i E_n t); the deficit is unchanged."""
    phases = np.exp(-1j * exp.energies * t)
    return replace(exp, coeffs=exp.coeffs * phases)


def autocorrelation(exp: EigenExpansion, t: float) -> float:
    """|<psi(0)|psi(t)>|^2 within the expansion, normalized to 1 at t = 0."""
    p = np.abs(exp.coeffs) ** 2
    s = p.sum()
    if s == 0.0:
        raise ValueError("empty expansion has no autocorrelation")
    amp = np.dot(p, np.exp(-1j * exp.energies * t))
    return float(abs(amp) ** 2 / s**2)


def density(exp: EigenExpansion, grid: RadialGrid, t: float = 0.0, basis: BasisTable | None = None):
    """Radial probability density f(r) = r^2 |psi_t(r)|^2 on the grid."""
    basis = _table_for(exp, grid, basis)
    coeff_t = exp.coeffs * np.exp(-1j * exp.energies * t)
    amp = coeff_t @ basis.values
    return grid.points**2 * np.abs(amp) ** 2


def observables(
    exp: EigenExpansion,
    t: float,
    grid: RadialGrid | None,
    basis: BasisTable | None = None,
    norm_tol: float = 1e-6,
) -> UncertaintyRecord:
    """Uncertainties of the evolved state at time t, as matrix elements.

    Each moment is c(t)^dagger M c(t) with the cached operator matrices of the
    expansion window; no grid is sampled.  ``grid`` and ``basis`` only shape
    density snapshots: a supplied ``basis`` must still match the
    expansion/grid pair, else ValueError.

    The quadrature guard requires the norm c(t)^dagger S c(t) on the Gram
    matrix S to match the captured weight sum |c_n|^2 to ``norm_tol``;
    failure raises NumericalError.  Moments are normalized by that norm so
    shared quadrature error cancels between numerator and denominator.
    """
    if basis is not None:
        _table_for(exp, grid, basis)  # validated only; the moments need no table
    coeff_t = exp.coeffs * np.exp(-1j * exp.energies * t)
    forms = (_moment_matrices(exp.l, exp.n_min, exp.n_max) @ coeff_t) @ np.conj(coeff_t)
    norm = forms[0].real
    weight = exp.weight
    if not abs(norm - weight) <= norm_tol:  # a NaN norm fails too
        raise NumericalError(
            f"quadrature too coarse at t={t:g}: quadrature norm {norm:.9f} vs "
            f"captured weight {weight:.9f} (tolerance {norm_tol:g})"
        )

    m1, m2, w1, w2 = forms[1:5].real / norm
    pr = forms[5].imag / norm
    pr2 = forms[6].real / norm

    dr = np.sqrt(max(m2 - m1 * m1, 0.0))
    dpr = np.sqrt(max(pr2 - pr * pr, 0.0))
    dR = np.sqrt(max(w2 - w1 * w1, 0.0))
    return UncertaintyRecord(
        t=float(t),
        dr=float(dr),
        dpr=float(dpr),
        product=float(dr * dpr),
        ratio=float(dr / dpr),
        dR=float(dR),
        dP=float(dpr),
        bound_half_rm2=float(0.5 * w2),
    )
