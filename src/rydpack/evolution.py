"""Spectral time evolution, density sampling and time-dependent observables.

Propagation is exact in the bound-state basis: each coefficient picks up the
phase exp(-i E_n t).  Every moment an uncertainty needs comes from quadratic
forms c(t)^dagger M c(t) in those coefficients, so the matrices of 1, r, r^2,
r^-1 and r^-2 are integrated once per expansion window on a Gauss-Legendre
rule and no wavefunction is ever sampled for them.  The rule reaches
max(4 n_max^2, 196) bohr, so small windows keep their tails, and is sized to
the window: ceil(n_max/16) + ceil(n_max/n_min) panels of 64 nodes, at most 32
(576 nodes at nbar 85, 832 at nbar 150).  The window's eigenfunctions come
from ``specfun._radial_rows``, whose Laguerre recurrence steps a tile of
levels at once, the whole 25-level window at nbar 85 and 150.  The radial
momentum p_r = -i (d/dr + 1/r) needs no matrix of its own: [H, r] = -i p_r
gives <n|p_r|m> = -i (E_m - E_n) <n|r|m>, and the radial Hamiltonian gives
p_r^2 = 2 (H + 1/r) - l(l+1)/r^2.  Both hold exactly within the bound set,
so one cached build per window (``_moment_matrices``) holds the seven
layers a record reads: the five moment matrices, E_n <n|r|m> and diag(E_n),
in one complex stack.  One routine evaluates the records of a block of
times: the phases exp(-i E_n t) once, one stack product, one reduction, then
a Python-float tail per time.  ``observables`` is a one-time block, and
``scan`` runs near-equal blocks of at most ``_SCAN_BLOCK`` times and takes
the autocorrelations from the same phases.  A record does not
depend on which other times share its block, but a one-time block may
differ from it in the last bits.  Only density snapshots evaluate the
wavefunction, on a caller-supplied grid, from a table of the same kernel: a
snapshot is one real (2, N) product of the stacked Re/Im coefficients with
the real table, so the table is never copied to complex.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .specfun import NumericalError, _radial_rows, radial_quadrature
from .spectral import EigenExpansion, _amplitude_parts
from .squeezed import L

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


@dataclass(frozen=True)
class UncertaintyRecord:
    """Uncertainties of one evolved state at time t (atomic units throughout).

    ``bound_half_rm2`` = <r^-2>/2 is the lower bound on dR * dP.  The derived
    ``product`` = dr * dpr, ``ratio`` = dr / dpr (bohr^2) and ``dP`` = dpr
    (P = p_r) are properties, so a record cannot contradict its own fields.
    """

    t: float
    dr: float
    dpr: float
    dR: float
    bound_half_rm2: float

    @property
    def product(self) -> float:
        return self.dr * self.dpr

    @property
    def ratio(self) -> float:
        return self.dr / self.dpr

    @property
    def dP(self) -> float:
        return self.dpr


class BasisTable:
    """Eigenfunction values R_nl of the levels ``ns``, l = ``L``, tabulated on
    fixed radii, for density snapshots.

    The table is one call of ``specfun._radial_rows``, which on a grid of
    many thousand points steps one level per Laguerre recurrence; evaluating
    an evolved wavefunction afterwards is one real (2, N) product of the
    stacked Re/Im coefficients, so one table serves any number of snapshot
    times.  ``observables`` does not need a table; it only checks one it is
    given against the expansion and grid.
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

# the moment rule has at most this many 64-node panels (2048 nodes)
_MAX_PANELS = 32


def _moment_rule(n_min: int, n_max: int):
    """The Gauss-Legendre rule (x, w) of the window's moment matrices.

    It spans [0, max(4 n_max^2, 196)] in ceil(n_max/16) + ceil(n_max/n_min)
    panels of 64 nodes, at most _MAX_PANELS.  The first term gives about four
    nodes per oscillation of the top level; the second keeps the
    quadratically graded first panels fine enough for the lowest level of a
    wide window.  Gauss rules converge geometrically on these analytic
    integrands, so on every window ``decompose`` grows for nbar 4 to 288 each
    matrix agrees with its 2048-node build to 2e-12 of its largest entry,
    and a window that asks for more panels gets that rule itself.
    """
    panels = min(_MAX_PANELS, -(-n_max // 16) + -(-n_max // n_min))
    return radial_quadrature(max(4.0 * n_max * n_max, _R_MAX_FLOOR), 64 * panels)


# windows whose record stacks are kept
_WINDOWS_HELD = 8


@lru_cache(maxsize=_WINDOWS_HELD)
def _moment_matrices(n_min: int, n_max: int) -> np.ndarray:
    """The complex (7, N, N) record stack of the window [n_min, n_max],
    read-only: the one cached build a record reads.

    In order: <n|m>, <n|r|m>, <n|r^2|m>, <n|r^-1|m>, <n|r^-2|m>, E_n <n|r|m>
    and diag(E_n), with E_n = -1/(2 n^2) formed as
    ``EigenExpansion.energies`` forms it.  The five moments are integrated
    with the measure r^2 dr on the window's panelized Gauss-Legendre rule
    (``_moment_rule``: 448 nodes on [7, 30], 576 on [73, 97], at most 2048),
    each real product written into its layer, so every imaginary part is 0;
    complex is the dtype of the product with the evolved coefficients, so no
    call casts the stack.  The R_nl values come from
    ``specfun._radial_rows``, whose one Laguerre recurrence steps a tile of
    levels at once (the whole window at nbar 85 and 150) and reads each off
    at its own degree.  The Gram matrix S = <n|m> must satisfy
    ||S - I||_2 <= _GRAM_TOL, else NumericalError; then
    |c^dagger S c - c^dagger c| <= _GRAM_TOL c^dagger c for every
    coefficient vector c, so one check covers every time.
    """
    x, w = _moment_rule(n_min, n_max)
    ns = np.arange(n_min, n_max + 1)
    vals = _radial_rows(ns, L, x)
    wv = vals * (w * x * x)
    stack = np.empty((7, ns.size, ns.size), dtype=complex)
    stack[0] = wv @ vals.T
    stack[1] = (wv * x) @ vals.T
    stack[2] = (wv * x * x) @ vals.T
    stack[3] = (wv / x) @ vals.T
    stack[4] = (vals * w) @ vals.T
    energies = -0.5 / ns.astype(float) ** 2
    stack[5] = energies[:, None] * stack[1].real
    stack[6] = np.diag(energies)
    gap = np.linalg.norm(stack[0].real - np.eye(ns.size), 2)
    if not gap <= _GRAM_TOL:  # a NaN gap fails too
        raise NumericalError(
            f"quadrature too coarse for the window [{n_min}, {n_max}]: "
            f"||S - I||_2 = {gap:.3e} > {_GRAM_TOL:g}"
        )
    stack.flags.writeable = False
    return stack


def _records(exp: EigenExpansion, ts: list[float], phases: np.ndarray) -> list[UncertaintyRecord]:
    """The records at the times ``ts``, whose phases exp(-i E_n t) are the
    rows of ``phases``.

    One stack product and one reduction give every quadratic form
    c(t)^dagger M c(t) of the block: c(t)^T M for the seven matrices of the
    window's stack (``_moment_matrices``), then the conjugated dot product
    with c(t).  The rest runs on Python floats, time by time.
    """
    coeff_t = exp.coeffs * phases
    forms = np.vecdot(coeff_t, coeff_t @ _moment_matrices(exp.n_min, exp.n_max))
    records = []
    for t, (norm, m1, m2, w1, w2, r_e, e) in zip(ts, forms.T.tolist()):
        norm = norm.real
        if norm == 0.0:
            raise ValueError("empty expansion has no observables")
        m1, m2, w1, w2 = m1.real / norm, m2.real / norm, w1.real / norm, w2.real / norm
        # <n|p_r|m> = -i (E_m - E_n) <n|r|m>, so <p_r> = 2 Im c^dagger r E c
        pr = 2.0 * r_e.imag / norm
        pr2 = 2.0 * e.real / norm + 2.0 * w1 - L * (L + 1) * w2
        dr = math.sqrt(max(m2 - m1 * m1, 0.0))
        dpr = math.sqrt(max(pr2 - pr * pr, 0.0))
        if dpr == 0.0:
            raise NumericalError(f"no momentum spread at t = {t}: dp_r = 0, so dr / dp_r is undefined")
        dR = math.sqrt(max(w2 - w1 * w1, 0.0))
        records.append(UncertaintyRecord(t=t, dr=dr, dpr=dpr, dR=dR, bound_half_rm2=0.5 * w2))
    return records


# the most times in one block of phases: a block's (7, 1024, N) stack product
# is under 6 MB at N = 41 (nbar 285)
_SCAN_BLOCK = 1024


def _scan(exp: EigenExpansion, times) -> Iterator[tuple[list[UncertaintyRecord], list[float]]]:
    """Yield the records and autocorrelations at ``times`` block by block, as
    (records, autocorrelations) pairs, in the fewest blocks of at most
    ``_SCAN_BLOCK`` times, of near-equal sizes.  So a block holds one time
    only when the whole scan does, and every record of a longer scan has the
    bits it has in any block of two or more times.  A block is evaluated when
    it is asked for, so a consumer that drops each block holds only one."""
    for block in np.array_split(np.asarray(times, dtype=float), -(-len(times) // _SCAN_BLOCK)):
        yield _scan_block(exp, block)


def _scan_block(exp: EigenExpansion, ts) -> tuple[list[UncertaintyRecord], list[float]]:
    """The records and autocorrelations at the times ``ts`` from one block of
    phases.

    Each autocorrelation is the dot product of its phase row with the
    populations, conjugated, which has the bits of ``autocorrelation``.
    """
    ts = np.array(ts, dtype=float)
    phases = _phases(exp, ts[:, None])
    records = _records(exp, ts.tolist(), phases)
    s = exp.weight
    return records, [abs(amp) ** 2 / s**2 for amp in np.vecdot(phases, exp.populations).tolist()]


def _phases(exp: EigenExpansion, t) -> np.ndarray:
    """exp(-i E_n t): a row for a scalar t, a (B, N) block for a (B, 1) column."""
    return np.exp(exp.phase_rates * t)


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

    Re and Im of psi_t come from one real (2, N) product of the stacked
    Re/Im coefficients c(t) with the real table, and f = r^2 (re^2 + im^2).
    """
    basis = _table_for(exp, grid, basis)
    re, im = _amplitude_parts(exp.coeffs * _phases(exp, t), basis.values)
    return grid.points**2 * (re * re + im * im)


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

    This is a one-time block of the record routine (``_records``) that
    ``scan`` runs on blocks of times.  After the stack product the
    arithmetic runs on Python floats, in the same IEEE operations and order
    as on NumPy scalars, so the record has the same bits either way.  A time
    gets the same bits in every block of two or more times, but a one-time
    call may differ from them in the last bits: the product of one row takes
    another BLAS path, and the variances behind dr, dp_r and dR cancel
    digits, so dp_r moves by up to about 2e-12 relative at nbar 150, and dR
    more.  The quadrature is checked once per window, when its matrices are
    built (see ``_GRAM_TOL``); past that, NumericalError arises only for a
    state with no momentum spread (dp_r = 0, so the ratio dr / dp_r is
    undefined), and ValueError for an expansion of zero weight.
    """
    if basis is not None:
        _table_for(exp, grid, basis)  # validated only; the moments need no table
    return _records(exp, [float(t)], _phases(exp, t)[None])[0]
