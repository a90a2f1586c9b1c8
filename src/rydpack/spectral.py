"""Decomposition of a radial squeezed state onto bound hydrogen p eigenstates.

Continuum states are dropped entirely; the completeness deficit
1 - sum c_n^2 is the honest record of everything omitted (continuum plus
out-of-window bound states).  An expansion stores only its lowest level and
its coefficients, and derives its top level and deficit from them, so no copy
of either can disagree with them.  The angular momentum is the package
constant l = ``squeezed.L`` = 1, and the window never reaches past ``N_CAP``.

The projections c_n = int R_nl psi r^2 dr are exact up to rounding.  With
beta = alpha + l + 2, sigma_n = gamma0 + 1/n, k = n - l - 1 and
t = sigma_n r, the integrand is t^beta e^{-t} times the degree-k polynomial
L_k^{2l+1}(2t / (n sigma_n)), up to constant factors, so a generalized
Gauss-Laguerre rule for the weight t^beta e^{-t} with M > k/2 nodes
integrates it exactly.  sigma_n and every c_n are real, since <p_r> = 0
fixes the paper's gamma1 at 0 (``squeezed``), so an expansion holds real
float64 coefficients and refuses a complex one with a nonzero imaginary
part; time enters only through the phases.  beta is the same for every
level, so one rule serves a whole batch of levels.  The guard projects again
with M + 8 nodes, in the same recurrence (``_project``): disagreement beyond
1e-9 (``_ERR_TOL``), or a value that is not finite, raises NumericalError.

The moment window.  At time t each coefficient picks up the phase
exp(-i E_n t) (``_phases``): c_n(t) = c_n exp(-i E_n t) is formed where it
is used, never stored as an expansion.  Every moment an uncertainty needs is
a quadratic form c(t)^dagger M c(t): the matrices of r, r^2, r^-1 and r^-2
are integrated once per window on a Gauss-Legendre rule sized to it
(``_moment_rule``), and no wavefunction is sampled for them.  The radial
momentum p_r = -i (d/dr + 1/r) needs no integral of its own: [H, r] = -i p_r
gives <n|p_r|m> = -i (E_m - E_n) <n|r|m>, and the radial Hamiltonian gives
p_r^2 = 2 (H + 1/r) - l(l+1)/r^2, with the constant <H> = sum c_n^2 E_n
over the weight.  Both hold exactly within the bound set, and the levels
are orthonormal, so the norm is the weight sum c_n^2 at every time.  One
guarded build per window (``_moment_matrices``) holds the five matrices,
one per layer of a complex stack.  ``_records`` evaluates a block of times:
the phases once, one one-row product c(t)^T M per time and layer, one
reduction, then a Python-float tail per time.  A record takes the same
products in any block, so it has the same bits in every block, one of one
time included: ``evolution.observables`` is a one-time block, and ``_scan``
runs consecutive slices of at most ``_SCAN_BLOCK`` times and takes the
autocorrelations from the same phases.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .specfun import (
    _NODES_PER_PANEL,
    NumericalError,
    _gauss_laguerre,
    _laguerre_rows,
    _radial_log_const,
    _radial_rows,
    _real,
    _reals,
    _whole,
    radial_quadrature,
)
from .squeezed import L, RadialSqueezedState, moment_r

__all__ = [
    "DEFAULT_DEFICIT_TOL",
    "N_CAP",
    "DeficitToleranceWarning",
    "EigenExpansion",
    "UncertaintyRecord",
    "decompose",
    "coefficient_spread",
]

DEFAULT_DEFICIT_TOL = 1e-4
N_CAP = 400

# the guard's second rule has this many more nodes than the first, and the
# two projections may disagree by at most _ERR_TOL
_CHECK_NODES = 8
_ERR_TOL = 1e-9

# the most a captured weight sum |c_n|^2 may exceed 1 by, through rounding
_WEIGHT_SLACK = 1e-9
_WEIGHTS = f"(0, 1 + {_WEIGHT_SLACK:g}]"

# a window that reaches L + 1 stops growing once the bound weight predicted
# above n_max is below _TAIL_FRACTION of the tolerance while the deficit
# without it still exceeds _TAIL_MARGIN times the tolerance
_TAIL_FRACTION = 0.05
_TAIL_MARGIN = 2.0


class DeficitToleranceWarning(UserWarning):
    """The requested completeness deficit could not be reached: the window hit
    [L+1, N_CAP], the n^-3 tail law showed that more levels cannot help, or
    an explicit window holds too little of the state."""


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.flags.writeable = False
    return a


def _energies(ns: np.ndarray) -> np.ndarray:
    """The energies -1/(2 n^2) of the levels ``ns``, of an expansion and its p_r layer."""
    return -0.5 / ns.astype(float) ** 2


@dataclass(frozen=True)
class EigenExpansion:
    """Real coefficients c_n of the p levels n_min, n_min + 1, ..., n_max.

    The coefficients are the whole record: the window's top ``n_max``, the
    ``weight`` sum c_n^2 and the ``deficit`` 1 - weight are derived from
    them, never stored beside them.  ``n_min`` is a whole number >= L + 1, the
    coefficients a 1-d array of finite real values, held as float64, with a
    weight in (0, 1 + 1e-9], treated as immutable once the expansion is
    built.  A complex input is accepted only where every imaginary part is 0.
    """

    n_min: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_min", _whole("n_min", self.n_min, L + 1))
        coeffs = np.asarray(self.coeffs)
        if coeffs.dtype.kind != "c":
            coeffs = _reals("coefficients", coeffs, finite=False)
        if coeffs.ndim != 1:
            raise ValueError(f"coefficients must form a 1-d array, got shape {coeffs.shape}")
        for bad, what in ((coeffs.imag != 0, "real"), (~np.isfinite(coeffs), "finite")):
            if bad.any():
                raise ValueError(f"coefficient of n={self.n_min + int(np.argmax(bad))} is not {what}")
        object.__setattr__(self, "coeffs", np.ascontiguousarray(coeffs.real, dtype=float))
        with np.errstate(over="ignore"):  # a c_n^2 past the float range: an infinite weight
            weight = self.weight
        if not 0.0 < weight <= 1.0 + _WEIGHT_SLACK:
            raise ValueError(f"captured weight {weight!r} lies outside {_WEIGHTS}")

    @cached_property
    def n_max(self) -> int:
        """The top level n_min + len(coeffs) - 1."""
        return self.n_min + len(self.coeffs) - 1

    @cached_property
    def ns(self) -> np.ndarray:
        """The levels n_min..n_max, computed once and read-only."""
        return _frozen(np.arange(self.n_min, self.n_max + 1))

    @cached_property
    def energies(self) -> np.ndarray:
        """The level energies -1/(2 n^2), computed once and read-only."""
        return _frozen(_energies(self.ns))

    @cached_property
    def phase_rates(self) -> np.ndarray:
        """The rates -i E_n of the phases exp(-i E_n t), computed once and
        read-only; ``phase_rates * t`` has the bits of ``-1j * energies * t``."""
        return _frozen(-1j * self.energies)

    @cached_property
    def populations(self) -> np.ndarray:
        """The level populations c_n^2, computed once and read-only."""
        return _frozen(self.coeffs**2)

    @cached_property
    def complex_coeffs(self) -> np.ndarray:
        """The coefficients as complex128, computed once and read-only: the
        operand ``_records`` phases, so no call casts the float64 array
        (the cast has the same bits)."""
        return _frozen(self.coeffs.astype(complex))

    @cached_property
    def complex_populations(self) -> np.ndarray:
        """The populations as complex128, computed once and read-only, for
        ``_autocorrelations``, as ``complex_coeffs`` is for ``_records``."""
        return _frozen(self.populations.astype(complex))

    @cached_property
    def weight(self) -> float:
        """Captured probability sum c_n^2, computed once."""
        return float(self.populations.sum())

    @cached_property
    def energy_sum(self) -> float:
        """sum c_n^2 E_n, <H> times the weight, computed once."""
        return float(np.dot(self.populations, self.energies))

    @cached_property
    def deficit(self) -> float:
        """Completeness deficit 1 - weight, computed once; a weight above 1
        by rounding gives 0.0."""
        return max(1.0 - self.weight, 0.0)


def _default_center(state: RadialSqueezedState) -> int:
    # <r> ~ 2 nbar^2 at the outer apsidal point
    return max(2, int(round(math.sqrt(moment_r(state, 1.0) / 2.0))))


def _rule_size(k_max: int) -> int:
    # exactness needs 2M - 1 >= k_max; four nodes spare
    return k_max // 2 + 1 + 4


def _project(state, ns, m):
    """int R_nl psi r^2 dr for each level n in ``ns`` on the m-node rule,
    guarded by the rule of m + _CHECK_NODES nodes.

    One recurrence steps both rules' nodes, scaled for each level and
    zero-padded, and reads each row off at its level's degree k = n - l - 1,
    where it carries m_k L_k (``specfun._laguerre_rows``).
    """
    beta = state.alpha + L + 2.0
    rules = _gauss_laguerre((m, m + _CHECK_NODES), beta)
    ns = np.asarray(ns)
    sigma = state.gamma0 + 1.0 / ns
    log_radial = np.array([_radial_log_const(int(n), L) for n in ns])
    log_const = state.log_norm + log_radial + L * np.log(2.0 / ns) - (beta + 1.0) * np.log(sigma)
    x = np.zeros((len(rules), ns.size, m + _CHECK_NODES))
    for rows, (t, _) in zip(x, rules):
        np.multiply((2.0 / (ns * sigma))[:, None], t, out=rows[:, : t.size])
    with np.errstate(over="ignore", invalid="ignore"):
        lag = _laguerre_rows(np.tile(ns - L - 1, len(rules)), 2 * L + 1, x.reshape(-1, x.shape[2]))
        c, check = (
            np.sum(np.exp(log_w + log_const[:, None]) * rows[:, : t.size], axis=1)
            for rows, (t, log_w) in zip(lag.reshape(x.shape), rules)
        )
        err = np.max(np.abs(c - check))  # inf - inf is a NaN error
    if not err <= _ERR_TOL:  # a NaN error fails too
        raise NumericalError(f"projection quadrature did not converge: estimated error {err:.3e} > {_ERR_TOL:g}")
    return c


def decompose(
    state: RadialSqueezedState,
    window: tuple[int, int] | None = None,
    center: int | None = None,
    deficit_tol: float = DEFAULT_DEFICIT_TOL,
) -> EigenExpansion:
    """Expand the state over bound p levels.

    The window starts at [center - 4, center + 4] and grows by 8 levels per
    side until the deficit falls below ``deficit_tol`` or the bounds
    [L+1, N_CAP] are hit, in which case a DeficitToleranceWarning reports the
    achieved deficit.  Growth also stops, with the same warning, once the
    window reaches L + 1 and the n^-3 law shows the tolerance is out of
    reach: where the bound series joins the continuum, |c_n|^2 -> C/n^3, so
    the weight above n_max is about C/(2 n_max^2) with C = n_max^3 |c_n_max|^2.
    When that tail is below 5% of the tolerance (the deficit is then settled
    to that much) and the deficit less the tail, the estimated continuum
    weight, is still above twice the tolerance, more levels cannot help.
    An explicit ``window`` is the starting window with growth switched off;
    it need not hold the state's center, and a deficit at or above
    ``deficit_tol`` there gets the same warning.
    Each batch of new levels is projected on one Gauss-Laguerre rule sized
    for its largest degree and checked against a rule of 8 more nodes;
    disagreement beyond 1e-9, or a captured weight outside (0, 1 + 1e-9]
    (0 where a window misses the state), raises NumericalError; a
    ``deficit_tol`` outside (0, 1), or a ``center`` or window end that is
    not a whole number >= L + 1, ValueError.
    """
    deficit_tol = _real("deficit_tol", deficit_tol, finite=False)
    if not 0.0 < deficit_tol < 1.0:  # a NaN tolerance fails too
        raise ValueError(f"deficit_tol must lie in (0, 1), got {deficit_tol!r}")
    if window is None:
        center = min(_whole("center", _default_center(state) if center is None else center, L + 1), N_CAP)
        n_min, n_max, step = max(L + 1, center - 4), min(N_CAP, center + 4), 8
    else:
        n_min = _whole("window's lowest level", window[0], L + 1)
        n_max, step = _whole("window's top level", window[1], n_min), 0
        if n_max > N_CAP:
            raise ValueError(f"window [{n_min}, {n_max}] outside [{L + 1}, {N_CAP}]")

    def batch(ns):
        return _project(state, ns, _rule_size(max(ns) - L - 1))

    coeffs = batch(list(range(n_min, n_max + 1)))
    while True:
        weight = float(np.sum(np.abs(coeffs) ** 2))
        if not 0.0 < weight <= 1.0 + _WEIGHT_SLACK:  # a NaN weight fails too
            raise NumericalError(f"window [{n_min}, {n_max}] captured weight {weight!r}, outside {_WEIGHTS}")
        if 1.0 - weight < deficit_tol:
            break
        lo_new = max(L + 1, n_min - step)
        hi_new = min(N_CAP, n_max + step)
        fresh = list(range(lo_new, n_min)) + list(range(n_max + 1, hi_new + 1))
        tail = 0.5 * n_max * abs(coeffs[-1]) ** 2  # C / (2 n_max^2)
        if not step:
            message = (f"deficit {1.0 - weight:.6e} above tolerance {deficit_tol:g} "
                       f"for window [{n_min},{n_max}]")
        elif not fresh:
            message = (f"deficit tolerance {deficit_tol:g} unreachable within "
                       f"[{L + 1}, {N_CAP}]; achieved deficit {1.0 - weight:.6e}")
        elif (
            n_min == L + 1
            and tail < _TAIL_FRACTION * deficit_tol
            and 1.0 - weight - tail > _TAIL_MARGIN * deficit_tol
        ):
            message = (f"deficit tolerance {deficit_tol:g} unreachable: the window "
                       f"[{n_min}, {n_max}] holds all but about {tail:.1e} of the bound "
                       f"weight; estimated continuum weight {1.0 - weight - tail:.6e}, "
                       f"achieved deficit {1.0 - weight:.6e}")
        else:
            c = batch(fresh)
            coeffs = np.concatenate([c[: n_min - lo_new], coeffs, c[n_min - lo_new :]])
            n_min, n_max = lo_new, hi_new
            continue
        warnings.warn(message, DeficitToleranceWarning, stacklevel=2)
        break
    return EigenExpansion(n_min, coeffs)


# radii per block of ``_amplitude_blocks``: its table is 0.8 MB at 25 levels
# (nbar 85 and 150) and 1.3 MB at 41 (nbar 230).  Five snapshots on the
# default grid ran as fast with 4096 as with 8192 at nbar 85 to 230, and up
# to 12% slower with 2048 (one BLAS thread, median of 15)
_POINT_BLOCK = 4096


def _amplitude_blocks(ns, coeff_rows, r, table=None) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Yield, for each block of at most ``_POINT_BLOCK`` of the 1-d radii
    ``r`` and each coefficient row ``coeff_rows[i]``, the block's slice, i and
    the real (2, P) parts [Re, Im] of sum_n c_n R_nl, l = ``L``, over the
    levels ``ns``: one real product of the row's stacked Re and Im with the
    block's real table, so no table is copied to complex.

    The table is the block's columns of a given whole ``table`` on ``r``,
    else ``specfun._radial_rows`` at the block's radii, dropped before the
    next block's is built.  Each part is made as it is asked for, so a
    caller's memory grows with its rows times the points, not with the
    levels times the points.  Every value keeps the bits of one product
    with a whole table: the tests compare with ``np.array_equal`` from nbar
    20 to 230, on grids that end in a short block.
    """
    for lo in range(0, r.size, _POINT_BLOCK):
        block = slice(lo, lo + _POINT_BLOCK)
        values = _radial_rows(ns, L, r[block]) if table is None else table[:, block]
        for i, c in enumerate(coeff_rows):
            yield block, i, np.stack([c.real, c.imag]) @ values
        del values  # so that the next block's table is built without this one


def coefficient_spread(exp: EigenExpansion):
    """Mean and RMS width of the |c_n|^2 distribution over n.

    The RMS width is the level spread deltan, which sets the collapse time
    t_int = nbar T_cl / (3 deltan) = t_rev / deltan that ``rydpack density`` reports.
    Both sums are exact (``math.fsum`` of elementwise products), so no BLAS
    kernel or summation order moves their bits.
    """
    p, s = exp.populations, exp.weight
    ns = exp.ns.astype(float)
    mean = math.fsum(p * ns) / s
    rms = math.sqrt(math.fsum(p * (ns - mean) ** 2) / s)
    return mean, rms


@dataclass(frozen=True)
class UncertaintyRecord:
    """Uncertainties of one evolved state at time t (atomic units throughout).

    ``bound_half_rm2`` = <r^-2>/2 is the lower bound on dR * dP.  The derived
    ``product`` = dr * dpr, ``ratio`` = dr / dpr (bohr^2) and ``dP`` = dpr
    (P = p_r) are properties, so a record cannot contradict its own fields.
    dR = sqrt(<r^-2> - <r^-1>^2) cancels about three digits near the outer
    turning point: at nbar 230 it carries 1000 times the stack's relative error.
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


# the moment matrices are trusted only while each of their three guards
# (``_moment_matrices``) reads at most this
_GRAM_TOL = 1e-6

# the moment rule reaches at least this far (bohr): 4 n^2 at n = 7.  Below
# that, 4 n_max^2 cuts the tail of the top level short (||S - I||_F = 4e-4 on
# [2, 2]); every window with n_max >= 7 keeps 4 n_max^2
_R_MAX_FLOOR = 196.0

# the moment rule has at most this many 64-node panels (2048 nodes)
_MAX_PANELS = 32


def _moment_rule(n_min: int, n_max: int):
    """The Gauss-Legendre rule (x, w) of the window's moment matrices.

    It spans [0, max(4 n_max^2, 196)] in ceil(n_max/16) + ceil(n_max/n_min)
    panels of ``specfun._NODES_PER_PANEL`` (64) nodes, at most _MAX_PANELS.
    The first term gives about four nodes per oscillation of the top level;
    the second keeps the quadratically graded first panels fine enough for
    the lowest level of a wide window.  Gauss rules converge geometrically on these analytic
    integrands, so on every window ``decompose`` grows for nbar 4 to 288 each
    matrix agrees with its 2048-node build to 2e-12 of its largest entry,
    and a window that asks for more panels gets that rule itself.
    """
    panels = min(_MAX_PANELS, -(-n_max // 16) + -(-n_max // n_min))
    return radial_quadrature(max(4.0 * n_max * n_max, _R_MAX_FLOOR), _NODES_PER_PANEL * panels)


# windows whose record stacks are kept
_WINDOWS_HELD = 8


@lru_cache(maxsize=_WINDOWS_HELD)
def _moment_matrices(n_min: int, n_max: int) -> np.ndarray:
    """The complex (5, N, N) record stack of the window [n_min, n_max],
    read-only: the one cached build a record reads.

    Each layer is the matrix of one observable: r, r^2, r^-1, r^-2 and p_r.
    ``_records`` reads a layer M as c^dagger M^T c, so it holds <m|O|n> at
    [n, m].  The four moments are integrated with the measure r^2 dr on the
    window's panelized Gauss-Legendre rule (``_moment_rule``: 448 nodes on
    [7, 30], 576 on [73, 97], at most 2048), each real product written into
    its layer.  The p_r layer, <m|p_r|n> = i (E_m - E_n) <n|r|m> with E_n
    from ``_energies``, is imaginary.  Complex is the dtype of the product
    with the phased coefficients c(t), so no call casts the stack.  The R_nl
    values come from ``specfun._radial_rows``, whose recurrence steps the
    whole window at nbar 20 to 288.  Three guards on the rule, in this
    order, raise NumericalError naming the window and the residual past
    _GRAM_TOL.  The Gram matrix S = <n|m>, built for the guard alone, must
    have ||S - I||_F <= _GRAM_TOL; the Frobenius norm is never below the
    spectral norm, so |c^dagger S c - c^dagger c| <= _GRAM_TOL c^dagger c
    for every c, and the weight is the norm at every time.  The four
    diagonals must match their closed forms, relative: each sees the rule's
    error in its own moment, which S can miss.  The off-diagonals, which
    carry all of a record's time dependence, must keep the k = 2
    hypervirial identity (E_m - E_n)^2 <m|r^2|n> = -2 <m|r^-1|n>
    (Hirschfelder, J. Chem. Phys. 33, 1462 (1960)): its worst miss over
    m != n, relative to the largest |2 <m|r^-1|n>|, is 1e-13 on [16, 24].
    """
    x, w = _moment_rule(n_min, n_max)
    ns = np.arange(n_min, n_max + 1)
    vals = _radial_rows(ns, L, x)
    wv = vals * (w * x * x)
    stack = np.empty((5, ns.size, ns.size), dtype=complex)
    stack[0] = (wv * x) @ vals.T
    stack[1] = (wv * x * x) @ vals.T
    stack[2] = (wv / x) @ vals.T
    stack[3] = (vals * w) @ vals.T
    energies = _energies(ns)
    gaps = energies[None, :] - energies[:, None]
    stack[4] = 1j * gaps * stack[0].real
    # the Frobenius norm bounds the spectral norm from above
    gap = np.linalg.norm(wv @ vals.T - np.eye(ns.size))
    # the closed-form diagonals of the four moments (Bethe & Salpeter, section 3)
    n = ns.astype(float)
    ll = L * (L + 1)
    closed = {
        "<r>": (3.0 * n * n - ll) / 2.0,
        "<r^2>": n * n * (5.0 * n * n + 1.0 - 3.0 * ll) / 2.0,
        "<r^-1>": 1.0 / (n * n),
        "<r^-2>": 1.0 / (n**3 * (L + 0.5)),
    }
    residuals = np.max(np.abs(stack[:4].real.diagonal(axis1=1, axis2=2) / list(closed.values()) - 1.0), axis=1)
    worst = int(np.argmax(residuals))  # the first NaN, if any
    off = ~np.eye(ns.size, dtype=bool)
    miss = np.abs(gaps**2 * stack[1].real + 2.0 * stack[2].real)[off]
    hypervirial = miss.max() / np.abs(2.0 * stack[2].real[off]).max() if miss.size else 0.0
    for residual, what in (
        (gap, f"||S - I||_F = {gap:.3e}"),
        (residuals[worst], f"the {list(closed)[worst]} diagonal is {residuals[worst]:.3e} off its closed form,"),
        (hypervirial, f"the off-diagonal hypervirial residual is {hypervirial:.3e},"),
    ):
        if not residual <= _GRAM_TOL:  # a NaN residual fails too
            raise NumericalError(f"quadrature too coarse for the window [{n_min}, {n_max}]: {what} > {_GRAM_TOL:g}")
    stack.flags.writeable = False
    return stack


def _records(exp: EigenExpansion, ts: list[float], phases: np.ndarray) -> list[UncertaintyRecord]:
    """The records at the times ``ts``, whose phases exp(-i E_n t) are the
    rows of ``phases``.

    The norm is the weight at every time, which is never 0
    (``EigenExpansion``).  One broadcast product and one reduction give every
    quadratic form c(t)^dagger M c(t) of the block: each time's c(t) is a
    (1, N) row, multiplied by each of the five matrices of the window's
    stack (``_moment_matrices``), then the conjugated dot product with c(t).
    A one-row product is BLAS's matrix-vector kernel whatever the block, so
    a time's forms have the same bits in a block of any size; a (B, N) block
    times a matrix would take the matrix-matrix kernel, which sums in
    another order.  sum c_n^2 E_n (<H> times the weight) is the expansion's
    cached ``energy_sum``; the rest runs on Python floats, time by time.
    """
    norm = exp.weight
    row = (exp.complex_coeffs * phases)[:, None, None, :]
    forms = np.vecdot(row, row @ _moment_matrices(exp.n_min, exp.n_max))[..., 0].real
    energy = exp.energy_sum
    records = []
    for t, (m1, m2, w1, w2, pr) in zip(ts, forms.tolist()):
        m1, m2, w1, w2, pr = m1 / norm, m2 / norm, w1 / norm, w2 / norm, pr / norm
        pr2 = 2.0 * energy / norm + 2.0 * w1 - L * (L + 1) * w2
        dr = math.sqrt(max(m2 - m1 * m1, 0.0))
        dpr = math.sqrt(max(pr2 - pr * pr, 0.0))
        if dpr == 0.0:
            raise NumericalError(f"no momentum spread at t = {t}: dp_r = 0, so dr / dp_r is undefined")
        dR = math.sqrt(max(w2 - w1 * w1, 0.0))
        records.append(UncertaintyRecord(t=t, dr=dr, dpr=dpr, dR=dR, bound_half_rm2=0.5 * w2))
    return records


# the most times in one block of phases.  It bounds memory only, since a
# record's bits do not depend on its block: a block's (1024, 5, 1, N) stack
# products are under 4 MB at N = 41 (nbar 285)
_SCAN_BLOCK = 1024


def _scan(exp: EigenExpansion, times) -> Iterator[tuple[list[UncertaintyRecord], list[float]]]:
    """Yield the records and autocorrelations at ``times`` block by block, as
    (records, autocorrelations) pairs, one block per consecutive slice of at
    most ``_SCAN_BLOCK`` times.  A block is evaluated when it is asked for,
    so a consumer that drops each block holds only one."""
    for lo in range(0, len(times), _SCAN_BLOCK):
        yield _scan_block(exp, times[lo : lo + _SCAN_BLOCK])


def _scan_block(exp: EigenExpansion, ts) -> tuple[list[UncertaintyRecord], list[float]]:
    """The records and autocorrelations at the times ``ts`` from one block of
    phases."""
    ts = np.array(ts, dtype=float)
    phases = _phases(exp, ts[:, None])
    return _records(exp, ts.tolist(), phases), _autocorrelations(exp, phases)


def _autocorrelations(exp: EigenExpansion, phases: np.ndarray) -> list[float]:
    """|<psi(0)|psi(t)>|^2 / weight^2 at each time whose phases are a row of
    ``phases``: one conjugated ``np.vecdot`` of the rows with the populations,
    then Python floats, so a time has the same bits in any block.
    NumericalError for a weight below 2^-511, whose square is no normal float."""
    s2 = exp.weight**2
    if not s2 >= sys.float_info.min:
        raise NumericalError(f"the expansion's weight {exp.weight!r} squares past the float range")
    return [abs(amp) ** 2 / s2 for amp in np.vecdot(phases, exp.complex_populations).tolist()]


def _phases(exp: EigenExpansion, t) -> np.ndarray:
    """exp(-i E_n t): a row for a scalar t, a (B, N) block for a (B, 1) column."""
    return np.exp(exp.phase_rates * t)
