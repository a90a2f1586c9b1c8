"""Decomposition of a radial squeezed state onto bound hydrogen p eigenstates.

Continuum states are dropped entirely; the completeness deficit
1 - sum |c_n|^2 is the honest record of everything omitted (continuum plus
out-of-window bound states).  An expansion stores only its coefficients and
derives the deficit from them, so no copy of it can disagree with them.

The projections c_n = int R_nl psi r^2 dr are exact up to rounding.  With
beta = alpha + l + 2, sigma_n = gamma0 + i gamma1 + 1/n, k = n - l - 1 and
t = sigma_n r, the integrand is t^beta e^{-t} times the degree-k polynomial
L_k^{2l+1}(2t / (n sigma_n)), up to constant factors, so a generalized
Gauss-Laguerre rule for the weight t^beta e^{-t} with M > k/2 nodes
integrates it exactly; for complex sigma_n (gamma1 != 0) the rule still holds
by rotating the contour, since Re sigma_n > 0.  beta is the same for every
level, so one rule serves a whole batch of levels.  The guard projects again
with M + 8 nodes: disagreement beyond 1e-9 (``_ERR_TOL``), or a value that
is not finite, raises NumericalError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .specfun import (
    NumericalError,
    _gauss_laguerre,
    _laguerre_rows,
    _radial_log_const,
    _radial_rows,
)
from .squeezed import RadialSqueezedState, moment_r

__all__ = [
    "DEFAULT_DEFICIT_TOL",
    "N_CAP",
    "DeficitToleranceWarning",
    "EigenExpansion",
    "project_coefficient",
    "decompose",
    "reconstruct",
    "coefficient_spread",
]

DEFAULT_DEFICIT_TOL = 1e-4
N_CAP = 400

# the guard's second rule has this many more nodes than the first, and the
# two projections may disagree by at most _ERR_TOL
_CHECK_NODES = 8
_ERR_TOL = 1e-9


class DeficitToleranceWarning(UserWarning):
    """The requested completeness deficit could not be reached within the cap."""


@dataclass(frozen=True)
class EigenExpansion:
    """Coefficients c_n over the bound-state window n in [n_min, n_max], l fixed.

    The coefficients are the whole record: ``weight`` sum |c_n|^2 and
    ``deficit`` 1 - weight are derived from them, never stored beside them.
    The coefficients must be finite with a weight of at most 1 + 1e-9, and
    the array is treated as immutable once the expansion is built.
    """

    l: int
    n_min: int
    n_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n_min < self.l + 1:
            raise ValueError(f"n_min must be >= l+1 = {self.l + 1}, got {self.n_min}")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        span = self.n_max - self.n_min + 1
        if span < 0 or coeffs.shape != (span,):
            raise ValueError(
                f"coefficient array of shape {coeffs.shape} does not match "
                f"window [{self.n_min}, {self.n_max}]"
            )
        bad = ~np.isfinite(coeffs)
        if bad.any():
            raise ValueError(f"coefficient of n={self.n_min + int(np.argmax(bad))} is not finite")
        object.__setattr__(self, "coeffs", coeffs)
        if not self.weight <= 1.0 + 1e-9:
            raise ValueError(f"captured weight exceeds 1: {self.weight!r}")

    @cached_property
    def ns(self) -> np.ndarray:
        """The levels n_min..n_max, computed once and read-only."""
        ns = np.arange(self.n_min, self.n_max + 1)
        ns.flags.writeable = False
        return ns

    @cached_property
    def energies(self) -> np.ndarray:
        """The level energies -1/(2 n^2), computed once and read-only."""
        energies = -0.5 / self.ns.astype(float) ** 2
        energies.flags.writeable = False
        return energies

    @cached_property
    def populations(self) -> np.ndarray:
        """The level populations |c_n|^2, computed once and read-only."""
        populations = np.abs(self.coeffs) ** 2
        populations.flags.writeable = False
        return populations

    @cached_property
    def weight(self) -> float:
        """Captured probability sum |c_n|^2, computed once."""
        return float(self.populations.sum())

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


def _project_on_rule(state, ns, l, m):
    """int R_nl psi r^2 dr for each level n in ``ns`` on the m-node rule.

    One recurrence steps every level's nodes up to the largest degree, and
    each level's row is read off at its own degree k = n - l - 1, where it
    carries m_k L_k (``specfun._laguerre_rows``).
    """
    beta = state.alpha + l + 2.0
    t, log_w = _gauss_laguerre(m, beta)
    ns = np.asarray(ns)
    sigma = state.gamma0 + 1.0 / ns
    if state.gamma1 != 0.0:
        sigma = sigma + 1j * state.gamma1
    log_const = (
        state.log_norm
        + np.array([_radial_log_const(int(n), l) for n in ns])
        + l * np.log(2.0 / ns)
        - (beta + 1.0) * np.log(sigma)
    )
    lag = _laguerre_rows(ns - l - 1, 2 * l + 1, (2.0 / (ns * sigma))[:, None] * t)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(np.exp(log_w + log_const[:, None]) * lag, axis=1)


def _project(state, ns, l, m):
    """Projections onto the levels ``ns`` on the m-node rule, guarded by a
    second projection with m + _CHECK_NODES nodes."""
    c = _project_on_rule(state, ns, l, m)
    err = np.max(np.abs(c - _project_on_rule(state, ns, l, m + _CHECK_NODES)))
    if not err <= _ERR_TOL:  # a NaN error fails too
        raise NumericalError(
            f"projection quadrature did not converge: estimated error "
            f"{err:.3e} > {_ERR_TOL:g}"
        )
    return c


def project_coefficient(
    state: RadialSqueezedState,
    n: int,
    l: int = 1,
) -> complex:
    """c_n = int R_nl(r) psi(r) r^2 dr on the Gauss-Laguerre rule of ``decompose``.

    A disagreement with the rule of 8 more nodes beyond 1e-9, or a value that
    is not finite, raises NumericalError.
    """
    if n < l + 1:
        raise ValueError(f"need n >= l+1 = {l + 1}, got {n}")
    return complex(_project(state, [n], l, _rule_size(n - l - 1))[0])


def decompose(
    state: RadialSqueezedState,
    window: tuple[int, int] | None = None,
    center: int | None = None,
    deficit_tol: float = DEFAULT_DEFICIT_TOL,
    n_cap: int = N_CAP,
    l: int = 1,
) -> EigenExpansion:
    """Expand the state over bound levels.

    The window starts at [center - 4, center + 4] and grows by 8 levels per
    side until the deficit falls below ``deficit_tol`` or the bounds
    [l+1, n_cap] are hit, in which case a DeficitToleranceWarning reports the
    achieved deficit.  An explicit ``window`` is the starting window with
    growth switched off.
    Each batch of new levels is projected on one Gauss-Laguerre rule sized
    for its largest degree and checked against a rule of 8 more nodes;
    disagreement beyond 1e-9, or a captured weight that is not at most
    1 + 1e-9, raises NumericalError.
    """
    if window is None:
        if center is None:
            center = _default_center(state)
        center = min(max(center, l + 1), n_cap)
        n_min, n_max, step = max(l + 1, center - 4), min(n_cap, center + 4), 8
    else:
        n_min, n_max, step = int(window[0]), int(window[1]), 0
        if n_min < l + 1 or n_max > n_cap or n_max < n_min:
            raise ValueError(f"window [{n_min}, {n_max}] outside [{l + 1}, {n_cap}]")

    def batch(ns):
        return _project(state, ns, l, _rule_size(max(ns) - l - 1))

    coeffs = batch(list(range(n_min, n_max + 1)))
    while True:
        weight = float(np.sum(np.abs(coeffs) ** 2))
        if not weight <= 1.0 + 1e-9:  # a NaN weight fails too
            raise NumericalError(f"captured weight {weight!r} is not <= 1 + 1e-9")
        if not step or 1.0 - weight < deficit_tol:
            break
        lo_new = max(l + 1, n_min - step)
        hi_new = min(n_cap, n_max + step)
        fresh = list(range(lo_new, n_min)) + list(range(n_max + 1, hi_new + 1))
        if not fresh:
            warnings.warn(
                f"deficit tolerance {deficit_tol:g} unreachable within "
                f"[{l + 1}, {n_cap}]; achieved deficit {1.0 - weight:.6e}",
                DeficitToleranceWarning,
                stacklevel=2,
            )
            break
        c = batch(fresh)
        coeffs = np.concatenate([c[: n_min - lo_new], coeffs, c[n_min - lo_new :]])
        n_min, n_max = lo_new, hi_new
    return EigenExpansion(l, n_min, n_max, coeffs)


def reconstruct(exp: EigenExpansion, r):
    """Sum c_n R_nl(r); complex, aligned with ``r``."""
    r = np.asarray(r, dtype=float)
    out = exp.coeffs @ _radial_rows(exp.ns, exp.l, r.reshape(-1))
    return complex(out[0]) if r.ndim == 0 else out.reshape(r.shape)


def coefficient_spread(exp: EigenExpansion):
    """Mean and RMS width of the |c_n|^2 distribution over n.

    The RMS width is the operational level-spread deltan entering the
    interference timescale.
    """
    p, s = exp.populations, exp.weight
    if s == 0.0:
        return float("nan"), float("nan")
    ns = exp.ns.astype(float)
    mean = float(np.dot(p, ns) / s)
    rms = float(math.sqrt(np.dot(p, (ns - mean) ** 2) / s))
    return mean, rms
