"""Decomposition of a radial squeezed state onto bound hydrogen p eigenstates.

Continuum states are dropped entirely; the completeness deficit
1 - sum |c_n|^2 is the honest record of everything omitted (continuum plus
out-of-window bound states) and is carried on every expansion.

The projections c_n = int R_nl psi r^2 dr are exact up to rounding.  With
beta = alpha + l + 2, sigma_n = gamma0 + i gamma1 + 1/n, k = n - l - 1 and
t = sigma_n r, the integrand is t^beta e^{-t} times the degree-k polynomial
L_k^{2l+1}(2t / (n sigma_n)), up to constant factors, so a generalized
Gauss-Laguerre rule for the weight t^beta e^{-t} with M > k/2 nodes
integrates it exactly; for complex sigma_n (gamma1 != 0) the rule still holds
by rotating the contour, since Re sigma_n > 0.  beta is the same for every
level, so one rule serves a whole batch of levels.  The guard projects again
with M + 8 nodes: disagreement beyond ``err_tol``, or a value that is not
finite, raises NumericalError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import (
    NumericalError,
    _factorial_scale,
    _gauss_laguerre,
    _laguerre_steps,
    hydrogen_radial,
    radial_log_prefactor,
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

# the guard's second rule has this many more nodes than the first
_CHECK_NODES = 8


class DeficitToleranceWarning(UserWarning):
    """The requested completeness deficit could not be reached within the cap."""


@dataclass(frozen=True)
class EigenExpansion:
    """Coefficients c_n over the bound-state window n in [n_min, n_max], l fixed.

    ``deficit`` is 1 - sum |c_n|^2.  The coefficient array is treated as
    immutable once the expansion is built.
    """

    l: int
    n_min: int
    n_max: int
    coeffs: np.ndarray
    deficit: float

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
        object.__setattr__(self, "coeffs", coeffs)
        if not -1e-9 <= self.deficit < 1.0 + 1e-12:
            raise ValueError(f"deficit out of range: {self.deficit!r}")

    @property
    def ns(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def energies(self) -> np.ndarray:
        return -0.5 / self.ns.astype(float) ** 2

    @property
    def weight(self) -> float:
        """Captured probability sum |c_n|^2."""
        return float(np.sum(np.abs(self.coeffs) ** 2))


def _default_center(state: RadialSqueezedState) -> int:
    # <r> ~ 2 nbar^2 at the outer apsidal point
    return max(2, int(round(math.sqrt(moment_r(state, 1.0) / 2.0))))


def _rule_size(k_max: int) -> int:
    # exactness needs 2M - 1 >= k_max; four nodes spare
    return k_max // 2 + 1 + 4


def _project_on_rule(state, ns, l, m):
    """int R_nl psi r^2 dr for each level n in ``ns`` on the m-node rule.

    One recurrence steps every level's nodes up to the largest degree; each
    level's row is read off at its own degree k = n - l - 1, where it carries
    m_k L_k, and rows stepped past their degree may overflow harmlessly.
    """
    beta = state.alpha + l + 2.0
    t, log_w = _gauss_laguerre(m, beta)
    ns = np.asarray(ns)
    sigma = state.gamma0 + 1.0 / ns
    if state.gamma1 != 0.0:
        sigma = sigma + 1j * state.gamma1
    scale = _factorial_scale(int(max(ns)) - l - 1)[0]
    log_const = (
        state.log_norm
        + np.array([radial_log_prefactor(int(n), l) - math.log(scale[int(n) - l - 1]) for n in ns])
        + l * np.log(2.0 / ns)
        - (beta + 1.0) * np.log(sigma)
    )
    x = (2.0 / (ns * sigma))[:, None] * t
    row_at = {int(n) - l - 1: i for i, n in enumerate(ns)}
    lag = np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (cur, _) in enumerate(_laguerre_steps(max(row_at), 2 * l + 1, x)):
            i = row_at.get(k)
            if i is not None:
                lag[i] = cur[i]
        return np.sum(np.exp(log_w + log_const[:, None]) * lag, axis=1)


def _project(state, ns, l, m, err_tol):
    """Projections onto the levels ``ns`` on the m-node rule, guarded by a
    second projection with m + _CHECK_NODES nodes."""
    c = _project_on_rule(state, ns, l, m)
    err = np.max(np.abs(c - _project_on_rule(state, ns, l, m + _CHECK_NODES)))
    if not err <= err_tol:  # a NaN error fails too
        raise NumericalError(
            f"projection quadrature did not converge: estimated error "
            f"{err:.3e} > {err_tol:g}"
        )
    return c


def project_coefficient(
    state: RadialSqueezedState,
    n: int,
    l: int = 1,
    err_tol: float = 1e-9,
) -> complex:
    """c_n = int R_nl(r) psi(r) r^2 dr on the Gauss-Laguerre rule of ``decompose``.

    A disagreement with the rule of 8 more nodes beyond ``err_tol``, or a
    value that is not finite, raises NumericalError.
    """
    if n < l + 1:
        raise ValueError(f"need n >= l+1 = {l + 1}, got {n}")
    return complex(_project(state, [n], l, _rule_size(n - l - 1), err_tol)[0])


def decompose(
    state: RadialSqueezedState,
    window: tuple[int, int] | None = None,
    center: int | None = None,
    deficit_tol: float = DEFAULT_DEFICIT_TOL,
    n_cap: int = N_CAP,
    l: int = 1,
    err_tol: float = 1e-9,
) -> EigenExpansion:
    """Expand the state over bound levels.

    With an explicit ``window`` the coefficients are computed exactly there.
    Otherwise the window grows symmetrically about the packet center until the
    deficit falls below ``deficit_tol`` or the bounds [l+1, n_cap] are hit, in
    which case a DeficitToleranceWarning reports the achieved deficit.
    Each batch of new levels is projected on one Gauss-Laguerre rule sized
    for its largest degree and checked against a rule of 8 more nodes;
    disagreement beyond ``err_tol`` raises NumericalError.
    """
    if center is None:
        center = _default_center(state)

    def batch(ns):
        return _project(state, ns, l, _rule_size(max(ns) - l - 1), err_tol)

    if window is not None:
        n_min, n_max = int(window[0]), int(window[1])
        if n_min < l + 1 or n_max > n_cap or n_max < n_min:
            raise ValueError(f"window [{n_min}, {n_max}] outside [{l + 1}, {n_cap}]")
        coeffs = batch(list(range(n_min, n_max + 1)))
        return _finish(l, n_min, n_max, coeffs)

    center = min(max(center, l + 1), n_cap)
    n_min = max(l + 1, center - 4)
    n_max = min(n_cap, center + 4)
    known = {n: c for n, c in zip(range(n_min, n_max + 1), batch(list(range(n_min, n_max + 1))))}
    while True:
        weight = sum(abs(c) ** 2 for c in known.values())
        if 1.0 - weight < deficit_tol:
            break
        lo_new = max(l + 1, n_min - 8)
        hi_new = min(n_cap, n_max + 8)
        fresh = list(range(lo_new, n_min)) + list(range(n_max + 1, hi_new + 1))
        if not fresh:
            warnings.warn(
                f"deficit tolerance {deficit_tol:g} unreachable within "
                f"[{l + 1}, {n_cap}]; achieved deficit {1.0 - weight:.6e}",
                DeficitToleranceWarning,
                stacklevel=2,
            )
            break
        for n, c in zip(fresh, batch(fresh)):
            known[n] = c
        n_min, n_max = lo_new, hi_new
    ns = sorted(known)
    coeffs = np.array([known[n] for n in ns], dtype=complex)
    return _finish(l, ns[0], ns[-1], coeffs)


def _finish(l, n_min, n_max, coeffs) -> EigenExpansion:
    weight = float(np.sum(np.abs(coeffs) ** 2))
    if not math.isfinite(weight):
        raise NumericalError(f"captured weight is not finite: {weight!r}")
    deficit = 1.0 - weight
    if deficit < 0.0:
        if deficit < -1e-9:
            raise NumericalError(
                f"captured weight exceeds 1 by {-deficit:.3e}; quadrature inconsistent"
            )
        deficit = 0.0
    return EigenExpansion(l=l, n_min=n_min, n_max=n_max, coeffs=coeffs, deficit=deficit)


def reconstruct(exp: EigenExpansion, r):
    """Sum c_n R_nl(r); complex, aligned with ``r``."""
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros(r.shape, dtype=complex)
    for n, c in zip(exp.ns, exp.coeffs):
        out += c * hydrogen_radial(int(n), exp.l, r)
    return complex(out[0]) if scalar else out


def coefficient_spread(exp: EigenExpansion):
    """Mean and RMS width of the |c_n|^2 distribution over n.

    The RMS width is the operational level-spread deltan entering the
    interference timescale.
    """
    p = np.abs(exp.coeffs) ** 2
    s = p.sum()
    if s == 0.0:
        return float("nan"), float("nan")
    ns = exp.ns.astype(float)
    mean = float(np.dot(p, ns) / s)
    rms = float(math.sqrt(np.dot(p, (ns - mean) ** 2) / s))
    return mean, rms
