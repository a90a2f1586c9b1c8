"""Decomposition of a radial squeezed state onto bound hydrogen p eigenstates.

Continuum states are dropped entirely; the completeness deficit
1 - sum |c_n|^2 is the honest record of everything omitted (continuum plus
out-of-window bound states) and is carried on every expansion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import (
    NumericalError,
    hydrogen_radial,
    laguerre,
    radial_log_prefactor,
    radial_quadrature,
)
from .squeezed import RadialSqueezedState, moment_r

__all__ = [
    "DEFAULT_DEFICIT_TOL",
    "N_CAP",
    "DeficitToleranceWarning",
    "EigenExpansion",
    "DecompositionQuadrature",
    "project_coefficient",
    "decompose",
    "reconstruct",
    "coefficient_spread",
]

DEFAULT_DEFICIT_TOL = 1e-4
N_CAP = 400

_LN2 = math.log(2.0)


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


@dataclass(frozen=True)
class DecompositionQuadrature:
    """Reference rule for projection integrals plus an embedded check rule."""

    x: np.ndarray
    w: np.ndarray
    x_check: np.ndarray
    w_check: np.ndarray
    r_max: float

    @classmethod
    def build(cls, r_max: float, n_nodes: int = 4096):
        x, w = radial_quadrature(r_max, n_nodes)
        xc, wc = radial_quadrature(r_max, n_nodes // 2)
        return cls(x=x, w=w, x_check=xc, w_check=wc, r_max=r_max)


def _default_center(state: RadialSqueezedState) -> int:
    # <r> ~ 2 nbar^2 at the outer apsidal point
    return max(2, int(round(math.sqrt(moment_r(state, 1.0) / 2.0))))


def _default_quadrature(state: RadialSqueezedState, center: int) -> DecompositionQuadrature:
    mean_r = moment_r(state, 1.0)
    spread = math.sqrt(2.0 * state.alpha + 3.0) / (2.0 * state.gamma0)
    r_max = max(4.0 * center * center, mean_r + 12.0 * spread)
    return DecompositionQuadrature.build(r_max)


def _project_batch(state, ns, l, x, w):
    """Projection integrals int R_nl psi r^2 dr, log-assembled per node."""
    lnx = np.log(x)
    base = state.log_norm + state.alpha * lnx - state.gamma0 * x + 2.0 * lnx
    phase = np.exp(-1j * state.gamma1 * x) if state.gamma1 != 0.0 else None
    out = np.empty(len(ns), dtype=complex)
    for i, n in enumerate(ns):
        rho = (2.0 / n) * x
        expo = (
            base
            + radial_log_prefactor(n, l)
            - 0.5 * rho
            + l * (_LN2 + lnx - math.log(n))
        )
        f = np.exp(expo) * laguerre(n - l - 1, 2 * l + 1, rho)
        out[i] = np.dot(w, f) if phase is None else np.dot(w, f * phase)
    return out


def project_coefficient(
    state: RadialSqueezedState,
    n: int,
    l: int = 1,
    quad: DecompositionQuadrature | None = None,
    err_tol: float = 1e-9,
) -> complex:
    """c_n = int R_nl(r) psi(r) r^2 dr on the reference quadrature.

    The same integral on the embedded half-resolution rule provides the error
    estimate; disagreement beyond ``err_tol`` raises NumericalError.
    """
    if n < l + 1:
        raise ValueError(f"need n >= l+1 = {l + 1}, got {n}")
    if quad is None:
        quad = _default_quadrature(state, max(_default_center(state), n))
    c = _project_batch(state, [n], l, quad.x, quad.w)[0]
    c_check = _project_batch(state, [n], l, quad.x_check, quad.w_check)[0]
    if not abs(c - c_check) <= err_tol:  # a NaN error fails too
        raise NumericalError(
            f"projection onto n={n} did not converge: estimated error "
            f"{abs(c - c_check):.3e} > {err_tol:g}"
        )
    return complex(c)


def decompose(
    state: RadialSqueezedState,
    window: tuple[int, int] | None = None,
    center: int | None = None,
    deficit_tol: float = DEFAULT_DEFICIT_TOL,
    n_cap: int = N_CAP,
    l: int = 1,
    quad: DecompositionQuadrature | None = None,
    err_tol: float = 1e-9,
) -> EigenExpansion:
    """Expand the state over bound levels.

    With an explicit ``window`` the coefficients are computed exactly there.
    Otherwise the window grows symmetrically about the packet center until the
    deficit falls below ``deficit_tol`` or the bounds [l+1, n_cap] are hit, in
    which case a DeficitToleranceWarning reports the achieved deficit.
    """
    if center is None:
        center = _default_center(state)
    if quad is None:
        quad = _default_quadrature(state, center)

    def batch(ns):
        c = _project_batch(state, ns, l, quad.x, quad.w)
        c_check = _project_batch(state, ns, l, quad.x_check, quad.w_check)
        err = np.max(np.abs(c - c_check)) if len(ns) else 0.0
        if not err <= err_tol:  # a NaN error fails too
            raise NumericalError(
                f"projection quadrature did not converge: estimated error "
                f"{err:.3e} > {err_tol:g}"
            )
        return c

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
