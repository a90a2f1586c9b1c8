"""Radial squeezed states psi(r) = N r^alpha exp(-gamma0 r) exp(-i gamma1 r).

Closed-form moments, expectation values, uncertainty algebra, and the fit of
(alpha, gamma0, gamma1) from the matching conditions

    <p_r> = 0,    <r> = r_out,    <H> = E_nbar,

i.e. the state starts at the outer apsidal point of the corresponding
classical orbit, at rest, with the energy of the central level nbar.

The fit is closed form.  <p_r> = 0 gives gamma1 = 0, and with s = 2 alpha + 3
and R = r_out, <r> = R gives gamma0 = s/(2R).  The apsidal point solves
R^2 - 2 nbar^2 R + 2 nbar^2 = 0, so E_nbar = -(R - 1)/R^2 exactly, and
<H> = E_nbar becomes the cubic

    s^3 - s^2 - 8(R - 3) s + 16(R - 1) = 0.

Its roots add to 1 and multiply to -16(R - 1) < 0.  For nbar >= 3 all three
are real: one negative, one with alpha in (-1/2, 0), and the largest, which
is the fit.  At nbar = 2 the only real root is negative, so there is no fit.

These states saturate the uncertainty relation dR dP >= <r^-2>/2 for the
operator pair R = (2 - r)/(2 r), P = p_r, whose commutator is -i r^-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import hydrogen_energy

__all__ = [
    "FitError",
    "QuantumNumbers",
    "OrbitGeometry",
    "RadialSqueezedState",
    "POTENTIAL_MODES",
    "moment_r",
    "expectation_pr",
    "expectation_pr2",
    "expectation_H",
    "uncertainties_rp",
    "uncertainties_RP",
    "orbit_geometry",
    "fit_parameters",
]

POTENTIAL_MODES = ("paper", "centrifugal")


class FitError(RuntimeError):
    """The matching conditions have no solution with alpha > 0, or the solution
    misses <r> = r_out or <H> = E_nbar by more than 1e-10 relative."""


@dataclass(frozen=True)
class QuantumNumbers:
    """Central principal quantum number nbar, angular momentum l (pinned to 1),
    and the level-spread estimate deltan used only for the interference time."""

    nbar: int
    l: int = 1
    deltan: float = 1.0

    def __post_init__(self):
        if int(self.nbar) != self.nbar or self.nbar < 2:
            raise ValueError(f"nbar must be an integer >= 2, got {self.nbar!r}")
        if self.l != 1:
            raise ValueError("only p states (l = 1) are supported")
        if not self.deltan > 0:
            raise ValueError(f"deltan must be positive, got {self.deltan!r}")


@dataclass(frozen=True)
class OrbitGeometry:
    """Outer apsidal point, eccentricity and outer classical point, in bohr."""

    r_out: float
    eccentricity: float
    r1: float


@dataclass(frozen=True)
class RadialSqueezedState:
    """Parameters of one squeezed state; immutable after construction.

    ``log_norm`` is ln N fixed by <r^0> = 1.  It is computed when not given,
    so deserialized states round-trip exactly.
    """

    alpha: float
    gamma0: float
    gamma1: float = 0.0
    log_norm: float | None = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not self.gamma0 > 0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0!r}")
        if self.log_norm is None:
            a = 2.0 * self.alpha + 3.0
            log_norm = -0.5 * (math.lgamma(a) - a * math.log(2.0 * self.gamma0))
            object.__setattr__(self, "log_norm", log_norm)

    def log_envelope(self, r):
        """ln |psi(r)| for r > 0 (`-inf` at r = 0)."""
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return self.log_norm + self.alpha * np.log(r) - self.gamma0 * r

    def psi(self, r):
        """Complex wavefunction values; zero at r = 0 since alpha > 0."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.exp(self.log_envelope(r)).astype(complex)
        if self.gamma1 != 0.0:
            out *= np.exp(-1j * self.gamma1 * r)
        return complex(out[0]) if scalar else out


def moment_r(state: RadialSqueezedState, k: float) -> float:
    """<r^k> = Gamma(a + k + 1) / (b^k Gamma(a + 1)), a = 2 alpha + 2, b = 2 gamma0.

    Evaluated through log-gamma differences so large alpha never overflows.
    Independent of gamma1, which only contributes a phase.
    """
    a = 2.0 * state.alpha + 2.0
    if not k > -(a + 1.0):
        raise ValueError(f"moment order k={k} at or below normalizability bound {-(a + 1.0)}")
    b = 2.0 * state.gamma0
    return math.exp(math.lgamma(a + k + 1.0) - math.lgamma(a + 1.0) - k * math.log(b))


def expectation_pr(state: RadialSqueezedState) -> float:
    """<p_r> = -gamma1, from p_r = -i (d/dr + 1/r) applied to the state."""
    return -state.gamma1


def expectation_pr2(state: RadialSqueezedState) -> float:
    """<p_r^2> = gamma1^2 + gamma0^2 / (2 alpha + 1)."""
    return state.gamma1 ** 2 + state.gamma0 ** 2 / (2.0 * state.alpha + 1.0)


def _check_mode(mode: str) -> None:
    if mode not in POTENTIAL_MODES:
        raise ValueError(f"potential mode must be one of {POTENTIAL_MODES}, got {mode!r}")


def expectation_H(state: RadialSqueezedState, mode: str = "paper") -> float:
    """<H> = <p_r^2>/2 + <V_eff> in hartree, V_eff being the l = 1 radial potential.

    The effective potential carries the p-state centrifugal barrier,
    <V_eff> = <r^-2> - <r^-1>; the two accepted mode names coincide for l = 1 and
    are kept for configuration compatibility and sensitivity reporting.
    """
    _check_mode(mode)
    alpha, gamma0 = state.alpha, state.gamma0
    m_inv1 = gamma0 / (alpha + 1.0)
    m_inv2 = 2.0 * gamma0 ** 2 / ((alpha + 1.0) * (2.0 * alpha + 1.0))
    return 0.5 * expectation_pr2(state) + m_inv2 - m_inv1


def uncertainties_rp(state: RadialSqueezedState):
    """(dr, dp_r): sqrt(2 alpha + 3)/(2 gamma0) and gamma0/sqrt(2 alpha + 1)."""
    dr = math.sqrt(2.0 * state.alpha + 3.0) / (2.0 * state.gamma0)
    dpr = state.gamma0 / math.sqrt(2.0 * state.alpha + 1.0)
    return dr, dpr


def uncertainties_RP(state: RadialSqueezedState):
    """(dR, dP, bound) for R = (2 - r)/(2 r), P = p_r.

    dR is the standard deviation of 1/r in closed form; the bound is
    <r^-2>/2 evaluated through the moment route, so equality of dR*dP with
    the bound cross-checks two independent evaluation paths.
    """
    alpha, gamma0 = state.alpha, state.gamma0
    dR = gamma0 / ((alpha + 1.0) * math.sqrt(2.0 * alpha + 1.0))
    dP = gamma0 / math.sqrt(2.0 * alpha + 1.0)
    bound = 0.5 * moment_r(state, -2.0)
    return dR, dP, bound


def orbit_geometry(q: QuantumNumbers) -> OrbitGeometry:
    """Apsidal geometry of the classical orbit for the level nbar."""
    n = float(q.nbar)
    r_out = n * n + n * math.sqrt(n * n - 2.0)
    ecc = math.sqrt(1.0 - 1.0 / (n * n))
    return OrbitGeometry(r_out=r_out, eccentricity=ecc, r1=n * n * (1.0 + ecc))


def fit_parameters(q: QuantumNumbers, mode: str = "paper") -> RadialSqueezedState:
    """Solve the three matching conditions for (alpha, gamma0, gamma1) in closed form.

    With R = r_out, E_nbar = -(R - 1)/R^2 exactly, and the conditions give
    gamma1 = 0, alpha = (s - 3)/2 and gamma0 = s/(2R), where s is the largest
    real root of s^3 - s^2 - 8(R - 3) s + 16(R - 1) = 0 (module docstring),
    taken from `np.roots` and polished by one Newton step.  FitError if that
    root has s <= 3 (alpha <= 0), as at nbar = 2, or if a residual of
    <r> = r_out or <H> = E_nbar exceeds 1e-10 relative.
    """
    _check_mode(mode)
    r_out = orbit_geometry(q).r_out
    e_target = hydrogen_energy(q.nbar)
    cubic = [1.0, -1.0, -8.0 * (r_out - 3.0), 16.0 * (r_out - 1.0)]
    s = max(z.real for z in np.roots(cubic) if z.imag == 0.0)
    if not s > 3.0:
        raise FitError(
            f"the matching conditions have no solution with alpha > 0 for nbar={q.nbar}"
        )
    s = float(s - np.polyval(cubic, s) / np.polyval(np.polyder(cubic), s))
    state = RadialSqueezedState(alpha=(s - 3.0) / 2.0, gamma0=s / (2.0 * r_out), gamma1=0.0)

    r_resid = abs(moment_r(state, 1.0) - r_out) / r_out
    h_resid = abs(expectation_H(state, mode) - e_target) / abs(e_target)
    if r_resid > 1e-10 or h_resid > 1e-10:
        raise FitError(
            f"fit residuals too large for nbar={q.nbar}: "
            f"|<r>-r_out|/r_out={r_resid:.3e}, |<H>-E|/|E|={h_resid:.3e}"
        )
    return state
