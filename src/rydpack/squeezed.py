"""Radial squeezed states psi(r) = N r^alpha exp(-gamma0 r).

Closed-form moments, expectation values, uncertainty algebra, and the fit of
(alpha, gamma0) from the matching conditions

    <p_r> = 0,    <r> = r_out,    <H> = E_nbar,

i.e. the state starts at the outer apsidal point of the corresponding
classical orbit, at rest, with the energy of the central level nbar.  H has
one potential: for the paper's p states the centrifugal barrier
l(l+1)/(2 r^2) is exactly 1/r^2, so the paper's effective potential
r^-2 - r^-1 and the centrifugal convention are the same function, and there
is no convention to choose.

The paper's states carry a momentum phase exp(-i gamma1 r), which gives
<p_r> = -gamma1, so the first condition fixes gamma1 = 0 for every packet: a
state here is real and has no gamma1.  The fit is closed form.  With
s = 2 alpha + 3 and R = r_out, <r> = R gives gamma0 = s/(2R).  The apsidal
point solves R^2 - 2 nbar^2 R + 2 nbar^2 = 0, so E_nbar = -(R - 1)/R^2
exactly, and <H> = E_nbar becomes the cubic

    s^3 - s^2 - 8(R - 3) s + 16(R - 1) = 0.

Its roots add to 1 and multiply to -16(R - 1) < 0.  For nbar >= 3 all three
are real: one negative, one with alpha in (-1/2, 0), and the largest, the fit
(Viete's form).  At nbar = 2 the only real root is negative: there is no fit.

These states saturate the uncertainty relation dR dP >= <r^-2>/2 for the
operator pair R = (2 - r)/(2 r), P = p_r, whose commutator is -i r^-2.

A state is its two parameters: the normalization ln N is a function of
alpha and gamma0, computed on first use and never passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .specfun import NumericalError, _real, _reals, _whole, hydrogen_energy

__all__ = [
    "L",
    "FitError",
    "QuantumNumbers",
    "OrbitGeometry",
    "RadialSqueezedState",
    "moment_r",
    "expectation_pr2",
    "expectation_H",
    "uncertainties_rp",
    "uncertainties_RP",
    "orbit_geometry",
    "fit_parameters",
]

# the angular momentum of every state in the package: the paper's packets are
# p states, and the fit and <H> use the l = 1 radial potential
L = 1


class FitError(RuntimeError):
    """The matching conditions have no solution with alpha > 0, or the solution
    misses <r> = r_out or <H> = E_nbar by more than 1e-10 relative."""


@dataclass(frozen=True)
class QuantumNumbers:
    """Central principal quantum number nbar >= 2 of a p state (l = ``L``); the
    level spread is measured on an expansion (``coefficient_spread``)."""

    nbar: int

    def __post_init__(self):
        object.__setattr__(self, "nbar", _whole("nbar", self.nbar, 2))


@dataclass(frozen=True)
class OrbitGeometry:
    """Outer apsidal point, eccentricity and outer classical point, in bohr."""

    r_out: float
    eccentricity: float
    r1: float


@dataclass(frozen=True)
class RadialSqueezedState:
    """Parameters of one squeezed state; immutable after construction.

    ``log_norm`` is ln N fixed by <r^0> = 1.  It is derived from alpha and
    gamma0, never given, so a state cannot carry a stale one.  alpha and
    gamma0 are positive finite floats, and their normalization is finite
    (else ValueError; alpha or gamma0 near the float range has none).
    """

    alpha: float
    gamma0: float

    def __post_init__(self):
        for name in ("alpha", "gamma0"):
            object.__setattr__(self, name, _real(name, getattr(self, name), positive=True))
        try:
            finite = math.isfinite(self.log_norm)
        except OverflowError:  # lgamma of a finite argument above about 2.5e305
            finite = False
        if not finite:
            raise ValueError(
                f"alpha={self.alpha!r}, gamma0={self.gamma0!r} have no finite normalization"
            )

    @cached_property
    def log_norm(self) -> float:
        a = 2.0 * self.alpha + 3.0
        return -0.5 * (math.lgamma(a) - a * math.log(2.0 * self.gamma0))

    def log_envelope(self, r):
        """ln |psi(r)| for radii r >= 0: -inf at r = 0 and at r = inf, its
        limits there.  A NaN or negative radius raises ValueError."""
        r = _reals("radius", r, radii=True)
        # ln r is taken only at 0 < r < inf; elsewhere -inf stands in for it,
        # which at r = inf makes alpha ln r - gamma0 r the limit -inf, not inf - inf
        log_r = np.log(r, out=np.full(r.shape, -np.inf), where=(r != 0.0) & (r != np.inf))
        with np.errstate(over="ignore"):  # gamma0 r past the float range: ln psi is -inf
            return self.log_norm + self.alpha * log_r - self.gamma0 * r

    def psi(self, r):
        """Real wavefunction values exp(``log_envelope``): zero at r = 0 since
        alpha > 0, and at r = inf.  A NaN or negative radius raises
        ValueError, a value past the float range NumericalError."""
        with np.errstate(over="ignore"):
            values = np.exp(self.log_envelope(r))
        if not np.isfinite(values).all():
            raise NumericalError(f"psi of alpha={self.alpha!r}, gamma0={self.gamma0!r} passes the float range")
        return values


def _finite(what: str, value: float) -> float:
    """``value``; NumericalError naming ``what`` where it passes the float range."""
    if not math.isfinite(value):
        raise NumericalError(f"{what} passes the float range")
    return value


def _square(x: float) -> float:
    """x ** 2, inf where it passes the float range (Python raises OverflowError there)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


# the largest order |k| that `moment_r` takes; the product's rounding grows by
# about one ulp per factor, and the package itself uses k = -2 and 1
_MAX_ORDER = 8


def moment_r(state: RadialSqueezedState, k: float) -> float:
    """<r^k> = Gamma(a + k + 1) / (b^k Gamma(a + 1)), a = 2 alpha + 2, b = 2 gamma0.

    The order k is an integer with |k| <= 8, so the gamma ratio is a short
    product, (a + 1)/b ... (a + k)/b for k > 0 and b/a ... b/(a + k + 1) for
    k < 0, exact to a few ulp at any alpha.  Any other order, or one at or
    below the normalizability bound -(a + 1), raises ValueError; a moment
    that passes the float range, NumericalError.
    """
    k = _real("moment order", k, finite=False)
    if not abs(k) <= _MAX_ORDER or k != int(k):
        raise ValueError(f"moment order k={k} is not an integer of size at most {_MAX_ORDER}")
    a = 2.0 * state.alpha + 2.0
    if not k > -(a + 1.0):
        raise ValueError(f"moment order k={k} at or below normalizability bound {-(a + 1.0)}")
    b = 2.0 * state.gamma0
    moment = 1.0
    for j in range(1, int(k) + 1):
        moment *= (a + j) / b
    for j in range(0, int(k), -1):
        moment *= b / (a + j)
    return _finite(f"<r^{int(k)}> of alpha={state.alpha!r}, gamma0={state.gamma0!r}", moment)


def expectation_pr2(state: RadialSqueezedState) -> float:
    """<p_r^2> = gamma0^2 / (2 alpha + 1); <p_r> is 0, as for every real state.
    NumericalError where it passes the float range."""
    return _finite(f"<p_r^2> of gamma0={state.gamma0!r}", _square(state.gamma0) / (2.0 * state.alpha + 1.0))


def expectation_H(state: RadialSqueezedState) -> float:
    """<H> = <p_r^2>/2 + <V_eff> in hartree, V_eff being the l = 1 radial potential.

    The effective potential carries the p-state centrifugal barrier,
    <V_eff> = <r^-2> - <r^-1> from the closed forms of both moments; for
    l = 1 this is the centrifugal form L(L+1)/2 <r^-2> - <r^-1> term for term.
    NumericalError where a term passes the float range.
    """
    alpha, gamma0 = state.alpha, state.gamma0
    m_inv1 = gamma0 / (alpha + 1.0)
    m_inv2 = 2.0 * _square(gamma0) / ((alpha + 1.0) * (2.0 * alpha + 1.0))
    return _finite(f"<H> of gamma0={gamma0!r}", 0.5 * expectation_pr2(state) + m_inv2 - m_inv1)


def uncertainties_rp(state: RadialSqueezedState):
    """(dr, dp_r): sqrt(2 alpha + 3)/(2 gamma0) and gamma0/sqrt(2 alpha + 1);
    NumericalError where dr passes the float range."""
    dr = math.sqrt(2.0 * state.alpha + 3.0) / (2.0 * state.gamma0)
    dpr = state.gamma0 / math.sqrt(2.0 * state.alpha + 1.0)
    return _finite(f"dr of alpha={state.alpha!r}, gamma0={state.gamma0!r}", dr), dpr


def uncertainties_RP(state: RadialSqueezedState):
    """(dR, dP, bound) for R = (2 - r)/(2 r), P = p_r.

    dR is the standard deviation of 1/r in closed form; the bound is
    <r^-2>/2 evaluated through the moment route, so equality of dR*dP with
    the bound cross-checks two independent evaluation paths.
    """
    alpha, gamma0 = state.alpha, state.gamma0
    dR = gamma0 / ((alpha + 1.0) * math.sqrt(2.0 * alpha + 1.0))
    dP = uncertainties_rp(state)[1]
    bound = 0.5 * moment_r(state, -2.0)
    return dR, dP, bound


def orbit_geometry(q: QuantumNumbers) -> OrbitGeometry:
    """Apsidal geometry of the classical orbit for the level nbar; NumericalError
    where it passes the float range, from about nbar = 9.5e153."""
    n = float(q.nbar)
    r_out = n * n + n * math.sqrt(n * n - 2.0)
    ecc = math.sqrt(1.0 - 1.0 / (n * n))
    r1 = n * n * (1.0 + ecc)
    _finite(f"the orbit of nbar={q.nbar:.6g}", max(r_out, r1))
    return OrbitGeometry(r_out=r_out, eccentricity=ecc, r1=r1)


def _residuals(state: RadialSqueezedState, r_out: float, e_target: float):
    """The relative misses |<r> - r_out|/r_out and |<H> - E|/|E| of a fit."""
    return abs(moment_r(state, 1.0) - r_out) / r_out, abs(expectation_H(state) - e_target) / abs(e_target)


def fit_parameters(q: QuantumNumbers) -> RadialSqueezedState:
    """Solve the matching conditions for (alpha, gamma0) in closed form.

    <p_r> = 0 is the paper's gamma1 = 0, which every state here has (module
    docstring).  With R = r_out, E_nbar = -(R - 1)/R^2 exactly, and the
    other two conditions give alpha = (s - 3)/2 and gamma0 = s/(2R), where s
    is the largest root of s^3 - s^2 + b s + c = 0, b = -8(R - 3), c =
    16(R - 1).  In x = s - 1/3 the cubic is x^3 + p x + q = 0, and where its
    three roots are real the largest is s = 1/3 + m cos(arccos(3q/(p m))/3),
    m = 2 sqrt(-p/3) (Viete; Abramowitz & Stegun 3.8.2), then one Newton
    step in Horner form, skipped where the cubic's values overflow (from
    about nbar = 1.4e102): Python float arithmetic alone, no array library.
    FitError if the cubic has one real root (|3q/(p m)| > 1), as at nbar =
    2, or if a residual of <r> = r_out or <H> = E_nbar exceeds 1e-10
    relative; NumericalError where c passes the float range, from about
    nbar = 2.4e153.  Every whole nbar from 3 to there fits, though no
    timescale is finite from about 7.3e76 on (`analysis.timescales`), so
    `rydpack fit` refuses those before it fits.  nbar is the only input.
    """
    r_out = orbit_geometry(q).r_out
    e_target = hydrogen_energy(q.nbar)
    b, c = -8.0 * (r_out - 3.0), 16.0 * (r_out - 1.0)
    if not math.isfinite(c):  # from about nbar = 2.4e153
        raise NumericalError(f"the matching cubic of nbar={q.nbar:.6g} passes the float range")
    p = b - 1.0 / 3.0
    m = 2.0 * math.sqrt(-p / 3.0)
    cos3 = 3.0 * ((b / 3.0 + c - 2.0 / 27.0) / p) / m  # q/p first: 3q overflows at the top
    s = 1.0 / 3.0 + m * math.cos(math.acos(cos3) / 3.0) if abs(cos3) <= 1.0 else math.nan
    polished = s - (((s - 1.0) * s + b) * s + c) / ((3.0 * s - 2.0) * s + b)
    if math.isfinite(polished):
        s = polished
    if not s > 3.0:  # a NaN root, of a cubic with one real root, fails too
        raise FitError(
            f"the matching conditions have no solution with alpha > 0 for nbar={q.nbar:.6g}"
        )
    state = RadialSqueezedState(alpha=(s - 3.0) / 2.0, gamma0=s / (2.0 * r_out))
    r_resid, h_resid = _residuals(state, r_out, e_target)
    if r_resid > 1e-10 or h_resid > 1e-10:
        raise FitError(
            f"fit residuals too large for nbar={q.nbar:.6g}: "
            f"|<r>-r_out|/r_out={r_resid:.3e}, |<H>-E|/|E|={h_resid:.3e}"
        )
    return state
