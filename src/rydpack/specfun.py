"""Hydrogen bound-state radial eigenfunctions and special-function kernels.

All quantities are in atomic units: lengths in bohr, energies in hartree.
The eigenfunctions stay usable up to principal quantum numbers of a few
hundred because every factorial-sized normalization factor is assembled in
log space; only the Laguerre polynomial is carried in linear space, where its
magnitude remains representable for the argument ranges arising here.

The Laguerre three-term recurrence carries P_k = k! 2^{-E_k} L_k^a, where
k! = m_k 2^{E_k} with m_k in [1/2, 1), so the carried value stays within a
factor 2 of L_k.  Every scaling in its step is an exact power of two and the
step has no division; consumers add -ln m_k in log space.  It runs in place on
three rotating buffers, so a step allocates nothing; it is written once, in
``_laguerre_steps``, which also serves the Gauss-Laguerre rule and the
projection in ``spectral``.  The radial kernel steps only the points whose
envelope is nonzero; everywhere else the value is exactly 0.  One recurrence
serves both R_nl and (d/dr + 1/r) R_nl: it ends holding the pair
(P_k, P_{k-1}), and the identity
rho L_{k-1}^{a+1} = (k + a) L_{k-1}^a - k L_k^a turns the derivative term into
that pair, so the momentum factor needs no second recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NumericalError",
    "HydrogenLevel",
    "log_gamma",
    "laguerre",
    "hydrogen_energy",
    "hydrogen_radial",
    "hydrogen_radial_pr",
    "radial_log_prefactor",
    "radial_quadrature",
]


class NumericalError(RuntimeError):
    """A numerical guard tripped (overflow, quadrature non-convergence, ...)."""


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def hydrogen_energy(n: int) -> float:
    """Bound-state energy -1/(2 n^2) in hartree."""
    if n < 1:
        raise ValueError(f"principal quantum number must be >= 1, got {n}")
    return -0.5 / (n * n)


@dataclass(frozen=True)
class HydrogenLevel:
    """A bound level (n, l); the energy field is always -1/(2 n^2)."""

    n: int
    l: int
    energy: float = 0.0

    def __post_init__(self):
        _check_nl(self.n, self.l)
        object.__setattr__(self, "energy", hydrogen_energy(self.n))


def _check_nl(n: int, l: int) -> None:
    if n < 1:
        raise ValueError(f"principal quantum number must be >= 1, got {n}")
    if not 0 <= l <= n - 1:
        raise ValueError(f"angular momentum must satisfy 0 <= l <= n-1, got l={l}, n={n}")


def laguerre(n: int, a: float, x):
    """Generalized Laguerre polynomial L_n^a(x).

    Uses the three-term recurrence upward in the degree, which is the stable
    direction for a > -1.  Accepts scalar or array ``x``.
    """
    if n < 0:
        raise ValueError(f"Laguerre degree must be >= 0, got {n}")
    if a <= -1.0:
        raise ValueError(f"Laguerre parameter must be > -1, got {a}")
    x = np.asarray(x, dtype=float)
    m_n = _factorial_scale(n)[0][n]
    if x.ndim == 0:
        return float(_laguerre_pair(n, a, x.reshape(-1))[0][0] / m_n)
    return _laguerre_pair(n, a, x)[0] / m_n


def _factorial_scale(n: int):
    """Tuples (m, E) with k! = m[k] 2^E[k] for every degree k <= n (and beyond).

    m[0] = m[1] = 1 and E[0] = E[1] = 0; from k = 2 on, (m[k], E[k] - E[k-1])
    is math.frexp(m[k-1] k), so m[k] lies in [1/2, 1) and each E[k] is exact.
    Tables come in power-of-two sizes, at least 512 degrees.
    """
    return _factorial_table(1 << max(9, n.bit_length()))


@lru_cache(maxsize=4)
def _factorial_table(size: int):
    m, e = [1.0, 1.0], [0, 0]
    for k in range(2, size):
        frac, shift = math.frexp(m[-1] * k)
        m.append(frac)
        e.append(e[-1] + shift)
    return tuple(m), tuple(e)


def _laguerre_steps(n: int, a: float, x: np.ndarray):
    """Yield (P_k, P_{k-1}) for k = 0, 1, ..., n, with P_{-1} := 0.

    P_k = k! 2^{-E_k} L_k^a(x) = m_k L_k^a(x), with (m, E) from
    ``_factorial_scale``.  Abramowitz & Stegun 22.7.12 times (k - 1)! 2^{-E_k}
    gives, with e_k = E_k - E_{k-1},
    P_k = (2k - 1 + a - x) 2^{-e_k} P_{k-1} - (k - 1)(k - 1 + a) 2^{-(E_k - E_{k-2})} P_{k-2},
    so a step has no division and every scaling in it is exact.  ``x`` may be
    real or complex.  Each step is four in-place passes on three buffers that
    rotate, so a step allocates nothing and a yielded pair is overwritten by
    later steps.  e_k is j or j + 1 with j = floor(log2 k), so the copies
    x 2^{-j} and x 2^{-j-1} are all the step reads of x; they are halved in
    place when j grows.
    """
    _, E = _factorial_scale(n)
    buf, cur = np.zeros_like(x), np.ones_like(x)
    yield cur, buf
    if n == 0:
        return
    prev, cur = cur, 1.0 + a - x
    yield cur, prev
    j = 1
    scaled = (x * 0.5, x * 0.25)
    for k in range(2, n + 1):
        if k.bit_length() - 1 > j:
            j += 1
            for xs in scaled:
                xs *= 0.5
        e = E[k] - E[k - 1]
        np.subtract(math.ldexp(2.0 * k - 1.0 + a, -e), scaled[e - j], out=buf)
        buf *= cur
        prev *= math.ldexp((k - 1.0) * (k - 1.0 + a), E[k - 2] - E[k])
        buf -= prev
        prev, cur, buf = cur, buf, prev
        yield cur, prev


def _laguerre_pair(n: int, a: float, x: np.ndarray):
    """(P_n, P_{n-1}) of ``_laguerre_steps`` for an array x."""
    for pair in _laguerre_steps(n, a, x):
        pass
    return pair


def _gauss_laguerre(m: int, beta: float):
    """Nodes t_i and log-weights ln w_i of the m-node Gauss rule for the
    weight t^beta e^{-t} on (0, inf), exact for polynomials of degree 2m - 1.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch 1969),
    diagonal 2i + beta + 1 and off-diagonal sqrt(i (i + beta)).  The weights
    come from Abramowitz & Stegun 25.4.45,
    w_i = Gamma(m + beta + 1) t_i / (m! (m + 1)^2 L_{m+1}^beta(t_i)^2),
    in log space: eigenvector components would underflow for beta of a few
    hundred.
    """
    jacobi = np.zeros((m, m))
    i = np.arange(1.0, m)
    jacobi.flat[:: m + 1] = np.arange(m) * 2.0 + (beta + 1.0)
    jacobi.flat[m :: m + 1] = np.sqrt(i * (i + beta))
    t = np.linalg.eigvalsh(jacobi)  # reads the lower triangle
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lag = _laguerre_pair(m + 1, beta, t)[0]  # m_{m+1} L_{m+1}^beta(t)
        log_w = (
            math.lgamma(m + beta + 1.0)
            - math.lgamma(m + 1.0)
            - 2.0 * math.log(m + 1.0)
            + 2.0 * math.log(_factorial_scale(m + 1)[0][m + 1])
            + np.log(t)
            - 2.0 * np.log(np.abs(lag))
        )
    if not np.isfinite(log_w).all():
        raise NumericalError(f"Gauss-Laguerre weights overflowed ({m} nodes, beta={beta:g})")
    return t, log_w


def radial_log_prefactor(n: int, l: int) -> float:
    """ln of the positive normalization prefactor of R_nl.

    R_nl(r) = exp(radial_log_prefactor) * exp(-rho/2) * rho^l * L_{n-l-1}^{2l+1}(rho)
    with rho = 2 r / n, normalized so that the integral of R^2 r^2 dr is 1.
    """
    _check_nl(n, l)
    return 1.5 * math.log(2.0 / n) + 0.5 * (
        log_gamma(n - l) - math.log(2.0 * n) - log_gamma(n + l + 1)
    )


def _combine(envelope: np.ndarray, poly: np.ndarray, what: str) -> np.ndarray:
    """Multiply the log-assembled envelope by the carried polynomial part.

    Only live points, where some envelope is nonzero, reach here, so a value
    that is not finite means the polynomial overflowed while still relevant,
    which is outside the supported argument range: NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = envelope * poly
    if not np.isfinite(out).all():
        raise NumericalError(f"overflow while evaluating {what}")
    return out


def _radial_kernel(n: int, l: int, r: np.ndarray, pr: bool):
    """R_nl(r) and, when ``pr``, (d/dr + 1/r) R_nl(r), else None.

    ``r`` is a validated array.  One Laguerre recurrence gives the carried
    pair (P_k, P_{k-1}) with k = n - l - 1, a = 2l + 1; with rho = 2r/n,
    (d/dr + 1/r) R_nl = (2/n) e^{-rho/2} rho^{l-1} [(n - rho/2) L_k - (n + l) L_{k-1}]
    times the prefactor of R_nl.  The envelopes come first, and the
    recurrence steps only the points where one of them is nonzero; the
    others are exactly 0.
    """
    k = n - l - 1
    m, E = _factorial_scale(k)
    rho = (2.0 / n) * r
    half = 0.5 * rho
    logpref = radial_log_prefactor(n, l) - math.log(m[k])
    with np.errstate(divide="ignore"):
        lnrho = np.log(rho)
    envelope = _envelope(logpref, half, lnrho, l)
    live = envelope != 0.0
    if pr:
        envelope_pr = _envelope(logpref + math.log(2.0 / n), half, lnrho, l - 1.0)
        live |= envelope_pr != 0.0
    del half, lnrho  # two fewer full-length arrays alive while stepping
    dead = not live.all()
    if dead:
        rho, envelope = rho[live], envelope[live]
        if pr:
            envelope_pr = envelope_pr[live]
    # far out the recurrence may overflow; _combine judges the live points
    with np.errstate(over="ignore", invalid="ignore"):
        lag, lag_prev = _laguerre_pair(k, 2 * l + 1, rho)
        if pr:
            # k! 2^{-E_k} L_{k-1} = k 2^{-e_k} P_{k-1}, with an exact scalar
            # (0 at k = 0, whatever E[-1] reads)
            core = (n - 0.5 * rho) * lag - math.ldexp((n + l) * k, E[k - 1] - E[k]) * lag_prev
    radial = _combine(envelope, lag, f"R_{n},{l}")
    deriv = _combine(envelope_pr, core, f"(d/dr + 1/r) R_{n},{l}") if pr else None
    if dead:
        radial = _scatter(live, radial)
        deriv = None if deriv is None else _scatter(live, deriv)
    return radial, deriv


def _scatter(live: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` at the points ``live``, exactly 0 everywhere else."""
    out = np.zeros(live.shape)
    out[live] = values
    return out


def _envelope(logpref: float, half: np.ndarray, lnrho: np.ndarray, power: float) -> np.ndarray:
    """exp(logpref - rho/2 + power ln rho), the power term dropped when 0."""
    expo = logpref - half
    if power:
        expo += power * lnrho
    return np.exp(expo)


def _radii(r):
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise ValueError("radius must be non-negative")
    return r.ndim == 0, np.atleast_1d(r)


def hydrogen_radial(n: int, l: int, r):
    """Radial eigenfunction R_nl(r), real and positive as r -> 0+.

    Normalized so that the integral of R_nl^2 r^2 dr over [0, inf) is 1.
    The prefactor is assembled in log space so that values remain finite for
    n well beyond 100.
    """
    _check_nl(n, l)
    scalar, r = _radii(r)
    out = _radial_kernel(n, l, r, pr=False)[0]
    return float(out[0]) if scalar else out


def hydrogen_radial_pr(n: int, l: int, r):
    """The combination (d/dr + 1/r) applied to R_nl(r).

    This is the real radial factor of p_r R_nl, with p_r = -i (d/dr + 1/r).
    For l >= 1 it is finite at r = 0; for l = 0 the 1/r term diverges there,
    so r = 0 is rejected.
    """
    _check_nl(n, l)
    scalar, r = _radii(r)
    if l == 0 and (r == 0).any():
        raise ValueError("(d/dr + 1/r) R_n0 is singular at r = 0")
    out = _radial_kernel(n, l, r, pr=True)[1]
    return float(out[0]) if scalar else out


def radial_quadrature(r_max: float, n_nodes: int = 4096, nodes_per_panel: int = 64):
    """Panelized Gauss-Legendre rule on [0, r_max].

    Returns ``(x, w)`` with all nodes strictly inside (0, r_max).  Panel edges
    are graded quadratically toward the origin, matching the sqrt(r) growth of
    the local oscillation wavelength of bound Coulomb eigenfunctions, so the
    node density per wavelength is roughly uniform across the domain.
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    if n_nodes < nodes_per_panel:
        nodes_per_panel = n_nodes
    n_panels = -(-n_nodes // nodes_per_panel)
    edges = r_max * np.linspace(0.0, 1.0, n_panels + 1) ** 2
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_panel)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w
