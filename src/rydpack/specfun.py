"""Hydrogen bound-state radial eigenfunctions and special-function kernels.

All quantities are in atomic units: lengths in bohr, energies in hartree.
The eigenfunctions stay usable up to principal quantum numbers of a few
hundred because every factorial-sized normalization factor is assembled in
log space; only the Laguerre polynomial is carried in linear space, where its
magnitude remains representable for the argument ranges arising here.

The Laguerre three-term recurrence runs in place on three rotating buffers,
so a step allocates nothing; it is written once, in ``_laguerre_steps``,
which also serves the Gauss-Laguerre projection in ``spectral``.  One
recurrence serves both R_nl and
(d/dr + 1/r) R_nl: it ends holding the pair (L_k^a, L_{k-1}^a), and the
identity rho L_{k-1}^{a+1} = (k + a) L_{k-1}^a - k L_k^a turns the derivative
term into that pair, so the momentum factor needs no second recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    if x.ndim == 0:
        return float(_laguerre_pair(n, a, x.reshape(-1))[0][0])
    return _laguerre_pair(n, a, x)[0]


def _laguerre_steps(n: int, a: float, x: np.ndarray):
    """Yield (L_k^a(x), L_{k-1}^a(x)) for k = 0, 1, ..., n, with L_{-1}^a := 0.

    ``x`` may be real or complex.  Each step
    ((2k - 1 + a - x) L_{k-1} - (k - 1 + a) L_{k-2}) / k is done in place, in
    that order of operations, on three buffers that rotate, so a step
    allocates nothing and a yielded pair is overwritten by later steps.
    """
    buf, cur = np.zeros_like(x), np.ones_like(x)
    yield cur, buf
    if n == 0:
        return
    prev, cur = cur, 1.0 + a - x
    yield cur, prev
    for k in range(2, n + 1):
        np.subtract(2.0 * k - 1.0 + a, x, out=buf)
        buf *= cur
        prev *= k - 1.0 + a
        buf -= prev
        buf /= k
        prev, cur, buf = cur, buf, prev
        yield cur, prev


def _laguerre_pair(n: int, a: float, x: np.ndarray):
    """(L_n^a(x), L_{n-1}^a(x)) for an array x, with L_{-1}^a := 0."""
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
        lag = _laguerre_pair(m + 1, beta, t)[0]
        log_w = (
            math.lgamma(m + beta + 1.0)
            - math.lgamma(m + 1.0)
            - 2.0 * math.log(m + 1.0)
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
    """Multiply log-assembled envelope by the linear-space polynomial part.

    Where the envelope underflowed to exactly zero the true value is below
    double precision, so the product is forced to zero; any other non-finite
    outcome means the polynomial overflowed while still relevant, which is
    outside the supported argument range.
    """
    out = envelope * poly
    bad = ~np.isfinite(out)
    if bad.any():
        harmless = bad & (envelope == 0.0)
        out[harmless] = 0.0
        if (bad & ~harmless).any():
            raise NumericalError(f"overflow while evaluating {what}")
    return out


def _radial_kernel(n: int, l: int, r: np.ndarray, pr: bool):
    """R_nl(r) and, when ``pr``, (d/dr + 1/r) R_nl(r), else None.

    ``r`` is a validated 1-d array.  One Laguerre recurrence gives
    (L_k, L_{k-1}) with k = n - l - 1, a = 2l + 1; with rho = 2r/n,
    (d/dr + 1/r) R_nl = (2/n) e^{-rho/2} rho^{l-1} [(n - rho/2) L_k - (n + l) L_{k-1}]
    times the prefactor of R_nl.
    """
    rho = (2.0 / n) * r
    half = 0.5 * rho
    logpref = radial_log_prefactor(n, l)
    with np.errstate(divide="ignore"):
        lnrho = np.log(rho)
    # far out the unscaled recurrence overflows; _combine alone judges
    # whether such a value matters
    with np.errstate(over="ignore", invalid="ignore"):
        lag, lag_prev = _laguerre_pair(n - l - 1, 2 * l + 1, rho)
        radial = _combine(_envelope(logpref, half, lnrho, l), lag, f"R_{n},{l}")
        if not pr:
            return radial, None
        core = (n - half) * lag - (n + l) * lag_prev
        envelope = _envelope(logpref + math.log(2.0 / n), half, lnrho, l - 1.0)
        return radial, _combine(envelope, core, f"(d/dr + 1/r) R_{n},{l}")


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
