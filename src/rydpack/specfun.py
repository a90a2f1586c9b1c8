"""Hydrogen bound-state radial eigenfunctions and special-function kernels.

All quantities are in atomic units: lengths in bohr, energies in hartree.
The eigenfunctions stay usable up to principal quantum numbers of a few
hundred because every factorial-sized normalization factor is assembled in
log space; only the Laguerre polynomial is carried in linear space, where its
magnitude remains representable for the argument ranges arising here.
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
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + a - x
    for k in range(2, n + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + a - x) * cur - (k - 1.0 + a) * prev) / k
    return cur if cur.ndim else float(cur)


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


def hydrogen_radial(n: int, l: int, r):
    """Radial eigenfunction R_nl(r), real and positive as r -> 0+.

    Normalized so that the integral of R_nl^2 r^2 dr over [0, inf) is 1.
    The prefactor is assembled in log space so that values remain finite for
    n well beyond 100.
    """
    _check_nl(n, l)
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise ValueError("radius must be non-negative")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    rho = (2.0 / n) * r
    logpref = radial_log_prefactor(n, l)
    poly = np.atleast_1d(laguerre(n - l - 1, 2 * l + 1, rho))
    if l == 0:
        expo = logpref - 0.5 * rho
    else:
        with np.errstate(divide="ignore"):
            expo = logpref - 0.5 * rho + l * np.log(rho)
    out = _combine(np.exp(expo), poly, f"R_{n},{l}")
    return float(out[0]) if scalar else out


def hydrogen_radial_pr(n: int, l: int, r):
    """The combination (d/dr + 1/r) applied to R_nl(r).

    This is the real radial factor of p_r R_nl, with p_r = -i (d/dr + 1/r).
    For l >= 1 it is finite at r = 0; for l = 0 the 1/r term diverges there,
    so r = 0 is rejected.
    """
    _check_nl(n, l)
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise ValueError("radius must be non-negative")
    if l == 0 and (r == 0).any():
        raise ValueError("(d/dr + 1/r) R_n0 is singular at r = 0")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    rho = (2.0 / n) * r
    k = n - l - 1
    a = 2 * l + 1
    lag = np.atleast_1d(laguerre(k, a, rho))
    dlag = np.atleast_1d(laguerre(k - 1, a + 1, rho)) if k >= 1 else np.zeros_like(rho)
    core = (l + 1.0 - 0.5 * rho) * lag - rho * dlag
    logpref = radial_log_prefactor(n, l) + math.log(2.0 / n)
    if l == 1:
        expo = logpref - 0.5 * rho
    else:
        with np.errstate(divide="ignore"):
            expo = logpref - 0.5 * rho + (l - 1.0) * np.log(rho)
    out = _combine(np.exp(expo), core, f"(d/dr + 1/r) R_{n},{l}")
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
