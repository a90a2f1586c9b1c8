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
``_laguerre_steps``, which also serves the Gauss-Laguerre rule.

One radial kernel, ``_radial_rows``, evaluates every R_nl table: a single
level in ``hydrogen_radial``, the density tables of ``evolution.BasisTable``,
``spectral.reconstruct`` and the moment matrices.  It works in tiles of whole
rows, about 24 576 elements each: on a table of many thousand radii a tile is
one level, whose recurrence already runs at the arithmetic floor (about 2 ns
per element and step), while on the 2048-node moment rule a tile steps about
12 levels at once and reads each row off at its own degree
(``_laguerre_rows``, which the projection in ``spectral`` uses too), since one
recurrence per level would there be bound by NumPy call overhead.  Each
element sees the same operations and constants whatever the tiling, so the
values do not depend on it.  The envelope is computed first; the recurrence
skips the columns past the last one where any envelope of the tile is
nonzero, and wherever the envelope is zero the value is exactly 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "NumericalError",
    "laguerre",
    "hydrogen_energy",
    "hydrogen_radial",
    "radial_log_prefactor",
    "radial_quadrature",
]


class NumericalError(RuntimeError):
    """A numerical guard tripped (overflow, quadrature non-convergence, ...)."""


def hydrogen_energy(n: int) -> float:
    """Bound-state energy -1/(2 n^2) in hartree."""
    if n < 1:
        raise ValueError(f"principal quantum number must be >= 1, got {n}")
    return -0.5 / (n * n)


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
        return float(_laguerre_scaled(n, a, x.reshape(-1))[0] / m_n)
    return _laguerre_scaled(n, a, x) / m_n


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
    """Yield P_k for k = 0, 1, ..., n.

    P_k = k! 2^{-E_k} L_k^a(x) = m_k L_k^a(x), with (m, E) from
    ``_factorial_scale``.  Abramowitz & Stegun 22.7.12 times (k - 1)! 2^{-E_k}
    gives, with e_k = E_k - E_{k-1},
    P_k = (2k - 1 + a - x) 2^{-e_k} P_{k-1} - (k - 1)(k - 1 + a) 2^{-(E_k - E_{k-2})} P_{k-2},
    so a step has no division and every scaling in it is exact.  ``x`` may be
    real or complex.  Each step is four in-place passes on three buffers that
    rotate, so a step allocates nothing and a yielded array is overwritten by
    later steps.  e_k is j or j + 1 with j = floor(log2 k), so the copies
    x 2^{-j} and x 2^{-j-1} are all the step reads of x; they are halved in
    place when j grows.
    """
    _, E = _factorial_scale(n)
    buf, cur = np.empty_like(x), np.ones_like(x)
    yield cur
    if n == 0:
        return
    prev, cur = cur, 1.0 + a - x
    yield cur
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
        yield cur


def _laguerre_scaled(n: int, a: float, x: np.ndarray) -> np.ndarray:
    """P_n = m_n L_n^a(x) of ``_laguerre_steps`` for an array x."""
    for p in _laguerre_steps(n, a, x):
        pass
    return p


def _laguerre_rows(degrees, a: float, x: np.ndarray) -> np.ndarray:
    """Row i of the result is P_{degrees[i]} of ``_laguerre_steps`` at x[i].

    One recurrence steps every row of the 2-d array ``x`` up to the largest
    degree, and each row is copied out when the recurrence passes its own
    degree; the degrees must be distinct.  Rows stepped past their degree may
    overflow harmlessly, so overflow is silenced here and callers judge only
    the values they read.
    """
    row_at = {int(k): i for i, k in enumerate(degrees)}
    out = np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, p in enumerate(_laguerre_steps(max(row_at), a, x)):
            i = row_at.get(k)
            if i is not None:
                out[i] = p[i]
    return out


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
        lag = _laguerre_scaled(m + 1, beta, t)  # m_{m+1} L_{m+1}^beta(t)
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
        math.lgamma(n - l) - math.log(2.0 * n) - math.lgamma(n + l + 1)
    )


def _radial_log_const(n: int, l: int) -> float:
    """ln(A_nl / m_k): the prefactor of R_nl over the scale that P_k carries."""
    k = n - l - 1
    return radial_log_prefactor(n, l) - math.log(_factorial_scale(k)[0][k])


def _envelope(log_const, l: int, rho: np.ndarray) -> np.ndarray:
    """exp(log_const - rho/2 + l ln rho), so that R_nl = envelope * P_k at
    rho = 2r/n; ``log_const`` is a float, or a column against rows of rho."""
    envelope = log_const - 0.5 * rho
    if l:  # skipped at l = 0, where 0 * ln 0 would be NaN at r = 0
        with np.errstate(divide="ignore"):
            envelope += l * np.log(rho)
    return np.exp(envelope, out=envelope)


# elements per recurrence tile in _radial_rows; a tile holds whole rows, so a
# 16 000-point table steps one level at a time and the 2048-node moment rule
# steps 12 levels together
_TILE_ELEMENTS = 24576


def _radial_rows(ns, l: int, r: np.ndarray) -> np.ndarray:
    """R_nl(r) for each level n of the integer array ``ns`` (one row each) at
    the 1-d radii ``r``; ValueError on an invalid (n, l) or a negative radius.

    The rows are stepped in tiles of max(1, _TILE_ELEMENTS // r.size) levels,
    and every level of a tile shares one Laguerre recurrence, stepped to the
    largest degree by ``_laguerre_rows``.  The envelope comes first: a tile
    is trimmed to its last column where any envelope is nonzero, so on sorted
    radii the recurrence skips the far points, and the product is taken only
    where the envelope is nonzero.  Everywhere else the value is exactly 0;
    a live value that is not finite raises NumericalError naming the first
    such level.
    """
    if ns.size:
        _check_nl(int(ns.min()), l)
    if (r < 0).any():
        raise ValueError("radius must be non-negative")
    log_const = np.array([_radial_log_const(int(n), l) for n in ns])[:, None]
    scale = (2.0 / ns)[:, None]
    out = np.zeros((ns.size, r.size))
    step = max(1, _TILE_ELEMENTS // max(r.size, 1))
    for lo in range(0, ns.size, step):
        rows = slice(lo, lo + step)
        rho = scale[rows] * r
        envelope = _envelope(log_const[rows], l, rho)
        live = envelope != 0.0
        cols = live.any(axis=0)
        end = r.size - int(np.argmax(cols[::-1])) if cols.any() else 0
        lag = _laguerre_rows(ns[rows] - l - 1, 2 * l + 1, rho[:, :end])
        tile = out[rows, :end]
        with np.errstate(over="ignore"):
            np.multiply(envelope[:, :end], lag, out=tile, where=live[:, :end])
        bad = ~np.isfinite(tile).all(axis=1)
        if bad.any():
            raise NumericalError(f"overflow while evaluating R_{ns[lo + np.argmax(bad)]},{l}")
    return out


def hydrogen_radial(n: int, l: int, r):
    """Radial eigenfunction R_nl(r), real and positive as r -> 0+.

    Normalized so that the integral of R_nl^2 r^2 dr over [0, inf) is 1.
    The prefactor is assembled in log space so that values remain finite for
    n well beyond 100.
    """
    r = np.asarray(r, dtype=float)
    values = _radial_rows(np.array([n]), l, r.reshape(-1))[0]
    return float(values[0]) if r.ndim == 0 else values.reshape(r.shape)


# Gauss-Legendre nodes per panel of radial_quadrature
_NODES_PER_PANEL = 64


def radial_quadrature(r_max: float, n_nodes: int = 4096):
    """Panelized Gauss-Legendre rule on [0, r_max].

    Returns ``(x, w)`` with all nodes strictly inside (0, r_max), in panels
    of up to 64 nodes.  Panel edges are graded quadratically toward the
    origin, matching the sqrt(r) growth of the local oscillation wavelength of
    bound Coulomb eigenfunctions, so the node density per wavelength is
    roughly uniform across the domain.
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    per_panel = min(n_nodes, _NODES_PER_PANEL)
    n_panels = -(-n_nodes // per_panel)
    edges = r_max * np.linspace(0.0, 1.0, n_panels + 1) ** 2
    xg, wg = _legendre_rule(per_panel)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


@lru_cache(maxsize=4)
def _legendre_rule(m: int):
    """The m-node Gauss-Legendre rule on [-1, 1], cached and read-only."""
    rule = np.polynomial.legendre.leggauss(m)
    for a in rule:
        a.flags.writeable = False
    return rule
