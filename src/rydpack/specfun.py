"""Hydrogen bound-state radial eigenfunctions and special-function kernels.

All quantities are in atomic units: lengths in bohr, energies in hartree.
The eigenfunctions stay usable up to principal quantum numbers of a few
hundred because every factorial-sized normalization factor is assembled in
log space; only the Laguerre polynomial is carried in linear space, where its
magnitude remains representable for the argument ranges arising here.

The Laguerre three-term recurrence carries P_k = k! 2^{-E_k} L_k^a, where
k! = m_k 2^{E_k} with m_k in [1/2, 1), so the carried value stays within a
factor 2 of L_k.  Every scaling in its step is an exact power of two and the
step has no division; consumers add -ln m_k in log space.  It is written
once, in ``_laguerre_rows``, which steps rows of arguments together and reads
each off at its own degree.  Every Laguerre value comes from it:
``_gauss_laguerre`` makes one call for all of its rules, ``spectral._project``
one for a batch of projections, and ``_radial_rows`` one per tile.

One radial kernel, ``_radial_rows``, evaluates every R_nl table: a single
level in ``hydrogen_radial``, the density tables of ``evolution.BasisTable``,
the blocks of radii of ``spectral._amplitude_blocks`` (density snapshots
without a table) and the moment matrices
(``spectral._moment_matrices``).  The recurrence already runs at the
arithmetic floor (about 1.5 ns per element and step), so the kernel runs
fewer of them: by the multiplication theorem for Laguerre polynomials
(DLMF 18.18.13) one recurrence, at the argument of the anchor m = 5 round(n/5),
serves the levels n = m - 2, ..., m + 2, each of the others a sum of 20 or 26
of its values, each term one multiply-add into the level's own row; below
rho = 2r/n = 1, where its row has its maximum and the recurrence its largest
rounding, a summed level takes its values from a lane of the same recurrence
at its own rho instead.  Levels of degree below 26 are their own anchors.
Tiles of whole rows step up to max(1, 24 576 // radii) anchors together
(``_TILE_ELEMENTS``), so a moment rule's window at nbar 20 to 288 is one
recurrence, as a batch of projections in ``spectral`` is: one per group would
be bound by NumPy call overhead on a few hundred nodes.  An anchor
depends on its level alone and each element sees the same operations and
constants whatever the tiling, so the values do not depend on it.

Input rules.  A public entry point checks each input once, by a rule kept
here: levels, angular momenta, counts and nbar are whole numbers
(``_whole``); real scalars (times, r_max, r_out, widths, thresholds,
tolerances, alpha, gamma0) real numbers within float range (``_real``);
real arrays (radii, grid points, positions, snapshots, series, coefficients)
hold such numbers, finite, or >= 0 with +inf allowed for radii (``_reals``).
A string ("1.0" too), a complex number or a real past float range (an int
or a Fraction) is a ValueError naming the input; ``_radial_rows`` trusts
its callers' radii.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "NumericalError",
    "hydrogen_energy",
    "hydrogen_radial",
    "radial_quadrature",
]


class NumericalError(RuntimeError):
    """A numerical guard tripped (overflow, quadrature non-convergence, ...)."""


def hydrogen_energy(n: int) -> float:
    """Bound-state energy -1/(2 n^2) in hartree."""
    # float(n) is exact below 2^53, so n * n rounds once, as the int product
    # does; where n^2 passes the float range the energy is -0.0
    n = float(_whole("principal quantum number", n, 1))
    return -0.5 / (n * n)


def _whole(name: str, x, least: int, most: float = math.inf) -> int:
    """int(x) for a whole number x, finite, within float range and in
    [``least``, ``most``] (85.0 passes, as 85), else ValueError naming
    ``name``: the package's one rule for levels, counts and nbar.
    A value that is no real number (a list, an array) is no whole number."""
    if not (isinstance(x, numbers.Real) and math.isfinite(_real(name, x, finite=False)) and int(x) == x):
        raise ValueError(f"{name} must be a whole number, got {x!r}")
    if x < least:
        raise ValueError(f"{name} must be >= {least}, got {x}")
    if x > most:
        raise ValueError(f"{name} must be <= {most}, got {x}")
    return int(x)


def _real(name: str, x, finite: bool = True, positive: bool = False) -> float:
    """float(x) for a real number x within float range (no string, list,
    array or complex number), finite unless ``finite`` is False (the caller
    checks it), and > 0 for ``positive``; else ValueError naming ``name``."""
    if type(x) is not float:
        if not isinstance(x, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {x!r}")
        try:
            x = float(x)
        except OverflowError:  # an int or a Fraction beyond float range
            bits = int(x).bit_length()
            what = (f"an integer of {bits} bits" if isinstance(x, numbers.Integral)
                    else f"a {type(x).__name__} of {bits} integer bits")
            raise ValueError(f"{name} must lie within float range, got {what}") from None
    if positive and not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    if finite and not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _reals(name: str, a, finite: bool = True, radii: bool = False) -> np.ndarray:
    """``a`` as a float64 array (``a`` itself where it is one) of finite
    values, unless ``finite`` is False, or for ``radii`` of values >= 0, +inf
    included; else ValueError naming ``name``.  An array of strings, complex
    numbers, Python objects or long doubles is taken value by value by ``_real``
    (a long double past float range becomes inf, where a cast would warn)."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf" or a.dtype.itemsize > 8:
        a = np.array([_real(f"a value of {name}", v, finite=False) for v in a.ravel().tolist()], float).reshape(a.shape)
    a = np.asarray(a, dtype=float)
    if radii:
        if not (a >= 0.0).all():
            raise ValueError(f"{name} is NaN" if np.isnan(a).any() else f"{name} must be non-negative")
    elif finite and not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


# the largest level or Laguerre degree a recurrence steps to: it takes one
# step per degree, and its scale table (``_factorial_scale``) grows with the
# degree, so a level of 1e154 would never return
_MAX_DEGREE = 1 << 16


def _check_nl(ns, l) -> int:
    """int(l), or ValueError unless l and every level n of ``ns`` are whole
    numbers with 0 <= l <= n - 1 and n <= _MAX_DEGREE."""
    l = _whole("angular momentum", l, 0)
    for n in ns:
        _whole("principal quantum number", n, l + 1, _MAX_DEGREE)
    return l


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


def _laguerre_rows(degrees, a: float, x: np.ndarray, visit=None):
    """Row i of the result is P_k = m_k L_k^a(x[i]) at k = degrees[i], with
    (m, E) from ``_factorial_scale``.

    Abramowitz & Stegun 22.7.12 times (k - 1)! 2^{-E_k} gives, with
    e_k = E_k - E_{k-1},
    P_k = (2k - 1 + a - x) 2^{-e_k} P_{k-1} - (k - 1)(k - 1 + a) 2^{-(E_k - E_{k-2})} P_{k-2},
    so a step has no division and every scaling in it is exact.  ``x`` may be
    real or complex, of any shape; its first axis holds the rows, so a single
    degree k on an array y is ``_laguerre_rows([k], a, y[None])[0]``.  One
    recurrence steps every row to the largest degree, and the rows of each
    degree, repeated or not and in any order, are copied out as it passes.
    Each step is four in-place passes on three buffers that rotate, so a step
    allocates nothing.  e_k is j or j + 1 with j = floor(log2 k), so the
    copies x 2^{-j} and x 2^{-j-1} are all the step reads of x; they are
    halved in place when j grows.  Rows stepped past their degree may
    overflow; callers that judge finiteness silence that and check only the
    values they read.

    With ``visit``, nothing is copied and None is returned: the recurrence
    runs to the largest of ``degrees`` and calls visit(k, p) at each of them,
    p holding P_k on every row of x until the next step.
    """
    out = None
    if visit is None:
        rows_at = {}
        for i, k in enumerate(degrees):
            rows_at.setdefault(int(k), []).append(i)
        out = np.empty_like(x)

        def visit(k, p):
            out[rows_at[k]] = p[rows_at[k]]

        degrees = rows_at
    else:
        degrees = {int(k) for k in degrees}
    n = max(degrees)
    _, E = _factorial_scale(n)
    buf, prev, cur = np.empty_like(x), np.ones_like(x), 1.0 + a - x  # P_0, P_1
    for k, p in ((0, prev), (1, cur)):
        if k in degrees:
            visit(k, p)
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
        if k in degrees:
            visit(k, cur)
    return out


def _gauss_laguerre(sizes, beta: float):
    """The Gauss rules (t_i, ln w_i) for the weight t^beta e^{-t} on (0, inf),
    one per node count m of ``sizes``, each exact to degree 2m - 1.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch 1969),
    diagonal 2i + beta + 1 and off-diagonal sqrt(i (i + beta)).  The weights
    come from Abramowitz & Stegun 25.4.45,
    w_i = Gamma(m + beta + 1) t_i / (m! (m + 1)^2 L_{m+1}^beta(t_i)^2),
    in log space: eigenvector components would underflow for beta of a few
    hundred.  One recurrence steps every rule's nodes, zero-padded, and reads
    each rule's row off at its degree m + 1, so a rule has the bits it has
    built alone.  The first rule in ``sizes`` whose weights are not all
    finite raises NumericalError.
    """
    nodes = np.zeros((len(sizes), max(sizes)))
    for row, m in zip(nodes, sizes):
        jacobi = np.zeros((m, m))
        i = np.arange(1.0, m)
        jacobi.flat[:: m + 1] = np.arange(m) * 2.0 + (beta + 1.0)
        jacobi.flat[m :: m + 1] = np.sqrt(i * (i + beta))
        row[:m] = np.linalg.eigvalsh(jacobi)  # reads the lower triangle
        del jacobi  # so that the next rule's matrix is built without this one
    rules = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # row j carries m_{m+1} L_{m+1}^beta(t) for m = sizes[j]
        for m, row, p in zip(sizes, nodes, _laguerre_rows([m + 1 for m in sizes], beta, nodes)):
            log_c = math.lgamma(m + beta + 1.0) - math.lgamma(m + 1.0) - 2.0 * math.log(m + 1.0)
            log_w = log_c + 2.0 * math.log(_factorial_scale(m + 1)[0][m + 1]) + np.log(row[:m])
            log_w -= 2.0 * np.log(np.abs(p[:m]))
            if not np.isfinite(log_w).all():
                raise NumericalError(f"Gauss-Laguerre weights overflowed ({m} nodes, beta={beta:g})")
            rules.append((row[:m], log_w))
    return rules


def _radial_log_const(n: int, l: int) -> float:
    """ln(A_nl / m_k): the positive normalization prefactor A_nl of R_nl over
    the scale m_k that P_k carries, k = n - l - 1.

    R_nl(r) = A_nl exp(-rho/2) rho^l L_k^{2l+1}(rho) with rho = 2 r / n,
    normalized so that the integral of R^2 r^2 dr is 1.
    """
    k = n - l - 1
    log_prefactor = 1.5 * math.log(2.0 / n) + 0.5 * (
        math.lgamma(n - l) - math.log(2.0 * n) - math.lgamma(n + l + 1)
    )
    return log_prefactor - math.log(_factorial_scale(k)[0][k])


def _envelope(log_const, l: int, rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(log_const - rho/2 + l ln rho), so that R_nl = envelope * P_k at
    rho = 2r/n; ``log_const`` is a float, or a column against rows of rho.
    The result goes into ``out`` when it is given, which may be rho itself."""
    if l:  # skipped at l = 0, where 0 * ln 0 would be NaN at r = 0
        with np.errstate(divide="ignore"):
            log_rho = np.log(rho)
        log_rho *= l
    envelope = np.multiply(rho, -0.5, out=out)
    envelope += log_const
    if l:
        envelope += log_rho
    return np.exp(envelope, out=envelope)


# levels per anchor group: level n is derived from the recurrence of its
# anchor m = 5 round(n/5), so d = n - m lies in {-2, ..., 2}; the anchor
# depends on n (and l) alone, so a value has the same bits in every tile
_GROUP = 5


def _term_count(d: int) -> int:
    """Terms t = 0, 1, ... kept while |d|^t / t! >= 2^-60."""
    t = 0
    while abs(d) ** t * 2**60 >= math.factorial(t):
        t += 1
    return t


# terms of a derived sum by |d|: with lambda = m/n, the multiplication theorem
# (DLMF 18.18.13) gives P_k(lambda x) = sum_t e_t P_{k-t}(x).  With the
# Laguerre values at 0, L_{k-t}^a / L_k^a = C(k - t + a, k - t) / C(k + a, k),
# the t-th term is C(k, t) (d/n)^t <= |d|^t / t! of the value for every l
# (k < n), so 20 terms at |d| = 1 and 26 at |d| = 2 leave out less than 2^-60
# of it; the mpmath tests check l = n // 2 and n - 27, the largest summed l
_TERMS = {d: _term_count(d) for d in (1, 2)}

# a level of degree k below the longest sum is its own anchor: its sum
# would need every degree from about 0, so it costs no fewer operations than
# the row it replaces in a tile's recurrence, and in NumPy calls far more
_OWN_ANCHOR_DEGREE = max(_TERMS.values())

# below rho = 2r/n = _NEAR_RHO a summed level takes P_k from a lane of its
# anchor's recurrence at its own rho (_tile_arguments).  There lie its first
# lobes (k >= 26 puts the first zero of L_k^a, about j_{a,1}^2 / 4k, below
# rho = 0.4 at l = 1), which hold the row's maximum, and there the
# recurrence's rounding is largest against it; a sum passes its anchor's
# rounding at the neighbouring degrees to its level, which lifted nbar 85's
# worst error against mpmath from 9.8e-14 to 1.5e-13 of the row maximum
_NEAR_RHO = 1.0

# ln of the envelope below which exp gives exactly 0.0 (the smallest
# subnormal is e^-744.4; the margin covers rounding in the computed exponent)
_DEAD_LOG = -750.0


class _Level(NamedTuple):
    """What ``_radial_rows`` needs of a level n at l (``_level``)."""

    anchor: int  # the level m whose recurrence, at rho_m = 2r/m, serves n
    weights: np.ndarray | None  # e_0, ..., e_{T-1}, read-only; None where m = n
    log_const: float  # _radial_log_const(n, l)
    r_live: float  # past this radius the envelope is exactly 0 (``_live_rho``)


@lru_cache(maxsize=1024)
def _level(n: int, l: int) -> _Level:
    """The anchor record of R_nl, so that P_k(2r/n) = sum_t e_t P_{k-t}(2r/m).

    e_t = C(k + a, t) lambda^(k-t) (1 - lambda)^t m_k/m_{k-t} with k = n - l - 1,
    a = 2l + 1 and lambda = m/n: e_0 = m^k/n^k is one correctly rounded
    integer division, and e_{t+1} = e_t (k + a - t)(k - t) d / ((t + 1) m)
    2^-(E_{k-t} - E_{k-t-1}), the ratio correctly rounded, since
    m_j/m_{j-1} = j 2^-(E_j - E_{j-1}) exactly.
    """
    k, a = n - l - 1, 2 * l + 1
    m = n if k < _OWN_ANCHOR_DEGREE else _GROUP * ((n + _GROUP // 2) // _GROUP)
    d = n - m
    weights = None
    if d:
        T = min(_TERMS[abs(d)], k + 1)
        t = np.arange(T - 1)
        E = np.array(_factorial_scale(k)[1][k + 1 - T : k + 1][::-1])  # E_k, ..., E_{k+1-T}
        ratio = np.ldexp(((k + a - t) * (k - t) * d) / ((t + 1) * m), E[1:] - E[:-1])
        weights = np.cumprod(np.concatenate(([m**k / n**k], ratio)))
        weights.flags.writeable = False
    log_const = _radial_log_const(n, l)
    return _Level(m, weights, log_const, 0.5 * n * _live_rho(log_const, l))


def _live_rho(log_const: float, l: int) -> float:
    """A rho past which log_const - rho/2 + l ln rho < _DEAD_LOG, 0.0 where
    that holds everywhere.

    The exponent is concave with its peak at rho = 2l, so Newton's method,
    started right of the peak, lands right of the root and then falls to it
    from the right: every iterate is a bound.
    """
    c = log_const - _DEAD_LOG
    if l == 0:
        return max(2.0 * c, 0.0)
    if c - l + l * math.log(2.0 * l) <= 0.0:
        return 0.0
    rho = 4.0 * l
    for _ in range(64):  # quadratic convergence takes under ten
        step = (c - 0.5 * rho + l * math.log(rho)) / (l / rho - 0.5)
        rho -= step
        if abs(step) <= 1e-9 * rho:
            break
    return rho


# elements per recurrence tile in _radial_rows: a tile steps at most
# max(1, _TILE_ELEMENTS // radii) anchors in one recurrence, so a table of
# 16 000 radii steps one anchor group at a time, a block of 4096 density
# radii 6 anchors (up to 30 levels), and a moment rule 42 at 576 nodes
# (nbar 85), 29 at 832 (nbar 150) and 12 at the cap of 2048
_TILE_ELEMENTS = 24576


def _radial_rows(ns, l: int, r: np.ndarray) -> np.ndarray:
    """R_nl(r) for each level n of the integer array ``ns`` (one row each) at
    the 1-d radii ``r``, which its callers have checked (``_reals``);
    ValueError on an invalid (n, l).

    The tiles take strictly increasing levels and sorted radii, as every
    table the package builds has them; a call in another order is evaluated
    on the sorted unique levels and sorted radii and scattered back.  One
    Laguerre recurrence serves an anchor group of levels (``_level``): the
    anchor's row at rho_m = 2r/m is stepped to the group's largest degree,
    an anchor's own level is read off at its degree, and each other level
    adds its terms e_t P_{k-t}(rho_m) into its own row, one multiply-add per
    term from the lowest degree up, as the recurrence passes them
    (``_tile_sums``).  The levels are taken in tiles of consecutive rows
    with at most max(1, _TILE_ELEMENTS // r.size) anchors, stepped together
    in one call of ``_laguerre_rows`` on the radii below the tile's largest
    ``r_live``;
    the few of them past the last live radius have a zero envelope.  Below
    rho = _NEAR_RHO a summed level's values come from a lane of the same
    recurrence at its own rho instead (``_tile_arguments``).  The rows are
    summed straight into the tile's slice of the result and then multiplied
    by the envelope, a few rows at a time, formed in the buffer of the
    recurrence's arguments, so one tile's arrays are alive at a time.  Where
    the envelope is zero the value is exactly +0.0; a live value that is not
    finite raises NumericalError naming the first such level.

    Every value below _NEAR_RHO, and every row of an anchor or of a level
    below _OWN_ANCHOR_DEGREE, has the bits of a recurrence at the level's own
    rho.  Against 60-digit mpmath on the windows' CLI grids at nbar 85, 150,
    230 and 285 (the first 39 radii and every 97th) the worst error is
    9.8e-14, 6.7e-13, 6.2e-13 and 5.6e-13 of the row maximum, in each case
    that of one recurrence per level, at the first radii.

    That 0 is a cut, not always the value.  The envelope underflows from
    about rho = 1469 on, where R_nl can still be a normal double, P_k being
    large there: on the nbar-230 density grid (16 000 points to 4 nbar^2)
    the first cut column of R_210,1, R_230,1 and R_250,1 holds 0.0 where
    50-digit mpmath gives 1.66e-74, 1.30e-61 and 7.29e-50.  A per-element
    exponent carried with P_k would keep them.
    """
    l = _check_nl(ns.tolist(), l)
    if (ns[1:] <= ns[:-1]).any() or (r[1:] < r[:-1]).any():
        unique, rows = np.unique(ns, return_inverse=True)
        order = np.argsort(r, kind="stable")
        out = np.empty((ns.size, r.size))
        out[:, order] = _radial_rows(unique, l, r[order])[rows]
        return out
    levels = [_level(int(n), l) for n in ns]
    log_const = np.array([v.log_const for v in levels])[:, None]
    scale = (2.0 / ns)[:, None]
    out = np.zeros((ns.size, r.size))
    width = max(1, _TILE_ELEMENTS // max(r.size, 1))
    lo = 0
    while lo < ns.size:
        anchors, hi = {}, lo
        while hi < ns.size and (levels[hi].anchor in anchors or len(anchors) < width):
            anchors.setdefault(levels[hi].anchor, len(anchors))
            hi += 1
        rows, tiled = slice(lo, hi), levels[lo:hi]
        end = int(np.searchsorted(r, max(v.r_live for v in tiled)))
        tile = out[rows, :end]
        x, near = _tile_arguments(ns[rows], tiled, anchors, r[:end], min(hi - lo, width))
        sources = [anchors[v.anchor] for v in tiled]
        degrees, visit = _tile_sums(tile, ns[rows] - l - 1, sources, [v.weights for v in tiled], near)
        with np.errstate(over="ignore", invalid="ignore"):
            _laguerre_rows(degrees, 2 * l + 1, x[: len(anchors)], visit=visit)
            del visit
            for part in range(lo, hi, width):
                sub = slice(part, min(part + width, hi))
                rho = np.multiply(scale[sub], r[:end], out=x[: sub.stop - part, :end])
                _scale_by_envelope(out[sub, :end], _envelope(log_const[sub], l, rho, out=rho))
            del x, rho
        bad = ~np.isfinite(tile).all(axis=1)
        if bad.any():
            raise NumericalError(f"overflow while evaluating R_{ns[lo + np.argmax(bad)]},{l}")
        lo = hi
    return out


def _tile_arguments(ns, levels, anchors, r: np.ndarray, parts: int):
    """The arguments x of one tile's recurrence, and {row: (offset, count)}
    of the summed rows' lanes in it.

    Row j of x holds rho_m = 2r/m of the tile's j-th anchor m, followed by a
    lane for each summed level of its group: the first ``count`` radii, those
    below rho = _NEAR_RHO, at the level's own rho = 2r/n, so the recurrence
    passes P_k(2r/n) itself there.  Rows are padded with zeros to the
    longest.  x has at least ``parts`` rows, the rows beyond the anchors'
    left unset, so that the envelope of a part of that many rows can be
    formed in it.
    """
    summed = [i for i, v in enumerate(levels) if v.weights is not None]
    ends, near = [r.size] * len(anchors), {}
    if summed:
        for i, count in zip(summed, np.searchsorted(r, 0.5 * _NEAR_RHO * ns[summed]).tolist()):
            if count:
                j = anchors[levels[i].anchor]
                near[i] = (ends[j], count)
                ends[j] += count
    x = np.empty((max(parts, len(anchors)), max(ends)))
    np.multiply((2.0 / np.array(list(anchors)))[:, None], r, out=x[: len(anchors), : r.size])
    if near:
        x[: len(anchors), r.size :] = 0.0
        for i, (offset, count) in near.items():
            np.multiply(r[:count], 2.0 / int(ns[i]), out=x[anchors[levels[i].anchor], offset : offset + count])
    return x, near


def _scale_by_envelope(values: np.ndarray, envelope: np.ndarray) -> None:
    values *= envelope
    values[envelope == 0.0] = 0.0  # +0.0, where 0 * P_k may be -0.0 or NaN


def _tile_sums(tile, ks, sources, weights, near):
    """The degrees and the ``visit`` of one tile's recurrence, which copies
    the anchors' own levels into ``tile`` and adds the other levels' terms.

    Row i of the tile reads row sources[i] of the recurrence, and its
    weights[i] (None for an anchor) put e_t on degree ks[i] - t: at that
    degree the source row times e_t goes into a one-row scratch, which is
    added into row i, so each row sums its own terms in ascending degree.  A
    summed row's lane (``_tile_arguments``), near[i] = (offset, count), is
    copied over its first ``count`` columns at its degree, after its last
    term.
    """
    copies, terms, lanes = {}, {}, {}
    for i, (k, src, w) in enumerate(zip(ks.tolist(), sources, weights)):
        if w is None:
            copies.setdefault(k, []).append((i, src))
            continue
        row = tile[i]
        for t, e in enumerate(w.tolist()):
            terms.setdefault(k - t, []).append((row, src, e))
        if i in near:
            offset, count = near[i]
            lanes.setdefault(k, []).append((row[:count], src, slice(offset, offset + count)))
    width = tile.shape[1]
    scratch = np.empty(width)

    def visit(k, p):
        head = p[:, :width]
        for i, src in copies.get(k, ()):
            tile[i] = head[src]
        for row, src, e in terms.get(k, ()):
            np.multiply(head[src], e, out=scratch)
            row += scratch
        for row, src, lane in lanes.get(k, ()):
            row[...] = p[src, lane]

    return set(copies) | set(terms) | set(lanes), visit


def hydrogen_radial(n: int, l: int, r):
    """Radial eigenfunction R_nl(r), real and positive as r -> 0+.

    Normalized so that the integral of R_nl^2 r^2 dr over [0, inf) is 1.
    The prefactor is assembled in log space so that values remain finite for
    n well beyond 100; a level above 65 536, or a NaN or negative radius, is
    refused (ValueError).
    """
    r = _reals("radius", r, radii=True)
    values = _radial_rows(np.array([n]), l, r.reshape(-1))[0]
    return float(values[0]) if r.ndim == 0 else values.reshape(r.shape)


# Gauss-Legendre nodes per panel of radial_quadrature, and the most nodes
# it takes (8 MB per array)
_NODES_PER_PANEL = 64
_MAX_NODES = 1 << 20


def radial_quadrature(r_max: float, n_nodes: int = 4096):
    """Panelized Gauss-Legendre rule on [0, r_max].

    Returns ``(x, w)`` with all nodes strictly inside (0, r_max), in panels
    of up to 64 nodes: above 64 the count is rounded up to whole panels (65
    and 100 both give 128 nodes).  Panel edges are graded quadratically
    toward the origin, matching the sqrt(r) growth of the local oscillation
    wavelength of bound Coulomb eigenfunctions, so the node density per
    wavelength is roughly uniform across the domain.  A non-finite or
    non-positive ``r_max``, or an ``n_nodes`` that is not a whole number in
    [1, 2^20], is a ValueError; a rule whose panel midpoints pass the float
    range (r_max near its top), a NumericalError.
    """
    r_max = _real("r_max", r_max, positive=True)
    n_nodes = _whole("n_nodes", n_nodes, 1, _MAX_NODES)
    per_panel = min(n_nodes, _NODES_PER_PANEL)
    n_panels = -(-n_nodes // per_panel)
    edges = r_max * np.linspace(0.0, 1.0, n_panels + 1) ** 2
    xg, wg = _legendre_rule(per_panel)
    half = 0.5 * np.diff(edges)
    with np.errstate(over="ignore"):  # the last two edges may sum past the float range
        mid = 0.5 * (edges[1:] + edges[:-1])
    if not np.isfinite(mid).all():
        raise NumericalError(f"the rule on [0, {r_max!r}] passes the float range")
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


@lru_cache(maxsize=4)
def _legendre_rule(m: int):
    """The m-node Gauss-Legendre rule on [-1, 1], cached and read-only.

    The arithmetic of NumPy 2.4's ``numpy.polynomial.legendre.leggauss``,
    operation for operation, so the rule has its bits without the few
    milliseconds that importing ``numpy.polynomial`` costs a cold process:
    the eigenvalues of the symmetric companion matrix of P_m, one Newton
    step, weights 1/(P_{m-1} P_m') from the scaled values, symmetrized and
    normalized to sum 2.
    """
    scl = 1.0 / np.sqrt(2 * np.arange(m) + 1)
    companion = np.zeros((m, m))
    off = np.arange(1, m) * scl[: m - 1] * scl[1:m]
    companion.flat[1 :: m + 1] = off
    companion.flat[m :: m + 1] = off
    x = np.linalg.eigvalsh(companion)
    p_m = [0.0] * m + [1.0]  # P_m as a Legendre series
    # P_m' = sum of (2k + 1) P_k over k = m - 1, m - 3, ...
    dp_m = [(2.0 * k + 1.0) * ((m - 1 - k) % 2 == 0) for k in range(m)]
    df = _legendre_series(x, dp_m)
    x -= _legendre_series(x, p_m) / df
    fm = _legendre_series(x, p_m[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    for a in (x, w):
        a.flags.writeable = False
    return x, w


def _legendre_series(x: np.ndarray, c) -> np.ndarray:
    """sum_k c[k] P_k(x) by NumPy's ``legval`` Clenshaw recurrence."""
    if len(c) == 1:
        return c[0] + 0 * x
    if len(c) == 2:
        return c[0] + c[1] * x
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x
