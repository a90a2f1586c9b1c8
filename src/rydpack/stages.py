"""The pipeline's stages, one per ``rydpack`` subcommand.

Each stage takes what its subcommand read and the settings it reads, and
returns what it writes and prints:

- ``fit``: the fitted state (state.json) and the fit_report.json record;
- ``expand``: the expansion (expansion.csv), its (mean n, deltan) and the
  messages of the warnings it raised;
- ``scan``: the rows of scan.csv, in blocks evaluated as they are asked for;
- ``snapshots``: the density grid, the densities of density_NN.csv and the
  packets.json record.

Stages do no I/O, so a caller in process gets the same values as the files
hold.  Every argument is required, so each setting has its one default in
``cli.RunConfig``.  ``import rydpack`` does not load this module."""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator

import numpy as np

from .analysis import Timescales, count_packets, timescales
from .evolution import RadialGrid, _densities
from .specfun import hydrogen_energy
from .spectral import DeficitToleranceWarning, EigenExpansion, UncertaintyRecord, _scan, coefficient_spread, decompose
from .squeezed import (
    L,
    QuantumNumbers,
    RadialSqueezedState,
    _residuals,
    fit_parameters,
    orbit_geometry,
    uncertainties_RP,
    uncertainties_rp,
)
from .units import au_to_ns, au_to_ps

__all__ = ["fit", "expand", "scan", "snapshots"]


def _timescale_block(ts: Timescales, deltan: float) -> dict:
    """The ``timescales`` record of ``fit_report.json`` and ``packets.json``:
    T_cl, t_rev and the fractional revivals, and where the level spread
    ``deltan`` is positive, t_int = t_rev / deltan (one level has none)."""
    block = {
        "T_cl_au": ts.T_cl_au,
        "T_cl_ps": au_to_ps(ts.T_cl_au),
        "t_rev_au": ts.t_rev_au,
        "t_rev_ns": au_to_ns(ts.t_rev_au),
        "fractional": [
            {"order": fr.order, "t_au": fr.t_au, "period_au": fr.period_au}
            for fr in ts.fractional
        ],
    }
    if deltan > 0.0:
        t_int = ts.t_rev_au / deltan
        block.update(t_int_au=t_int, t_int_ns=au_to_ns(t_int))
    return block


def fit(q: QuantumNumbers) -> tuple[RadialSqueezedState, dict]:
    """``rydpack fit``: the fitted state and the ``fit_report.json`` record.

    The timescales come first: past their float range (from about nbar
    7.3e76) NumericalError names nbar before the fit is reached."""
    ts = timescales(q)
    state = fit_parameters(q)
    geo = orbit_geometry(q)
    e_target = hydrogen_energy(q.nbar)
    dr, dpr = uncertainties_rp(state)
    dR, dP, bound = uncertainties_RP(state)
    r_resid, h_resid = _residuals(state, geo.r_out, e_target)
    report = {
        "nbar": q.nbar,
        "l": L,
        "alpha": state.alpha,
        "gamma0": state.gamma0,
        "gamma1": 0.0,
        "log_norm": state.log_norm,
        "r_out": geo.r_out,
        "eccentricity": geo.eccentricity,
        "r1": geo.r1,
        "energy_target": e_target,
        "residual_r_rel": r_resid,
        "residual_H_rel": h_resid,
        "dr": dr,
        "dpr": dpr,
        "product": dr * dpr,
        "ratio": dr / dpr,
        "dR": dR,
        "dP": dP,
        "bound_half_rm2": bound,
        "timescales": _timescale_block(ts, 0.0),
    }
    return state, report


def expand(
    state: RadialSqueezedState, window: tuple[int, int] | None, deficit_tol: float
) -> tuple[EigenExpansion, tuple[float, float], list[str]]:
    """``rydpack decompose``: the expansion (``spectral.decompose``, grown
    from the state's center where ``window`` is None), its (mean n, deltan)
    (``coefficient_spread``) and the messages of the warnings it raised, in
    order; it raises none but DeficitToleranceWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DeficitToleranceWarning)
        exp = decompose(state, window=window, deficit_tol=deficit_tol)
    return exp, coefficient_spread(exp), [str(w.message) for w in caught]


def scan(exp: EigenExpansion, times) -> Iterator[tuple[list[UncertaintyRecord], list[float]]]:
    """``rydpack scan``: the (records, autocorrelations) blocks of the
    ``times`` sorted stably, so that equal times, 0.0 and -0.0, keep their
    order, as ``sorted`` keeps it.  Each block is evaluated when it is asked
    for (``spectral._scan``), so a writer that drops each block holds one."""
    return _scan(exp, np.sort(np.asarray(times, dtype=float), kind="stable"))


def snapshots(
    exp: EigenExpansion, nbar: int, files: list[str], expressions: list[str], times: list[float],
    grid_points: int, r_max_factor: float, smooth: float | None, prominence: float,
) -> tuple[RadialGrid, np.ndarray, dict]:
    """``rydpack density``: the grid of ``grid_points`` radii out to
    ``r_max_factor`` nbar^2 (ValueError where that end passes the float
    range), the (times, points) densities f = r^2 |psi_t|^2 on it, and the
    packets.json record, whose snapshot ``files[i]`` is at ``times[i]``,
    given as ``expressions[i]``.  Packets have the least prominence
    ``prominence`` on the envelope smoothed at ``smooth`` bohr, by default
    a third of the initial width dr of nbar's fitted state, in closed form
    (FitError where nbar has no fit).  The densities are taken block by
    block of radii, so no whole table is held, and every snapshot is counted
    before the stage returns: a refused smoothing width, or a grid too short
    or too fine for it, raises before any snapshot can be written."""
    r_max = r_max_factor * nbar**2
    if not math.isfinite(r_max):
        raise ValueError(f"r_max_factor={r_max_factor!r} puts the grid's end r_max_factor nbar^2 out of range")
    grid = RadialGrid.uniform(r_max, grid_points)
    if smooth is None:
        smooth = uncertainties_rp(fit_parameters(QuantumNumbers(nbar)))[0] / 3.0
    densities = _densities(exp, grid.points, times)
    reports = [
        count_packets(grid.points, f, prominence_threshold=prominence, t=t, smooth=smooth)
        for t, f in zip(times, densities)
    ]
    packets = {
        "prominence_threshold": prominence,
        "smooth": smooth,
        "timescales": _timescale_block(timescales(QuantumNumbers(nbar)), coefficient_spread(exp)[1]),
        "snapshots": [
            {"file": file, "expression": expr, "t_au": t, "t_ns": au_to_ns(t),
             "peak_count": report.peak_count, "peak_positions": list(report.peak_positions)}
            for file, expr, t, report in zip(files, expressions, times, reports)
        ],
    }
    return grid, densities, packets
