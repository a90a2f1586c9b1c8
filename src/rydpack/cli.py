"""Command-line pipeline: fit -> decompose -> scan / density.

Intermediate artifacts (state record, expansion) persist as files between
subcommands because the decomposition is the expensive step and is reused
across scans.  The served range is nbar >= 3: at nbar = 2 the matching
conditions have no solution, and `fit` exits 3.  Exit codes: 0 success,
1 usage error, 2 numerical failure, 3 fit failure.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import io as rio
from .analysis import count_packets, timescales
from .evolution import BasisTable, RadialGrid, observables
from .evolution import autocorrelation as autocorr
from .specfun import NumericalError, hydrogen_energy
from .spectral import DeficitToleranceWarning, decompose, coefficient_spread
from .squeezed import (
    POTENTIAL_MODES,
    FitError,
    QuantumNumbers,
    expectation_H,
    fit_parameters,
    moment_r,
    orbit_geometry,
    uncertainties_RP,
    uncertainties_rp,
)
from .units import ATOMIC_TIME_S, au_to_ns, au_to_ps

__all__ = ["RunConfig", "UsageError", "parse_time_expression", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError
    # so the documented exit-code contract (usage -> 1) holds.
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    nbar: int | None = None
    l: int = 1
    deltan: float | None = None
    potential_mode: str = "paper"
    deficit_tol: float = 1e-4
    grid_points: int = 16000
    r_max_factor: float = 4.0
    prominence: float = 0.05
    smooth: float | None = None
    output_dir: str = "."

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            kind = _FIELD_KINDS[f.name]
            if not _is_kind(value, kind):
                raise UsageError(f"{f.name} must be {_KIND_NAMES[kind]}, got {value!r}")
        if self.nbar is None:
            raise UsageError("nbar is required (flag --nbar or config file)")
        if self.nbar < 2:
            raise UsageError(f"nbar must be >= 2, got {self.nbar}")
        if self.l != 1:
            raise UsageError("only l = 1 is supported")
        if self.potential_mode not in POTENTIAL_MODES:
            raise UsageError(f"potential mode must be one of {POTENTIAL_MODES}")
        for name in ("deficit_tol", "grid_points", "r_max_factor", "prominence"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive")
        if self.prominence >= 1:
            raise UsageError("prominence must lie in (0, 1)")
        if self.deltan is not None and self.deltan <= 0:
            raise UsageError("deltan must be positive")
        if self.smooth is not None and self.smooth < 0:
            raise UsageError("smooth must be non-negative")
        return self


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}
_FIELD_KINDS = {
    "nbar": int,
    "l": int,
    "deltan": float,
    "potential_mode": str,
    "deficit_tol": float,
    "grid_points": int,
    "r_max_factor": float,
    "prominence": float,
    "smooth": float,
    "output_dir": str,
}
_KIND_NAMES = {int: "an integer", float: "a finite real number", str: "a string"}


def _is_kind(value, kind) -> bool:
    # JSON configs arrive untyped: bool is an int subclass, and "85" is not 85
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise UsageError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            setattr(cfg, key, value)
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    return cfg.validate()


_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


def parse_time_expression(text: str, t_cl_au: float, t_rev_au: float) -> float:
    """Evaluate a time expression to atomic units.

    Supported symbols (case-insensitive): ``Tcl``, ``trev``, ``ns``, ``ps``,
    ``au``; plain numbers are atomic units; operators + - * / and parentheses.
    Examples: ``0.5*Tcl``, ``trev/3``, ``2.2*ns``.
    """
    symbols = {
        "tcl": t_cl_au,
        "trev": t_rev_au,
        "ns": 1e-9 / ATOMIC_TIME_S,
        "ps": 1e-12 / ATOMIC_TIME_S,
        "au": 1.0,
    }
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except (SyntaxError, RecursionError):
        raise UsageError(f"unparseable time expression: {text!r}")

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            try:
                return symbols[node.id.lower()]
            except KeyError:
                raise UsageError(f"unknown symbol {node.id!r} in time expression {text!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = ev(node.operand)
            return value if isinstance(node.op, ast.UAdd) else -value
        raise UsageError(f"unsupported syntax in time expression: {text!r}")

    try:
        value = ev(tree)
    except ZeroDivisionError:
        raise UsageError(f"division by zero in time expression {text!r}")
    except (OverflowError, RecursionError):
        raise UsageError(f"time expression {text!r} is out of range")
    if not math.isfinite(value):
        raise UsageError(f"time expression {text!r} is not a finite time")
    return value


def _out_path(cfg: RunConfig, name: str) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _grid(cfg: RunConfig) -> RadialGrid:
    return RadialGrid.uniform(cfg.r_max_factor * cfg.nbar**2, cfg.grid_points)


def _quantum_numbers(cfg: RunConfig) -> QuantumNumbers:
    return QuantumNumbers(nbar=cfg.nbar, l=cfg.l, deltan=cfg.deltan or 1.0)


def _timescale_block(cfg: RunConfig) -> dict:
    ts = timescales(_quantum_numbers(cfg))
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
    if cfg.deltan is not None:
        block["t_int_au"] = ts.t_int_au
        block["t_int_ns"] = au_to_ns(ts.t_int_au)
    return block


def cmd_fit(cfg: RunConfig) -> int:
    q = _quantum_numbers(cfg)
    state = fit_parameters(q, mode=cfg.potential_mode)
    geo = orbit_geometry(q)
    e_target = hydrogen_energy(q.nbar)
    dr, dpr = uncertainties_rp(state)
    dR, dP, bound = uncertainties_RP(state)
    sensitivity = {}
    for mode in POTENTIAL_MODES:
        alt = state if mode == cfg.potential_mode else fit_parameters(q, mode=mode)
        sensitivity[mode] = {"alpha": alt.alpha, "gamma0": alt.gamma0}
    report = {
        "nbar": q.nbar,
        "l": q.l,
        "potential_mode": cfg.potential_mode,
        "alpha": state.alpha,
        "gamma0": state.gamma0,
        "gamma1": state.gamma1,
        "log_norm": state.log_norm,
        "r_out": geo.r_out,
        "eccentricity": geo.eccentricity,
        "r1": geo.r1,
        "energy_target": e_target,
        "residual_r_rel": abs(moment_r(state, 1.0) - geo.r_out) / geo.r_out,
        "residual_H_rel": abs(expectation_H(state, cfg.potential_mode) - e_target)
        / abs(e_target),
        "dr": dr,
        "dpr": dpr,
        "product": dr * dpr,
        "ratio": dr / dpr,
        "dR": dR,
        "dP": dP,
        "bound_half_rm2": bound,
        "timescales": _timescale_block(cfg),
        "potential_sensitivity": sensitivity,
    }
    rio.write_state(_out_path(cfg, "state.json"), q.nbar, q.l, state)
    rio.write_text_atomic(
        _out_path(cfg, "fit_report.json"), json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"fit nbar={q.nbar}: alpha={state.alpha:.6f} gamma0={state.gamma0:.9f} "
        f"gamma1=0  dr*dpr={dr * dpr:.6f}  dr/dpr={dr / dpr:.6e}"
    )
    return 0


def cmd_decompose(cfg: RunConfig, state_path: str, window) -> int:
    if not Path(state_path).exists():
        raise UsageError(f"state file not found: {state_path}")
    nbar, l, state = rio.read_state(state_path)
    if (nbar, l) != (cfg.nbar, cfg.l):
        raise UsageError(
            f"{state_path} holds nbar={nbar}, l={l}; the run is configured for "
            f"nbar={cfg.nbar}, l={cfg.l}"
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DeficitToleranceWarning)
        exp = decompose(
            state,
            window=tuple(window) if window else None,
            center=nbar,
            deficit_tol=cfg.deficit_tol,
            l=l,
        )
    rio.write_expansion(_out_path(cfg, "expansion.csv"), exp)
    mean_n, deltan = coefficient_spread(exp)
    print(
        f"decompose nbar={nbar}: window=[{exp.n_min},{exp.n_max}] "
        f"deficit={exp.deficit:.6e} mean_n={mean_n:.3f} deltan={deltan:.4f}"
    )
    if window and exp.deficit >= cfg.deficit_tol:
        print(
            f"warning: deficit {exp.deficit:.6e} above tolerance {cfg.deficit_tol:g} "
            f"for window [{exp.n_min},{exp.n_max}]",
            file=sys.stderr,
        )
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return 0


def _load_expansion_checked(cfg: RunConfig, expansion_path: str):
    if not Path(expansion_path).exists():
        raise UsageError(f"expansion file not found: {expansion_path}")
    exp = rio.read_expansion(expansion_path)
    if exp.l != cfg.l:
        raise UsageError(f"{expansion_path} expands l={exp.l}; the run is configured for l={cfg.l}")
    if exp.deficit > 10.0 * cfg.deficit_tol:
        raise NumericalError(
            f"expansion deficit {exp.deficit:.6e} exceeds 10 x deficit_tol "
            f"({10.0 * cfg.deficit_tol:g}); refusing to scan"
        )
    if not exp.n_min <= cfg.nbar <= exp.n_max:
        # T_cl and t_rev come from nbar; they must describe this expansion
        raise UsageError(
            f"nbar {cfg.nbar} lies outside the expansion window "
            f"[{exp.n_min}, {exp.n_max}] of {expansion_path}"
        )
    return exp


def _time_list(cfg: RunConfig, text: str) -> tuple[list[str], list[float]]:
    """The stripped expressions of a comma-separated time list, with their values in au."""
    ts = timescales(_quantum_numbers(cfg))
    exprs = [s.strip() for s in text.split(",") if s.strip()]
    if not exprs:
        raise UsageError("empty time list")
    return exprs, [parse_time_expression(s, ts.T_cl_au, ts.t_rev_au) for s in exprs]


def _scan_times(cfg: RunConfig, args) -> list[float]:
    if args.times:
        return _time_list(cfg, args.times)[1]
    ts = timescales(_quantum_numbers(cfg))
    if args.t_stop is None:
        raise UsageError("provide either --times or --t-start/--t-stop/--t-steps")
    t0 = parse_time_expression(args.t_start, ts.T_cl_au, ts.t_rev_au)
    t1 = parse_time_expression(args.t_stop, ts.T_cl_au, ts.t_rev_au)
    if args.t_steps < 2:
        raise UsageError("t-steps must be >= 2")
    return list(np.linspace(t0, t1, args.t_steps))


def cmd_scan(cfg: RunConfig, expansion_path: str, args) -> int:
    exp = _load_expansion_checked(cfg, expansion_path)
    times = sorted(_scan_times(cfg, args))
    records = [observables(exp, t, None) for t in times]
    acs = [autocorr(exp, t) for t in times]
    rio.write_series(_out_path(cfg, "scan.csv"), records, acs)
    print(f"scan: {len(times)} time points -> scan.csv")
    return 0


def cmd_density(cfg: RunConfig, expansion_path: str, args) -> int:
    from .evolution import density as density_at

    exp = _load_expansion_checked(cfg, expansion_path)
    exprs, times = _time_list(cfg, args.times)
    grid = _grid(cfg)
    basis = BasisTable.for_expansion(exp, grid)
    smooth = cfg.smooth
    if smooth is None:
        # envelope scale: one third of the initial packet width
        smooth = observables(exp, 0.0, grid, basis).dr / 3.0
    snapshots = []
    for i, (expr, t) in enumerate(zip(exprs, times)):
        f = density_at(exp, grid, t, basis)
        name = f"density_{i:02d}.csv"
        rio.write_density(_out_path(cfg, name), grid.points, f, t)
        report = count_packets(
            grid.points, f, prominence_threshold=cfg.prominence, t=t, smooth=smooth
        )
        snapshots.append(
            {
                "file": name,
                "expression": expr,
                "t_au": t,
                "t_ns": au_to_ns(t),
                "peak_count": report.peak_count,
                "peak_positions": list(report.peak_positions),
            }
        )
        print(f"{name}: t={au_to_ns(t):.6f} ns  packets={report.peak_count}")
    packets = {
        "prominence_threshold": cfg.prominence,
        "smooth": smooth,
        "timescales": _timescale_block(cfg),
        "snapshots": snapshots,
    }
    rio.write_text_atomic(
        _out_path(cfg, "packets.json"), json.dumps(packets, indent=2, sort_keys=True) + "\n"
    )
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="rydpack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--nbar", type=int,
                       help="central principal quantum number (served from 3 up)")
        p.add_argument("--l", type=int, help="angular momentum (must be 1)")
        p.add_argument("--deltan", type=float, help="level spread for t_int")
        p.add_argument("--potential", dest="potential_mode", choices=POTENTIAL_MODES)
        p.add_argument("--deficit-tol", dest="deficit_tol", type=float)
        p.add_argument("--grid-points", dest="grid_points", type=int,
                       help="points of the density-snapshot grid (density only)")
        p.add_argument("--r-max-factor", dest="r_max_factor", type=float,
                       help="density-snapshot grid extent in nbar^2 bohr (density only)")
        p.add_argument("--prominence", type=float)
        p.add_argument("--smooth", type=float, help="envelope width (bohr) for packet counting")
        p.add_argument("--output-dir", "-o", dest="output_dir")

    p_fit = sub.add_parser("fit", help="solve the matching conditions for a squeezed state")
    add_common(p_fit)

    p_dec = sub.add_parser("decompose", help="expand a state over bound p eigenstates")
    add_common(p_dec)
    p_dec.add_argument("--state", required=True, help="state.json from fit")
    p_dec.add_argument("--window", nargs=2, type=int, metavar=("NMIN", "NMAX"))

    p_scan = sub.add_parser("scan", help="uncertainty/autocorrelation time series")
    add_common(p_scan)
    p_scan.add_argument("--expansion", required=True, help="expansion.csv from decompose")
    p_scan.add_argument("--times", help="comma-separated time expressions")
    p_scan.add_argument("--t-start", dest="t_start", default="0")
    p_scan.add_argument("--t-stop", dest="t_stop")
    p_scan.add_argument("--t-steps", dest="t_steps", type=int, default=201)

    p_den = sub.add_parser("density", help="density snapshots plus packet reports")
    add_common(p_den)
    p_den.add_argument("--expansion", required=True)
    p_den.add_argument("--times", required=True, help="comma-separated time expressions")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        if args.command == "fit":
            return cmd_fit(cfg)
        if args.command == "decompose":
            return cmd_decompose(cfg, args.state, args.window)
        if args.command == "scan":
            return cmd_scan(cfg, args.expansion, args)
        if args.command == "density":
            return cmd_density(cfg, args.expansion, args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
