"""Command-line pipeline: fit -> decompose -> scan / density.

Intermediate artifacts (state record, expansion) persist as files between
subcommands, so one expansion serves any number of scans and density
snapshots.  They hold nbar: `fit` writes it to state.json and `decompose` to
the expansion.csv header (l,nbar,n_min,n_max,deficit), whence `scan` and
`density` take T_cl, t_rev and the grid extent; there --nbar may restate it.
`fit` takes any whole nbar >= 3 that a float can hold (at nbar = 2 the
matching conditions have no solution: exit 3), and serves nbar up to about
7.3e76; beyond, t_rev passes the float range, and `fit` exits 2 naming nbar
before it fits, so no artifact holds Infinity.
`decompose` serves nbar up to 288 and exits 2 from nbar 289 on.  `density`
smooths its snapshots, unless --smooth says otherwise, at one third of the
initial radial width dr of the nbar's fitted state, in closed form; it
evaluates no moments of the expansion.  Exit codes: 0 success, 1 usage
error, 2 numerical failure (a LAPACK failure or a float overflow included),
3 fit failure; a usage error in a --config file's keys or values names the
file, and one in a flag's value names the flag.  Runs of the same config
with the same NumPy build, CPU feature level, BLAS kernel and BLAS thread
count write the same bytes; state.json and fit_report.json come from
Python's math alone, so they depend on the config only, and packets.json's
smooth and t_int from math and exact sums, so no BLAS kernel moves them.
Each subcommand reads its inputs, makes one call of its stage in
``rydpack.stages`` (fit, expand, scan, snapshots), which does no I/O, and
writes what the stage returned.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import math
import operator
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import io as rio
from . import stages
from .analysis import Timescales, timescales
from .specfun import NumericalError
from .spectral import DEFAULT_DEFICIT_TOL
from .squeezed import FitError, QuantumNumbers
from .units import ATOMIC_TIME_S

__all__ = ["RunConfig", "UsageError", "parse_time_expression", "main"]

# the most points a density grid or a scan range may ask for: 62 times the
# default grid.  A scan writes its CSV one block of times at a time: at
# nbar 85 a 10^5-point scan takes 1.3-1.7 s CPU and peaks at 37 MB RSS, and a
# scan at the cap about 14 s and 45 MB.  Density evaluates blocks of radii
# and writes blocks of rows, and `count_packets` smooths by overlap-add in
# fixed FFT blocks: four snapshots at nbar 85 on a grid at the cap take
# 10.3-10.6 s CPU and peak at 121 MB RSS (about 15 s and 396 MB with a whole
# table and whole-file text, 152 MB with a whole-grid smoothing FFT).  One
# BLAS thread, 2-core Xeon VM
_MAX_POINTS = 1_000_000


class UsageError(Exception):
    pass


# the flags that take time expressions: argparse reads a value after a space
# that starts with '-' (-Tcl, -0.5,0) as a flag, so such a value needs the
# form --flag=VALUE
_TIME_FLAGS = ("--times", "--t-start", "--t-stop")


def _time_help(flag, text):
    return f"{text}; a value that starts with '-' needs the form {flag}=VALUE"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError
    # so the documented exit-code contract (usage -> 1) holds.
    def error(self, message):
        for flag in _TIME_FLAGS:
            if message == f"argument {flag}: expected one argument":
                message = _time_help(flag, message)
        raise UsageError(message)


def _setting(kind, default, help, reads=("fit", "decompose", "scan", "density"), alias=None):
    # a RunConfig field: its kind (int, float or str), help, readers and short flag
    return field(default=default, metadata={"kind": kind, "help": help, "reads": reads, "alias": alias})


@dataclass
class RunConfig:
    """The run settings.  Each field is the one declaration of its setting:
    the default, the kind that `validate` checks, and the help and short flag
    of the flag `_build_parser` gives each subcommand that reads it."""

    nbar: int | None = _setting(
        int, None, "central principal quantum number: fit serves 3 to about 7.3e76, decompose 3 "
        "to 288; fit needs it, and elsewhere it must equal the input file's",
    )
    deficit_tol: float = _setting(
        float, DEFAULT_DEFICIT_TOL, "largest norm deficit: decompose grows its window to it, and "
        "scan and density refuse 10 times it", ("decompose", "scan", "density"),
    )
    grid_points: int = _setting(int, 16000, "points of the density-snapshot grid", ("density",))
    r_max_factor: float = _setting(float, 4.0, "density grid extent in nbar^2 bohr", ("density",))
    prominence: float = _setting(
        float, 0.05, "least prominence of a counted packet, relative to the highest peak", ("density",)
    )
    smooth: float | None = _setting(
        float, None, "envelope width (bohr) for packet counting (default: one third of the initial "
        "radial width dr of the nbar's fitted state, in closed form)", ("density",)
    )
    output_dir: str = _setting(str, ".", "directory the artifacts are written to", alias="-o")

    def validate(self):
        # a float setting is stored as a float, so a JSON int of it computes as one
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                rio.check_kind(f.name, value, f.metadata["kind"])
                if f.metadata["kind"] is float:
                    setattr(self, f.name, float(value))
        if self.nbar is not None:
            QuantumNumbers(self.nbar)  # a whole number >= 2 within float range
        for name in ("deficit_tol", "grid_points", "r_max_factor", "prominence"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive")
        if self.grid_points > _MAX_POINTS:
            raise UsageError(f"grid_points must be at most {_MAX_POINTS}, got {self.grid_points}")
        if self.prominence >= 1:
            raise UsageError("prominence must lie in (0, 1)")
        if self.deficit_tol >= 1:
            raise UsageError("deficit_tol must lie in (0, 1)")
        if self.smooth is not None and self.smooth < 0:
            raise UsageError("smooth must be non-negative")
        return self


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def _load_config(args) -> RunConfig:
    # the config file's settings, each flag given overriding its own.  An error
    # in the file's keys or in a value it gives names the file; the names of
    # the settings it gives stay in ``args.config_gives`` for ``_settings``
    flags = {name: getattr(args, name, None) for name in _CONFIG_FIELDS}
    flags = {name: value for name, value in flags.items() if value is not None}
    raw = {} if args.config is None else rio.read_json(args.config, "a config file")
    args.config_gives = set(raw) - set(flags)
    with _settings(args, *args.config_gives):
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        RunConfig(**{name: raw[name] for name in args.config_gives}).validate()
    return RunConfig(**{**raw, **flags}).validate()


@contextlib.contextmanager
def _settings(args, *names):
    # a UsageError or ValueError in the block is a usage error of the settings
    # or time flags ``names``, led by the config file where it gave one of them
    # and by each flag that gave one: "<config file>, --grid-points: ..."
    try:
        yield
    except (UsageError, ValueError) as exc:
        sources = [args.config] if not args.config_gives.isdisjoint(names) else []
        sources += ["--" + name.replace("_", "-") for name in names if getattr(args, name, None) is not None]
        raise UsageError(f"{', '.join(sources)}: {exc}" if sources else str(exc)) from None


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


def cmd_fit(cfg: RunConfig, args) -> int:
    if cfg.nbar is None:
        prefix = "" if args.config is None else f"{args.config}: "
        raise UsageError(f"{prefix}nbar is required (flag --nbar or config file)")
    q = QuantumNumbers(cfg.nbar)
    state, report = stages.fit(q)
    rio.write_state(_out_path(cfg, "state.json"), q.nbar, state)
    rio.write_json(_out_path(cfg, "fit_report.json"), report)
    print(
        f"fit nbar={q.nbar}: alpha={state.alpha:.6f} gamma0={state.gamma0:.9f} "
        f"gamma1=0  dr*dpr={report['product']:.6f}  dr/dpr={report['ratio']:.6e}"
    )
    return 0


def _check_nbar(cfg: RunConfig, args, path: str, nbar: int) -> None:
    with _settings(args, "nbar"):
        if cfg.nbar is not None and cfg.nbar != nbar:
            raise UsageError(f"{path} holds nbar={nbar}; the run is configured for nbar={cfg.nbar}")


def cmd_decompose(cfg: RunConfig, args) -> int:
    nbar, state = rio.read_state(args.state)
    _check_nbar(cfg, args, args.state, nbar)
    exp, (mean_n, deltan), messages = stages.expand(state, args.window, cfg.deficit_tol)
    rio.write_expansion(_out_path(cfg, "expansion.csv"), nbar, exp)
    print(
        f"decompose nbar={nbar}: window=[{exp.n_min},{exp.n_max}] "
        f"deficit={exp.deficit:.6e} mean_n={mean_n:.3f} deltan={deltan:.4f}"
    )
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)
    return 0


def _load_expansion(cfg: RunConfig, args):
    nbar, exp = rio.read_expansion(args.expansion)
    _check_nbar(cfg, args, args.expansion, nbar)
    if exp.deficit > 10.0 * cfg.deficit_tol:
        raise NumericalError(
            f"expansion deficit {exp.deficit:.6e} exceeds 10 x deficit_tol "
            f"({10.0 * cfg.deficit_tol:g}); {args.command} refuses it"
        )
    return nbar, exp


def _times(ts: Timescales, args) -> tuple[list[str] | None, list[float] | np.ndarray]:
    """The expressions of ``--times`` and their values in au.

    Without ``--times`` (scan only), the values are an array of --t-steps
    points from --t-start to --t-stop, and there are no expressions.
    """

    def parse(text, name):
        # an error in an expression names the flag that gave it
        with _settings(args, name):
            return parse_time_expression(text, ts.T_cl_au, ts.t_rev_au)

    if args.times is not None:
        # a range flag beside a list is refused, not silently dropped
        given = [f"--t-{k}" for k in ("start", "stop", "steps") if getattr(args, f"t_{k}", None) is not None]
        if given:
            raise UsageError(f"--times is not allowed with {', '.join(given)}")
        exprs = [s.strip() for s in args.times.split(",") if s.strip()]
        if not exprs:
            raise UsageError("--times: empty time list")
        return exprs, [parse(s, "times") for s in exprs]
    if args.t_stop is None:
        raise UsageError("provide either --times or --t-start/--t-stop/--t-steps")
    t0 = parse("0" if args.t_start is None else args.t_start, "t_start")
    t1 = parse(args.t_stop, "t_stop")
    steps = 201 if args.t_steps is None else args.t_steps
    if steps < 2:
        raise UsageError("--t-steps must be >= 2")
    if steps > _MAX_POINTS:
        raise UsageError(f"--t-steps must be at most {_MAX_POINTS}, got {steps}")
    return None, np.linspace(t0, t1, steps)


def cmd_scan(cfg: RunConfig, args) -> int:
    nbar, exp = _load_expansion(cfg, args)
    times = _times(timescales(QuantumNumbers(nbar)), args)[1]
    # each block of times is evaluated as the file takes its rows
    rio.write_series(_out_path(cfg, "scan.csv"), stages.scan(exp, times))
    print(f"scan: {len(times)} time points -> scan.csv")
    return 0


def cmd_density(cfg: RunConfig, args) -> int:
    nbar, exp = _load_expansion(cfg, args)
    exprs, times = _times(timescales(QuantumNumbers(nbar)), args)
    names = [f"density_{i:02d}.csv" for i in range(len(times))]
    try:
        with _settings(args, "grid_points", "r_max_factor", "smooth"):
            grid, densities, packets = stages.snapshots(
                exp, nbar, names, exprs, times, cfg.grid_points, cfg.r_max_factor, cfg.smooth, cfg.prominence
            )
    except FitError as exc:
        raise UsageError(f"{args.expansion}: no default smoothing width, since {exc}; give --smooth") from None
    # the report's text is formed before any snapshot is written, and replaces
    # packets.json last, so a failure in between leaves the old report whole
    text = rio.json_text(packets)
    rio.write_density([_out_path(cfg, name) for name in names], grid.points, densities, times)
    for snapshot in packets["snapshots"]:
        print(f"{snapshot['file']}: t={snapshot['t_ns']:.6f} ns  packets={snapshot['peak_count']}")
    rio.write_text_atomic(_out_path(cfg, "packets.json"), [text])
    # an earlier run's snapshots past this run's count would outlive its report
    for path in Path(cfg.output_dir).glob("density_*.csv"):
        if re.fullmatch(r"density_(0[0-9]|[1-9][0-9]+)\.csv", path.name) and path.name not in names:
            path.unlink()
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="rydpack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, **kwargs):
        # a subcommand that runs ``run``, with the flag of each setting it reads
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file of any settings; flags override its values")
        for f in fields(RunConfig):
            if name in f.metadata["reads"]:
                flags = filter(None, ("--" + f.name.replace("_", "-"), f.metadata["alias"]))
                p.add_argument(*flags, type=f.metadata["kind"], help=f.metadata["help"])
        return p

    add_command("fit", cmd_fit, help="solve the matching conditions for a squeezed state")

    p_dec = add_command("decompose", cmd_decompose, help="expand a state over bound p eigenstates")
    p_dec.add_argument("--state", required=True, help="state.json from fit")
    p_dec.add_argument("--window", nargs=2, type=int, metavar=("NMIN", "NMAX"),
                       help="expand over these levels instead of growing a window; they need not hold "
                       "the state's nbar, but must capture some weight (else exit 2)")

    # cmd_scan makes -o before the first block of times is evaluated
    epilog = "a scan that fails while it evaluates leaves a new -o directory behind, empty"
    p_scan = add_command("scan", cmd_scan, help="uncertainty/autocorrelation time series", epilog=epilog)
    p_scan.add_argument("--expansion", required=True, help="expansion.csv from decompose")
    p_scan.add_argument("--times", help=_time_help("--times", "comma-separated time expressions"))
    # the range flags default to None so that _times sees any given beside --times
    p_scan.add_argument("--t-start", help=_time_help("--t-start", "first time of the range (default 0)"))
    p_scan.add_argument(
        "--t-stop", help=_time_help("--t-stop", "last time of an evenly spaced range, used without --times")
    )
    p_scan.add_argument("--t-steps", type=int, help="points of the range (default 201)")

    epilog = ("writes density_NN.csv for the NN-th of --times, then packets.json, then removes every "
              "density_NN.csv in -o whose NN is at least the number of --times")
    p_den = add_command("density", cmd_density, help="density snapshots plus packet reports", epilog=epilog)
    p_den.add_argument("--expansion", required=True, help="expansion.csv from decompose")
    p_den.add_argument("--times", required=True, help=_time_help("--times", "comma-separated time expressions"))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(_load_config(args), args)
    except (NumericalError, np.linalg.LinAlgError, OverflowError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
