"""On-disk formats for states, expansions, time series and density snapshots.

Numeric text output always carries 17 significant digits so files round-trip
bit-exactly and identical configurations produce byte-identical artifacts.
Density snapshots of one grid share their r column: it is formatted once into
a row template with a ``%.17g`` slot for f, and each snapshot fills the
template with one ``%`` over its values instead of formatting every row.
Every artifact is written whole or not at all: the text goes to a temporary
file in the target directory, which then replaces the target.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .spectral import EigenExpansion
from .squeezed import RadialSqueezedState
from .units import au_to_ns

__all__ = [
    "write_state",
    "read_state",
    "write_expansion",
    "read_expansion",
    "write_series",
    "write_density",
    "read_density",
    "write_text_atomic",
]

SERIES_COLUMNS = (
    "t_au",
    "t_ns",
    "dr",
    "dpr",
    "product",
    "ratio",
    "dR",
    "dP",
    "bound_half_rm2",
    "autocorrelation",
)


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` so that readers see the old file or the new
    one, never a part: a temporary file beside it replaces it.

    The temporary file is created with the permissions a plain write would
    give a new file, and is removed if anything fails before the replace.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_state(path, nbar: int, l: int, state: RadialSqueezedState) -> None:
    record = {
        "nbar": int(nbar),
        "l": int(l),
        "alpha": float(state.alpha),
        "gamma0": float(state.gamma0),
        "gamma1": float(state.gamma1),
        "log_norm": float(state.log_norm),
    }
    write_text_atomic(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


_STATE_KEYS = {
    "nbar": (int,),
    "l": (int,),
    "alpha": (int, float),
    "gamma0": (int, float),
    "gamma1": (int, float),
    "log_norm": (int, float),
}


def read_state(path):
    """Inverse of `write_state`; raises ValueError naming a missing or
    ill-typed key."""
    record = json.loads(Path(path).read_text())
    if not isinstance(record, dict):
        raise ValueError(f"{path}: not a state file")
    for key, types in _STATE_KEYS.items():
        if key not in record:
            raise ValueError(f"{path}: state file lacks key {key!r}")
        value = record[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{path}: state key {key!r} has ill-typed value {value!r}")
    state = RadialSqueezedState(
        alpha=record["alpha"],
        gamma0=record["gamma0"],
        gamma1=record["gamma1"],
        log_norm=record["log_norm"],
    )
    return record["nbar"], record["l"], state


def write_expansion(path, exp: EigenExpansion) -> None:
    lines = [
        "l,n_min,n_max,deficit",
        f"{exp.l},{exp.n_min},{exp.n_max},{_fmt(exp.deficit)}",
        "n,re,im",
    ]
    for n, c in zip(exp.ns, exp.coeffs):
        lines.append(f"{int(n)},{_fmt(c.real)},{_fmt(c.imag)}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_expansion(path) -> EigenExpansion:
    """Inverse of `write_expansion`; raises ValueError if the header deficit is
    not the one the coefficient rows give."""
    lines = Path(path).read_text().splitlines()
    if len(lines) < 3 or lines[0] != "l,n_min,n_max,deficit" or lines[2] != "n,re,im":
        raise ValueError(f"{path}: not an expansion file")
    l_s, nmin_s, nmax_s, deficit_s = lines[1].split(",")
    rows = [line.split(",") for line in lines[3:] if line]
    if any(len(r) != 3 for r in rows):
        raise ValueError(f"{path}: every coefficient row must hold the three fields n,re,im")
    ns = [int(r[0]) for r in rows]
    if ns != list(range(int(nmin_s), int(nmax_s) + 1)):
        raise ValueError(f"{path}: coefficient rows do not match the declared window")
    coeffs = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    exp = EigenExpansion(int(l_s), int(nmin_s), int(nmax_s), coeffs)
    # the coefficients round-trip bit-exactly, and so does the deficit they give
    if float(deficit_s) != exp.deficit:
        raise ValueError(f"{path}: header deficit {deficit_s} disagrees with the coefficient rows")
    return exp


def write_series(path, records, autocorrelations) -> None:
    """One row per time point: UncertaintyRecord fields plus autocorrelation."""
    lines = [",".join(SERIES_COLUMNS)]
    for rec, ac in zip(records, autocorrelations):
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    rec.t,
                    au_to_ns(rec.t),
                    rec.dr,
                    rec.dpr,
                    rec.product,
                    rec.ratio,
                    rec.dR,
                    rec.dP,
                    rec.bound_half_rm2,
                    ac,
                )
            )
        )
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_density(paths, r, densities, times_au) -> None:
    """One density file per snapshot: ``paths[i]`` gets ``densities[i]`` at
    ``times_au[i]``, every snapshot on the radii ``r``.

    The r column is formatted once into a row template that holds a ``%.17g``
    slot for f on each row; a snapshot is then one ``%`` over its values.
    ``%.17g`` gives the same text as ``format(x, ".17g")``.
    """
    rows = ("%.17g,%%.17g\n" * len(r)) % tuple(np.asarray(r, dtype=float).tolist())
    for path, f, t_au in zip(paths, densities, times_au):
        header = f"# t_au={_fmt(t_au)} t_ns={_fmt(au_to_ns(t_au))}\nr,f\n"
        write_text_atomic(path, header + rows % tuple(np.asarray(f, dtype=float).tolist()))


def read_density(path):
    lines = Path(path).read_text().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# t_au=") or lines[1] != "r,f":
        raise ValueError(f"{path}: not a density file")
    t_au = float(lines[0].split()[1].split("=")[1])
    data = np.array([[float(v) for v in line.split(",")] for line in lines[2:] if line])
    return t_au, data[:, 0], data[:, 1]
