"""On-disk formats for states, expansions, time series and density snapshots.

Numeric text output always carries 17 significant digits so files round-trip
bit-exactly and identical configurations produce byte-identical artifacts.
``SERIES_COLUMNS`` is the one statement of the scan CSV's column order: a row
reads each column by name from its UncertaintyRecord.  Text is formatted by
row templates of ``%.17g`` slots, filled with one ``%`` per chunk instead of
one call per value: a block of scan rows fills a template of its rows, and
density snapshots of one grid share their r column, formatted once into one
template per block of ``_ROW_BLOCK`` rows with a slot for f on each row.
Every artifact is written whole or not at all: its text goes, chunk by
chunk, to a temporary file in the target directory, which then replaces the
target; a scan CSV and a density snapshot go one block of rows at a time,
so no whole file's text is held, only the density files' shared r
templates.  State and expansion files record nbar (the expansion in its
header, ``l,nbar,n_min,n_max,deficit``) and the angular momentum l, always
``squeezed.L`` = 1, a state file the paper's gamma1, always 0.0
(``squeezed``), and an expansion file an ``im`` column beside each real
coefficient, always 0; the readers refuse a file without nbar, an nbar
below 2 and any other l, gamma1 or im.  They also record values the rest
of the file fixes, a state's fit of its nbar and an expansion's deficit,
and the readers refuse a file whose recorded value is not, bit for bit,
the derived one.  Every JSON file is read by ``read_json``, its values checked by
``check_kind``, and written by ``write_json``.

The determinism contract: the same config, NumPy build, CPU feature level,
BLAS kernel and BLAS thread count give the same bytes.  A state file and
``rydpack fit``'s report come from Python's ``math`` alone
(``squeezed.fit_parameters``, ``analysis.timescales``), so they depend on
none of these.  The expansion, scan and density files pass through NumPy's
SIMD ``exp`` and ``log`` or BLAS products, so any of the five may move their
last bits.  The packet report's ``smooth`` (the fit's closed-form dr / 3)
comes from ``math`` alone, and its t_int from exact sums (``math.fsum`` in
``spectral.coefficient_spread``) over the expansion, so no BLAS kernel
moves either; its peaks are read from the density snapshots, so they may
move with those.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .spectral import N_CAP, EigenExpansion
from .squeezed import L, FitError, QuantumNumbers, RadialSqueezedState, fit_parameters
from .units import au_to_ns

__all__ = [
    "write_state",
    "read_state",
    "write_expansion",
    "read_expansion",
    "write_series",
    "write_density",
    "read_density",
    "read_json",
    "check_kind",
    "json_text",
    "write_json",
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
_EXPANSION_HEADER = "l,nbar,n_min,n_max,deficit"

# rows per chunk of a density file, the most rows of a scan block
# (spectral._SCAN_BLOCK)
_ROW_BLOCK = 1024


def write_text_atomic(path, chunks) -> None:
    """Write the text chunks of the iterable ``chunks`` to ``path``, in order,
    so that readers see the old file or the new one, never a part: a
    temporary file beside it replaces it.

    Each chunk is written as the iterable yields it, so a generator's text is
    never held whole.  The temporary file is created with the permissions a
    plain write would give a new file, and is removed if anything fails
    before the replace, a chunk that raises included.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_text(path, kind: str) -> str:
    """The text of ``path`` read as UTF-8, the encoding ``write_text_atomic``
    writes; ValueError naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not {kind}: {exc}") from None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def read_json(path, kind: str) -> dict:
    """The JSON object in the file ``path``, a ``kind`` ("a state file"); ValueError
    naming the file if its text is not UTF-8, not JSON, too deep or no object."""
    text = _read_text(path, kind)
    try:
        record = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, or too deep
        raise ValueError(f"{path}: not {kind}: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{path}: not {kind}: not a JSON object")
    return record


_KIND_NAMES = {int: "an integer", float: "a finite real number", str: "a string"}


def check_kind(name: str, value, kind) -> None:
    """ValueError naming ``name`` unless ``value`` is of ``kind`` (int, float or str)
    as JSON gives it: a bool is no int, "85" no 85, and a float any number a
    float can hold, NaN and infinities not (int <= float compares exactly)."""
    float_ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    ok = float_ok if kind is float else isinstance(value, kind)
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def json_text(record: dict) -> str:
    """``record`` as JSON, keys sorted, indent 2, a final newline."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def write_json(path, record: dict) -> None:
    """``record`` as ``json_text``, written atomically."""
    write_text_atomic(path, [json_text(record)])


def write_state(path, nbar: int, state: RadialSqueezedState) -> None:
    write_json(path, {
        "nbar": int(nbar),
        "l": L,
        "alpha": float(state.alpha),
        "gamma0": float(state.gamma0),
        "gamma1": 0.0,
        "log_norm": float(state.log_norm),
    })


_STATE_KEYS = {"nbar": int, "l": int, "alpha": float, "gamma0": float, "gamma1": float, "log_norm": float}


def read_state(path):
    """Inverse of `write_state`, giving (nbar, state); raises ValueError naming
    the file for text that is not UTF-8 JSON, a missing or ill-typed key, an
    l other than ``L``, a gamma1 other than 0, an nbar with no fit, or an
    alpha, gamma0 or ``log_norm`` that is not, bit for bit, that of
    ``fit_parameters(QuantumNumbers(nbar))``: a hand-made state is not a
    ``fit`` artifact."""
    record = read_json(path, "a state file")
    for key, kind in _STATE_KEYS.items():
        if key not in record:
            raise ValueError(f"{path}: state file lacks key {key!r}")
        check_kind(f"{path}: state key {key!r}", record[key], kind)
    if record["l"] != L:
        raise ValueError(
            f"{path}: state file holds l={record['l']}; only p states (l={L}) are supported"
        )
    if record["gamma1"] != 0.0:  # <p_r> = 0 fixes it
        raise ValueError(f"{path}: state file holds gamma1={record['gamma1']!r}, not 0")
    try:
        state = fit_parameters(QuantumNumbers(record["nbar"]))
    except (ValueError, FitError) as exc:  # nbar below 2, or one with no fit
        raise ValueError(f"{path}: {exc}") from None
    for key in ("alpha", "gamma0", "log_norm"):
        if record[key] != getattr(state, key):
            raise ValueError(f"{path}: {key} {record[key]!r} is not the fit of nbar={record['nbar']}")
    return record["nbar"], state


def write_expansion(path, nbar: int, exp: EigenExpansion) -> None:
    lines = [
        _EXPANSION_HEADER,
        f"{L},{int(nbar)},{exp.n_min},{exp.n_max},{_fmt(exp.deficit)}",
        "n,re,im",
    ]
    for n, c in zip(exp.ns, exp.coeffs):
        lines.append(f"{int(n)},{_fmt(c)},0")
    write_text_atomic(path, ["\n".join(lines) + "\n"])


def read_expansion(path):
    """Inverse of `write_expansion`, giving (nbar, exp); raises ValueError
    naming the file for text that is not UTF-8, a header (without nbar, say)
    or row of the wrong fields, a field that is not a number, coefficients
    that are no expansion (a zero weight included), an ``im`` other than 0,
    an nbar below 2, an l other than ``L``, a level above ``N_CAP``, or a
    header deficit that is not the one the coefficient rows give.  The
    header nbar need not lie inside the window: ``decompose`` takes any
    explicit window that captures some weight."""
    lines = _read_text(path, "an expansion file").splitlines()
    if len(lines) < 3 or lines[0] != _EXPANSION_HEADER or lines[2] != "n,re,im":
        raise ValueError(f"{path}: not an expansion file with the header {_EXPANSION_HEADER}")
    header = lines[1].split(",")
    if len(header) != 5:
        raise ValueError(f"{path}: the header row must hold the five fields {_EXPANSION_HEADER}")
    rows = [line.split(",") for line in lines[3:] if line]
    if any(len(r) != 3 for r in rows):
        raise ValueError(f"{path}: every coefficient row must hold the three fields n,re,im")
    try:
        l, nbar, n_min, n_max, deficit = *map(int, header[:4]), float(header[4])
        QuantumNumbers(nbar)  # nbar >= 2
        ns = [int(r[0]) for r in rows]
        exp = EigenExpansion(n_min, [complex(float(r[1]), float(r[2])) for r in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if l != L:
        raise ValueError(f"{path}: expands l={l}; only p states (l={L}) are supported")
    if ns != list(range(n_min, n_max + 1)):
        raise ValueError(f"{path}: coefficient rows do not match the declared window")
    if exp.n_max > N_CAP:
        raise ValueError(f"{path}: level {exp.n_max} lies above N_CAP = {N_CAP}")
    # the coefficients round-trip bit-exactly, and so does the deficit they give
    if deficit != exp.deficit:
        raise ValueError(f"{path}: header deficit {header[4]} disagrees with the coefficient rows")
    return nbar, exp


def write_series(path, blocks) -> None:
    """One row per time point in ``SERIES_COLUMNS`` order: the time in au
    (the record's ``t``) and ns, the autocorrelation, and every other column
    the UncertaintyRecord attribute of that name.  ``blocks`` yields
    (records, autocorrelations) pairs, as ``spectral._scan`` does, and each
    pair's rows are written before the next pair is asked for: one ``%`` over
    a row template of ``%.17g`` slots, as in ``write_density``.
    """
    slots = ",".join(["%.17g"] * len(SERIES_COLUMNS)) + "\n"

    def chunks():
        yield ",".join(SERIES_COLUMNS) + "\n"
        for records, autocorrelations in blocks:
            t = [rec.t for rec in records]
            named = {"t_au": t, "t_ns": [au_to_ns(x) for x in t], "autocorrelation": autocorrelations}
            columns = [
                named[c] if c in named else [getattr(rec, c) for rec in records]
                for c in SERIES_COLUMNS
            ]
            yield (slots * len(t)) % tuple(chain.from_iterable(zip(*columns)))

    write_text_atomic(path, chunks())


def write_density(paths, r, densities, times_au) -> None:
    """One density file per snapshot: ``paths[i]`` gets ``densities[i]`` at
    ``times_au[i]``, every snapshot on the radii ``r``.

    The r column is formatted once, into one row template per block of
    ``_ROW_BLOCK`` rows that holds a ``%.17g`` slot for f on each row.  A
    snapshot then goes to its file one block at a time, each one ``%`` over
    the block's values, so the r templates are the only text held whole.
    ``%.17g`` gives the same text as ``format(x, ".17g")``.  The caller
    (``rydpack density``) holds every snapshot's values, not its text.
    """
    r = np.asarray(r, dtype=float)
    blocks = [slice(lo, lo + _ROW_BLOCK) for lo in range(0, r.size, _ROW_BLOCK)]
    templates = [("%.17g,%%.17g\n" * len(r[b])) % tuple(r[b].tolist()) for b in blocks]
    for path, f, t_au in zip(paths, densities, times_au):
        f = np.asarray(f, dtype=float)
        header = f"# t_au={_fmt(t_au)} t_ns={_fmt(au_to_ns(t_au))}\nr,f\n"
        chunks = (rows % tuple(f[b].tolist()) for b, rows in zip(blocks, templates))
        write_text_atomic(path, chain([header], chunks))


def read_density(path):
    """Inverse of `write_density` for one file, giving (t_au, r, f); raises
    ValueError naming the file if it is not UTF-8 or holds no rows, a row
    that is not the two fields r,f, or a field that is not a number."""
    lines = _read_text(path, "a density file").splitlines()
    if len(lines) < 2 or not lines[0].startswith("# t_au=") or lines[1] != "r,f":
        raise ValueError(f"{path}: not a density file")
    rows = [line.split(",") for line in lines[2:] if line]
    if not rows:
        raise ValueError(f"{path}: density file holds no rows")
    if any(len(row) != 2 for row in rows):
        raise ValueError(f"{path}: every density row must hold the two fields r,f")
    try:
        t_au = float(lines[0].split()[1].split("=")[1])
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return t_au, data[:, 0], data[:, 1]
