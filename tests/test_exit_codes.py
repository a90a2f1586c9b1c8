"""The CLI's exit-code contract under fuzzing.

Whatever a user hands `rydpack` (a `state.json`, an `expansion.csv` or a
`--config` file with dropped, retyped, extreme, non-finite or 400-digit
values, truncated text or deep nesting, or such flag values), `cli.main`
returns 0, 1, 2 or 3, lets no exception escape and, on a failure, prints
one stderr line, which names the input file of a usage error in a file,
and one of the flags given of a usage error in a flag's value.  A
`fit` of a whole nbar >= 3 within float range never fails as a usage
error, and a failure names nbar.  A float setting given as
a JSON int runs as that float.  On success every JSON artifact is strict
JSON (no NaN or Infinity) and the outputs agree with the input's own nbar.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydpack.analysis import timescales
from rydpack.cli import _CONFIG_FIELDS, RunConfig, main
from rydpack.io import read_expansion
from rydpack.specfun import NumericalError
from rydpack.squeezed import QuantumNumbers, fit_parameters

BIG = 10**400  # 401 digits: a valid JSON and argparse int, beyond float range

VALUES = [
    0, -1, 2, 3, 20, 85, 289, 2**63, BIG, -BIG, 10**100,
    0.0, -0.0, 0.5, 20.5, 5e-324, 1e-300, 1e300, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
    "20", "", True, None, [20], {"nbar": 20},
]
DROP = "<drop>"

FIELDS = ["nan", "inf", "-inf", "1e400", "9" * 400, "-0", "x", "", "20.5", "0", "2", "20", "85", "400", "401"]

# flag values of every kind; valid ones stay small, so each run takes a few ms
FLAGS = [
    ("--nbar", v) for v in ("20", "0", "-3", "2", "3", "85", "289", "20.5", "nan", str(BIG), "1" + "0" * 120)
] + [
    ("--deficit-tol", v) for v in ("1e-4", "0", "1", "nan", "inf", "-1e-4", "1e-12", "1e400")
] + [
    ("--grid-points", v) for v in ("400", "0", "-1", "2", "3", "1000001", str(BIG), "4.5")
] + [
    ("--r-max-factor", v) for v in ("4", "0", "1e300", "nan", "inf", "1e-300")
] + [
    ("--prominence", v) for v in ("0.05", "0", "1", "nan", "-0.5", "0.999")
] + [
    ("--smooth", v) for v in ("10", "0", "-1", "1e300", "nan", "inf", "5e-324")
] + [
    ("--t-steps", v) for v in ("9", "1", "2", "0", "-5", "1000001", str(BIG))
] + [
    ("--t-stop", v) for v in ("Tcl", "trev", "1e400", "nan", "(" * 5000 + "1" + ")" * 5000, "1/0", "Tcl*1e300")
] + [
    ("--times", v) for v in ("0,Tcl", "", ",", "nan", "1e308*1e308", "trev/0", "x")
] + [
    ("--window", v) for v in (("16", "24"), ("1", "10"), ("10", "5"), ("390", "401"), ("2", str(BIG)))
] + [("--state", "missing.json"), ("--expansion", "missing.csv"), ("--bogus", "1")]

COMMANDS = ["fit", "decompose", "scan", "density"]

# the file each input target edits, in the case's directory
INPUT_FILES = {"state": "state.json", "expansion": "expansion.csv", "config": "config.json"}

FLOAT_SETTINGS = {f.name for f in fields(RunConfig) if f.metadata["kind"] is float}

json_edits = st.lists(
    st.tuples(st.sampled_from(sorted(_CONFIG_FIELDS | {"l", "alpha", "gamma0", "gamma1", "log_norm", "bogus"})),
              st.sampled_from([DROP, *VALUES])),
    max_size=2,
)
text_edits = st.one_of(
    st.none(),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("nest"), st.sampled_from([1, 50, 100_000])),
)
csv_edits = st.lists(
    st.one_of(
        st.tuples(st.just("field"), st.integers(0, 40), st.integers(0, 4), st.sampled_from(FIELDS)),
        st.tuples(st.just("drop"), st.integers(0, 40)),
    ),
    max_size=2,
)
cases = st.one_of(
    st.fixed_dictionaries({"target": st.just("state"), "command": st.just("decompose"),
                           "edits": json_edits, "text": text_edits}),
    st.fixed_dictionaries({"target": st.just("expansion"), "command": st.sampled_from(["scan", "density"]),
                           "edits": csv_edits, "text": text_edits}),
    st.fixed_dictionaries({"target": st.just("config"), "command": st.sampled_from(COMMANDS),
                           "edits": json_edits, "text": text_edits}),
    st.fixed_dictionaries({"target": st.just("flags"), "command": st.sampled_from(COMMANDS),
                           "flags": st.lists(st.sampled_from(FLAGS), min_size=1, max_size=3)}),
)


@pytest.fixture(scope="module")
def pipeline20(pipeline):
    # the ledger's nbar-20 pipeline, whose state and expansion every case edits a copy of
    return pipeline(20)[0]


def _edit_json(record, edits):
    for key, value in edits:
        if value == DROP:
            record.pop(key, None)
        else:
            record[key] = value
    return json.dumps(record)


def _edit_csv(text, edits):
    lines = text.splitlines()
    for edit in edits:
        i = edit[1] % len(lines)
        if edit[0] == "drop":
            del lines[i]
        else:
            fields = lines[i].split(",")
            fields[edit[2] % len(fields)] = edit[3]
            lines[i] = ",".join(fields)
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _edit_text(text, edit):
    if edit is None:
        return text
    if edit[0] == "truncate":
        return text[: int(edit[1] * len(text))]
    return "[" * edit[1] + text + "]" * edit[1]


def _strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


def _names(err, flag, value):
    # whether ``err`` names ``flag`` (--grid-points), its setting (grid_points)
    # as a whole word, or the file it gives
    words = (flag, flag[2:].replace("-", "_"))
    if any(re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", err) for word in words):
        return True
    return flag in ("--state", "--expansion") and value in err


def _imaginary(line):
    # whether a coefficient row n,re,im holds an im other than 0
    fields = line.split(",")
    try:
        return len(fields) == 3 and float(fields[2]) != 0.0
    except ValueError:
        return True


def _fit_nbar(case):
    # the nbar of a fit that sets nothing else, where it is a whole number
    # >= 3 within float range; else None
    if case["command"] != "fit" or case["target"] != "flags" or {f for f, _ in case["flags"]} != {"--nbar"}:
        return None
    value = case["flags"][-1][1]
    nbar = int(value) if value.isdigit() else 0
    return nbar if 3 <= nbar <= sys.float_info.max else None


def _argv(command, state, expansion):
    # each subcommand on the pipeline's files; a short scan, two snapshots
    return {
        "fit": ["fit"],
        "decompose": ["decompose", "--state", str(state)],
        "scan": ["scan", "--expansion", str(expansion), "--t-stop", "Tcl", "--t-steps", "9"],
        "density": ["density", "--expansion", str(expansion), "--times", "0,Tcl"],
    }[command]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=cases)
# a nbar-20 state whose nbar was edited to 85, a 401-digit nbar, nbar 2
# (no fit: exit 3), and a scan refusing a deficit above 10 x deficit_tol (exit 2)
@example(case={"target": "state", "command": "decompose", "edits": [("nbar", 85)], "text": None})
@example(case={"target": "flags", "command": "fit", "flags": [("--nbar", str(BIG))]})
@example(case={"target": "flags", "command": "fit", "flags": [("--nbar", "2")]})
@example(case={"target": "flags", "command": "scan", "flags": [("--deficit-tol", "1e-12")]})
# fits whose t_rev overflows (nbar 1e77 and 4e102 wrote Infinity), whose
# nbar^3 raises, whose Newton step overflows and whose cubic's coefficients
# overflow, and a config int r_max_factor whose grid end passes the float range
@example(case={"target": "flags", "command": "fit", "flags": [("--nbar", str(10**77))]})
@example(case={"target": "flags", "command": "fit", "flags": [("--nbar", str(4 * 10**102))]})
@example(case={"target": "flags", "command": "fit", "flags": [("--nbar", str(10**110))]})
@example(case={"target": "flags", "command": "fit", "flags": [("--nbar", str(10**150))]})
# fits whose timescales are out of range, which a companion-matrix root once
# failed with a spurious FitError (exit 3)
@example(case={"target": "flags", "command": "fit", "flags": [("--nbar", str(10**120))]})
@example(case={"target": "flags", "command": "fit", "flags": [("--nbar", str(10**149))]})
@example(case={"target": "flags", "command": "fit", "flags": [("--nbar", str(10**200))]})
@example(case={"target": "config", "command": "density", "edits": [("r_max_factor", 10**308)], "text": None})
# a usage error of each input file kind, which names that file
@example(case={"target": "state", "command": "decompose", "edits": [("l", 0)], "text": None})
@example(case={"target": "expansion", "command": "scan", "edits": [("field", 3, 1, "x")], "text": None})
@example(case={"target": "expansion", "command": "density", "edits": [("field", 3, 2, "1e-200")], "text": None})
@example(case={"target": "config", "command": "fit", "edits": [("nbar", "")], "text": None})
# a usage error of each kind a flag's value gives, which names that flag:
# every time-expression error, an empty time list, a grid of two points and a
# default smoothing width too wide for a tiny grid
@example(case={"target": "flags", "command": "density", "flags": [("--times", "x")]})
@example(case={"target": "flags", "command": "density", "flags": [("--times", "trev/0")]})
@example(case={"target": "flags", "command": "density", "flags": [("--times", "1e308*1e308")]})
@example(case={"target": "flags", "command": "scan", "flags": [("--t-stop", "(" * 5000 + "1" + ")" * 5000)]})
@example(case={"target": "flags", "command": "scan", "flags": [("--t-start", "x")]})
@example(case={"target": "flags", "command": "density", "flags": [("--times", "")]})
@example(case={"target": "flags", "command": "density", "flags": [("--grid-points", "2")]})
@example(case={"target": "flags", "command": "density", "flags": [("--r-max-factor", "1e-300")]})
def test_exit_code_contract(pipeline20, case):
    code, err, out = _run(pipeline20, case)
    if code == 1 and case["target"] in INPUT_FILES:
        # a usage error in an input file names that file
        assert f"<tmp>/{INPUT_FILES[case['target']]}" in err, (case, err)
    if code == 1 and case["target"] == "flags":
        # a usage error in flags names one of them, its setting or its file
        assert any(_names(err, flag, value) for flag, value in case["flags"]), (case, err)
    if case["target"] == "expansion":
        text = _edit_text(_edit_csv((pipeline20 / "expansion.csv").read_text(), case["edits"]), case["text"])
        if any(_imaginary(line) for line in text.splitlines()[3:]):
            # an expansion is real: a row whose im is not 0 is refused
            assert code == 1, (case, err)
    nbar = _fit_nbar(case)
    if nbar is not None:
        # the range of fit is a numerical limit, not a usage rule
        assert code in (0, 2, 3) and (code == 0 or "nbar" in err), (case, err)
        try:
            timescales(QuantumNumbers(nbar))
        except NumericalError:
            # past the timescales' float range every fit is one numerical failure
            assert code == 2, (case, err)
    if case["target"] == "config" and case["text"] is None:
        # each JSON int of a float setting, within float range, as that float
        as_floats = [(k, float(v)) if k in FLOAT_SETTINGS and type(v) is int and abs(v) <= sys.float_info.max
                     else (k, v) for k, v in case["edits"]]
        if as_floats != case["edits"]:
            twin_code, twin_err, twin_out = _run(pipeline20, {**case, "edits": as_floats})
            assert (twin_code, twin_err) == (code, err), (case, err, twin_err)
            assert twin_out == out


def _run(pipeline20, case):
    """The exit code, stderr (the case's directory written as <tmp>) and
    output files (name -> text) of one case, after the checks every case
    must pass."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        state, expansion = pipeline20 / "state.json", pipeline20 / "expansion.csv"
        # the settings a config file holds otherwise: fit's nbar, a small grid
        extra = {"fit": ["--nbar", "20"], "density": ["--grid-points", "400"]}.get(case["command"], [])
        if case["target"] == "state":
            state = tmp / "state.json"
            text = _edit_json(json.loads((pipeline20 / "state.json").read_text()), case["edits"])
            state.write_text(_edit_text(text, case["text"]))
        elif case["target"] == "expansion":
            expansion = tmp / "expansion.csv"
            text = _edit_csv((pipeline20 / "expansion.csv").read_text(), case["edits"])
            expansion.write_text(_edit_text(text, case["text"]))
        elif case["target"] == "config":
            config = tmp / "config.json"
            text = _edit_json({"nbar": 20, "grid_points": 400}, case["edits"])
            config.write_text(_edit_text(text, case["text"]))
            extra = ["--config", str(config)]
        else:
            for flag, value in case["flags"]:
                extra += [flag, *value] if isinstance(value, tuple) else [flag, value]
        out = tmp / "out"
        argv = [*_argv(case["command"], state, expansion), "-o", str(out), *extra]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        err = stderr.getvalue()
        if code:
            prefix = {1: "usage error: ", 2: "numerical failure: ", 3: "fit failure: "}[code]
            assert err.startswith(prefix) and err.count("\n") == 1, (argv, err)
            return code, err.replace(str(tmp), "<tmp>"), {}
        files = {path.name: path.read_text() for path in out.iterdir()}
        for name, text in files.items():
            if name.endswith(".json"):  # strict JSON: no NaN or Infinity
                json.loads(text, parse_constant=_strict)
        if case["command"] == "decompose":
            # the expansion carries the state's nbar, and the state is that nbar's fit
            record = json.loads(state.read_text())
            nbar, _ = read_expansion(out / "expansion.csv")
            fit = fit_parameters(QuantumNumbers(nbar))
            assert (nbar, record["alpha"], record["gamma0"]) == (record["nbar"], fit.alpha, fit.gamma0)
        elif case["command"] == "density":
            nbar, _ = read_expansion(expansion)
            ts = timescales(QuantumNumbers(nbar))
            block = json.loads((out / "packets.json").read_text())["timescales"]
            assert (block["T_cl_au"], block["t_rev_au"]) == (ts.T_cl_au, ts.t_rev_au)
            assert [(f["order"], f["t_au"], f["period_au"]) for f in block["fractional"]] == [
                (f.order, f.t_au, f.period_au) for f in ts.fractional
            ]
        return code, err, files
