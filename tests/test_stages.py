"""The pipeline's stages: what each returns in process is what its subcommand
wrote, a stage does no I/O, and ``cli`` is argument handling around them.

The ledger's session pipelines (``pipeline`` in conftest) are the
subcommands' runs; each stage is called here on the inputs ``cli`` forms
for them, chained from the stage before, and compared value for value with
the artifacts, which carry every float in 17 significant digits.
"""

import ast
import builtins
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rydpack
from rydpack import cli, stages
from rydpack import io as rio
from rydpack.analysis import timescales
from rydpack.cli import RunConfig, parse_time_expression
from rydpack.spectral import coefficient_spread
from rydpack.squeezed import QuantumNumbers
from rydpack.units import au_to_ns

from conftest import LEDGER_NBARS, LEDGER_SCAN, LEDGER_TIMES


def _scan_rows(blocks):
    """The rows of scan.csv, in ``io.SERIES_COLUMNS`` order, of a scan's blocks."""
    rows = []
    for records, autocorrelations in blocks:
        for rec, ac in zip(records, autocorrelations):
            named = {"t_au": rec.t, "t_ns": au_to_ns(rec.t), "autocorrelation": ac}
            rows.append([named[c] if c in named else getattr(rec, c) for c in rio.SERIES_COLUMNS])
    return rows


def _csv_rows(path):
    header, *lines = Path(path).read_text().splitlines()
    assert header.split(",") == list(rio.SERIES_COLUMNS)
    return [[float(v) for v in line.split(",")] for line in lines]


@pytest.mark.parametrize("nbar", LEDGER_NBARS)
def test_each_stage_gives_what_its_subcommand_wrote(pipeline, nbar):
    out, _ = pipeline(nbar)
    cfg = RunConfig()
    q = QuantumNumbers(nbar)
    ts = timescales(q)

    state, report = stages.fit(q)
    assert report == json.loads((out / "fit_report.json").read_text())
    assert rio.read_state(out / "state.json") == (nbar, state)

    exp, spread, messages = stages.expand(state, None, cfg.deficit_tol)
    _, written = rio.read_expansion(out / "expansion.csv")
    assert (exp.n_min, exp.coeffs.tobytes()) == (written.n_min, written.coeffs.tobytes())
    assert spread == coefficient_spread(exp) and messages == []

    scan = dict(zip(LEDGER_SCAN[::2], LEDGER_SCAN[1::2]))
    t_stop = parse_time_expression(scan["--t-stop"], ts.T_cl_au, ts.t_rev_au)
    times = np.linspace(0.0, t_stop, int(scan["--t-steps"]))
    assert _scan_rows(stages.scan(exp, times)) == _csv_rows(out / "scan.csv")

    exprs = LEDGER_TIMES.split(",")
    times = [parse_time_expression(e, ts.T_cl_au, ts.t_rev_au) for e in exprs]
    files = [f"density_{i:02d}.csv" for i in range(len(times))]
    grid, densities, packets = stages.snapshots(
        exp, nbar, files, exprs, times, cfg.grid_points, cfg.r_max_factor, cfg.smooth, cfg.prominence
    )
    assert packets == json.loads((out / "packets.json").read_text())
    assert len(densities) == len(times)
    for file, t, f in zip(files, times, densities):
        t_au, r, written = rio.read_density(out / file)
        assert t_au == t and np.array_equal(r, grid.points) and np.array_equal(written, f), file


def test_stages_write_and_print_nothing(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a stage wrote or printed")

    for name in rio.__all__:
        if name.startswith("write_"):
            monkeypatch.setattr(rio, name, refuse)
    monkeypatch.setattr(builtins, "print", refuse)
    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.chdir(tmp_path)
    q = QuantumNumbers(20)
    ts = timescales(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is a message the stage returns
        state, _ = stages.fit(q)
        exp, _, _ = stages.expand(state, None, 1e-4)
        _, _, messages = stages.expand(state, (19, 21), 1e-4)
        blocks = list(stages.scan(exp, np.linspace(0.0, ts.T_cl_au, 11)))
        stages.snapshots(exp, 20, ["a.csv", "b.csv"], ["0", "trev/2"], [0.0, ts.t_rev_au / 2], 4000, 4.0, 3.0, 0.05)
    assert len(messages) == 1 and messages[0].startswith("deficit ")
    assert sum(len(records) for records, _ in blocks) == 11
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []


def test_no_stage_argument_has_a_default():
    # each setting's default is declared once, in cli.RunConfig
    defaults = [
        f"{name}({p.name})"
        for name in stages.__all__
        for p in inspect.signature(getattr(stages, name)).parameters.values()
        if p.default is not inspect.Parameter.empty
    ]
    assert defaults == []


def test_cli_uses_no_private_name_of_another_module():
    # cli reaches the pipeline through the stages' public functions alone
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
    }
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ] + [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert {"rio", "stages"} <= modules  # the check sees the module names cli binds
    assert private == []


def test_cli_takes_from_the_package_only_what_parsing_and_exit_codes_need():
    # cli computes nothing: beside io and stages it imports the names its
    # time expressions, its settings' checks and its exit codes read
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is not None
        for alias in node.names
    }
    assert names == {
        "Timescales", "timescales", "QuantumNumbers", "FitError", "NumericalError", "DEFAULT_DEFICIT_TOL",
        "ATOMIC_TIME_S",
    }


def test_the_package_import_loads_no_stage():
    # import rydpack, and so the benchmark's in-process passes, load nothing new
    src = str(Path(rydpack.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-c", "import sys, rydpack; print('rydpack.stages' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
