"""The benchmark's in-process passes and traced CLI steps, run through its
own child script.

`perfbench/child.py` calls rydpack's public functions with fixed signatures
(`QuantumNumbers(nbar=)`, `decompose(state, center=)`,
`BasisTable.for_expansion`, the traced `BasisTable.build`,
`observables(exp, t, grid, basis)`, `density(exp, grid, t, basis)` and
`count_packets(..., t=, smooth=)`).  A change that narrows one of them fails
here, not only in a benchmark run.  Its `cli` mode runs the command line
under the tracer, as the traced `cli-85` passes do.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rydpack as rp
from rydpack.cli import main

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
TRACER = CHILD.with_name("tracer.py")
SRC = str(Path(rp.__file__).resolve().parents[1])
NBARS = (20, 85)


def acceptance_times(nbar):
    # t = 0, t_rev/3 - T_cl/3 and t_rev/2 - 0.05 T_cl, as the benchmark takes
    # them before its jitter
    ts = rp.timescales(rp.QuantumNumbers(nbar))
    return [0.0, ts.t_rev_au / 3.0 - ts.T_cl_au / 3.0, ts.t_rev_au / 2.0 - 0.05 * ts.T_cl_au]


def run_pass(tmp_path, kind):
    """The result the child's ``kind`` pass writes at nbar 20 and 85, traced."""
    spec = {
        "kind": kind,
        "nbars": list(NBARS),
        "times": {str(n): acceptance_times(n) for n in NBARS},
        "grid_points": 16000,
        "r_max_factor": 4.0,
        "trace": True,
    }
    spec_path, result_path = tmp_path / "spec.json", tmp_path / "result.json"
    spec_path.write_text(json.dumps(spec))
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, str(CHILD), "pass", str(spec_path), str(result_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0, res.stderr
    return json.loads(result_path.read_text())


@pytest.mark.parametrize(
    "kind, ops, spans",
    [
        ("scan", {"point", "check.fit", "check.product"}, {"evolution.observables"}),
        ("sweep", {"snapshot", "check.fit", "check.product", "check.packets"},
         {"evolution.density", "analysis.count_packets"}),
    ],
)
def test_benchmark_pass_runs_clean(tmp_path, kind, ops, spans):
    result = run_pass(tmp_path, kind)
    assert [op for op in result["ops"] if op["error"] is not None] == []
    assert {op["op"] for op in result["ops"]} == {"fit", "decompose", "basis"} | ops
    assert {"evolution.basis_build"} | spans <= {s["name"] for s in result["spans"]}


# the traced CLI steps of a benchmark pass, each with the spans it must record
CLI_STEPS = [
    (["fit"], {"squeezed.fit_parameters", "io.write_state"}),
    (["decompose", "--state", "{out}/state.json"], {"spectral.decompose", "io.write_expansion"}),
    (["scan", "--expansion", "{out}/expansion.csv", "--t-stop", "Tcl", "--t-steps", "11"], {"io.write_series"}),
    (["density", "--expansion", "{out}/expansion.csv", "--times", "0,trev/2"],
     {"squeezed.fit_parameters", "analysis.count_packets", "io.write_density"}),
]


def test_benchmark_cli_steps_run_clean(tmp_path):
    out = tmp_path / "out"
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    for args, spans in CLI_STEPS:
        spans_path = tmp_path / f"{args[0]}.json"
        argv = [a.format(out=out) for a in args] + ["--nbar", "20", "-o", str(out)]
        res = subprocess.run(
            [sys.executable, str(CHILD), "cli", str(spans_path), *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert res.returncode == 0, (args[0], res.stderr)
        assert {"import.rydpack"} | spans <= {s["name"] for s in json.loads(spans_path.read_text())}, args[0]


def test_benchmark_reads_one_product_error_at_nbar_85(tmp_path):
    # criterion 2 is read twice: the scan pass from one observables call at
    # t = 0, the CLI pass from the first row of scan.csv against
    # fit_report.json's product.  One bit pattern per record makes them one number
    out = tmp_path / "out"
    for argv in (
        ["fit"],
        ["decompose", "--state", str(out / "state.json")],
        ["scan", "--expansion", str(out / "expansion.csv"), "--t-stop", "Tcl", "--t-steps", "201"],
    ):
        assert main([*argv, "--nbar", "85", "-o", str(out)]) == 0
    closed = json.loads((out / "fit_report.json").read_text())["product"]
    header, first = (out / "scan.csv").read_text().splitlines()[:2]
    product = float(first.split(",")[header.split(",").index("product")])
    assert run_pass(tmp_path, "scan")["product_rel_err"] == abs(product / closed - 1.0)


# the spans the benchmark's tracer can record: every entry of its TARGETS
# that names an attribute of rydpack.  specfun.laguerre and
# specfun.hydrogen_radial_pr name none, so their metrics read 0; a target
# that leaves this set leaves it here, in the diff, not silently
TRACED = {
    "squeezed.fit_parameters", "spectral.decompose", "specfun.hydrogen_radial",
    "evolution.observables", "evolution.autocorrelation", "evolution.density",
    "analysis.count_packets", "io.write_state", "io.read_state", "io.write_expansion",
    "io.read_expansion", "io.write_series", "io.write_density",
}


def test_the_tracers_targets_resolve_to_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    resolved = {
        name for module, attr, name, _ in tracer.TARGETS if hasattr(importlib.import_module(module), attr)
    }
    assert resolved == TRACED
    # and evolution.basis_build wraps the classmethod BasisTable.build
    assert isinstance(vars(rp.BasisTable)["build"], classmethod)
