import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rydpack
from rydpack.cli import UsageError, main, parse_time_expression
from rydpack.io import read_density, read_expansion, read_state, write_state
from rydpack.squeezed import QuantumNumbers, RadialSqueezedState, fit_parameters
from rydpack.units import ATOMIC_TIME_S

TCL = 100.0
TREV = 1000.0


# the child interpreter imports the same rydpack as this one, installed or not
SRC = str(Path(rydpack.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "rydpack", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture(scope="module")
def pipeline20(tmp_path_factory):
    """fit + decompose for nbar=20, shared across CLI tests."""
    out = tmp_path_factory.mktemp("run20")
    r1 = run_cli("fit", "--nbar", "20", "-o", str(out))
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli("decompose", "--nbar", "20", "--state", str(out / "state.json"), "-o", str(out))
    assert r2.returncode == 0, r2.stderr
    return out


def test_time_expressions():
    assert parse_time_expression("0.5*Tcl", TCL, TREV) == 50.0
    assert parse_time_expression("trev/3", TCL, TREV) == pytest.approx(1000.0 / 3.0)
    assert parse_time_expression("trev/2 + 0.5*Tcl", TCL, TREV) == 550.0
    assert parse_time_expression("-Tcl + tcl", TCL, TREV) == 0.0
    assert parse_time_expression("2*ns", TCL, TREV) == pytest.approx(2e-9 / ATOMIC_TIME_S)
    assert parse_time_expression("1e3", TCL, TREV) == 1000.0
    assert parse_time_expression("(Tcl + trev) / 2", TCL, TREV) == 550.0


@pytest.mark.parametrize("expr", ["Tcl**2", "__import__('os')", "foo", "1;2", ""])
def test_time_expression_rejects(expr):
    with pytest.raises(UsageError):
        parse_time_expression(expr, TCL, TREV)


def test_fit_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = run_cli("fit", "--nbar", "20", "-o", str(out))
        assert res.returncode == 0, res.stderr
        assert "alpha=38.142901" in res.stdout
    for name in ("state.json", "fit_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    nbar, l, state = read_state(out1 / "state.json")
    assert (nbar, l) == (20, 1)
    assert state.alpha == pytest.approx(38.142900907876616, rel=1e-9)
    report = json.loads((out1 / "fit_report.json").read_text())
    assert report["residual_H_rel"] <= 1e-10
    assert report["timescales"]["T_cl_au"] == pytest.approx(2 * np.pi * 20**3)
    sens = report["potential_sensitivity"]
    g0 = {m: sens[m]["gamma0"] for m in ("paper", "centrifugal")}
    assert abs(g0["paper"] - g0["centrifugal"]) <= 1e-5 * g0["paper"]


def test_fit_usage_and_failure_exit_codes(tmp_path):
    res = run_cli("fit", "--nbar", "1", "-o", str(tmp_path))
    assert res.returncode == 1
    res = run_cli("fit", "--nbar", "2", "-o", str(tmp_path))
    assert res.returncode == 3
    res = run_cli("fit", "-o", str(tmp_path))  # nbar missing
    assert res.returncode == 1
    res = run_cli("nonsense")
    assert res.returncode == 1


def test_fit_potential_mode_flag(tmp_path):
    res = run_cli("fit", "--nbar", "20", "--potential", "centrifugal", "-o", str(tmp_path))
    assert res.returncode == 0
    _, _, state = read_state(tmp_path / "state.json")
    assert state.alpha == pytest.approx(38.142900907876616, rel=1e-3)


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"nbar": 20, "output_dir": str(tmp_path / "from_cfg")}))
    res = run_cli("fit", "--config", str(cfg))
    assert res.returncode == 0
    assert (tmp_path / "from_cfg" / "state.json").exists()
    # flag overrides config
    res = run_cli("fit", "--config", str(cfg), "-o", str(tmp_path / "flag_wins"))
    assert res.returncode == 0
    assert (tmp_path / "flag_wins" / "state.json").exists()
    cfg.write_text(json.dumps({"nbar": 20, "bogus_key": 1}))
    assert run_cli("fit", "--config", str(cfg)).returncode == 1


def test_decompose_output(pipeline20):
    exp = read_expansion(pipeline20 / "expansion.csv")
    assert exp.deficit < 1e-4
    assert exp.n_min <= 20 <= exp.n_max
    assert exp.weight + exp.deficit == pytest.approx(1.0, abs=1e-12)


def test_decompose_pure_eigenstate(tmp_path):
    write_state(tmp_path / "state.json", 2, 1, RadialSqueezedState(1.0, 0.5))
    res = run_cli("decompose", "--nbar", "2", "--state", str(tmp_path / "state.json"),
                  "-o", str(tmp_path))
    assert res.returncode == 0, res.stderr
    exp = read_expansion(tmp_path / "expansion.csv")
    p = np.abs(exp.coeffs) ** 2
    assert int(exp.ns[np.argmax(p)]) == 2
    assert p.max() == pytest.approx(1.0, abs=1e-6)


def test_decompose_window_warning(pipeline20, tmp_path):
    res = run_cli(
        "decompose", "--nbar", "20", "--state", str(pipeline20 / "state.json"),
        "--window", "2", "10", "-o", str(tmp_path),
    )
    assert res.returncode == 0
    assert "warning" in res.stderr.lower()
    exp = read_expansion(tmp_path / "expansion.csv")
    assert exp.deficit > 0.999


def test_decompose_missing_state(tmp_path):
    res = run_cli("decompose", "--nbar", "20", "--state", str(tmp_path / "nope.json"),
                  "-o", str(tmp_path))
    assert res.returncode == 1


def test_scan_series(pipeline20, tmp_path):
    res = run_cli(
        "scan", "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
        "--t-start", "0", "--t-stop", "2*Tcl", "--t-steps", "11", "-o", str(tmp_path),
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "t_au,t_ns,dr,dpr,product,ratio,dR,dP,bound_half_rm2,autocorrelation"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (11, 10)
    assert np.all(np.diff(rows[:, 0]) > 0)  # sorted by time
    # t = 0 row reproduces the closed-form product for the nbar=20 fit
    from rydpack.squeezed import QuantumNumbers, fit_parameters, uncertainties_rp

    dr, dpr = uncertainties_rp(fit_parameters(QuantumNumbers(20)))
    assert rows[0, 4] == pytest.approx(dr * dpr, rel=1e-2)
    assert rows[0, 9] == pytest.approx(1.0, abs=1e-9)  # autocorrelation at t=0


def test_scan_refuses_deficient_expansion(pipeline20, tmp_path):
    bad_dir = tmp_path / "bad"
    res = run_cli(
        "decompose", "--nbar", "20", "--state", str(pipeline20 / "state.json"),
        "--window", "2", "10", "-o", str(bad_dir),
    )
    assert res.returncode == 0
    res = run_cli("scan", "--nbar", "20", "--expansion", str(bad_dir / "expansion.csv"),
                  "--t-stop", "Tcl", "-o", str(tmp_path))
    assert res.returncode == 2


def test_scan_quadrature_failure(pipeline20, tmp_path, coarse_quadrature, capsys):
    code = main(
        ["scan", "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
         "--t-stop", "Tcl", "-o", str(tmp_path)]
    )
    assert code == 2
    assert "quadrature too coarse" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


def test_decompose_nan_projection_is_numerical_failure(tmp_path):
    # at nbar 300 the Laguerre recurrence overflows and the projections are NaN
    write_state(tmp_path / "state.json", 300, 1, fit_parameters(QuantumNumbers(300)))
    res = run_cli("decompose", "--nbar", "300", "--state", str(tmp_path / "state.json"),
                  "-o", str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "numerical failure" in res.stderr


def test_density_snapshots_and_packets(pipeline20, tmp_path):
    res = run_cli(
        "density", "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
        "--times", "0,0.5*Tcl,Tcl", "-o", str(tmp_path),
    )
    assert res.returncode == 0, res.stderr
    packets = json.loads((tmp_path / "packets.json").read_text())
    assert len(packets["snapshots"]) == 3
    t_au, r, f = read_density(tmp_path / "density_00.csv")
    assert t_au == 0.0
    from rydpack.squeezed import QuantumNumbers, orbit_geometry

    r_out = orbit_geometry(QuantumNumbers(20)).r_out
    assert r[np.argmax(f)] == pytest.approx(r_out, rel=0.02)
    snap0 = packets["snapshots"][0]
    assert snap0["peak_count"] == 1
    assert snap0["expression"] == "0"


def test_density_bad_time_expression(pipeline20, tmp_path):
    res = run_cli(
        "density", "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
        "--times", "0,bogus", "-o", str(tmp_path),
    )
    assert res.returncode == 1
