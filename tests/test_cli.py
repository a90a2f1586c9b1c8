import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rydpack
from rydpack import cli, evolution
from rydpack.cli import UsageError, main, parse_time_expression
from rydpack.io import read_density, read_expansion, read_state, write_state
from rydpack.squeezed import POTENTIAL_MODES, QuantumNumbers, RadialSqueezedState, fit_parameters
from rydpack.units import ATOMIC_TIME_S

TCL = 100.0
TREV = 1000.0


# the child interpreter imports the same rydpack as this one, installed or not
SRC = str(Path(rydpack.__file__).resolve().parents[1])


def run_python(*args, cwd=None):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args, cwd=None):
    return run_python("-m", "rydpack", *args, cwd=cwd)


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


@pytest.mark.parametrize(
    "expr",
    [
        "Tcl**2",
        "__import__('os')",
        "foo",
        "1;2",
        "",
        "Tcl/0",
        "1/(Tcl - Tcl)",
        "1e308*1e308",
        "1e999 - 1e999",
        pytest.param("1" + "0" * 400, id="int-beyond-float"),
        pytest.param("-" * 5000 + "1", id="deep-unary"),
    ],
)
def test_time_expression_rejects(expr):
    with pytest.raises(UsageError):
        parse_time_expression(expr, TCL, TREV)


@pytest.mark.parametrize("command, times", [("scan", "Tcl/0"), ("density", "1e308*1e308")])
def test_bad_time_expression_is_usage_error(pipeline20, tmp_path, capsys, command, times):
    code = main([command, "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
                 "--times", f"0,{times}", "-o", str(tmp_path)])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_empty_time_list_is_one_usage_error(pipeline20, tmp_path, capsys):
    errors = []
    for command in ("scan", "density"):
        code = main([command, "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
                     "--times", ",", "-o", str(tmp_path)])
        assert code == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "usage error: empty time list\n"


def test_pipeline_at_nbar_230_emits_no_warnings(tmp_path):
    # far out at nbar 230 the envelopes underflow and the recurrence could
    # overflow; the kernel skips those points and the guards judge the rest,
    # so NumPy reports no RuntimeWarning
    common = ["--nbar", "230", "-o", str(tmp_path)]
    exp = str(tmp_path / "expansion.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", *common]) == 0
        assert main(["decompose", *common, "--state", str(tmp_path / "state.json")]) == 0
        assert main(["scan", *common, "--expansion", exp, "--t-stop", "Tcl", "--t-steps", "3"]) == 0
        assert main(["density", *common, "--expansion", exp, "--times", "0,Tcl",
                     "--grid-points", "4000"]) == 0
    packets = json.loads((tmp_path / "packets.json").read_text())
    assert packets["snapshots"][0]["peak_count"] == 1


def test_nbar85_artifacts_are_byte_identical_across_runs(tmp_path):
    runs = []
    for name in ("a", "b"):
        evolution._moment_matrices.cache_clear()
        out = tmp_path / name
        common = ["--nbar", "85", "-o", str(out)]
        exp = str(out / "expansion.csv")
        assert main(["fit", *common]) == 0
        assert main(["decompose", *common, "--state", str(out / "state.json")]) == 0
        assert main(["scan", *common, "--expansion", exp, "--t-stop", "Tcl", "--t-steps", "5"]) == 0
        assert main(["density", *common, "--expansion", exp, "--times", "0,trev/2"]) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(runs[0]) == [
        "density_00.csv",
        "density_01.csv",
        "expansion.csv",
        "fit_report.json",
        "packets.json",
        "scan.csv",
        "state.json",
    ]
    assert runs[0] == runs[1]


def test_import_does_not_load_scipy():
    code = (
        "import sys, rydpack, rydpack.cli; "
        "print(','.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    res = run_python("-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == ""


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


def test_fit_runs_one_fit_per_mode(tmp_path, monkeypatch):
    calls = []

    def counted(q, mode):
        calls.append(mode)
        return fit_parameters(q, mode=mode)

    monkeypatch.setattr(cli, "fit_parameters", counted)
    assert main(["fit", "--nbar", "20", "-o", str(tmp_path)]) == 0
    assert sorted(calls) == sorted(POTENTIAL_MODES)
    # the reused fit reports exactly what a separate fit per mode reports
    sens = json.loads((tmp_path / "fit_report.json").read_text())["potential_sensitivity"]
    for mode in POTENTIAL_MODES:
        alt = fit_parameters(QuantumNumbers(20), mode=mode)
        assert sens[mode] == {"alpha": alt.alpha, "gamma0": alt.gamma0}


def test_fit_usage_and_failure_exit_codes(tmp_path):
    res = run_cli("fit", "--nbar", "1", "-o", str(tmp_path))
    assert res.returncode == 1
    res = run_cli("fit", "--nbar", "2", "-o", str(tmp_path))
    assert res.returncode == 3
    res = run_cli("fit", "-o", str(tmp_path))  # nbar missing
    assert res.returncode == 1
    res = run_cli("nonsense")
    assert res.returncode == 1


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


@pytest.mark.parametrize(
    "bad",
    [
        {"nbar": "85"},
        {"nbar": 20.0},
        {"nbar": True},
        {"nbar": 20, "grid_points": None},
        {"nbar": 20, "grid_points": "16000"},
        {"nbar": 20, "deficit_tol": "1e-4"},
        {"nbar": 20, "smooth": float("nan")},
        {"nbar": 20, "prominence": True},
        {"nbar": 20, "output_dir": ["x"]},
    ],
)
def test_ill_typed_config_is_usage_error(tmp_path, monkeypatch, capsys, bad):
    monkeypatch.chdir(tmp_path)  # no -o flag: it would override output_dir
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(bad))
    assert main(["fit", "--config", str(cfg)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "state.json").exists()


def assert_one_usage_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("raw", ['["nbar"]', "3", "null", "[]"])
def test_config_that_is_not_an_object_is_usage_error(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(raw)
    assert main(["fit", "--config", str(cfg)]) == 1
    assert_one_usage_error(capsys)
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "flags, config",
    [(["--l", "1"], None), (["--potential", "paper"], None),
     ([], {"nbar": 20, "l": 1}), ([], {"nbar": 20, "potential_mode": "paper"})],
    ids=["flag-l", "flag-potential", "key-l", "key-potential_mode"],
)
def test_removed_settings_are_usage_errors(tmp_path, monkeypatch, capsys, flags, config):
    # only l = 1 is served, and for l = 1 both potential modes give the same fit
    monkeypatch.chdir(tmp_path)
    argv = ["fit", *flags]
    if config is None:
        argv += ["--nbar", "20"]
    else:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", "config.json"]
    assert main(argv) == 1
    assert_one_usage_error(capsys)
    assert not (tmp_path / "state.json").exists()
    assert not (tmp_path / "fit_report.json").exists()


@pytest.mark.parametrize(
    "argv",
    [["fit"], ["decompose", "--state", "s.json"], ["scan", "--expansion", "e.csv"],
     ["density", "--expansion", "e.csv", "--times", "0"]],
    ids=lambda argv: argv[0],
)
def test_config_fields_are_declared_once_everywhere(argv):
    # a setting lives in RunConfig, in _FIELD_KINDS and as a flag of every subcommand
    assert set(cli._FIELD_KINDS) == cli._CONFIG_FIELDS
    assert cli._CONFIG_FIELDS <= set(vars(cli._build_parser().parse_args(argv)))


@pytest.mark.parametrize(
    "key, value",
    [("alpha", None), ("nbar", None), ("gamma0", "0.1"), ("l", 1.0)],
    ids=["no-alpha", "no-nbar", "str-gamma0", "float-l"],
)
def test_bad_state_file_is_usage_error(tmp_path, capsys, key, value):
    path = tmp_path / "state.json"
    write_state(path, 20, 1, fit_parameters(QuantumNumbers(20)))
    record = json.loads(path.read_text())
    if value is None:
        del record[key]
    else:
        record[key] = value
    path.write_text(json.dumps(record))
    code = main(["decompose", "--nbar", "20", "--state", str(path), "-o", str(tmp_path)])
    assert code == 1
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "expansion.csv").exists()


@pytest.mark.parametrize(
    "key, value, flags",
    [("nbar", 20, ["--nbar", "85"]), ("l", 0, ["--nbar", "20"])],
    ids=["other-nbar", "l-0"],
)
def test_decompose_state_for_other_config_is_usage_error(tmp_path, capsys, key, value, flags):
    # an nbar-20 state decomposed as nbar 85, and an s state where only l = 1 is served
    path = tmp_path / "state.json"
    write_state(path, 20, 1, fit_parameters(QuantumNumbers(20)))
    record = json.loads(path.read_text())
    record[key] = value
    path.write_text(json.dumps(record))
    out = tmp_path / "out"
    code = main(["decompose", *flags, "--state", str(path), "-o", str(out)])
    assert code == 1
    assert "the run is configured for" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv, out_is_file",
    [(["decompose", "--nbar", "20", "--state", "."], False),
     (["scan", "--nbar", "20", "--expansion", ".", "--t-stop", "Tcl"], False),
     (["fit", "--nbar", "20"], True)],
    ids=["state-dir", "expansion-dir", "output-file"],
)
def test_unusable_path_is_usage_error(tmp_path, monkeypatch, capsys, argv, out_is_file):
    # a directory where a file is read, or a file where the output directory goes
    monkeypatch.chdir(tmp_path)
    if out_is_file:
        (tmp_path / "out").write_text("keep")
    assert main([*argv, "-o", "out"]) == 1
    assert_one_usage_error(capsys)
    if out_is_file:
        assert (tmp_path / "out").read_text() == "keep"
    else:
        assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "command,times",
    [("scan", ["--t-stop", "Tcl", "--t-steps", "3"]), ("density", ["--times", "0,Tcl"])],
)
def test_edited_header_deficit_is_usage_error(pipeline20, tmp_path, capsys, command, times):
    # the window [18, 22] leaves a deficit of 2.1e-2, far above 10 x deficit_tol;
    # a header claiming 0 must not get the expansion past the scan guard
    code = main(["decompose", "--nbar", "20", "--state", str(pipeline20 / "state.json"),
                 "--window", "18", "22", "-o", str(tmp_path)])
    assert code == 0
    expansion = tmp_path / "expansion.csv"
    lines = expansion.read_text().splitlines()
    assert float(lines[1].split(",")[3]) > 0.02
    lines[1] = "1,18,22,0"
    expansion.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    code = main([command, "--nbar", "20", "--expansion", str(expansion), *times, "-o", str(out)])
    assert code == 1
    err = assert_one_usage_error(capsys)
    assert str(expansion) in err and "header deficit 0 disagrees" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,times",
    [("scan", ["--t-stop", "Tcl", "--t-steps", "3"]), ("density", ["--times", "0,Tcl"])],
)
def test_expansion_for_other_nbar_is_usage_error(pipeline20, tmp_path, capsys, command, times):
    # T_cl and t_rev of nbar 85 would be applied to the nbar-20 expansion
    code = main([command, "--nbar", "85", "--expansion", str(pipeline20 / "expansion.csv"),
                 *times, "-o", str(tmp_path)])
    assert code == 1
    assert "outside the expansion window" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,times",
    [("scan", ["--t-stop", "Tcl", "--t-steps", "3"]), ("density", ["--times", "0,Tcl"])],
)
def test_expansion_for_other_l_is_usage_error(pipeline20, tmp_path, capsys, command, times):
    lines = (pipeline20 / "expansion.csv").read_text().splitlines()
    assert lines[1].startswith("1,")
    lines[1] = "0," + lines[1][2:]
    expansion = tmp_path / "expansion.csv"
    expansion.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main([command, "--nbar", "20", "--expansion", str(expansion), *times, "-o", str(out)])
    assert code == 1
    assert "expands l=0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["1", "2", "3"]], ids=["one-field", "four-fields"])
def test_malformed_coefficient_row_is_usage_error(pipeline20, tmp_path, capsys, extra):
    lines = (pipeline20 / "expansion.csv").read_text().splitlines()
    lines[8] = ",".join([lines[8].split(",")[0], *extra])  # n stays in its window
    expansion = tmp_path / "expansion.csv"
    expansion.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["scan", "--nbar", "20", "--expansion", str(expansion),
                 "--t-stop", "Tcl", "--t-steps", "3", "-o", str(out)])
    assert code == 1
    assert str(expansion) in assert_one_usage_error(capsys)
    assert not out.exists()


def test_scan_quadrature_failure(pipeline20, tmp_path, coarse_quadrature, capsys):
    code = main(
        ["scan", "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
         "--t-stop", "Tcl", "-o", str(tmp_path)]
    )
    assert code == 2
    assert "quadrature too coarse" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize(
    "command,times",
    [("scan", ["--t-stop", "Tcl", "--t-steps", "3"]), ("density", ["--times", "0,Tcl"])],
)
def test_non_finite_coefficient_is_usage_error(pipeline20, tmp_path, capsys, command, times, bad):
    lines = (pipeline20 / "expansion.csv").read_text().splitlines()
    n, _, im = lines[8].split(",")
    lines[8] = ",".join((n, bad, im))
    expansion = tmp_path / "expansion.csv"
    expansion.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    out.mkdir()
    code = main([command, "--nbar", "20", "--expansion", str(expansion), *times, "-o", str(out)])
    assert code == 1
    assert f"coefficient of n={n} is not finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("prominence", ["1", "1.5"])
def test_prominence_of_one_or_more_fails_before_any_work(pipeline20, tmp_path, capsys, prominence):
    # count_packets refuses it too, but only after the basis build and the
    # first snapshot; the config check exits before any work
    out = tmp_path / "out"
    code = main(["density", "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
                 "--times", "0,Tcl", "--prominence", prominence, "-o", str(out)])
    assert code == 1
    assert "usage error: prominence must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()
