import argparse
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rydpack
from rydpack import cli, evolution, spectral, stages
from rydpack.cli import UsageError, main, parse_time_expression
from rydpack.io import read_density, read_expansion, read_state, write_state
from rydpack.spectral import coefficient_spread
from rydpack.squeezed import QuantumNumbers, RadialSqueezedState, fit_parameters, uncertainties_rp
from rydpack.units import ATOMIC_TIME_S, au_to_ns

from conftest import LEDGER_NBARS, LEDGER_TIMES, run_pipeline

TCL = 100.0
TREV = 1000.0


# the child interpreter imports the same rydpack as this one, installed or not
SRC = str(Path(rydpack.__file__).resolve().parents[1])


def run_python(*args, **env):
    """A child interpreter on ``args``, with the variables ``env`` set."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def run_cli(capsys, *args):
    """``cli.main`` on ``args`` in this process: its exit code, stdout and stderr."""
    code = main(list(args))
    out, err = capsys.readouterr()
    return SimpleNamespace(returncode=code, stdout=out, stderr=err)


@pytest.fixture(scope="module")
def pipeline20(pipeline):
    """The ledger's nbar-20 pipeline directory, shared across CLI tests."""
    return pipeline(20)[0]


def test_module_entry_point_exits_with_the_status_of_main(tmp_path):
    # python -m rydpack hands main's code to the interpreter: 3 for a fit failure
    res = run_python("-m", "rydpack", "fit", "--nbar", "2", "-o", str(tmp_path))
    assert res.returncode == 3
    assert res.stderr.startswith("fit failure:")


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
    for times in (",", ""):
        for command in ("scan", "density"):
            code = main([command, "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
                         "--times", times, "-o", str(tmp_path)])
            assert code == 1
            errors.append(capsys.readouterr().err)
    assert errors == ["usage error: --times: empty time list\n"] * 4


class Allocated(Exception):
    pass


@pytest.mark.parametrize(
    "command, flags, name",
    [
        ("scan", ["--t-stop", "Tcl", "--t-steps", "1000000000"], "t-steps"),
        ("density", ["--times", "0", "--grid-points", "1000000000"], "grid_points"),
        ("density", ["--times", "0", "--grid-points", "1000001"], "grid_points"),
    ],
    ids=["t-steps-1e9", "grid-points-1e9", "grid-points-just-above"],
)
def test_size_settings_are_capped_before_allocation(
    pipeline20, tmp_path, monkeypatch, capsys, command, flags, name
):
    def refuse(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(cli.np, "linspace", refuse)
    monkeypatch.setattr(evolution.RadialGrid, "uniform", refuse)
    code = main([command, "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
                 *flags, "-o", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"{name} must be at most 1000000" in err


@pytest.mark.parametrize("argv", [["bogus"], []], ids=["unknown-command", "no-command"])
def test_missing_or_unknown_command_is_usage_error(argv, capsys):
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err


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


def test_nbar85_artifacts_are_byte_identical_across_runs(pipeline, tmp_path):
    # a second run of the ledger's nbar-85 pipeline, from an empty matrix cache
    _, first = pipeline(85)
    spectral._moment_matrices.cache_clear()
    second = run_pipeline(85, tmp_path)
    assert sorted(second) == [
        "density_00.csv",
        "density_01.csv",
        "density_02.csv",
        "density_03.csv",
        "density_04.csv",
        "expansion.csv",
        "fit_report.json",
        "packets.json",
        "scan.csv",
        "state.json",
    ]
    assert second == first


def _openblas_dynamic_arch():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(
    not _openblas_dynamic_arch(),
    reason="NumPy's BLAS is not OpenBLAS with DYNAMIC_ARCH, so OPENBLAS_CORETYPE picks no other kernel",
)
def test_kernel_free_files_do_not_depend_on_the_blas_kernel(pipeline, tmp_path):
    # the determinism contract (rydpack.io): fit, decompose and density on
    # another BLAS kernel and thread count write the fit files, the expansion
    # and the packet report with the bytes of the in-process ledger run; the
    # density CSVs are BLAS products, so they are not compared
    made, _ = pipeline(20)
    steps = [
        ["fit", "--nbar", "20"],
        ["decompose", "--state", str(tmp_path / "state.json")],
        ["density", "--expansion", str(tmp_path / "expansion.csv"), "--times", LEDGER_TIMES],
    ]
    script = (
        "import json, sys\nfrom rydpack.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n    code = main([*argv, '-o', sys.argv[2]])\n"
        "    if code:\n        sys.exit(code)\n"
    )
    res = run_python("-c", script, json.dumps(steps), str(tmp_path), OPENBLAS_CORETYPE="Prescott",
                     OPENBLAS_NUM_THREADS="2")
    assert res.returncode == 0, res.stderr
    for name in ("state.json", "fit_report.json", "expansion.csv", "packets.json"):
        assert (tmp_path / name).read_bytes() == (made / name).read_bytes(), name


# packages a cold `import rydpack, rydpack.cli` leaves unloaded: SciPy, and
# the NumPy subpackages only a call needs (`specfun._legendre_rule` keeps
# numpy.polynomial out, about 4 ms; `count_packets` imports numpy.fft when called)
UNLOADED_AT_IMPORT = ("scipy", "numpy.polynomial", "numpy.fft", "numpy.random")


def test_import_leaves_scipy_and_numpy_subpackages_unloaded():
    res = run_python("-c", "import sys, rydpack, rydpack.cli; print('\\n'.join(sys.modules))")
    assert res.returncode == 0, res.stderr
    names = res.stdout.split()
    assert "numpy" in names
    assert [m for m in names if any(m == p or m.startswith(p + ".") for p in UNLOADED_AT_IMPORT)] == []


def test_fit_outputs_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = run_cli(capsys, "fit", "--nbar", "20", "-o", str(out))
        assert res.returncode == 0, res.stderr
        assert "alpha=38.142901" in res.stdout
    for name in ("state.json", "fit_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    nbar, state = read_state(out1 / "state.json")
    assert nbar == 20
    assert state.alpha == pytest.approx(38.142900907876616, rel=1e-9)
    report = json.loads((out1 / "fit_report.json").read_text())
    assert report["l"] == 1
    assert report["residual_H_rel"] <= 1e-10
    assert report["timescales"]["T_cl_au"] == pytest.approx(2 * np.pi * 20**3)
    # there is one potential, so the report names no convention and no second fit
    assert "potential_mode" not in report and "potential_sensitivity" not in report


def test_fit_runs_one_fit(tmp_path, monkeypatch):
    calls = []

    def counted(q):
        calls.append(q)
        return fit_parameters(q)

    monkeypatch.setattr(stages, "fit_parameters", counted)
    assert main(["fit", "--nbar", "20", "-o", str(tmp_path)]) == 0
    assert calls == [QuantumNumbers(20)]
    report = json.loads((tmp_path / "fit_report.json").read_text())
    state = fit_parameters(QuantumNumbers(20))
    assert (report["alpha"], report["gamma0"]) == (state.alpha, state.gamma0)


def test_fit_usage_and_failure_exit_codes(tmp_path, capsys):
    res = run_cli(capsys, "fit", "--nbar", "1", "-o", str(tmp_path))
    assert res.returncode == 1
    res = run_cli(capsys, "fit", "--nbar", "2", "-o", str(tmp_path))
    assert res.returncode == 3
    res = run_cli(capsys, "fit", "-o", str(tmp_path))  # nbar missing
    assert res.returncode == 1
    res = run_cli(capsys, "nonsense")
    assert res.returncode == 1


def test_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"nbar": 20, "output_dir": str(tmp_path / "from_cfg")}))
    res = run_cli(capsys, "fit", "--config", str(cfg))
    assert res.returncode == 0
    assert (tmp_path / "from_cfg" / "state.json").exists()
    # flag overrides config
    res = run_cli(capsys, "fit", "--config", str(cfg), "-o", str(tmp_path / "flag_wins"))
    assert res.returncode == 0
    assert (tmp_path / "flag_wins" / "state.json").exists()
    cfg.write_text(json.dumps({"nbar": 20, "bogus_key": 1}))
    assert run_cli(capsys, "fit", "--config", str(cfg)).returncode == 1


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


@pytest.mark.parametrize("raw", ['["nbar"]', "3", "null", "[]", "{nbar: 20}"])
def test_config_that_is_not_an_object_is_usage_error(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(raw)
    assert main(["fit", "--config", str(cfg)]) == 1
    assert_one_usage_error(capsys)
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "content, message",
    [(b"\xff\xfe", "not a config file: 'utf-8' codec"), (b"{", "not a config file: Expecting"),
     (b"[" * 100_000, "not a config file: maximum recursion depth")],
    ids=["not-utf8", "not-json", "nested-too-deep"],
)
def test_unreadable_config_is_a_usage_error_naming_the_file(tmp_path, monkeypatch, capsys, content, message):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    assert main(["fit", "--config", str(cfg)]) == 1
    err = assert_one_usage_error(capsys)
    assert f"{cfg}: {message}" in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "flags, config",
    [(["--l", "1"], None), (["--potential", "paper"], None), (["--deltan", "2"], None),
     ([], {"nbar": 20, "l": 1}), ([], {"nbar": 20, "potential_mode": "paper"}),
     ([], {"nbar": 20, "deltan": 2})],
    ids=["flag-l", "flag-potential", "flag-deltan", "key-l", "key-potential_mode", "key-deltan"],
)
def test_removed_settings_are_usage_errors(tmp_path, monkeypatch, capsys, flags, config):
    # only l = 1 is served, for l = 1 both potential modes give the same fit,
    # and the level spread is measured on the expansion
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


# the settings each subcommand reads, and so takes as flags
READS = {
    "fit": {"nbar", "output_dir"},
    "decompose": {"nbar", "deficit_tol", "output_dir"},
    "scan": {"nbar", "deficit_tol", "output_dir"},
    "density": cli._CONFIG_FIELDS,
}


@pytest.mark.parametrize(
    "argv",
    [["fit"], ["decompose", "--state", "s.json"], ["scan", "--expansion", "e.csv"],
     ["density", "--expansion", "e.csv", "--times", "0"]],
    ids=lambda argv: argv[0],
)
def test_config_fields_are_declared_once_everywhere(argv):
    # a setting lives in RunConfig, and as a flag of each subcommand that reads it
    names = set(vars(cli._build_parser().parse_args(argv)))
    assert names & cli._CONFIG_FIELDS == READS[argv[0]]


def test_flag_slots_are_the_settings_read_plus_each_subcommands_own():
    # --config, one flag per setting read (2, 3, 3 and 7; -o is the short form
    # of --output-dir), then --state and --window, five scan flags and two density flags
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    slots = {
        name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
        for name, p in commands.items()
    }
    assert slots == {"fit": 3, "decompose": 6, "scan": 9, "density": 10}
    assert sum(slots.values()) == 28


@pytest.mark.parametrize(
    "argv",
    [["fit", "--grid-points", "5"], ["fit", "--deficit-tol", "0.1"],
     ["decompose", "--state", "s.json", "--prominence", "0.1"],
     ["scan", "--expansion", "e.csv", "--smooth", "1"]],
    ids=["fit-grid-points", "fit-deficit-tol", "decompose-prominence", "scan-smooth"],
)
def test_flag_a_subcommand_does_not_read_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--nbar", "20"]) == 1
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in assert_one_usage_error(capsys)
    assert list(tmp_path.iterdir()) == []


def test_one_config_of_every_key_runs_the_whole_pipeline(tmp_path, capsys):
    # each subcommand accepts and validates every key, and reads its own
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "nbar": 20, "deficit_tol": 1e-4, "grid_points": 4000, "r_max_factor": 4.0,
        "prominence": 0.05, "smooth": 10.0, "output_dir": str(out),
    }))
    assert sorted(json.loads(config.read_text())) == sorted(cli._CONFIG_FIELDS)
    expansion = str(out / "expansion.csv")
    for argv in (["fit"], ["decompose", "--state", str(out / "state.json")],
                 ["scan", "--expansion", expansion, "--t-stop", "Tcl", "--t-steps", "3"],
                 ["density", "--expansion", expansion, "--times", "0"]):
        res = run_cli(capsys, *argv, "--config", str(config))
        assert res.returncode == 0, res.stderr
    packets = json.loads((out / "packets.json").read_text())
    assert packets["smooth"] == 10.0
    assert len(read_density(out / "density_00.csv")[1]) == 4000


def test_config_ints_of_float_settings_run_as_floats(pipeline20, tmp_path, capsys):
    # a JSON int of a float setting is stored as its float: written back as
    # 10.0, and a grid end r_max_factor nbar^2 past the float range is a
    # usage error naming the setting, not an int-to-float overflow
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"smooth": 10, "r_max_factor": 4, "grid_points": 400}))
    argv = ["density", "--expansion", str(pipeline20 / "expansion.csv"), "--times", "0", "--config", str(config)]
    assert run_cli(capsys, *argv, "-o", str(tmp_path / "ints")).returncode == 0
    text = (tmp_path / "ints" / "packets.json").read_text()
    assert '"smooth": 10.0,' in text
    config.write_text(json.dumps({"r_max_factor": 10**308}))
    assert main([*argv, "-o", str(tmp_path / "huge")]) == 1
    assert "r_max_factor=1e+308" in assert_one_usage_error(capsys)
    assert not (tmp_path / "huge").exists()


@pytest.mark.parametrize(
    "command,times",
    [("scan", ["--t-stop", "Tcl", "--t-steps", "5"]), ("density", ["--times", "0,Tcl/2,trev"])],
)
def test_nbar_comes_from_the_expansion(pipeline20, tmp_path, capsys, command, times):
    # T_cl, t_rev and the grid extent are the expansion's, so --nbar changes no byte
    runs = []
    for name, flags in (("with", ["--nbar", "20"]), ("without", [])):
        out = tmp_path / name
        res = run_cli(capsys, command, "--expansion", str(pipeline20 / "expansion.csv"),
                      *times, *flags, "-o", str(out))
        assert res.returncode == 0, res.stderr
        runs.append((res.stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "key, value",
    [("alpha", None), ("nbar", None), ("gamma0", "0.1"), ("l", 1.0)],
    ids=["no-alpha", "no-nbar", "str-gamma0", "float-l"],
)
def test_bad_state_file_is_usage_error(tmp_path, capsys, key, value):
    path = tmp_path / "state.json"
    write_state(path, 20, fit_parameters(QuantumNumbers(20)))
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
    "key, value, flags, message",
    [
        ("nbar", 20, ["--nbar", "85"], "the run is configured for nbar=85"),
        ("l", 0, ["--nbar", "20"], "state file holds l=0"),
        ("nbar", 85, [], "is not the fit of nbar=85"),
        ("nbar", 21, [], "is not the fit of nbar=21"),
        ("alpha", 38.0, [], "alpha 38.0 is not the fit of nbar=20"),
        ("gamma0", 0.05, [], "gamma0 0.05 is not the fit of nbar=20"),
        ("nbar", 2, [], "no solution with alpha > 0 for nbar=2"),
    ],
    ids=["other-nbar", "l-0", "edited-nbar-85", "edited-nbar-21", "edited-alpha", "edited-gamma0",
         "edited-nbar-2"],
)
def test_decompose_state_for_other_config_is_usage_error(
    tmp_path, capsys, key, value, flags, message
):
    # an nbar-20 state decomposed as nbar 85, and an s state where only l = 1
    # is served; fit derives alpha and gamma0 from nbar, so a state whose nbar
    # or parameters were edited is not a fit artifact (an nbar-20 state edited
    # to nbar 85 ran over the window [16, 24] with nbar 85 in its header)
    path = tmp_path / "state.json"
    write_state(path, 20, fit_parameters(QuantumNumbers(20)))
    record = json.loads(path.read_text())
    record[key] = value
    path.write_text(json.dumps(record))
    out = tmp_path / "out"
    code = main(["decompose", *flags, "--state", str(path), "-o", str(out)])
    assert code == 1
    err = assert_one_usage_error(capsys)
    assert str(path) in err and message in err
    assert not out.exists()


def test_nbar_beyond_float_range_is_one_usage_error(tmp_path, capsys):
    # a 401-digit nbar is a valid int flag; fit names it, with no traceback
    res = run_cli(capsys, "fit", "--nbar", str(10**400), "-o", str(tmp_path / "out"))
    assert res.returncode == 1
    assert res.stderr == "usage error: nbar must lie within float range, got an integer of 1329 bits\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("delta", [0.1, -0.1, 1e-12])
def test_edited_state_log_norm_is_usage_error(tmp_path, capsys, delta):
    # ln N is fixed by alpha and gamma0; a stored value off by even a few ulp
    # would rescale every coefficient, so the file is refused and nothing written
    path = tmp_path / "state.json"
    write_state(path, 85, fit_parameters(QuantumNumbers(85)))
    record = json.loads(path.read_text())
    assert record["log_norm"] + delta != record["log_norm"]
    record["log_norm"] += delta
    path.write_text(json.dumps(record))
    out = tmp_path / "out"
    code = main(["decompose", "--nbar", "85", "--state", str(path), "-o", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(path) in err and "log_norm" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "gamma1", [0.5, float("nan"), float("inf")], ids=["0.5", "NaN", "Infinity"]
)
def test_non_finite_gamma1_is_usage_error(tmp_path, capsys, gamma1):
    # json writes and reads the non-finite values as the literals NaN and
    # Infinity; <p_r> = 0 fixes gamma1 at 0, so any other value, finite or
    # not, is refused before a projection could turn it into a numerical
    # failure: a non-finite one as no finite real number, 0.5 as not 0
    path = tmp_path / "state.json"
    write_state(path, 20, fit_parameters(QuantumNumbers(20)))
    record = json.loads(path.read_text())
    assert record["gamma1"] == 0.0
    record["gamma1"] = gamma1
    path.write_text(json.dumps(record))
    out = tmp_path / "out"
    res = run_cli(capsys, "decompose", "--nbar", "20", "--state", str(path), "-o", str(out))
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("usage error:") and str(path) in res.stderr
    assert "gamma1" in res.stderr and repr(gamma1) in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("tol", ["1", "2"])
@pytest.mark.parametrize("command", ["decompose", "scan"])
def test_deficit_tol_of_one_or_more_is_usage_error(pipeline20, tmp_path, capsys, command, tol):
    # a deficit never exceeds 1, so such a tolerance would switch off
    # decompose's growth and scan's 10 x deficit_tol guard
    source = (
        ["--state", str(pipeline20 / "state.json")]
        if command == "decompose"
        else ["--expansion", str(pipeline20 / "expansion.csv"), "--times", "0"]
    )
    out = tmp_path / "out"
    code = main([command, "--nbar", "20", *source, "--deficit-tol", tol, "-o", str(out)])
    assert code == 1
    assert "usage error: deficit_tol must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_output(pipeline20):
    nbar, exp = read_expansion(pipeline20 / "expansion.csv")
    assert nbar == 20
    assert exp.deficit < 1e-4
    assert exp.n_min <= 20 <= exp.n_max
    assert exp.weight + exp.deficit == pytest.approx(1.0, abs=1e-12)


def test_decompose_pure_eigenstate(tmp_path, capsys):
    # alpha = 1, gamma0 = 1/2 is R_21 itself, a state no fit gives (nbar 2 has
    # none): the CLI refuses its file, naming it, and the in-process
    # decomposition is tests/test_spectral.py's test_decompose_pure_eigenstate
    path = tmp_path / "state.json"
    write_state(path, 2, RadialSqueezedState(1.0, 0.5))
    out = tmp_path / "out"
    res = run_cli(capsys, "decompose", "--nbar", "2", "--state", str(path), "-o", str(out))
    assert res.returncode == 1
    assert res.stderr == (
        f"usage error: {path}: the matching conditions have no solution with alpha > 0 for nbar=2\n"
    )
    assert not out.exists()


def test_decompose_window_warning(pipeline20, tmp_path, capsys):
    res = run_cli(
        capsys, "decompose", "--nbar", "20", "--state", str(pipeline20 / "state.json"),
        "--window", "2", "10", "-o", str(tmp_path),
    )
    assert res.returncode == 0
    # decompose's own warning, printed once
    assert res.stderr == "warning: deficit 1.000000e+00 above tolerance 0.0001 for window [2,10]\n"
    _, exp = read_expansion(tmp_path / "expansion.csv")
    assert exp.deficit > 0.999


def test_decompose_over_a_window_without_weight_exits_2_and_prints_no_nan(tmp_path, capsys):
    # at nbar 285 every c_n^2 of [2, 5] underflows to 0: decompose exits 2
    # naming the window and writes no expansion (it once printed
    # "mean_n=nan deltan=nan" and wrote four zero rows, which scan refused
    # with exit 2); a file of zero weight made by hand is refused when it is
    # read, exit 1 naming the file
    out = tmp_path / "out"
    assert main(["fit", "--nbar", "285", "-o", str(out)]) == 0
    capsys.readouterr()
    res = run_cli(capsys, "decompose", "--state", str(out / "state.json"), "--window", "2", "5", "-o", str(out))
    assert res.returncode == 2
    assert res.stderr == (
        "numerical failure: window [2, 5] captured weight 0.0, outside (0, 1 + 1e-09]\n"
    )
    assert "nan" not in res.stdout and not (out / "expansion.csv").exists()
    expansion = out / "expansion.csv"
    expansion.write_text("l,nbar,n_min,n_max,deficit\n1,285,2,5,1\nn,re,im\n2,0,0\n3,0,0\n4,0,0\n5,0,0\n")
    for command, times in (("scan", ["--t-stop", "Tcl"]), ("density", ["--times", "0"])):
        assert main([command, "--expansion", str(expansion), *times, "-o", str(tmp_path / command)]) == 1
        err = assert_one_usage_error(capsys)
        assert f"{expansion}: captured weight 0.0 lies outside" in err


def test_nbar_3_decompose_warns_and_scan_refuses(tmp_path, capsys):
    # the window stops on the n^-3 tail law: decompose keeps its warning and
    # exit 0, and scan and density keep their exit 2 on the deficit above
    # 10 x deficit_tol, each naming itself
    common = ["--nbar", "3", "-o", str(tmp_path)]
    assert main(["fit", *common]) == 0
    capsys.readouterr()
    assert main(["decompose", *common, "--state", str(tmp_path / "state.json")]) == 0
    assert "warning: deficit tolerance 0.0001 unreachable" in capsys.readouterr().err
    _, exp = read_expansion(tmp_path / "expansion.csv")
    assert exp.n_min == 2 and exp.n_max < 400
    for command, times, made in (
        ("scan", ["--t-stop", "Tcl"], "scan.csv"),
        ("density", ["--times", "0"], "packets.json"),
    ):
        assert main([command, *common, "--expansion", str(tmp_path / "expansion.csv"), *times]) == 2
        err = capsys.readouterr().err
        assert "exceeds 10 x deficit_tol" in err and err.endswith(f"; {command} refuses it\n")
        assert not (tmp_path / made).exists()


def test_decompose_missing_state(tmp_path, capsys):
    res = run_cli(capsys, "decompose", "--nbar", "20", "--state", str(tmp_path / "nope.json"),
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


def test_scan_series(pipeline20, tmp_path, capsys):
    res = run_cli(
        capsys, "scan", "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
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


def test_one_time_scan_row_has_the_bits_of_a_long_scan(pipeline20, tmp_path):
    # a record has one bit pattern, whatever block holds its time: a
    # one-time scan row is its row of a 2049-point scan
    expansion = str(pipeline20 / "expansion.csv")
    long = tmp_path / "long"
    assert main(["scan", "--expansion", expansion, "--t-stop", "4*Tcl", "--t-steps", "2049", "-o", str(long)]) == 0
    header, *rows = (long / "scan.csv").read_text().splitlines()
    for row in rows[::128]:
        one = tmp_path / "one"
        assert main(["scan", "--expansion", expansion, "--times", row.split(",")[0], "-o", str(one)]) == 0
        assert (one / "scan.csv").read_text().splitlines() == [header, row]


@pytest.mark.parametrize("nbar", LEDGER_NBARS)
def test_default_smooth_is_the_fitted_states_dr_over_3(pipeline, nbar):
    # density's default smoothing width is the closed-form dr of the header
    # nbar's fit, divided by 3, bit for bit
    packets = json.loads((pipeline(nbar)[0] / "packets.json").read_text())
    dr = uncertainties_rp(fit_parameters(QuantumNumbers(nbar)))[0]
    assert packets["smooth"].hex() == (dr / 3.0).hex()


def test_density_evaluates_no_moments(pipeline, tmp_path, monkeypatch):
    # density takes its default smoothing width from the fit, so it makes no
    # observables call and builds no moment window
    def refuse(*args, **kwargs):
        raise AssertionError("density evaluated moments of the expansion")

    monkeypatch.setattr(spectral, "_moment_matrices", refuse)
    monkeypatch.setattr(evolution, "observables", refuse)
    expansion = pipeline(85)[0] / "expansion.csv"
    assert main(["density", "--expansion", str(expansion), "--times", "0,trev/2", "-o", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "packets.json").read_text())["snapshots"][0]["peak_count"] == 1


def test_density_serves_a_window_its_moments_would_overflow(tmp_path, capsys):
    # at nbar 3 on the window [2, 400], R_n1 overflows from n = 327 on the
    # moment rule, which density once built for its default smoothing width;
    # the snapshot grid plays no part in that, so a small one serves
    out = str(tmp_path)
    assert main(["fit", "--nbar", "3", "-o", out]) == 0
    assert main(["decompose", "--state", f"{out}/state.json", "--window", "2", "400", "-o", out]) == 0
    argv = ["density", "--expansion", f"{out}/expansion.csv", "--deficit-tol", "2e-3", "--times", "0"]
    assert main([*argv, "--grid-points", "400", "-o", out]) == 0, capsys.readouterr().err


def test_density_without_a_fit_of_the_header_nbar_needs_smooth(pipeline20, tmp_path, capsys):
    # only a hand-made expansion holds nbar 2, which has no fit to take the
    # default smoothing width from: a usage error naming the file
    lines = (pipeline20 / "expansion.csv").read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(",20,", ",2,", 1)
    expansion = tmp_path / "expansion.csv"
    expansion.write_text("".join(lines))
    argv = ["density", "--expansion", str(expansion), "--times", "0", "-o", str(tmp_path / "out")]
    assert main(argv) == 1
    err = assert_one_usage_error(capsys)
    assert err.startswith(f"usage error: {expansion}: ") and "--smooth" in err
    assert not (tmp_path / "out").exists()
    assert main([*argv, "--smooth", "1"]) == 0


def _help(command, flag):
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    return next(a.help for a in commands[command]._actions if flag in a.option_strings)


@pytest.mark.parametrize(
    "flag, value, extra",
    [("--times", "-0.5,0", []), ("--t-start", "-Tcl", ["--t-stop", "Tcl"]), ("--t-stop", "-Tcl", [])],
)
def test_scan_time_that_starts_with_a_dash_names_the_joined_form(pipeline20, tmp_path, capsys, flag, value, extra):
    # argparse reads "--times -0.5,0" as a flag without its value; the usage
    # error and the help name the form --times=-0.5,0, which runs
    common = ["scan", "--expansion", str(pipeline20 / "expansion.csv"), *extra, "-o", str(tmp_path)]
    res = run_cli(capsys, *common, flag, value)
    assert res.returncode == 1
    assert res.stderr == (
        f"usage error: argument {flag}: expected one argument; "
        f"a value that starts with '-' needs the form {flag}=VALUE\n"
    )
    assert f"{flag}=VALUE" in _help("scan", flag)
    assert run_cli(capsys, *common, f"{flag}={value}").returncode == 0


def test_density_time_that_starts_with_a_dash_names_the_joined_form(pipeline20, tmp_path, capsys):
    common = ["density", "--expansion", str(pipeline20 / "expansion.csv"), "--grid-points", "400", "-o", str(tmp_path)]
    res = run_cli(capsys, *common, "--times", "-Tcl/2")
    assert res.returncode == 1
    assert res.stderr == (
        "usage error: argument --times: expected one argument; "
        "a value that starts with '-' needs the form --times=VALUE\n"
    )
    assert "--times=VALUE" in _help("density", "--times")
    assert run_cli(capsys, *common, "--times=-Tcl/2").returncode == 0


def test_scan_refuses_deficient_expansion(pipeline20, tmp_path, capsys):
    bad_dir = tmp_path / "bad"
    res = run_cli(
        capsys, "decompose", "--nbar", "20", "--state", str(pipeline20 / "state.json"),
        "--window", "2", "10", "-o", str(bad_dir),
    )
    assert res.returncode == 0
    res = run_cli(capsys, "scan", "--nbar", "20", "--expansion", str(bad_dir / "expansion.csv"),
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
    assert float(lines[1].split(",")[4]) > 0.02
    lines[1] = "1,20,18,22,0"
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
@pytest.mark.parametrize(
    "edit",
    [lambda line: line.rsplit(",", 2)[0],
     lambda line: ",".join(f"x{v}" if i == 2 else v for i, v in enumerate(line.split(",")))],
    ids=["header-of-three-fields", "n-min-not-a-number"],
)
def test_unparseable_expansion_is_usage_error_naming_it(pipeline20, tmp_path, capsys, command, times, edit):
    lines = (pipeline20 / "expansion.csv").read_text().splitlines()
    lines[1] = edit(lines[1])
    expansion = tmp_path / "expansion.csv"
    expansion.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main([command, "--nbar", "20", "--expansion", str(expansion), *times, "-o", str(out)])
    assert code == 1
    assert str(expansion) in assert_one_usage_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "command,times",
    [("scan", ["--t-stop", "Tcl", "--t-steps", "3"]), ("density", ["--times", "0,Tcl"])],
)
def test_expansion_above_n_cap_is_usage_error_naming_it(tmp_path, capsys, command, times):
    # a whole, well-formed expansion of the one level n = 500: outside the
    # served range [2, N_CAP], so a bad input (exit 1), not an overflow (exit 2)
    expansion = tmp_path / "expansion.csv"
    expansion.write_text("l,nbar,n_min,n_max,deficit\n1,20,500,500,0\nn,re,im\n500,1,0\n")
    out = tmp_path / "out"
    code = main([command, "--expansion", str(expansion), *times, "-o", str(out)])
    assert code == 1
    err = assert_one_usage_error(capsys)
    assert str(expansion) in err and "level 500 lies above N_CAP = 400" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,times",
    [("scan", ["--t-stop", "Tcl", "--t-steps", "3"]), ("density", ["--times", "0,Tcl"])],
)
def test_expansion_that_is_not_utf8_is_usage_error_naming_it(tmp_path, capsys, command, times):
    expansion = tmp_path / "expansion.csv"
    expansion.write_bytes(b"\xff\xfe")
    out = tmp_path / "out"
    code = main([command, "--nbar", "20", "--expansion", str(expansion), *times, "-o", str(out)])
    assert code == 1
    assert f"{expansion}: not an expansion file: 'utf-8' codec" in assert_one_usage_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "command,times",
    [("scan", ["--t-stop", "Tcl", "--t-steps", "3"]), ("density", ["--times", "0,Tcl"])],
)
def test_expansion_for_other_nbar_is_usage_error(pipeline20, tmp_path, capsys, command, times):
    # an --nbar must restate the nbar the expansion records
    expansion = pipeline20 / "expansion.csv"
    code = main([command, "--nbar", "85", "--expansion", str(expansion), *times, "-o", str(tmp_path)])
    assert code == 1
    err = assert_one_usage_error(capsys)
    assert f"{expansion} holds nbar=20; the run is configured for nbar=85" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("scan", lambda lines: ["l,n_min,n_max,deficit", lines[1].replace("1,20,", "1,", 1)],
         "not an expansion file with the header l,nbar,n_min,n_max,deficit"),
        ("density", lambda lines: [lines[0], lines[1].replace("1,20,", "1,1,", 1)],
         "nbar must be >= 2, got 1"),
        ("decompose", None, "nbar must be >= 2, got 0"),
    ],
    ids=["expansion-without-nbar", "expansion-nbar-1", "state-nbar-0"],
)
def test_file_without_a_served_nbar_is_usage_error(pipeline20, tmp_path, capsys, command, edit, message):
    # with --nbar optional, the file's nbar is the run's: it must be there, and >= 2
    if edit is None:
        path = tmp_path / "state.json"
        record = json.loads((pipeline20 / "state.json").read_text())
        path.write_text(json.dumps({**record, "nbar": 0}))
        source = ["--state", str(path)]
    else:
        path = tmp_path / "expansion.csv"
        lines = (pipeline20 / "expansion.csv").read_text().splitlines()
        lines[:2] = edit(lines)
        path.write_text("\n".join(lines) + "\n")
        source = ["--expansion", str(path), "--times", "0"]
    out = tmp_path / "out"
    assert main([command, *source, "-o", str(out)]) == 1
    err = assert_one_usage_error(capsys)
    assert str(path) in err and message in err
    assert not out.exists()


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


def test_long_scan_holds_one_block_of_rows_at_a_time(pipeline20, tmp_path):
    # scan.csv is written block by block, so ten times the points take about
    # the same traced memory: the times themselves, and one block in flight
    common = ["scan", "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
              "--t-stop", "4*Tcl"]
    assert main([*common, "--t-steps", "3", "-o", str(tmp_path / "warm")]) == 0
    peaks = []
    for steps in (2049, 20481):
        tracemalloc.start()
        try:
            assert main([*common, "--t-steps", str(steps), "-o", str(tmp_path / str(steps))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        lines = (tmp_path / str(steps) / "scan.csv").read_text().splitlines()
        assert len(lines) == steps + 1
    assert peaks[1] < 2 * peaks[0], peaks


def test_scan_failing_in_a_later_block_leaves_no_file(pipeline20, tmp_path, capsys, monkeypatch):
    # 2048 times are two blocks of 1024; the first is written before the
    # second fails, and the failure still leaves no scan.csv and no temporary file
    calls = []
    scan_block = spectral._scan_block

    def second_fails(exp, ts):
        calls.append(len(ts))
        if len(calls) == 2:
            raise spectral.NumericalError("second block failed")
        return scan_block(exp, ts)

    monkeypatch.setattr(spectral, "_scan_block", second_fails)
    code = main(["scan", "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
                 "--t-stop", "4*Tcl", "--t-steps", "2048", "-o", str(tmp_path)])
    assert code == 2
    assert "second block failed" in capsys.readouterr().err
    assert calls == [1024, 1024]
    assert list(tmp_path.iterdir()) == []


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


def test_decompose_nan_projection_is_numerical_failure(tmp_path, capsys):
    # at nbar 300 the Laguerre recurrence overflows and the projections are NaN
    write_state(tmp_path / "state.json", 300, fit_parameters(QuantumNumbers(300)))
    res = run_cli(capsys, "decompose", "--nbar", "300", "--state", str(tmp_path / "state.json"),
                  "-o", str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "numerical failure" in res.stderr


def test_decompose_lapack_failure_is_numerical_failure(pipeline20, tmp_path, capsys, monkeypatch):
    # numpy.linalg.LinAlgError is a ValueError, yet a LAPACK failure in the
    # Golub-Welsch rule is no usage error
    def fails(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fails)
    code = main(["decompose", "--state", str(pipeline20 / "state.json"), "-o", str(tmp_path)])
    assert code == 2
    assert "numerical failure: Eigenvalues did not converge" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_density_snapshots_and_packets(pipeline20, tmp_path, capsys):
    res = run_cli(
        capsys, "density", "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
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


def test_density_removes_the_snapshots_of_a_longer_run(pipeline20, tmp_path, capsys):
    # a second, shorter run into the same -o leaves only its own snapshot
    # beside a report that lists it; files not named as the tool names them stay
    argv = ["density", "--expansion", str(pipeline20 / "expansion.csv"), "--grid-points", "400", "-o", str(tmp_path)]
    assert run_cli(capsys, *argv, "--times", "0,trev/2,trev").returncode == 0
    kept = ["density_1.csv", "density_003.csv", "density_02.csv.bak", "density_x.csv"]
    for name in kept:
        (tmp_path / name).write_text("kept\n")
    assert run_cli(capsys, *argv, "--times", "0").returncode == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["density_00.csv", "packets.json", *kept])
    packets = json.loads((tmp_path / "packets.json").read_text())
    assert [s["file"] for s in packets["snapshots"]] == ["density_00.csv"]
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    assert "removes every density_NN.csv in -o" in " ".join(commands["density"].format_help().split())


def test_density_forms_its_report_before_any_snapshot_is_written(pipeline20, tmp_path, capsys, monkeypatch):
    # a report that cannot be formed leaves no snapshot behind
    def refuse(record):
        raise ValueError("report refused")

    monkeypatch.setattr(cli.rio, "json_text", refuse)
    argv = ["density", "--expansion", str(pipeline20 / "expansion.csv"), "--times", "0", "-o", str(tmp_path)]
    assert main(argv) == 1
    assert "report refused" in assert_one_usage_error(capsys)
    assert list(tmp_path.iterdir()) == []


def test_density_on_a_far_grid_stays_finite(pipeline20, tmp_path, capsys):
    # r^2 overflows past r = 1.3e154 and inf times a dead amplitude is NaN;
    # (r re)^2 + (r im)^2 stays finite, with no RuntimeWarning on the way
    res = run_cli(
        capsys, "density", "--expansion", str(pipeline20 / "expansion.csv"), "--times", "0",
        "--r-max-factor", "1e300", "-o", str(tmp_path),
    )
    assert res.returncode == 0, res.stderr
    _, r, f = read_density(tmp_path / "density_00.csv")
    assert r[-1] > 1e302 and np.isfinite(f).all()


def _packets_timescales(out, window=(), settings=()):
    # fit -> decompose -> density at nbar 85, in process; the timescales block
    # of packets.json and the expansion it was computed from.  ``settings``
    # go to decompose and density, which read them
    assert main(["fit", "--nbar", "85", "-o", str(out)]) == 0
    assert main(["decompose", "--state", str(out / "state.json"), *window, *settings,
                 "-o", str(out)]) == 0
    assert main(["density", "--expansion", str(out / "expansion.csv"), "--times", "0",
                 *settings, "-o", str(out)]) == 0
    packets = json.loads((out / "packets.json").read_text())
    return packets["timescales"], read_expansion(out / "expansion.csv")[1]


def test_interference_time(tmp_path):
    # t_int = t_rev / deltan with the level spread measured on the expansion
    # that was evolved: deltan = 2.3131 puts it at about 12.25 T_cl
    ts, exp = _packets_timescales(tmp_path / "full")
    assert ts["t_int_au"] == ts["t_rev_au"] / coefficient_spread(exp)[1]
    assert ts["t_int_au"] == pytest.approx(4.727e7, rel=1e-3)
    assert ts["t_int_au"] == pytest.approx(12.25 * ts["T_cl_au"], rel=1e-3)
    assert ts["t_int_ns"] == au_to_ns(ts["t_int_au"])
    # one level has no spread, so no interference time
    ts, exp = _packets_timescales(
        tmp_path / "one", window=["--window", "85", "85"], settings=["--deficit-tol", "0.9"]
    )
    assert coefficient_spread(exp)[1] == 0.0
    assert "t_int_au" not in ts and "t_int_ns" not in ts


def test_density_bad_time_expression(pipeline20, tmp_path, capsys):
    res = run_cli(
        capsys, "density", "--nbar", "20", "--expansion", str(pipeline20 / "expansion.csv"),
        "--times", "0,bogus", "-o", str(tmp_path),
    )
    assert res.returncode == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["density", "--expansion", "{expansion}", "--times", "0", "--prominence", "0"],
         "prominence must be positive"),
        (["density", "--expansion", "{expansion}", "--times", "0", "--r-max-factor", "0"],
         "r_max_factor must be positive"),
        (["decompose", "--state", "{state}", "--deficit-tol", "0"], "deficit_tol must be positive"),
        (["density", "--expansion", "{expansion}", "--times", "0", "--smooth", "-1"],
         "smooth must be non-negative"),
        (["decompose", "--state", "{state}", "--window", "1", "10"],
         "window's lowest level must be >= 2, got 1"),
        (["decompose", "--state", "{state}", "--window", "10", "5"],
         "window's top level must be >= 10, got 5"),
        (["decompose", "--state", "{state}", "--window", "390", "401"],
         "window [390, 401] outside"),
        (["scan", "--expansion", "{expansion}"], "provide either --times or"),
        # a range beside a list would otherwise be dropped without a word
        (["scan", "--expansion", "{expansion}", "--times", "0", "--t-stop", "Tcl"],
         "--times is not allowed with --t-stop"),
        (["scan", "--expansion", "{expansion}", "--times", "0", "--t-start", "5"],
         "--times is not allowed with --t-start"),
        (["scan", "--expansion", "{expansion}", "--times", "0", "--t-steps", "9"],
         "--times is not allowed with --t-steps"),
        (["scan", "--expansion", "{expansion}", "--t-stop", "Tcl", "--t-steps", "1"],
         "t-steps must be >= 2"),
        # the grid extent at nbar 20 is 1600 bohr; a 4-sigma kernel that wide
        # is refused before any file is written
        (["density", "--expansion", "{expansion}", "--times", "0,Tcl", "--smooth", "400"],
         "smoothing width 400 bohr is too wide"),
        (["density", "--expansion", "{expansion}", "--times", "0", "--smooth", "1e5"],
         "smoothing width 100000 bohr is too wide"),
    ],
    ids=["prominence-0", "r-max-factor-0", "deficit-tol-0", "smooth-negative",
         "window-below-2", "window-reversed", "window-above-cap", "scan-without-times",
         "times-with-t-stop", "times-with-t-start",
         "times-with-t-steps", "t-steps-1", "smooth-400", "smooth-1e5"],
)
def test_out_of_range_value_is_one_usage_error(pipeline20, tmp_path, capsys, argv, message):
    paths = {"state": pipeline20 / "state.json", "expansion": pipeline20 / "expansion.csv"}
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in argv]
    assert main([*argv, "--nbar", "20", "-o", str(out)]) == 1
    assert message in assert_one_usage_error(capsys)
    assert not out.exists()


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
