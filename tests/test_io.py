import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydpack import io
from rydpack.io import (
    read_density,
    read_expansion,
    read_state,
    write_density,
    write_expansion,
    write_series,
    write_state,
)
from rydpack.spectral import EigenExpansion, UncertaintyRecord
from rydpack.squeezed import L, QuantumNumbers, RadialSqueezedState, fit_parameters
from rydpack.units import au_to_ns

finite = st.floats(allow_nan=False, allow_infinity=False)
# up to 30 coefficients of modulus at most sqrt(2)/8 keep sum |c_n|^2 below 1
small = st.floats(min_value=-0.125, max_value=0.125)


@settings(max_examples=40, deadline=None)
@given(nbar=st.integers(3, 10**100))
def test_state_round_trips_bit_exactly(tmp_path_factory, nbar):
    # a state file is a fit artifact: its alpha and gamma0 are those of its nbar
    state = fit_parameters(QuantumNumbers(nbar))
    path = tmp_path_factory.mktemp("state") / "state.json"
    write_state(path, nbar, state)
    stored = json.loads(path.read_text())
    assert np.float64(stored["log_norm"]).tobytes() == np.float64(state.log_norm).tobytes()
    # the paper's momentum phase, which <p_r> = 0 fixes, is stored as 0.0
    assert np.float64(stored["gamma1"]).tobytes() == np.float64(0.0).tobytes()
    got_nbar, got = read_state(path)
    assert got_nbar == nbar
    for name in ("alpha", "gamma0", "log_norm"):
        # same bits, so -0.0 and the subnormals come back as written
        assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(state, name)).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    nbar=st.integers(2, 400),
    offset=st.integers(0, 300),
    # an expansion always carries weight: some c_n^2 must not underflow
    parts=st.lists(small, min_size=1, max_size=30).filter(lambda parts: any(x * x > 0.0 for x in parts)),
)
def test_expansion_round_trips_bit_exactly(tmp_path_factory, nbar, offset, parts):
    exp = EigenExpansion(n_min=L + 1 + offset, coeffs=np.array(parts, dtype=float))
    path = tmp_path_factory.mktemp("expansion") / "expansion.csv"
    write_expansion(path, nbar, exp)
    got_nbar, got = read_expansion(path)
    assert got_nbar == nbar
    assert (got.n_min, got.n_max) == (exp.n_min, exp.n_max)
    lines = path.read_text().splitlines()
    assert lines[0] == "l,nbar,n_min,n_max,deficit"
    header = lines[1].split(",")
    assert header[:2] == [str(L), str(nbar)]
    header_deficit = float(header[4])
    assert np.float64(header_deficit).tobytes() == np.float64(exp.deficit).tobytes()
    assert np.float64(got.deficit).tobytes() == np.float64(exp.deficit).tobytes()
    assert got.coeffs.dtype == exp.coeffs.dtype == np.float64
    assert got.coeffs.tobytes() == exp.coeffs.tobytes()
    # the im column stays, always 0
    assert lines[2] == "n,re,im" and all(line.endswith(",0") for line in lines[3:])


def test_state_file_holds_the_fit_of_its_nbar(tmp_path):
    # read_state gives back fit_parameters(QuantumNumbers(nbar)); an edited
    # nbar, a hand-made state and an nbar with no fit are refused by name
    path = tmp_path / "state.json"
    state = fit_parameters(QuantumNumbers(20))
    write_state(path, 20, state)
    assert read_state(path) == (20, state)
    for nbar, st_, message in [
        (85, state, "alpha .* is not the fit of nbar=85"),
        (20, RadialSqueezedState(2.0, 0.5), "alpha 2.0 is not the fit of nbar=20"),
        (2, RadialSqueezedState(1.0, 0.5), "no solution with alpha > 0 for nbar=2"),
    ]:
        write_state(path, nbar, st_)
        with pytest.raises(ValueError, match=message) as info:
            read_state(path)
        assert str(path) in str(info.value)


def test_state_file_of_another_l_is_refused(tmp_path):
    path = tmp_path / "state.json"
    write_state(path, 20, RadialSqueezedState(alpha=3.0, gamma0=0.5))
    assert json.loads(path.read_text())["l"] == L
    path.write_text(path.read_text().replace('"l": 1', '"l": 0'))
    with pytest.raises(ValueError, match="l=0") as info:
        read_state(path)
    assert str(path) in str(info.value)


def test_expansion_file_of_another_l_is_refused(tmp_path):
    path = tmp_path / "expansion.csv"
    write_expansion(path, 2, EigenExpansion(n_min=2, coeffs=np.array([0.6, 0.0])))
    lines = path.read_text().splitlines()
    assert lines[1].startswith("1,")
    path.write_text("\n".join([lines[0], "0," + lines[1][2:], *lines[2:]]) + "\n")
    with pytest.raises(ValueError, match="l=0") as info:
        read_expansion(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("im", ["1e-3", "-5e-324", "nan", "inf"])
def test_expansion_row_with_an_imaginary_part_is_refused(tmp_path, im):
    # an expansion is real; "-0" and "0.0" are the same zero and are read back
    path = tmp_path / "expansion.csv"
    write_expansion(path, 2, EigenExpansion(n_min=2, coeffs=np.array([0.6, -0.8])))
    lines = path.read_text().splitlines()
    assert lines[4] == "3,-0.80000000000000004,0"
    for zero in ("-0", "0.0"):
        path.write_text("\n".join([*lines[:4], lines[4][:-1] + zero]) + "\n")
        assert read_expansion(path)[1].coeffs.tobytes() == np.array([0.6, -0.8]).tobytes()
    path.write_text("\n".join([*lines[:4], lines[4][:-1] + im]) + "\n")
    with pytest.raises(ValueError, match="coefficient of n=3 is not real") as info:
        read_expansion(path)
    assert str(path) in str(info.value)


def test_expansion_header_without_nbar_is_refused(tmp_path):
    # the header of an expansion written before nbar was recorded in it
    path = tmp_path / "expansion.csv"
    write_expansion(path, 2, EigenExpansion(n_min=2, coeffs=np.array([0.6, 0.0])))
    lines = path.read_text().splitlines()
    lines[:2] = ["l,n_min,n_max,deficit", lines[1].replace("1,2,", "1,", 1)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="not an expansion file with the header l,nbar,n_min") as info:
        read_expansion(path)
    assert str(path) in str(info.value)


def test_expansion_file_of_zero_weight_is_refused(tmp_path):
    # an expansion always carries weight, so a file whose coefficients are
    # all 0 (its header deficit 1) is refused by name when it is read, not by
    # a later deficit check
    path = tmp_path / "expansion.csv"
    write_expansion(path, 20, EigenExpansion(n_min=2, coeffs=np.array([0.6, -0.8])))
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",1"
    lines[3:] = ["2,0,0", "3,1e-200,0"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"captured weight 0\.0 lies outside \(0, 1 \+ 1e-09\]") as info:
        read_expansion(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("nbar", [1, 0, -5])
def test_nbar_below_two_is_refused(tmp_path, nbar):
    # the QuantumNumbers rule: both readers name the file
    state_path, expansion_path = tmp_path / "state.json", tmp_path / "expansion.csv"
    write_state(state_path, nbar, RadialSqueezedState(alpha=3.0, gamma0=0.5))
    write_expansion(expansion_path, nbar, EigenExpansion(n_min=2, coeffs=np.array([0.6, 0.0])))
    for reader, path in ((read_state, state_path), (read_expansion, expansion_path)):
        with pytest.raises(ValueError, match=f"nbar must be >= 2, got {nbar}") as info:
            reader(path)
        assert str(path) in str(info.value)


DENSITY_HEADER = "# t_au=0 t_ns=0\nr,f\n"


@pytest.mark.parametrize(
    "reader, edit, message",
    [
        (read_state, lambda path: "[]\n", "not a state file"),
        (read_state, lambda path: path.read_text(), "not a state file: Expecting value"),
        (read_expansion, lambda path: path.read_text().replace("deficit", "weight"),
         "not an expansion file"),
        # the window becomes [2, 4] and the row of level 3 that of level 4
        (read_expansion,
         lambda path: path.read_text().replace("\n1,2,2,3,", "\n1,2,2,4,").replace("\n3,", "\n4,"),
         "coefficient rows do not match the declared window"),
        (read_expansion, lambda path: path.read_text().replace("\n1,2,2,3,", "\n1,2,"),
         "header row must hold the five fields"),
        (read_expansion, lambda path: path.read_text().replace("\n3,0,", "\n3,x,"),
         "could not convert"),
        (read_density, lambda path: path.read_text(), "not a density file"),
        (read_density, lambda path: DENSITY_HEADER, "holds no rows"),
        (read_density, lambda path: DENSITY_HEADER + "0,1\n1\n", "two fields r,f"),
        (read_density, lambda path: DENSITY_HEADER + "1,2,3\n", "two fields r,f"),
        (read_density, lambda path: DENSITY_HEADER + "0,x\n", "could not convert"),
        (read_state, lambda path: b"\xff\xfe", "not a state file: 'utf-8' codec"),
        (read_expansion, lambda path: b"\xff\xfe", "not an expansion file: 'utf-8' codec"),
        (read_density, lambda path: b"\xff\xfe", "not a density file: 'utf-8' codec"),
        (read_state, lambda path: "[" * 100_000, "not a state file: maximum recursion depth"),
        # levels 400 and 401 with the same coefficients, so the deficit holds
        (read_expansion,
         lambda path: path.read_text().replace("\n1,2,2,3,", "\n1,2,400,401,")
         .replace("\n2,", "\n400,").replace("\n3,", "\n401,"),
         "level 401 lies above N_CAP = 400"),
    ],
    ids=[
        "state-list",
        "state-not-json",
        "expansion-header",
        "expansion-skips-a-level",
        "expansion-header-of-three-fields",
        "expansion-field-not-a-number",
        "density-of-an-expansion",
        "density-without-rows",
        "density-ragged-row",
        "density-row-of-three",
        "density-field-not-a-number",
        "state-not-utf8",
        "expansion-not-utf8",
        "density-not-utf8",
        "state-nested-too-deep",
        "expansion-above-n-cap",
    ],
)
def test_reader_refuses_a_file_of_another_kind(tmp_path, reader, edit, message):
    # the fixture is a valid nbar-2 expansion for levels 2 and 3, then edited
    path = tmp_path / "artifact"
    write_expansion(path, 2, EigenExpansion(n_min=2, coeffs=np.array([0.6, 0.0])))
    content = edit(path)
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    with pytest.raises(ValueError, match=message) as info:
        reader(path)
    assert str(path) in str(info.value)


# zero of both signs, the smallest subnormal, 1e16 and 1e17 on either side of
# the switch of %.17g to an exponent, and the largest double
SPECIAL = [0.0, -0.0, 5e-324, 1e16, 1e17, 1.7976931348623157e308]


def _density_text(r, f, t_au):
    # the per-row text the row template must reproduce byte for byte
    fmt = lambda x: format(x, ".17g")
    lines = [f"# t_au={fmt(t_au)} t_ns={fmt(au_to_ns(t_au))}", "r,f"]
    lines.extend(f"{fmt(ri)},{fmt(fi)}" for ri, fi in zip(r, f))
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.tuples(finite, finite), min_size=0, max_size=40),
    times=st.lists(finite, min_size=1, max_size=3),
)
def test_density_round_trips_bit_exactly(tmp_path_factory, rows, times):
    r = np.array(SPECIAL + [ri for ri, _ in rows])
    densities = [np.array(SPECIAL[::-1] + [fi * (k + 1) for _, fi in rows]) for k in range(len(times))]
    out = tmp_path_factory.mktemp("density")
    paths = [out / f"density_{k:02d}.csv" for k in range(len(times))]
    write_density(paths, r, densities, times)
    for path, f, t_au in zip(paths, densities, times):
        assert path.read_text() == _density_text(r.tolist(), f.tolist(), t_au)
        got_t, got_r, got_f = read_density(path)
        assert np.float64(got_t).tobytes() == np.float64(t_au).tobytes()
        assert got_r.tobytes() == r.tobytes()
        assert got_f.tobytes() == f.tobytes()


def test_density_longer_than_a_row_block_keeps_its_bytes(tmp_path):
    # 2500 rows fill two blocks of 1024 and a short third; the special values
    # open the r column, and each snapshot holds them from row 0, across the
    # first block boundary and from row 1024.  Each file's text must be the
    # per-row reference byte for byte
    assert 2 * io._ROW_BLOCK < 2500 < 3 * io._ROW_BLOCK
    r = np.concatenate([SPECIAL, np.linspace(0.5, 3e4, 2500 - len(SPECIAL))])
    densities = [np.roll(r, k) for k in (0, 1021, 1024)]
    times = [0.0, -0.0, 1.5e6]
    paths = [tmp_path / f"density_{k:02d}.csv" for k in range(len(times))]
    write_density(paths, r, densities, times)
    for path, f, t_au in zip(paths, densities, times):
        assert path.read_bytes() == _density_text(r.tolist(), f.tolist(), t_au).encode()


def test_failed_replace_keeps_the_old_artifact(tmp_path, monkeypatch):
    # each writer's second call fails at the replace: the first call's bytes
    # stay, and no temporary file is left beside them
    state = RadialSqueezedState(alpha=3.0, gamma0=0.5)
    exp = EigenExpansion(n_min=2, coeffs=np.array([0.6, 0.0]))
    record = UncertaintyRecord(1.0, 2.0, 3.0, 4.0, 0.5)
    writers = {
        "state.json": lambda path, k: write_state(path, 20 + k, state),
        "expansion.csv": lambda path, k: write_expansion(path, 20, replace(exp, coeffs=exp.coeffs / (k + 1))),
        "scan.csv": lambda path, k: write_series(path, [([record] * (k + 1), [1.0] * (k + 1))]),
        "density_00.csv": lambda path, k: write_density([path], np.arange(3.0), [np.ones(3) * k], [0.0]),
    }
    for name, write in writers.items():
        write(tmp_path / name, 0)
    before = {name: (tmp_path / name).read_bytes() for name in writers}

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    for name, write in writers.items():
        with pytest.raises(OSError, match="replace refused"):
            write(tmp_path / name, 1)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

