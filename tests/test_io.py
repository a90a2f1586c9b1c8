import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydpack.evolution import UncertaintyRecord
from rydpack.io import (
    read_density,
    read_expansion,
    read_state,
    write_density,
    write_expansion,
    write_series,
    write_state,
)
from rydpack.spectral import EigenExpansion
from rydpack.squeezed import RadialSqueezedState
from rydpack.units import au_to_ns

finite = st.floats(allow_nan=False, allow_infinity=False)
# up to 30 coefficients of modulus at most sqrt(2)/8 keep sum |c_n|^2 below 1
small = st.floats(min_value=-0.125, max_value=0.125)
positive = st.floats(min_value=5e-324, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    nbar=st.integers(2, 400),
    l=st.integers(0, 5),
    alpha=positive,
    gamma0=positive,
    gamma1=finite,
    log_norm=finite,
)
def test_state_round_trips_bit_exactly(tmp_path_factory, nbar, l, alpha, gamma0, gamma1, log_norm):
    state = RadialSqueezedState(alpha=alpha, gamma0=gamma0, gamma1=gamma1, log_norm=log_norm)
    path = tmp_path_factory.mktemp("state") / "state.json"
    write_state(path, nbar, l, state)
    got_nbar, got_l, got = read_state(path)
    assert (got_nbar, got_l) == (nbar, l)
    for name in ("alpha", "gamma0", "gamma1", "log_norm"):
        # same bits, so -0.0 and the subnormals come back as written
        assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(state, name)).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    l=st.integers(0, 5),
    offset=st.integers(0, 300),
    parts=st.lists(st.tuples(small, small), min_size=0, max_size=30),
)
def test_expansion_round_trips_bit_exactly(tmp_path_factory, l, offset, parts):
    n_min = l + 1 + offset
    coeffs = np.array([complex(re, im) for re, im in parts], dtype=complex)
    exp = EigenExpansion(l=l, n_min=n_min, n_max=n_min + len(parts) - 1, coeffs=coeffs)
    path = tmp_path_factory.mktemp("expansion") / "expansion.csv"
    write_expansion(path, exp)
    got = read_expansion(path)
    assert (got.l, got.n_min, got.n_max) == (exp.l, exp.n_min, exp.n_max)
    header_deficit = float(path.read_text().splitlines()[1].split(",")[3])
    assert np.float64(header_deficit).tobytes() == np.float64(exp.deficit).tobytes()
    assert np.float64(got.deficit).tobytes() == np.float64(exp.deficit).tobytes()
    assert got.coeffs.dtype == exp.coeffs.dtype
    assert got.coeffs.tobytes() == exp.coeffs.tobytes()


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


def test_failed_replace_keeps_the_old_artifact(tmp_path, monkeypatch):
    # each writer's second call fails at the replace: the first call's bytes
    # stay, and no temporary file is left beside them
    state = RadialSqueezedState(alpha=3.0, gamma0=0.5, gamma1=0.0, log_norm=0.25)
    exp = EigenExpansion(l=1, n_min=2, n_max=3, coeffs=np.array([0.6, 0.8j]))
    record = UncertaintyRecord(1.0, 2.0, 3.0, 6.0, 2.0 / 3.0, 4.0, 3.0, 0.5)
    writers = {
        "state.json": lambda path, k: write_state(path, 20 + k, 1, state),
        "expansion.csv": lambda path, k: write_expansion(path, replace(exp, coeffs=exp.coeffs / (k + 1))),
        "scan.csv": lambda path, k: write_series(path, [record] * (k + 1), [1.0] * (k + 1)),
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
