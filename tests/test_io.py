import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydpack.evolution import UncertaintyRecord
from rydpack.io import (
    read_expansion,
    read_state,
    write_density,
    write_expansion,
    write_series,
    write_state,
)
from rydpack.spectral import EigenExpansion
from rydpack.squeezed import RadialSqueezedState

finite = st.floats(allow_nan=False, allow_infinity=False)
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
    parts=st.lists(st.tuples(finite, finite), min_size=0, max_size=30),
    deficit=st.floats(min_value=-1e-9, max_value=1.0, exclude_max=True),
)
def test_expansion_round_trips_bit_exactly(tmp_path_factory, l, offset, parts, deficit):
    n_min = l + 1 + offset
    coeffs = np.array([complex(re, im) for re, im in parts], dtype=complex)
    exp = EigenExpansion(l=l, n_min=n_min, n_max=n_min + len(parts) - 1, coeffs=coeffs, deficit=deficit)
    path = tmp_path_factory.mktemp("expansion") / "expansion.csv"
    write_expansion(path, exp)
    got = read_expansion(path)
    assert (got.l, got.n_min, got.n_max) == (exp.l, exp.n_min, exp.n_max)
    assert np.float64(got.deficit).tobytes() == np.float64(exp.deficit).tobytes()
    assert got.coeffs.dtype == exp.coeffs.dtype
    assert got.coeffs.tobytes() == exp.coeffs.tobytes()


def test_failed_replace_keeps_the_old_artifact(tmp_path, monkeypatch):
    # each writer's second call fails at the replace: the first call's bytes
    # stay, and no temporary file is left beside them
    state = RadialSqueezedState(alpha=3.0, gamma0=0.5, gamma1=0.0, log_norm=0.25)
    exp = EigenExpansion(l=1, n_min=2, n_max=3, coeffs=np.array([0.6, 0.8j]), deficit=0.0)
    record = UncertaintyRecord(1.0, 2.0, 3.0, 6.0, 2.0 / 3.0, 4.0, 3.0, 0.5)
    writers = {
        "state.json": lambda path, k: write_state(path, 20 + k, 1, state),
        "expansion.csv": lambda path, k: write_expansion(path, replace(exp, deficit=0.1 * k)),
        "scan.csv": lambda path, k: write_series(path, [record] * (k + 1), [1.0] * (k + 1)),
        "density_00.csv": lambda path, k: write_density(path, np.arange(3.0), np.ones(3) * k, 0.0),
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
