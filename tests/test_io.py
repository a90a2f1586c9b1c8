import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rydpack.io import read_expansion, read_state, write_expansion, write_state
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
