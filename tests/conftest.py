import numpy as np
import pytest

import rydpack as rp
from rydpack import evolution

NBAR = 85


@pytest.fixture(scope="session")
def q85():
    return rp.QuantumNumbers(NBAR)


@pytest.fixture(scope="session")
def state85(q85):
    return rp.fit_parameters(q85)


@pytest.fixture(scope="session")
def exp85(state85):
    return rp.decompose(state85)


@pytest.fixture(scope="session")
def ts85(q85):
    return rp.timescales(q85)


@pytest.fixture(scope="session")
def grid85():
    return rp.RadialGrid.uniform(4 * NBAR**2, 16000)


@pytest.fixture(scope="session")
def basis85(exp85, grid85):
    return rp.BasisTable.for_expansion(exp85, grid85)


@pytest.fixture(scope="session")
def scan85(exp85, grid85, basis85, ts85):
    """Uncertainty records over the first orbit, spaced T_cl/100."""
    times = np.linspace(0.0, ts85.T_cl_au, 101)
    return times, [rp.observables(exp85, t, grid85, basis85) for t in times]


@pytest.fixture
def coarse_quadrature(monkeypatch):
    """Build the moment matrices on a 32-node rule, far too coarse to pass the
    norm guard; the matrix cache is emptied before and after."""
    fine = evolution.radial_quadrature
    monkeypatch.setattr(evolution, "radial_quadrature", lambda r_max, n_nodes: fine(r_max, 32))
    evolution._moment_matrices.cache_clear()
    yield
    evolution._moment_matrices.cache_clear()
