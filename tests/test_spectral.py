import numpy as np
import pytest

from rydpack.specfun import NumericalError, hydrogen_radial
from rydpack.spectral import (
    DecompositionQuadrature,
    DeficitToleranceWarning,
    EigenExpansion,
    coefficient_spread,
    decompose,
    project_coefficient,
    reconstruct,
)
from rydpack.squeezed import QuantumNumbers, RadialSqueezedState, fit_parameters


def pure_p_eigenstate():
    # alpha = 1, gamma0 = 1/2 reproduces the n=2, l=1 radial eigenfunction exactly
    return RadialSqueezedState(1.0, 0.5)


def test_expansion_validation():
    with pytest.raises(ValueError):
        EigenExpansion(l=1, n_min=1, n_max=3, coeffs=np.zeros(3), deficit=0.0)
    with pytest.raises(ValueError):
        EigenExpansion(l=1, n_min=2, n_max=4, coeffs=np.zeros(2), deficit=0.0)
    with pytest.raises(ValueError):
        EigenExpansion(l=1, n_min=2, n_max=2, coeffs=np.ones(1), deficit=1.5)


def test_project_pure_eigenstate():
    st = pure_p_eigenstate()
    quad = DecompositionQuadrature.build(200.0)
    assert project_coefficient(st, 2, quad=quad) == pytest.approx(1.0, abs=1e-11)
    for n in (3, 4, 7):
        assert abs(project_coefficient(st, n, quad=quad)) < 1e-11


def test_project_detects_bad_quadrature():
    st = pure_p_eigenstate()
    coarse = DecompositionQuadrature.build(200.0, n_nodes=32)
    with pytest.raises(NumericalError):
        project_coefficient(st, 7, quad=coarse)


def test_decompose_pure_eigenstate():
    exp = decompose(pure_p_eigenstate(), quad=DecompositionQuadrature.build(200.0))
    p = np.abs(exp.coeffs) ** 2
    n_at_max = exp.ns[np.argmax(p)]
    assert n_at_max == 2
    assert p.max() == pytest.approx(1.0, abs=1e-10)
    assert exp.deficit < 1e-9


def test_nan_projection_raises():
    # at nbar 300 the Laguerre recurrence overflows and the projections are NaN
    state = fit_parameters(QuantumNumbers(300))
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        decompose(state, center=300)
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        project_coefficient(state, 300)


def test_decompose_fitted_state(state85, exp85):
    assert exp85.deficit < 1e-4
    p = np.abs(exp85.coeffs) ** 2
    assert abs(int(exp85.ns[np.argmax(p)]) - 85) <= 2
    # packet has no low-n support
    assert abs(project_coefficient(state85, 2)) ** 2 < 1e-12
    # weight + deficit is exactly one by construction
    assert exp85.weight + exp85.deficit == pytest.approx(1.0, abs=1e-15)


def test_coefficients_real_for_real_parameters(exp85):
    mags = np.abs(exp85.coeffs)
    assert np.all(np.abs(exp85.coeffs.imag) <= 1e-10 * mags + 1e-14)


def test_projection_against_dense_trapezoid(state85):
    # independent oracle: trapezoidal rule on a dense uniform grid
    r = np.linspace(1e-3, 4.0 * 85**2, 300_001)
    psi = np.exp(state85.log_envelope(r))
    for n in (83, 85, 88):
        oracle = np.trapezoid(hydrogen_radial(n, 1, r) * psi * r**2, r)
        assert project_coefficient(state85, n) == pytest.approx(oracle, abs=2e-8)


def test_decompose_window_misses_packet(state85):
    with pytest.warns(DeficitToleranceWarning):
        exp = decompose(state85, window=None, center=85, n_cap=20)
    assert exp.deficit > 0.99
    low = decompose(state85, window=(2, 10))
    assert low.deficit > 0.999


def test_window_extension_monotonicity(state85):
    inner = decompose(state85, window=(78, 92))
    outer = decompose(state85, window=(70, 100))
    assert outer.deficit <= inner.deficit


def test_reconstruct_pure_eigenstate():
    exp = decompose(pure_p_eigenstate(), quad=DecompositionQuadrature.build(200.0))
    r = np.linspace(0.0, 40.0, 101)
    rec = reconstruct(exp, r)
    assert np.allclose(rec.real, hydrogen_radial(2, 1, r), atol=1e-9)
    assert np.allclose(rec.imag, 0.0, atol=1e-12)


def test_reconstruct_empty_window_is_zero():
    empty = EigenExpansion(l=1, n_min=2, n_max=1, coeffs=np.zeros(0, complex), deficit=1.0)
    assert np.all(reconstruct(empty, np.linspace(0, 10, 5)) == 0.0)


def test_parseval_residual(state85, exp85):
    # L2 norm of (psi - reconstruction) equals the deficit within quadrature error
    from rydpack.specfun import radial_quadrature

    x, w = radial_quadrature(4.0 * 85**2, 4096)
    psi = np.exp(state85.log_envelope(x))
    resid = psi - reconstruct(exp85, x)
    err = np.dot(w, np.abs(resid) ** 2 * x**2)
    assert err == pytest.approx(exp85.deficit, abs=1e-6)


def test_coefficient_spread(exp85):
    mean, rms = coefficient_spread(exp85)
    assert mean == pytest.approx(85.0, abs=0.5)
    assert 1.8 < rms < 2.8
