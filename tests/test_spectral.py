import math

import numpy as np
import pytest

from rydpack import spectral
from rydpack.specfun import NumericalError, hydrogen_radial
from rydpack.spectral import (
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
        EigenExpansion(l=1, n_min=1, n_max=3, coeffs=np.zeros(3))
    with pytest.raises(ValueError):
        EigenExpansion(l=1, n_min=2, n_max=4, coeffs=np.zeros(2))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="coefficient of n=3 is not finite"):
            EigenExpansion(l=1, n_min=2, n_max=3, coeffs=np.array([0.6, bad]))


def test_expansion_weight_is_at_most_one():
    with pytest.raises(ValueError, match="captured weight exceeds 1"):
        EigenExpansion(1, 2, 2, np.array([1.0 + 1e-6]))
    with pytest.raises(ValueError, match="captured weight exceeds 1"):
        EigenExpansion(1, 2, 3, np.array([0.6, 0.8 + 1e-9]))
    # a weight above 1 by rounding is accepted, and its deficit is clamped to 0
    exp = EigenExpansion(1, 2, 3, np.array([0.6, 0.8 + 1e-12]))
    assert exp.weight > 1.0
    assert exp.deficit == 0.0 and math.copysign(1.0, exp.deficit) == 1.0


def test_populations_and_weight_are_computed_once():
    exp = EigenExpansion(l=1, n_min=2, n_max=4, coeffs=np.array([0.6, 0.48j, -0.64]))
    assert np.array_equal(exp.populations, np.abs(exp.coeffs) ** 2)
    assert not exp.populations.flags.writeable
    assert exp.populations is exp.populations
    assert type(exp.weight) is float and exp.weight == float(np.sum(np.abs(exp.coeffs) ** 2))
    assert type(exp.deficit) is float and exp.deficit == max(1.0 - exp.weight, 0.0)
    assert exp.deficit is exp.deficit


def test_project_pure_eigenstate():
    st = pure_p_eigenstate()
    assert project_coefficient(st, 2) == pytest.approx(1.0, abs=1e-11)
    for n in (3, 4, 7):
        assert abs(project_coefficient(st, n)) < 1e-11


def test_project_detects_bad_quadrature():
    # a rule below (k + 1)/2 nodes is not exact for degree k = n - 2; the
    # guard's rule of 8 more nodes is exact at n = 7 and inexact at n = 40
    st = pure_p_eigenstate()
    for n, m in ((7, 2), (40, 2)):
        assert m < (n - 1) / 2
        with pytest.raises(NumericalError, match="did not converge"):
            spectral._project(st, [n], 1, m)


def test_decompose_pure_eigenstate():
    exp = decompose(pure_p_eigenstate())
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


def test_nbar_300_fails_on_first_batch(monkeypatch):
    calls = []
    project = spectral._project
    monkeypatch.setattr(spectral, "_project", lambda *a: calls.append(a[1]) or project(*a))
    state = fit_parameters(QuantumNumbers(300))
    with pytest.raises(NumericalError, match="did not converge: estimated error nan"):
        decompose(state, center=300)
    assert calls == [list(range(296, 305))]


@pytest.mark.parametrize("window", [None, (83, 87)], ids=["grown", "explicit"])
@pytest.mark.parametrize("bad", [np.nan, 1.0 + 1e-6], ids=["nan", "above-one"])
def test_decompose_rejects_a_bad_captured_weight(monkeypatch, state85, window, bad):
    # a projection that slips past its own guard must fail as a numerical
    # error, not as the constructor's ValueError
    def project(state, ns, l, m):
        c = np.zeros(len(ns))
        c[0] = bad
        return c

    monkeypatch.setattr(spectral, "_project", project)
    with pytest.raises(NumericalError, match="captured weight"):
        decompose(state85, window=window, center=85)


@pytest.mark.parametrize(
    "nbar, window",
    [(4, (2, 32)), (5, (2, 9)), (10, (6, 14)), (20, (16, 24)),
     (85, (73, 97)), (150, (138, 162)), (230, (210, 250))],
)
def test_grown_windows(nbar, window):
    exp = decompose(fit_parameters(QuantumNumbers(nbar)), center=nbar)
    assert (exp.n_min, exp.n_max) == window
    assert exp.deficit < spectral.DEFAULT_DEFICIT_TOL


def test_nbar_3_grows_to_the_cap_and_warns():
    with pytest.warns(DeficitToleranceWarning, match="achieved deficit 1.353855e-03"):
        exp = decompose(fit_parameters(QuantumNumbers(3)), center=3)
    assert (exp.n_min, exp.n_max) == (2, spectral.N_CAP)


def coefficient_oracle(state, n, l, dps):
    """c_n from the termwise Laplace transform (Gradshteyn-Ryzhik 7.414.7):
    with L_k^a(x) = sum_j (-1)^j C(k + a, k - j) x^j / j!, each term is
    int r^(beta + j) e^(-sigma r) dr = Gamma(beta + j + 1) / sigma^(beta + j + 1).
    Successive terms are built from their ratio.  The alternating sum cancels
    heavily, hence the working precision."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mpmath.workdps(dps):
        alpha, g0 = mp.mpf(state.alpha), mp.mpf(state.gamma0)
        k, a, beta = n - l - 1, 2 * l + 1, alpha + l + 2
        sigma = mp.mpc(g0 + mp.mpf(1) / n, state.gamma1)
        z = 2 / (n * sigma)
        term = mp.binomial(k + a, k) * mp.gamma(beta + 1)
        terms = [term]
        for j in range(k):
            term *= -z * (k - j) * (beta + j + 1) / ((a + j + 1) * (j + 1))
            terms.append(term)
        total = mp.fsum(terms)
        norm = mp.sqrt((2 * g0) ** (2 * alpha + 3) / mp.gamma(2 * alpha + 3))
        pref = mp.sqrt((mp.mpf(2) / n) ** 3 * mp.factorial(k) / (2 * n * mp.factorial(n + l)))
        c = norm * pref * (mp.mpf(2) / n) ** l * total / sigma ** (beta + 1)
        return complex(c)


def assert_matches_oracle(state, exp, ns):
    for n in ns:
        ref = coefficient_oracle(state, n, exp.l, 200)
        assert abs(ref - coefficient_oracle(state, n, exp.l, 300)) < 1e-15, n
        assert abs(exp.coeffs[n - exp.n_min] - ref) < 1e-12, (n, exp.coeffs[n - exp.n_min], ref)


@pytest.mark.parametrize("nbar, window", [(3, (2, 12)), (8, None), (24, None), (85, None), (150, None), (230, None)])
def test_projection_matches_mpmath_oracle(nbar, window):
    state = fit_parameters(QuantumNumbers(nbar))
    exp = decompose(state, window=window, center=nbar)
    assert_matches_oracle(state, exp, sorted({exp.n_min, nbar, (exp.n_min + exp.n_max) // 2, exp.n_max}))


def test_projection_matches_mpmath_oracle_complex_sigma():
    state = RadialSqueezedState(8.0, 0.5, gamma1=-0.4)
    exp = decompose(state, window=(2, 40))
    assert np.abs(exp.coeffs.imag).max() > 0.1
    assert_matches_oracle(state, exp, exp.ns)


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
    exp = decompose(pure_p_eigenstate())
    r = np.linspace(0.0, 40.0, 101)
    rec = reconstruct(exp, r)
    assert np.allclose(rec.real, hydrogen_radial(2, 1, r), atol=1e-9)
    assert np.allclose(rec.imag, 0.0, atol=1e-12)


def test_reconstruct_empty_window_is_zero():
    empty = EigenExpansion(l=1, n_min=2, n_max=1, coeffs=np.zeros(0, complex))
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
