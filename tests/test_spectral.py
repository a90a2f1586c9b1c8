import contextlib
import math
import warnings

import numpy as np
import pytest

from rydpack import specfun, spectral
from rydpack.specfun import NumericalError, hydrogen_energy, hydrogen_radial
from rydpack.spectral import (
    DeficitToleranceWarning,
    EigenExpansion,
    coefficient_spread,
    decompose,
)
from rydpack.squeezed import L, QuantumNumbers, RadialSqueezedState, fit_parameters


def pure_p_eigenstate():
    # alpha = 1, gamma0 = 1/2 reproduces the n=2, l=1 radial eigenfunction exactly
    return RadialSqueezedState(1.0, 0.5)


def test_expansion_validation():
    with pytest.raises(ValueError):
        EigenExpansion(n_min=1, coeffs=np.zeros(3))
    with pytest.raises(ValueError, match="1-d array"):
        EigenExpansion(n_min=2, coeffs=np.zeros((2, 1)))
    for bad in (np.nan, np.inf, complex(np.inf, 0.0)):
        with pytest.raises(ValueError, match="coefficient of n=3 is not finite"):
            EigenExpansion(n_min=2, coeffs=np.array([0.6, bad]))
    # the coefficients are real: an imaginary part other than 0 is refused
    for bad in (0.48j, complex(0.0, -np.inf), complex(0.6, np.nan), complex(0.6, 5e-324)):
        with pytest.raises(ValueError, match="coefficient of n=3 is not real"):
            EigenExpansion(n_min=2, coeffs=np.array([0.6, bad]))


def test_expansion_coefficients_are_real_float64():
    # a complex input whose imaginary parts are all 0, -0.0 included, keeps
    # its real parts bit for bit, in one contiguous float64 array
    parts = np.array([0.6, -0.0, 5e-324, -0.64])
    for given in (parts.tolist(), parts.astype(complex), [complex(x, -0.0) for x in parts]):
        exp = EigenExpansion(2, given)
        assert exp.coeffs.dtype == np.float64 and exp.coeffs.flags.c_contiguous
        assert exp.coeffs.tobytes() == parts.tobytes()


@pytest.mark.parametrize("size", [0, 1, 3])
def test_expansion_window_top_comes_from_the_coefficients(size):
    # size + 1 coefficients, since an expansion of none has no weight
    exp = EigenExpansion(2, np.full(size + 1, 0.5))
    assert exp.n_max == 2 + size
    assert np.array_equal(exp.ns, np.arange(2, 3 + size))


def test_expansion_weight_is_at_most_one():
    with pytest.raises(ValueError, match=r"captured weight 1\.000002000001 lies outside \(0, 1 \+ 1e-09\]"):
        EigenExpansion(2, np.array([1.0 + 1e-6]))
    with pytest.raises(ValueError, match="captured weight .* lies outside"):
        EigenExpansion(2, np.array([0.6, 0.8 + 1e-9]))
    # a weight above 1 by rounding is accepted, and its deficit is clamped to 0
    exp = EigenExpansion(2, np.array([0.6, 0.8 + 1e-12]))
    assert exp.weight > 1.0
    assert exp.deficit == 0.0 and math.copysign(1.0, exp.deficit) == 1.0


@pytest.mark.parametrize(
    "coeffs",
    [[], np.zeros(3), np.zeros(0, complex), [5e-324, -1e-200]],
    ids=["empty", "zeros", "empty-complex", "underflow"],
)
def test_expansion_weight_is_positive(coeffs):
    # an expansion always carries weight, so no routine meets a zero norm: no
    # coefficients, all zeros, or squares that underflow are refused when it
    # is built
    with pytest.raises(ValueError, match=r"captured weight 0\.0 lies outside \(0, 1 \+ 1e-09\]"):
        EigenExpansion(2, coeffs)


def test_populations_and_weight_are_computed_once():
    exp = EigenExpansion(n_min=2, coeffs=np.array([0.6, 0.48, -0.64]))
    assert np.array_equal(exp.populations, np.abs(exp.coeffs) ** 2)
    assert not exp.populations.flags.writeable
    assert exp.populations is exp.populations
    assert type(exp.weight) is float and exp.weight == float(np.sum(np.abs(exp.coeffs) ** 2))
    assert type(exp.deficit) is float and exp.deficit == max(1.0 - exp.weight, 0.0)
    assert exp.deficit is exp.deficit


def project_level(state, n):
    """c_n on the Gauss-Laguerre rule ``decompose`` takes for a batch whose
    largest level is n, guarded as it guards one."""
    return float(spectral._project(state, [n], spectral._rule_size(n - L - 1))[0])


def amplitude(exp, r):
    """sum_n c_n R_nl(r) on the 1-d radii r, block by block as density
    snapshots take it (``spectral._amplitude_blocks``)."""
    out = np.empty(r.size)
    for block, _, (re, im) in spectral._amplitude_blocks(exp.ns, [exp.coeffs], r):
        assert not im.any()
        out[block] = re
    return out


def test_project_pure_eigenstate():
    st = pure_p_eigenstate()
    assert project_level(st, 2) == pytest.approx(1.0, abs=1e-11)
    for n in (3, 4, 7):
        assert abs(project_level(st, n)) < 1e-11


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda state: hydrogen_energy(10**400), "principal quantum number"),
        (lambda state: QuantumNumbers(-(10**400)), "nbar"),
        (lambda state: decompose(state, center=20.5), "center"),
        (lambda state: decompose(state, window=(16.7, 24.2)), "window's lowest level"),
        (lambda state: decompose(state, window=(16, 24.2)), "window's top level"),
        (lambda state: EigenExpansion(2.5, [0.5, 0.5]), "n_min"),
    ],
    ids=["energy-401-digits", "nbar-401-digits", "center", "window-low",
         "window-top", "n_min"],
)
def test_every_whole_number_takes_one_rule(call, name, state85):
    # specfun._whole: an int beyond float range is refused by name, not by an
    # OverflowError, and a fractional level, center or window end is refused,
    # not truncated or taken as a level of its own
    with pytest.raises(ValueError, match=f"^{name} must (be a whole number|lie within float range)"):
        call(state85)


def test_project_detects_bad_quadrature():
    # a rule below (k + 1)/2 nodes is not exact for degree k = n - 2; the
    # guard's rule of 8 more nodes is exact at n = 7 and inexact at n = 40
    st = pure_p_eigenstate()
    for n, m in ((7, 2), (40, 2)):
        assert m < (n - 1) / 2
        with pytest.raises(NumericalError, match="did not converge"):
            spectral._project(st, [n], m)


def test_projection_guard_pins_its_tolerance_and_its_rule():
    # nbar 20's starting window [16, 24] has k_max = 22, so a rule is exact
    # from 12 nodes on (2M - 1 >= 22).  On 11 nodes the guard's rule of 19 is
    # exact and sees a gap of 2.9e-6, which a tolerance of 1e-5 would pass.
    # On 8 nodes the guard's rule of 16 is exact, so it reports the gap to
    # the exact value; a guard of 2 more nodes, 10, is not exact and reports
    # 1.465e-01 (on 9 nodes either guard reports 1.964e-02 to four digits)
    state, ns = fit_parameters(QuantumNumbers(20)), list(range(16, 25))
    for m, err in ((11, r"2\.901e-06"), (8, r"1\.472e-01")):
        with pytest.raises(NumericalError, match=f"estimated error {err} > 1e-09$"):
            spectral._project(state, ns, m)
    assert np.isfinite(spectral._project(state, ns, 12)).all()


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
        project_level(state, 300)


def test_nbar_300_fails_on_first_batch(monkeypatch):
    calls = []
    project = spectral._project
    monkeypatch.setattr(spectral, "_project", lambda *a: calls.append(a[1]) or project(*a))
    state = fit_parameters(QuantumNumbers(300))
    with pytest.raises(NumericalError, match="did not converge: estimated error nan"):
        decompose(state, center=300)
    assert calls == [list(range(296, 305))]


def test_decompose_has_the_bits_of_one_rule_at_a_time(monkeypatch, per_rule_project):
    # both rules of a batch share one Laguerre recurrence for their weights
    # and one for the projection; each coefficient keeps the bits of a route
    # that builds and steps each rule alone, on grown and explicit windows
    # and for a window's ends projected one level at a time, and nbar 300
    # fails as it did
    states = {nbar: fit_parameters(QuantumNumbers(nbar)) for nbar in (3, 4, 5, 10, 20, 85, 150, 230, 285, 288)}

    def run():
        out = []
        for nbar, state in states.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeficitToleranceWarning)  # nbar 3's continuum
                grown = decompose(state, center=nbar)
                explicit = decompose(state, window=(grown.n_min, grown.n_max))
            ends = np.array([project_level(state, n) for n in (grown.n_min, grown.n_max)])
            out.append((nbar, grown.n_min, grown.coeffs.tobytes(), explicit.coeffs.tobytes(), ends.tobytes()))
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as failed:
            decompose(fit_parameters(QuantumNumbers(300)), center=300)
        return out, str(failed.value)

    batched = run()
    monkeypatch.setattr(spectral, "_project", per_rule_project)
    assert run() == batched
    assert "did not converge: estimated error nan" in batched[1]


def test_a_batch_steps_two_laguerre_recurrences(monkeypatch):
    # one for both rules' weights (specfun) and one for both rules'
    # projections (spectral), where each rule used to step its own two
    calls = []
    for module in (specfun, spectral):
        rows = module._laguerre_rows
        monkeypatch.setattr(
            module, "_laguerre_rows",
            lambda *args, name=module.__name__, rows=rows: calls.append(name) or rows(*args),
        )
    batches = []
    project = spectral._project
    monkeypatch.setattr(spectral, "_project", lambda *a: batches.append(a[1]) or project(*a))
    decompose(fit_parameters(QuantumNumbers(4)), center=4)  # grows [2, 8] to [2, 32]
    assert len(batches) == 4
    assert calls == ["rydpack.specfun", "rydpack.spectral"] * len(batches)
    calls.clear()
    project_level(fit_parameters(QuantumNumbers(20)), 20)
    assert calls == ["rydpack.specfun", "rydpack.spectral"]


@pytest.mark.parametrize("window", [None, (83, 87)], ids=["grown", "explicit"])
@pytest.mark.parametrize("bad", [np.nan, 1.0 + 1e-6, 0.0], ids=["nan", "above-one", "zero"])
def test_decompose_rejects_a_bad_captured_weight(monkeypatch, state85, window, bad):
    # a projection that slips past its own guard, or captures no weight at
    # all, must fail as a numerical error naming the window, not as the
    # constructor's ValueError
    def project(state, ns, m):
        c = np.zeros(len(ns))
        c[0] = bad
        return c

    monkeypatch.setattr(spectral, "_project", project)
    with pytest.raises(NumericalError, match=r"window \[(83, 87|81, 89)\] captured weight"):
        decompose(state85, window=window, center=85)


def test_decompose_over_a_window_whose_weight_underflows_is_a_numerical_error():
    # at nbar 285 every c_n^2 of [2, 5] underflows to 0: an explicit window
    # may leave the state's center out, but it must capture some weight
    with pytest.raises(NumericalError, match=r"window \[2, 5\] captured weight 0\.0, outside \(0, 1 \+ 1e-09\]"):
        decompose(fit_parameters(QuantumNumbers(285)), window=(2, 5))


@pytest.mark.parametrize(
    "nbar, window",
    [(4, (2, 32)), (5, (2, 9)), (10, (6, 14)), (20, (16, 24)),
     (85, (73, 97)), (150, (138, 162)), (230, (210, 250))],
)
def test_grown_windows(nbar, window):
    exp = decompose(fit_parameters(QuantumNumbers(nbar)), center=nbar)
    assert (exp.n_min, exp.n_max) == window
    assert exp.deficit < spectral.DEFAULT_DEFICIT_TOL


@pytest.mark.parametrize("window", [None, (16, 24)], ids=["grown", "explicit"])
@pytest.mark.parametrize("tol", [0.0, -1e-4, 1.0, 1.5, math.nan, math.inf])
def test_decompose_refuses_a_deficit_tol_outside_0_1(monkeypatch, window, tol):
    # the CLI's range; it is checked before anything is projected (a NaN
    # tolerance used to grow the window to [2, 400] and then warn)
    def refuse(*args):
        raise AssertionError("projected before the tolerance was checked")

    state = fit_parameters(QuantumNumbers(20))
    monkeypatch.setattr(spectral, "_project", refuse)
    with pytest.raises(ValueError, match=r"deficit_tol must lie in \(0, 1\)"):
        decompose(state, window=window, deficit_tol=tol)


def test_default_center_of_a_fit_is_its_nbar():
    # so a caller holding a fitted state need not restate nbar as the center
    for nbar in range(3, spectral.N_CAP + 1):
        assert spectral._default_center(fit_parameters(QuantumNumbers(nbar))) == nbar, nbar


def test_nbar_3_stops_growing_on_the_tail_law_and_warns():
    # about 0.135% of nbar 3 is continuum, so 1e-4 is out of reach; the n^-3
    # law stops the window well below N_CAP with nearly the capped deficit
    state = fit_parameters(QuantumNumbers(3))
    with pytest.warns(DeficitToleranceWarning, match="estimated continuum weight 1.3535"):
        exp = decompose(state, center=3)
    assert exp.n_min == 2 and exp.n_max <= 150
    with pytest.warns(DeficitToleranceWarning, match=r"above tolerance 0.0001 for window \[2,400\]"):
        capped = decompose(state, window=(2, spectral.N_CAP))
    assert abs(exp.deficit - capped.deficit) <= 1e-5


def test_window_that_meets_the_cap_first_warns_at_the_cap(monkeypatch):
    # at n_max = 60 the tail law still expects more bound weight above
    monkeypatch.setattr(spectral, "N_CAP", 60)
    with pytest.warns(DeficitToleranceWarning, match=r"unreachable within \[2, 60\]"):
        exp = decompose(fit_parameters(QuantumNumbers(3)), center=3)
    assert (exp.n_min, exp.n_max) == (2, 60)


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
        sigma = g0 + mp.mpf(1) / n
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
        ref = coefficient_oracle(state, n, L, 200)
        assert abs(ref - coefficient_oracle(state, n, L, 300)) < 1e-15, n
        assert abs(exp.coeffs[n - exp.n_min] - ref) < 1e-12, (n, exp.coeffs[n - exp.n_min], ref)


@pytest.mark.parametrize("nbar, window", [(3, (2, 12)), (8, None), (24, None), (85, None), (150, None), (230, None)])
def test_projection_matches_mpmath_oracle(nbar, window):
    # the explicit window at nbar 3 misses the continuum weight, and says so
    state = fit_parameters(QuantumNumbers(nbar))
    with pytest.warns(DeficitToleranceWarning) if window else contextlib.nullcontext():
        exp = decompose(state, window=window, center=nbar)
    assert_matches_oracle(state, exp, sorted({exp.n_min, nbar, (exp.n_min + exp.n_max) // 2, exp.n_max}))


def test_decompose_fitted_state(state85, exp85):
    assert exp85.deficit < 1e-4
    p = np.abs(exp85.coeffs) ** 2
    assert abs(int(exp85.ns[np.argmax(p)]) - 85) <= 2
    # packet has no low-n support
    assert abs(project_level(state85, 2)) ** 2 < 1e-12
    # weight + deficit is exactly one by construction
    assert exp85.weight + exp85.deficit == pytest.approx(1.0, abs=1e-15)


def test_coefficients_real_for_real_parameters(state85, exp85):
    assert exp85.coeffs.dtype == np.float64
    assert project_level(state85, 85) == pytest.approx(exp85.coeffs[85 - exp85.n_min], rel=1e-12)


def test_projection_against_dense_trapezoid(state85):
    # independent oracle: trapezoidal rule on a dense uniform grid
    r = np.linspace(1e-3, 4.0 * 85**2, 300_001)
    psi = np.exp(state85.log_envelope(r))
    for n in (83, 85, 88):
        oracle = np.trapezoid(hydrogen_radial(n, 1, r) * psi * r**2, r)
        assert project_level(state85, n) == pytest.approx(oracle, abs=2e-8)


def test_decompose_window_misses_packet(state85, monkeypatch):
    monkeypatch.setattr(spectral, "N_CAP", 20)
    with pytest.warns(DeficitToleranceWarning):
        exp = decompose(state85, window=None, center=85)
    assert exp.deficit > 0.99
    with pytest.warns(DeficitToleranceWarning, match=r"deficit 1.000000e\+00 above tolerance"):
        low = decompose(state85, window=(2, 10))
    assert low.deficit > 0.999


def test_window_extension_monotonicity(state85):
    with pytest.warns(DeficitToleranceWarning, match=r"for window \[78,92\]"):
        inner = decompose(state85, window=(78, 92))
    outer = decompose(state85, window=(70, 100))
    assert outer.deficit <= inner.deficit


def test_reconstruct_pure_eigenstate():
    exp = decompose(pure_p_eigenstate())
    r = np.linspace(0.0, 40.0, 101)
    assert np.allclose(amplitude(exp, r), hydrogen_radial(2, 1, r), atol=1e-9)


def test_nan_radius_is_refused_and_an_infinite_one_gives_zero(exp85):
    # a NaN radius is bad input, a ValueError, not an overflow of R_85,1
    with pytest.raises(ValueError, match="radius is NaN"):
        hydrogen_radial(85, 1, np.nan)
    # an infinite radius lies past every live bound
    assert hydrogen_radial(85, 1, np.inf) == 0.0
    values = amplitude(exp85, np.array([1.0, np.inf]))
    assert values[0] != 0.0 and values[1] == 0.0


def test_parseval_residual(state85, exp85):
    # L2 norm of (psi - reconstruction) equals the deficit within quadrature error
    from rydpack.specfun import radial_quadrature

    x, w = radial_quadrature(4.0 * 85**2, 4096)
    psi = np.exp(state85.log_envelope(x))
    resid = psi - amplitude(exp85, x)
    err = np.dot(w, np.abs(resid) ** 2 * x**2)
    assert err == pytest.approx(exp85.deficit, abs=1e-6)


def test_coefficient_spread(exp85):
    mean, rms = coefficient_spread(exp85)
    assert mean == pytest.approx(85.0, abs=0.5)
    assert 1.8 < rms < 2.8
