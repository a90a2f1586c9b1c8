import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rydpack import squeezed
from rydpack.cli import main
from rydpack.io import read_state, write_state
from rydpack.specfun import NumericalError, hydrogen_energy, radial_quadrature
from rydpack.squeezed import (
    L,
    FitError,
    OrbitGeometry,
    QuantumNumbers,
    RadialSqueezedState,
    expectation_H,
    expectation_pr2,
    fit_parameters,
    moment_r,
    orbit_geometry,
    uncertainties_RP,
    uncertainties_rp,
)

# parameters quoted for the nbar = 85 reference fit
ALPHA_85 = 168.225
GAMMA0_85 = 0.0117465


def quadrature_moments(state, ks):
    """Independent oracle: log-space quadrature of the density r^(2 alpha) e^(-2 g0 r)."""
    mean = (2.0 * state.alpha + 3.0) / (2.0 * state.gamma0)
    width = math.sqrt(2.0 * state.alpha + 3.0) / (2.0 * state.gamma0)
    x, w = radial_quadrature(mean + 30.0 * width, 6144)
    dens = np.exp(2.0 * state.log_envelope(x)) * x**2
    norm = np.dot(w, dens)
    return {k: float(np.dot(w, dens * x**k) / norm) for k in ks}


def test_quantum_numbers_validation():
    assert QuantumNumbers(85).nbar == 85
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            QuantumNumbers(bad)
    # a fractional or non-finite nbar gets the same message, not a failed int()
    for bad in (2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"nbar must be a whole number, got {bad!r}"):
            QuantumNumbers(bad)
    # l is the package constant L, not a field
    with pytest.raises(TypeError):
        QuantumNumbers(85, l=0)


def test_state_normalization_and_validation():
    st = RadialSqueezedState(2.0, 0.5)
    assert moment_r(st, 0.0) == 1.0
    # ln N is derived from alpha and gamma0, never passed in
    with pytest.raises(TypeError):
        RadialSqueezedState(2.0, 0.5, 0.0, log_norm=st.log_norm)
    with pytest.raises(ValueError):
        RadialSqueezedState(-1.0, 0.5)
    with pytest.raises(ValueError):
        RadialSqueezedState(2.0, 0.0)


def test_replaced_state_derives_its_norm_afresh():
    moved = replace(RadialSqueezedState(2.0, 0.5), alpha=3.0)
    assert moved.log_norm == RadialSqueezedState(3.0, 0.5).log_norm
    assert moment_r(moved, 0.0) == 1.0


@pytest.mark.parametrize("alpha, gamma0", [(1e308, 1.0), (2e307, 1.0), (1.0, 1e308)])
def test_state_without_a_finite_norm_is_refused(alpha, gamma0):
    # 2 alpha + 3 overflows to inf at 1e308 (ln N would be NaN),
    # lgamma(2 alpha + 3) overflows at 2e307, and 2 gamma0 at 1e308
    with pytest.raises(ValueError, match="no finite normalization"):
        RadialSqueezedState(alpha, gamma0)


@pytest.mark.parametrize("gamma1", [math.nan, math.inf, -math.inf])
def test_state_with_a_non_finite_gamma1_is_refused(tmp_path, gamma1):
    # a state has no gamma1: <p_r> = 0 fixes it at 0, so it lives on only in
    # the state file, whose reader refuses any other value, these included
    # (json writes and reads them as NaN and Infinity) as no finite number
    with pytest.raises(TypeError):
        RadialSqueezedState(2.0, 0.5, gamma1)
    path = tmp_path / "state.json"
    state = fit_parameters(QuantumNumbers(20))
    write_state(path, 20, state)
    record = json.loads(path.read_text())
    record["gamma1"] = gamma1
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match="state key 'gamma1' must be a finite real number") as info:
        read_state(path)
    assert str(path) in str(info.value)
    # an integer 0 and -0.0 are the value written, and are read
    for zero in (0, -0.0):
        record["gamma1"] = zero
        path.write_text(json.dumps(record))
        assert read_state(path) == (20, state)


def test_psi_at_origin_and_phase():
    # the state is real: psi has no phase, and is its envelope to the bit
    st = RadialSqueezedState(1.5, 0.3)
    assert st.psi(0.0) == 0.0
    r = np.array([0.0, 0.5, 2.0, 1e4])
    vals = st.psi(r)
    assert vals.dtype == np.float64
    assert np.array_equal(vals, np.exp(st.log_envelope(r)))


def test_moment_r_reference_point():
    st = RadialSqueezedState(ALPHA_85, GAMMA0_85)
    # <r> sits at the outer apsidal point, about 2 nbar^2
    assert moment_r(st, 1.0) == pytest.approx(14449.0, abs=0.1)
    # frozen golden from the log-space quadrature oracle
    assert moment_r(st, -2.0) == pytest.approx(4.832512726947378e-09, rel=1e-10)
    oracle = quadrature_moments(st, (-2.0,))
    assert moment_r(st, -2.0) == pytest.approx(oracle[-2.0], rel=1e-8)


@pytest.mark.parametrize("nbar", [3, 4, 20, 85, 150, 230, 300, 393, 400])
def test_integer_moments_match_mpmath_oracle(nbar):
    # at large alpha a log-gamma difference keeps only about 1e-12 relative;
    # the product route for integer k is exact to a few ulp
    mp = pytest.importorskip("mpmath")
    st = fit_parameters(QuantumNumbers(nbar))
    with mp.workdps(50):
        a, b = 2 * mp.mpf(st.alpha) + 2, 2 * mp.mpf(st.gamma0)
        for k in (-2, 1, 2):
            want = mp.gamma(a + k + 1) / (mp.gamma(a + 1) * b**k)
            assert abs(float(moment_r(st, float(k)) / want - 1)) <= 1e-14, k


def test_moment_r_domain():
    st = RadialSqueezedState(1.0, 1.0)
    with pytest.raises(ValueError):
        moment_r(st, -(2.0 * st.alpha + 3.0))
    # only the exact product route is served: integer orders up to 8
    for k in (0.5, -1.5, 9, math.nan, math.inf):
        with pytest.raises(ValueError, match="not an integer of size at most 8"):
            moment_r(st, k)


def test_moments_match_quadrature_randomized():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        alpha = float(np.exp(rng.uniform(np.log(0.2), np.log(400.0))))
        gamma0 = float(np.exp(rng.uniform(np.log(1e-4), np.log(5.0))))
        rng.uniform(-1.0, 1.0)  # a phase draw, kept so the seed gives the same states
        st = RadialSqueezedState(alpha, gamma0)
        oracle = quadrature_moments(st, (-2.0, -1.0, 1.0, 2.0, 3.0))
        for k, want in oracle.items():
            assert moment_r(st, k) == pytest.approx(want, rel=1e-8)


def test_expectation_pr_quadrature_oracle():
    # <p_r> = -i int psi (d/dr + 1/r) psi r^2 dr vanishes for every state, the
    # matching condition <p_r> = 0 that fixes the paper's gamma1 at 0; for the
    # real psi, (d/dr + 1/r) psi = ((alpha+1)/r - gamma0) psi
    for st in (RadialSqueezedState(2.0, 1.0), fit_parameters(QuantumNumbers(20))):
        width = math.sqrt(2.0 * st.alpha + 3.0) / (2.0 * st.gamma0)
        x, w = radial_quadrature(moment_r(st, 1.0) + 30.0 * width, 6144)
        integrand = ((st.alpha + 1.0) / x - st.gamma0) * np.exp(2.0 * st.log_envelope(x)) * x**2
        assert abs(np.dot(w, integrand)) <= 1e-12 * np.dot(w, np.abs(integrand))


def test_expectation_pr2():
    assert expectation_pr2(RadialSqueezedState(1.0, 1.0)) == pytest.approx(1.0 / 3.0)
    st = RadialSqueezedState(ALPHA_85, GAMMA0_85)
    assert expectation_pr2(st) == pytest.approx(4.0889098310860876e-07, rel=1e-12)
    # quadrature oracle: integral of |(d/dr + 1/r) psi|^2 r^2 dr
    x, w = radial_quadrature(60.0, 4096)
    st2 = RadialSqueezedState(2.0, 0.7)
    dens = np.exp(2.0 * st2.log_envelope(x)) * x**2
    norm = np.dot(w, dens)
    quad = np.dot(w, dens * ((st2.alpha + 1) / x - st2.gamma0) ** 2) / norm
    assert expectation_pr2(st2) == pytest.approx(quad, rel=1e-10)


def test_expectation_pr2_scaling_in_gamma0():
    a = expectation_pr2(RadialSqueezedState(3.0, 0.25))
    b = expectation_pr2(RadialSqueezedState(3.0, 0.5))
    assert b == pytest.approx(4.0 * a, rel=1e-15)


def test_expectation_H_reference_energy():
    st = RadialSqueezedState(ALPHA_85, GAMMA0_85)
    e85 = hydrogen_energy(85)
    assert expectation_H(st) == pytest.approx(e85, rel=5e-6)
    # the p-state potential is the only one, so there is no mode to pass
    with pytest.raises(TypeError):
        expectation_H(st, mode="other")


def test_expectation_H_kinetic_shift():
    # <H> is the potential <r^-2> - <r^-1> shifted by the kinetic <p_r^2>/2
    st = RadialSqueezedState(3.0, 0.4)
    potential = moment_r(st, -2.0) - moment_r(st, -1.0)
    assert expectation_H(st) - potential == pytest.approx(0.5 * expectation_pr2(st), rel=1e-12)


def test_expectation_H_quadrature_oracle():
    st = RadialSqueezedState(2.0, 0.5)
    # closed-form value expected: g0^2/(2(2a+1)) + <r^-2> - <r^-1>
    assert expectation_H(st) == pytest.approx(0.025 + 1.0 / 30.0 - 1.0 / 6.0, rel=1e-14)
    x, w = radial_quadrature(80.0, 4096)
    dens = np.exp(2.0 * st.log_envelope(x)) * x**2
    norm = np.dot(w, dens)
    kinetic = 0.5 * np.dot(w, dens * ((st.alpha + 1) / x - st.gamma0) ** 2) / norm
    potential = np.dot(w, dens * (1.0 / x**2 - 1.0 / x)) / norm
    assert expectation_H(st) == pytest.approx(kinetic + potential, rel=1e-10)


def test_uncertainties_rp_reference():
    st = RadialSqueezedState(ALPHA_85, GAMMA0_85)
    dr, dpr = uncertainties_rp(st)
    assert dr * dpr == pytest.approx(0.5015, abs=5e-4)
    assert dr / dpr == pytest.approx(1.2e6, rel=0.05)


def test_uncertainty_product_identity_and_floor():
    rng = np.random.default_rng(3)
    prev = None
    for alpha in np.geomspace(0.3, 3000.0, 12):
        st = RadialSqueezedState(float(alpha), float(rng.uniform(0.01, 3.0)))
        dr, dpr = uncertainties_rp(st)
        product = dr * dpr
        assert product == pytest.approx(
            0.5 * math.sqrt((2 * alpha + 3) / (2 * alpha + 1)), rel=1e-13
        )
        assert product > 0.5
        if prev is not None:
            assert product < prev  # monotone decreasing toward the 1/2 floor
        prev = product


def test_uncertainties_RP_hand_values():
    dR, dP, bound = uncertainties_RP(RadialSqueezedState(1.0, 1.0))
    assert dR == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), rel=1e-14)
    assert dP == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
    assert bound == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_uncertainties_RP_saturation_randomized():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        alpha = float(np.exp(rng.uniform(np.log(0.2), np.log(400.0))))
        gamma0 = float(np.exp(rng.uniform(np.log(1e-4), np.log(5.0))))
        rng.uniform(-1.0, 1.0)  # a phase draw, kept so the seed gives the same states
        st = RadialSqueezedState(alpha, gamma0)
        dR, dP, bound = uncertainties_RP(st)
        assert abs(dR * dP - bound) <= 1e-12 * bound


def test_uncertainties_RP_gamma1_independent():
    # a state is (alpha, gamma0) alone, so there is no gamma1 for dR and dP to
    # depend on, and equal parameters give equal uncertainties
    with pytest.raises(TypeError):
        RadialSqueezedState(4.0, 0.2, 5.0)
    with pytest.raises(TypeError):
        RadialSqueezedState(4.0, 0.2, gamma1=0.0)
    moved = replace(RadialSqueezedState(4.0, 0.3), gamma0=0.2)
    assert uncertainties_RP(moved) == uncertainties_RP(RadialSqueezedState(4.0, 0.2))


def test_orbit_geometry():
    geo = orbit_geometry(QuantumNumbers(85))
    assert isinstance(geo, OrbitGeometry)
    assert geo.r_out == pytest.approx(14449.0, abs=0.1)
    assert geo.r_out == pytest.approx(2.0 * 85**2, rel=1e-4)
    assert geo.eccentricity == pytest.approx(0.99993, abs=1e-5)
    assert geo.r_out <= 2.0 * 85**2 and geo.r1 <= 2.0 * 85**2
    geo2 = orbit_geometry(QuantumNumbers(2))
    assert geo2.r_out == pytest.approx(4.0 + 2.0 * math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        orbit_geometry(QuantumNumbers(1))


def test_closed_forms_past_the_float_range_are_numerical_errors():
    # each gave inf, (inf, 0.0) or a raw OverflowError
    wide, hot = RadialSqueezedState(1e300, 1e-300), RadialSqueezedState(1e300, 1e300)
    for call, what in [
        (lambda: orbit_geometry(QuantumNumbers(10**154)), r"the orbit of nbar=1e\+154"),
        (lambda: moment_r(wide, 2), r"<r\^2> of alpha=1e\+300, gamma0=1e-300"),
        (lambda: uncertainties_rp(wide), r"dr of alpha=1e\+300, gamma0=1e-300"),
        (lambda: uncertainties_RP(wide), r"dr of alpha=1e\+300, gamma0=1e-300"),
        (lambda: expectation_H(hot), r"<p_r\^2> of gamma0=1e\+300"),
    ]:
        with pytest.raises(NumericalError, match=f"^{what} passes the float range$"):
            call()
    # just inside the range the orbit is served
    assert math.isfinite(orbit_geometry(QuantumNumbers(9 * 10**153)).r1)


def test_fit_reference_parameters():
    st = fit_parameters(QuantumNumbers(85))
    assert st.alpha == pytest.approx(ALPHA_85, abs=0.01)
    assert st.gamma0 == pytest.approx(GAMMA0_85, abs=1e-6)
    geo = orbit_geometry(QuantumNumbers(85))
    assert moment_r(st, 1.0) == pytest.approx(geo.r_out, rel=1e-10)


def test_fit_nbar20_against_independent_minimization():
    # golden computed once by Nelder-Mead minimization of the squared
    # quadrature-based residuals of <r> = r_out and <H> = E over (alpha, gamma0)
    st = fit_parameters(QuantumNumbers(20))
    assert st.alpha == pytest.approx(38.142900907876616, rel=1e-6)
    assert st.gamma0 == pytest.approx(0.04961572350821824, rel=1e-6)
    # independent residual check through quadrature expectations
    oracle = quadrature_moments(st, (-2.0, -1.0, 1.0))
    geo = orbit_geometry(QuantumNumbers(20))
    pr2 = st.gamma0**2 / (2.0 * st.alpha + 1.0)
    h_quad = 0.5 * pr2 + oracle[-2.0] - oracle[-1.0]
    assert oracle[1.0] == pytest.approx(geo.r_out, rel=1e-8)
    assert h_quad == pytest.approx(hydrogen_energy(20), rel=1e-7)


@pytest.mark.parametrize("nbar", [5, 10, 20, 50, 85, 120])
def test_fit_round_trip_residuals(nbar):
    st = fit_parameters(QuantumNumbers(nbar))
    geo = orbit_geometry(QuantumNumbers(nbar))
    e = hydrogen_energy(nbar)
    assert abs(moment_r(st, 1.0) - geo.r_out) / geo.r_out <= 1e-10
    assert abs(expectation_H(st) - e) / abs(e) <= 1e-10


def test_fit_matches_mpmath_oracle():
    # the oracle solves the matching condition <H>(alpha) = E_nbar itself, with
    # gamma0 = (2 alpha + 3)/(2 r_out), at 50 digits: this checks the reduction
    # to the cubic as well as its root.  The Newton step after Viete's root
    # holds the worst miss over nbar 3 to 400 at 2.1e-16 for alpha and
    # 2.0e-16 for gamma0; without it they are 3.4e-16
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for nbar in range(3, 401):
            n = mpmath.mpf(nbar)
            r_out = n * n + n * mpmath.sqrt(n * n - 2)

            def gamma0_of(a):
                return (2 * a + 3) / (2 * r_out)

            def resid(a):
                g = gamma0_of(a)
                kinetic = g * g / (2 * (2 * a + 1))
                potential = 2 * g * g / ((a + 1) * (2 * a + 1)) - g / (a + 1)
                return kinetic + potential + 1 / (2 * n * n)

            alpha = mpmath.findroot(resid, 2 * n)
            st = fit_parameters(QuantumNumbers(nbar))
            assert abs(st.alpha - alpha) <= 2.5e-16 * alpha, nbar
            assert abs(st.gamma0 - gamma0_of(alpha)) <= 2.5e-16 * gamma0_of(alpha), nbar


def test_fit_has_no_solution_at_nbar_2():
    # the cubic's only real root at nbar 2 is negative
    with pytest.raises(FitError, match="nbar=2"):
        fit_parameters(QuantumNumbers(2))


def test_fit_past_the_float_range_is_a_fit_or_numerical_failure():
    # at nbar 1e150 the cubic's values overflow, so the Newton step is skipped
    # and Viete's root stands; from about 2.4e153 the cubic's coefficients
    # overflow, and from about 9.5e153 the orbit itself
    q = QuantumNumbers(10**150)
    st = fit_parameters(q)
    residuals = squeezed._residuals(st, orbit_geometry(q).r_out, hydrogen_energy(q.nbar))
    assert max(residuals) <= 1e-10
    with pytest.raises(NumericalError, match=r"matching cubic of nbar=3e\+153 passes the float range"):
        fit_parameters(QuantumNumbers(3 * 10**153))
    with pytest.raises(NumericalError, match=r"^the orbit of nbar=1e\+200 passes the float range$"):
        fit_parameters(QuantumNumbers(10**200))


def test_every_nbar_in_the_cubics_float_range_fits():
    # a state at every m 10^e (m = 1, 3) from 1e3 to 1e153, where np.roots'
    # conditioning once failed 38 of them; NumericalError where the cubic's
    # coefficients pass the float range, from about 2.4e153 (3e153 here)
    for nbar in (m * 10**e for e in range(3, 154) for m in (1, 3)):
        if nbar < 2.4e153:
            assert fit_parameters(QuantumNumbers(nbar)).alpha > 0, nbar
        else:
            with pytest.raises(NumericalError):
                fit_parameters(QuantumNumbers(nbar))


class _NoNumpy:
    """A stand-in for the numpy module that refuses every attribute."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} was used")


def test_fit_makes_no_numpy_call(pipeline, monkeypatch, tmp_path):
    # the determinism contract (rydpack.io): state.json and fit_report.json come
    # from Python's math alone, so a fit runs with squeezed's numpy taken away
    made = {nbar: pipeline(nbar)[0] for nbar in (20, 85)}
    monkeypatch.setattr(squeezed, "np", _NoNumpy())
    for nbar in range(3, 401):
        fit_parameters(QuantumNumbers(nbar))
    for nbar, directory in made.items():
        out = tmp_path / str(nbar)
        assert main(["fit", "--nbar", str(nbar), "-o", str(out)]) == 0
        for name in ("state.json", "fit_report.json"):
            assert (out / name).read_bytes() == (directory / name).read_bytes(), (nbar, name)


def test_fit_refuses_a_residual_above_1e_10(monkeypatch):
    # an <r> off by 1e-9 relative stands in for a root the Newton polish missed
    exact = squeezed.moment_r
    monkeypatch.setattr(squeezed, "moment_r", lambda state, k: exact(state, k) * (1.0 + 1e-9))
    with pytest.raises(FitError, match=r"residuals too large for nbar=85: \|<r>-r_out\|/r_out=1\.0"):
        fit_parameters(QuantumNumbers(85))


def test_paper_and_centrifugal_potentials_agree_for_p_states():
    # for l = 1 the barrier L(L+1)/(2 r^2) is r^-2, so the closed-form <H> and
    # the centrifugal form through moment_r's product route agree to rounding
    for nbar in (3, 20, 40, 85, 150, 300, 400):
        st = fit_parameters(QuantumNumbers(nbar))
        centrifugal = (
            0.5 * expectation_pr2(st) + L * (L + 1) / 2 * moment_r(st, -2) - moment_r(st, -1)
        )
        assert abs(expectation_H(st) - centrifugal) <= 1e-14 * abs(hydrogen_energy(nbar)), nbar
