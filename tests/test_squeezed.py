import math

import numpy as np
import pytest

from rydpack.specfun import hydrogen_energy, radial_quadrature
from rydpack.squeezed import (
    FitError,
    OrbitGeometry,
    QuantumNumbers,
    RadialSqueezedState,
    expectation_H,
    expectation_pr,
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
    q = QuantumNumbers(85)
    assert q.l == 1 and q.deltan == 1.0
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            QuantumNumbers(bad)
    with pytest.raises(ValueError):
        QuantumNumbers(85, l=0)
    with pytest.raises(ValueError):
        QuantumNumbers(85, deltan=0.0)


def test_state_normalization_and_validation():
    st = RadialSqueezedState(2.0, 0.5)
    assert moment_r(st, 0.0) == 1.0
    # stored log_norm round-trips untouched
    st2 = RadialSqueezedState(2.0, 0.5, 0.0, log_norm=st.log_norm)
    assert st2.log_norm == st.log_norm
    with pytest.raises(ValueError):
        RadialSqueezedState(-1.0, 0.5)
    with pytest.raises(ValueError):
        RadialSqueezedState(2.0, 0.0)


def test_psi_at_origin_and_phase():
    st = RadialSqueezedState(1.5, 0.3, gamma1=0.7)
    assert st.psi(0.0) == 0.0
    r = np.array([0.5, 2.0])
    vals = st.psi(r)
    assert np.allclose(np.abs(vals), np.exp(st.log_envelope(r)))
    assert np.allclose(np.angle(vals), -0.7 * r)


def test_moment_r_reference_point():
    st = RadialSqueezedState(ALPHA_85, GAMMA0_85)
    # <r> sits at the outer apsidal point, about 2 nbar^2
    assert moment_r(st, 1.0) == pytest.approx(14449.0, abs=0.1)
    # frozen golden from the log-space quadrature oracle
    assert moment_r(st, -2.0) == pytest.approx(4.832512726947378e-09, rel=1e-10)
    oracle = quadrature_moments(st, (-2.0,))
    assert moment_r(st, -2.0) == pytest.approx(oracle[-2.0], rel=1e-8)


def test_moment_r_domain():
    st = RadialSqueezedState(1.0, 1.0)
    with pytest.raises(ValueError):
        moment_r(st, -(2.0 * st.alpha + 3.0))


def test_moments_match_quadrature_randomized():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        alpha = float(np.exp(rng.uniform(np.log(0.2), np.log(400.0))))
        gamma0 = float(np.exp(rng.uniform(np.log(1e-4), np.log(5.0))))
        st = RadialSqueezedState(alpha, gamma0, rng.uniform(-1.0, 1.0))
        oracle = quadrature_moments(st, (-2.0, -1.0, 1.0, 2.0, 3.0))
        for k, want in oracle.items():
            assert moment_r(st, k) == pytest.approx(want, rel=1e-8)


def test_expectation_pr():
    assert expectation_pr(RadialSqueezedState(2.0, 1.0, 0.0)) == 0.0
    assert expectation_pr(RadialSqueezedState(2.0, 1.0, 0.3)) == -0.3
    assert expectation_pr(RadialSqueezedState(2.0, 1.0, -1.0)) == 1.0


def test_expectation_pr_quadrature_oracle():
    # Im(psi* (d/dr + 1/r) psi) r^2 integrates to -gamma1
    st = RadialSqueezedState(2.0, 1.0, 0.3)
    x, w = radial_quadrature(60.0, 4096)
    dens = np.exp(2.0 * st.log_envelope(x)) * x**2
    # (d/dr + 1/r) psi = ((alpha+1)/r - gamma0 - i gamma1) psi
    integrand = -st.gamma1 * dens  # imaginary part of psi* D psi
    norm = np.dot(w, dens)
    assert np.dot(w, integrand) / norm == pytest.approx(expectation_pr(st), rel=1e-12)


def test_expectation_pr2():
    assert expectation_pr2(RadialSqueezedState(1.0, 1.0, 0.0)) == pytest.approx(1.0 / 3.0)
    st = RadialSqueezedState(ALPHA_85, GAMMA0_85)
    assert expectation_pr2(st) == pytest.approx(4.0889098310860876e-07, rel=1e-12)
    # quadrature oracle: integral of |(d/dr + 1/r) psi|^2 r^2 dr
    x, w = radial_quadrature(60.0, 4096)
    st2 = RadialSqueezedState(2.0, 0.7, 0.4)
    dens = np.exp(2.0 * st2.log_envelope(x)) * x**2
    norm = np.dot(w, dens)
    quad = np.dot(w, dens * (((st2.alpha + 1) / x - st2.gamma0) ** 2 + st2.gamma1**2)) / norm
    assert expectation_pr2(st2) == pytest.approx(quad, rel=1e-10)


def test_expectation_pr2_scaling_in_gamma0():
    a = expectation_pr2(RadialSqueezedState(3.0, 0.25, 0.0))
    b = expectation_pr2(RadialSqueezedState(3.0, 0.5, 0.0))
    assert b == pytest.approx(4.0 * a, rel=1e-15)


def test_expectation_H_reference_energy():
    st = RadialSqueezedState(ALPHA_85, GAMMA0_85)
    e85 = hydrogen_energy(85)
    assert expectation_H(st) == pytest.approx(e85, rel=5e-6)
    with pytest.raises(ValueError):
        expectation_H(st, mode="other")


def test_expectation_H_kinetic_shift():
    base = expectation_H(RadialSqueezedState(3.0, 0.4, 0.0))
    shifted = expectation_H(RadialSqueezedState(3.0, 0.4, 0.1))
    assert shifted - base == pytest.approx(0.005, rel=1e-12)


def test_expectation_H_quadrature_oracle():
    st = RadialSqueezedState(2.0, 0.5, 0.0)
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
        st = RadialSqueezedState(alpha, gamma0, rng.uniform(-1.0, 1.0))
        dR, dP, bound = uncertainties_RP(st)
        assert abs(dR * dP - bound) <= 1e-12 * bound


def test_uncertainties_RP_gamma1_independent():
    a = uncertainties_RP(RadialSqueezedState(4.0, 0.2, 0.0))
    b = uncertainties_RP(RadialSqueezedState(4.0, 0.2, 5.0))
    assert a == b


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


def test_fit_reference_parameters():
    st = fit_parameters(QuantumNumbers(85))
    assert st.alpha == pytest.approx(ALPHA_85, abs=0.01)
    assert st.gamma0 == pytest.approx(GAMMA0_85, abs=1e-6)
    assert st.gamma1 == 0.0
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
    assert expectation_pr(st) == 0.0


def test_fit_matches_mpmath_oracle():
    # the oracle solves the matching condition <H>(alpha) = E_nbar itself, with
    # gamma0 = (2 alpha + 3)/(2 r_out), at 50 digits: this checks the reduction
    # to the cubic as well as its root
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
            assert abs(st.alpha - alpha) <= 1e-15 * alpha, nbar
            assert abs(st.gamma0 - gamma0_of(alpha)) <= 1e-15 * gamma0_of(alpha), nbar


def test_fit_has_no_solution_at_nbar_2():
    # the cubic's only real root at nbar 2 is negative
    with pytest.raises(FitError, match="nbar=2"):
        fit_parameters(QuantumNumbers(2))


def test_fit_modes_agree_for_p_states():
    a = fit_parameters(QuantumNumbers(40), mode="paper")
    b = fit_parameters(QuantumNumbers(40), mode="centrifugal")
    assert a.alpha == b.alpha and a.gamma0 == b.gamma0
