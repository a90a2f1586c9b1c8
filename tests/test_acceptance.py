"""Acceptance suite for the nbar = 85 reference pipeline.

Each test prints one PASS line once its criterion holds at the stated
tolerance (run with ``pytest -s`` to see them as they pass).
"""

import json
import math

import numpy as np
import pytest

import rydpack as rp
from rydpack import spectral
from rydpack.io import write_state
from rydpack.squeezed import L, RadialSqueezedState, moment_r
from rydpack.units import au_to_ns, au_to_ps

NBAR = 85


def note(msg):
    print(f"ACCEPTANCE PASS: {msg}")


@pytest.fixture(scope="module")
def revival_scan(exp85, ts85):
    """Autocorrelation sampled at T_cl/50 inside [0.9, 1.1] t_rev."""
    t_rev, t_cl = ts85.t_rev_au, ts85.T_cl_au
    n_steps = int(math.ceil(0.2 * t_rev / (t_cl / 50.0))) + 1
    times = np.linspace(0.9 * t_rev, 1.1 * t_rev, n_steps)
    values = np.array([rp.autocorrelation(exp85, t) for t in times])
    return times, values


def test_criterion_1_parameter_fit(q85, tmp_path):
    state = rp.fit_parameters(q85)
    assert state.alpha == pytest.approx(168.225, abs=0.01)
    assert state.gamma0 == pytest.approx(0.0117465, abs=1e-6)
    # gamma1 lives in the state file, where <p_r> = 0 has it written as 0
    write_state(tmp_path / "state.json", q85.nbar, state)
    gamma1 = json.loads((tmp_path / "state.json").read_text())["gamma1"]
    assert gamma1 == 0.0
    note(
        f"1 parameter fit: alpha={state.alpha:.6f} (168.225 +/- 0.01), "
        f"gamma0={state.gamma0:.9f} (0.0117465 +/- 1e-6), gamma1={gamma1} (0)"
    )


def test_criterion_2_initial_uncertainties(state85, exp85, grid85, basis85):
    dr, dpr = rp.uncertainties_rp(state85)
    product, ratio = dr * dpr, dr / dpr
    assert product == pytest.approx(0.5015, abs=0.0005)
    assert ratio == pytest.approx(1.2e6, abs=0.05e6)
    rec = rp.observables(exp85, 0.0, grid85, basis85)
    assert rec.product == pytest.approx(product, rel=0.01)
    assert rec.ratio == pytest.approx(ratio, rel=0.01)
    note(
        f"2 initial uncertainties: closed product={product:.4f}, ratio={ratio:.4e}; "
        f"grid route agrees to {abs(rec.product / product - 1.0):.2e} / "
        f"{abs(rec.ratio / ratio - 1.0):.2e}"
    )


def test_criterion_3_uncertainty_time_series(exp85, grid85, basis85, ts85, scan85):
    t_cl = ts85.T_cl_au
    anchors = [
        (0.5 * t_cl, 59.5, 0.15),
        (1.0 * t_cl, 1.6, 0.25),
        (2.0 * t_cl, 8.0, 0.25),
        (4.0 * t_cl, 45.4, 0.20),
    ]
    got = []
    for t, target, tol in anchors:
        rec = rp.observables(exp85, t, grid85, basis85)
        assert rec.product == pytest.approx(target, rel=tol), (t / t_cl, rec.product)
        got.append(rec.product)
    times, records = scan85
    ratios = np.array([r.ratio for r in records])
    i = int(np.argmin(ratios))
    assert ratios[i] == pytest.approx(8.0e4, rel=0.15)
    assert abs(times[i] - 0.5 * t_cl) <= 0.05 * t_cl
    note(
        "3 uncertainty series: product at (T/2, T, 2T, 4T) = "
        f"({got[0]:.1f}, {got[1]:.2f}, {got[2]:.2f}, {got[3]:.1f}) vs "
        f"(59.5, 1.6, 8.0, 45.4); ratio min {ratios[i]:.3e} at t={times[i] / t_cl:.2f} T_cl"
    )


def test_criterion_4_timescales(ts85):
    t_cl_ps = au_to_ps(ts85.T_cl_au)
    t_rev_ns = au_to_ns(ts85.t_rev_au)
    assert t_cl_ps == pytest.approx(93.3, abs=0.1)
    assert t_rev_ns == pytest.approx(2.64, abs=0.05)
    note(f"4 timescales: T_cl={t_cl_ps:.3f} ps (93.3 +/- 0.1), t_rev={t_rev_ns:.3f} ns (2.64 +/- 0.05)")


def test_criterion_5_revival_structure(exp85, grid85, basis85, ts85, revival_scan, q85):
    t_cl, t_rev = ts85.T_cl_au, ts85.t_rev_au
    r = grid85.points
    r_out = rp.orbit_geometry(q85).r_out
    # envelope scale for separating packet humps from interference fringes:
    # one third of the initial packet width
    smooth = rp.observables(exp85, 0.0, grid85, basis85).dr / 3.0

    def count(t):
        f = rp.density(exp85, grid85, t, basis85)
        return rp.count_packets(r, f, t=t, smooth=smooth)

    assert count(0.0).peak_count == 1
    # the sub-packet configurations recur with period T_cl/q; the reference
    # times are approximate, so each fractional revival is sampled at the
    # nearby classical phase where its packets are spatially separated
    t3 = t_rev / 3.0 - t_cl / 3.0
    assert count(t3).peak_count == 3
    t2 = t_rev / 2.0 - 0.05 * t_cl
    assert count(t2).peak_count == 2
    f_a = rp.density(exp85, grid85, t2, basis85)
    f_b = rp.density(exp85, grid85, t2 + 0.5 * t_cl, basis85)
    assert rp.fractional_period_check(r, f_a, f_b, r_out, smooth=smooth)
    times, values = revival_scan
    t_peak, _ = rp.detect_revival(times, values, (times[0], times[-1]))
    assert count(t_peak).peak_count == 1
    note(
        "5 revival structure: counts (t=0, ~t_rev/3, ~t_rev/2, ~t_rev) = (1, 3, 2, 1); "
        f"half-period recurrence of the two-packet state holds"
    )


def test_criterion_6_revival_timing(exp85, ts85, revival_scan):
    t_rev, t_cl = ts85.t_rev_au, ts85.T_cl_au
    times, values = revival_scan
    t_peak, value = rp.detect_revival(times, values, (0.9 * t_rev, 1.1 * t_rev))
    assert abs(t_peak - t_rev) <= 0.05 * t_rev
    collapsed = rp.autocorrelation(exp85, 4.0 * t_cl)
    assert value >= 2.0 * collapsed
    note(
        f"6 revival timing: peak at {t_peak / t_rev:.4f} t_rev (within 5%), "
        f"value {value:.3f} >= 2 x collapsed {collapsed:.3f}"
    )


def test_criterion_7_property_suites(state85, exp85, scan85):
    # eigenbasis orthonormality to 1e-8
    x, w = rp.radial_quadrature(4.0 * NBAR**2, 4096)
    basis = {n: rp.hydrogen_radial(n, 1, x) for n in range(80, 91)}
    worst_orth = max(
        abs(np.dot(w, basis[n] * basis[m] * x**2) - (1.0 if n == m else 0.0))
        for n in range(80, 91)
        for m in range(n, 91)
    )
    assert worst_orth <= 1e-8

    # closed-form vs quadrature moments to 1e-8 and RP saturation to 1e-12
    rng = np.random.default_rng(20260810)
    worst_mom = worst_sat = 0.0
    for _ in range(100):
        alpha = float(np.exp(rng.uniform(np.log(0.2), np.log(400.0))))
        gamma0 = float(np.exp(rng.uniform(np.log(1e-4), np.log(5.0))))
        rng.uniform(-1.0, 1.0)  # a phase draw, kept so the seed gives the same states
        st = RadialSqueezedState(alpha, gamma0)
        mean = (2 * alpha + 3) / (2 * gamma0)
        width = math.sqrt(2 * alpha + 3) / (2 * gamma0)
        xq, wq = rp.radial_quadrature(mean + 30.0 * width, 6144)
        dens = np.exp(2.0 * st.log_envelope(xq)) * xq**2
        norm = np.dot(wq, dens)
        for k in (-2.0, -1.0, 1.0, 2.0, 3.0):
            quad = np.dot(wq, dens * xq**k) / norm
            worst_mom = max(worst_mom, abs(quad / moment_r(st, k) - 1.0))
        dR, dP, bound = rp.uncertainties_RP(st)
        worst_sat = max(worst_sat, abs(dR * dP - bound) / bound)
    assert worst_mom <= 1e-8
    assert worst_sat <= 1e-12

    # norm and energy conservation under evolution to 1e-14: the phased
    # coefficients c_n exp(-i E_n t)
    for t in (0.0, 1.0e5, 3.3e7):
        ev = exp85.coeffs * spectral._phases(exp85, t)
        assert abs(float(np.sum(np.abs(ev) ** 2)) - exp85.weight) <= 1e-14
        e0 = float(np.dot(np.abs(exp85.coeffs) ** 2, exp85.energies))
        e1 = float(np.dot(np.abs(ev) ** 2, exp85.energies))
        assert abs(e1 - e0) <= 1e-14

    # Heisenberg floor on every scanned time point
    _, records = scan85
    assert all(rec.product >= 0.5 - 1e-9 for rec in records)
    note(
        f"7 property suites: orthonormality {worst_orth:.1e} <= 1e-8, "
        f"moments {worst_mom:.1e} <= 1e-8, saturation {worst_sat:.1e} <= 1e-12, "
        "conservation <= 1e-14, Heisenberg floor holds"
    )


def test_criterion_8_potential_sensitivity(q85, state85):
    # the paper's potential r^-2 - r^-1 in closed form, against the centrifugal
    # form L(L+1)/(2 r^2) - 1/r through moment_r's product route
    h_paper = rp.expectation_H(state85)
    h_centrifugal = (
        0.5 * rp.expectation_pr2(state85)
        + L * (L + 1) / 2 * rp.moment_r(state85, -2)
        - rp.moment_r(state85, -1)
    )
    rel = abs(h_paper - h_centrifugal) / abs(rp.hydrogen_energy(q85.nbar))
    assert rel < 1e-5
    note(
        "8 sensitivity (informational): <H> paper vs centrifugal differ by "
        f"{rel:.2e} of |E_nbar| (< 1e-5); the two conventions coincide for p states"
    )
