import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy.integrate import simpson

from rydpack.analysis import timescales
from rydpack.evolution import (
    BasisTable,
    RadialGrid,
    UncertaintyRecord,
    autocorrelation,
    density,
    evolve,
    observables,
)
from rydpack.specfun import (
    NumericalError,
    hydrogen_energy,
    hydrogen_radial,
    hydrogen_radial_pr,
    radial_quadrature,
)
from rydpack.spectral import EigenExpansion, decompose
from rydpack.squeezed import QuantumNumbers, fit_parameters, uncertainties_RP, uncertainties_rp


def two_level_toy():
    return EigenExpansion(
        l=1, n_min=2, n_max=3, coeffs=np.ones(2) / math.sqrt(2.0), deficit=0.0
    )


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(points=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        RadialGrid(points=np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        RadialGrid(points=np.array([-1.0, 0.0, 1.0]))
    g = RadialGrid.uniform(10.0, 11)
    assert g.points[0] == 0.0 and g.r_max == 10.0


def test_evolve_identity_and_unitarity(exp85):
    same = evolve(exp85, 0.0)
    assert np.array_equal(same.coeffs, exp85.coeffs)
    assert same.deficit == exp85.deficit
    later = evolve(exp85, 1.234e6)
    assert abs(later.weight - exp85.weight) <= 1e-14
    energy0 = float(np.dot(np.abs(exp85.coeffs) ** 2, exp85.energies))
    energy1 = float(np.dot(np.abs(later.coeffs) ** 2, later.energies))
    assert abs(energy1 - energy0) <= 1e-14


def test_energy_matches_fit_target(exp85):
    energy = float(np.dot(np.abs(exp85.coeffs) ** 2, exp85.energies))
    e85 = hydrogen_energy(85)
    # missing (deficit) weight carries energies of the same magnitude
    assert abs(energy - e85) <= 10.0 * exp85.deficit * abs(e85) + 1e-16


def test_two_level_beat_period():
    toy = two_level_toy()
    period = 2.0 * math.pi / (hydrogen_energy(3) - hydrogen_energy(2))
    assert period == pytest.approx(144.0 * math.pi / 5.0, rel=1e-15)
    assert autocorrelation(toy, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert autocorrelation(toy, period) == pytest.approx(1.0, abs=1e-12)
    assert autocorrelation(toy, period / 2.0) == pytest.approx(0.0, abs=1e-12)


def test_single_eigenstate_is_stationary():
    single = EigenExpansion(l=1, n_min=5, n_max=5, coeffs=np.ones(1), deficit=0.0)
    for t in (0.0, 17.3, 9.9e7):
        assert autocorrelation(single, t) == pytest.approx(1.0, abs=1e-14)


def test_density_initial_peak_and_norm(exp85, grid85, basis85):
    f = density(exp85, grid85, 0.0, basis85)
    assert np.all(f >= 0.0)
    peak_r = grid85.points[np.argmax(f)]
    assert peak_r == pytest.approx(14449.0, rel=0.02)
    total = simpson(f, x=grid85.points)
    assert total == pytest.approx(1.0 - exp85.deficit, abs=1e-6)


def test_density_core_focus_at_half_period(exp85, grid85, basis85, ts85):
    f = density(exp85, grid85, ts85.T_cl_au / 2.0, basis85)
    mean_r = simpson(f * grid85.points, x=grid85.points) / simpson(f, x=grid85.points)
    assert mean_r < 0.5 * 14449.0


def test_observables_match_closed_forms_at_t0(state85, exp85, grid85, basis85):
    rec = observables(exp85, 0.0, grid85, basis85)
    dr, dpr = uncertainties_rp(state85)
    dR, dP, bound = uncertainties_RP(state85)
    assert rec.dr == pytest.approx(dr, rel=1e-2)
    assert rec.dpr == pytest.approx(dpr, rel=1e-2)
    assert rec.product == pytest.approx(dr * dpr, rel=1e-2)
    assert rec.ratio == pytest.approx(dr / dpr, rel=1e-2)
    assert rec.dR == pytest.approx(dR, rel=1e-2)
    assert rec.bound_half_rm2 == pytest.approx(bound, rel=1e-2)
    assert rec.product == rec.dr * rec.dpr
    assert rec.ratio == rec.dr / rec.dpr


def direct_record(exp, t):
    """Reference: the same moments by sampling psi(t) and (d/dr + 1/r) psi(t)
    on the 4096-node rule and summing, with no operator matrices."""
    x, w = radial_quadrature(4.0 * exp.n_max**2, 4096)
    psi = np.zeros(x.size, dtype=complex)
    dpsi = np.zeros(x.size, dtype=complex)
    for n, c in zip(exp.ns, evolve(exp, t).coeffs):
        psi += c * hydrogen_radial(int(n), exp.l, x)
        dpsi += c * hydrogen_radial_pr(int(n), exp.l, x)
    wr2 = w * x**2
    dens = wr2 * np.abs(psi) ** 2
    norm = dens.sum()
    m1, m2 = (dens * x).sum() / norm, (dens * x**2).sum() / norm
    w1, w2 = (dens / x).sum() / norm, (dens / x**2).sum() / norm
    pr = (wr2 * np.imag(np.conj(psi) * dpsi)).sum() / norm
    pr2 = (wr2 * np.abs(dpsi) ** 2).sum() / norm
    dr, dpr, dR = math.sqrt(m2 - m1 * m1), math.sqrt(pr2 - pr * pr), math.sqrt(w2 - w1 * w1)
    return UncertaintyRecord(t, dr, dpr, dr * dpr, dr / dpr, dR, dpr, 0.5 * w2)


@pytest.mark.parametrize("orbits", [0.0, 0.5, 1.0, 4.0])
def test_observables_match_direct_quadrature(exp85, ts85, orbits):
    t = orbits * ts85.T_cl_au
    got = astuple(observables(exp85, t, None))
    want = astuple(direct_record(exp85, t))
    assert got == pytest.approx(want, rel=1e-8)


def test_observables_rejects_coarse_quadrature(exp85, ts85, coarse_quadrature):
    with pytest.raises(NumericalError, match="quadrature too coarse"):
        observables(exp85, ts85.T_cl_au / 2.0, None)


def test_observables_answer_every_nbar150_point():
    q = QuantumNumbers(150)
    exp = decompose(fit_parameters(q), center=150)
    grid = RadialGrid.uniform(4.0 * 150**2, 16000)  # the CLI default
    for t in np.linspace(0.0, 4.0 * timescales(q).T_cl_au, 250):
        assert observables(exp, t, grid).product >= 0.5 - 1e-9


def test_observables_rejects_mismatched_basis(exp85, grid85, basis85):
    other = RadialGrid.uniform(4.0 * 85**2, 1234)
    with pytest.raises(ValueError):
        observables(exp85, 0.0, other, basis85)


def test_scan_heisenberg_floor_and_bound(scan85):
    _, records = scan85
    for rec in records:
        assert rec.product >= 0.5 - 1e-9
        assert rec.dR * rec.dP >= rec.bound_half_rm2 - 1e-9


def test_autocorrelation_periodicity_structure(exp85, ts85):
    """The early-time recurrence pattern has period T_cl.

    Near the recurrence peaks the value decays from orbit to orbit (the
    uncertainty product grows from 0.5 to about 1.6 over the first orbit), so
    strict pointwise agreement holds only across the collapse plateau.
    """
    t_cl = ts85.T_cl_au
    ts = np.linspace(0.5 * t_cl, 1.5 * t_cl, 201)
    vals = [autocorrelation(exp85, t) for t in ts]
    t_peak = ts[int(np.argmax(vals))]
    assert abs(t_peak - t_cl) <= 0.05 * t_cl
    for u in np.linspace(0.2, 0.75, 12):
        a = autocorrelation(exp85, u * t_cl)
        b = autocorrelation(exp85, (u + 1.0) * t_cl)
        assert abs(a - b) <= 0.05
