import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from scipy.integrate import simpson

from rydpack import evolution, specfun
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
    radial_quadrature,
)
from rydpack.spectral import EigenExpansion, decompose
from rydpack.squeezed import QuantumNumbers, fit_parameters, uncertainties_RP, uncertainties_rp


def two_level_toy():
    return EigenExpansion(l=1, n_min=2, n_max=3, coeffs=np.ones(2) / math.sqrt(2.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(points=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        RadialGrid(points=np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        RadialGrid(points=np.array([-1.0, 0.0, 1.0]))
    g = RadialGrid.uniform(10.0, 11)
    assert g.points[0] == 0.0 and g.r_max == 10.0


def test_grid_points_are_a_read_only_copy():
    exp = decompose(fit_parameters(QuantumNumbers(20)))
    radii = np.linspace(0.0, 1600.0, 16000)
    grid = RadialGrid(radii)
    assert grid.points is not radii and radii.flags.writeable
    table = BasisTable.for_expansion(exp, grid)
    before = density(exp, grid, 0.0, table)
    # a table matched by identity can no longer meet radii changed under it
    with pytest.raises(ValueError, match="read-only"):
        grid.points[200] = 1e-3
    radii[200] = 1e-3
    assert np.array_equal(density(exp, grid, 0.0, table), before)
    assert np.array_equal(density(exp, grid, 0.0), before)


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
    single = EigenExpansion(l=1, n_min=5, n_max=5, coeffs=np.ones(1))
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


def direct_record(exp, t, radial_pr, r_max=None):
    """Reference: the same moments by sampling psi(t) and (d/dr + 1/r) psi(t)
    on the 4096-node rule over [0, r_max] (default 4 n_max^2) and summing,
    with no operator matrices."""
    x, w = radial_quadrature(r_max or 4.0 * exp.n_max**2, 4096)
    psi = np.zeros(x.size, dtype=complex)
    dpsi = np.zeros(x.size, dtype=complex)
    for n, c in zip(exp.ns, evolve(exp, t).coeffs):
        psi += c * hydrogen_radial(int(n), exp.l, x)
        dpsi += c * radial_pr(int(n), exp.l, x)
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
def test_observables_match_direct_quadrature(exp85, ts85, radial_pr, orbits):
    t = orbits * ts85.T_cl_au
    got = astuple(observables(exp85, t, None))
    want = astuple(direct_record(exp85, t, radial_pr))
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("t", [0.0, 2.0 * math.pi * 2**3])  # 0 and T_cl(2)
def test_observables_answer_on_the_two_level_toy(radial_pr, t):
    # a rule over [0, 4 n_max^2] = [0, 36] would cut the tail of R_31 short
    # and fail the Gram guard; the reference reaches 400 bohr
    rec = observables(two_level_toy(), t, None)
    want = astuple(direct_record(two_level_toy(), t, radial_pr, r_max=400.0))
    assert astuple(rec) == pytest.approx(want, rel=1e-8)
    assert rec.product >= 0.5 - 1e-9


def test_expansion_levels_and_energies_are_computed_once_and_read_only(exp85):
    assert exp85.ns is exp85.ns and exp85.energies is exp85.energies
    for arr in (exp85.ns, exp85.energies):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    later = evolve(exp85, 1.0e5)
    assert later.energies is not exp85.energies
    assert np.array_equal(later.energies, exp85.energies)
    assert np.array_equal(later.ns, exp85.ns)


def test_observables_rejects_coarse_quadrature(exp85, ts85, coarse_quadrature):
    with pytest.raises(NumericalError, match="quadrature too coarse"):
        observables(exp85, ts85.T_cl_au / 2.0, None)


def test_observables_answer_every_nbar150_point():
    q = QuantumNumbers(150)
    exp = decompose(fit_parameters(q), center=150)
    grid = RadialGrid.uniform(4.0 * 150**2, 16000)  # the CLI default
    for t in np.linspace(0.0, 4.0 * timescales(q).T_cl_au, 250):
        assert observables(exp, t, grid).product >= 0.5 - 1e-9


def test_moment_matrices_run_one_recurrence_per_tile(monkeypatch):
    calls = []
    steps = specfun._laguerre_steps
    monkeypatch.setattr(
        specfun, "_laguerre_steps", lambda n, a, x: calls.append((n, x.shape)) or steps(n, a, x)
    )
    evolution._moment_matrices.cache_clear()
    try:
        evolution._moment_matrices(1, 10, 17)
        # 12 levels of the 2048-node rule fill a tile: [73, 97] takes three
        calls_10_17, calls[:] = calls[:], []
        evolution._moment_matrices(1, 73, 97)
    finally:
        evolution._moment_matrices.cache_clear()
    # one tile steps all eight levels on every node to the largest degree, 17 - 2
    assert calls_10_17 == [(15, (8, 2048))]
    assert calls == [(82, (12, 2048)), (94, (12, 2048)), (95, (1, 2048))]


@pytest.mark.parametrize("window", [(7, 30), (73, 97), (210, 250), (265, 305)])
def test_moment_matrices_equal_per_level_reference(window, per_level_radial):
    # the same rule and five products, with R_nl one level at a time;
    # (265, 305): the far nodes are dead (envelope underflowed) for the low rows
    n_min, n_max = window
    x, w = radial_quadrature(max(4.0 * n_max**2, 196.0), 2048)
    vals = np.array([per_level_radial(n, 1, x) for n in range(n_min, n_max + 1)])
    wv = vals * (w * x * x)
    want = np.stack(
        [wv @ vals.T, (wv * x) @ vals.T, (wv * x * x) @ vals.T, (wv / x) @ vals.T, (vals * w) @ vals.T]
    )
    assert np.array_equal(evolution._moment_matrices(1, *window), want)


def test_basis_table_runs_one_recurrence_per_level(monkeypatch):
    calls = []
    steps = specfun._laguerre_steps
    monkeypatch.setattr(
        specfun, "_laguerre_steps", lambda n, a, x: calls.append((n, x.shape)) or steps(n, a, x)
    )
    BasisTable.build(np.arange(20, 23), 1, np.linspace(0.0, 1600.0, 16000))
    assert calls == [(18, (1, 16000)), (19, (1, 16000)), (20, (1, 16000))]


@pytest.mark.parametrize("nbar", [20, 85, 150, 230])
def test_basis_table_equals_per_level_reference(nbar, per_level_radial):
    exp = decompose(fit_parameters(QuantumNumbers(nbar)), center=nbar)
    grid = RadialGrid.uniform(4.0 * nbar**2, 16000)  # the CLI default
    table = BasisTable.for_expansion(exp, grid)
    assert table.values.shape == (exp.ns.size, grid.points.size)
    for n, row in zip(exp.ns, table.values):
        assert np.array_equal(row, per_level_radial(int(n), 1, grid.points)), n


def test_basis_table_validates_levels_and_radii():
    with pytest.raises(ValueError, match="angular momentum"):
        BasisTable.build(np.arange(2, 5), 2, np.linspace(0.0, 10.0, 5))
    with pytest.raises(ValueError, match="non-negative"):
        BasisTable.build(np.arange(2, 5), 1, np.linspace(-1.0, 10.0, 5))
    assert BasisTable.build(np.arange(2, 2), 1, np.linspace(0.0, 10.0, 5)).values.shape == (0, 5)


def test_moment_matrices_overflow_names_the_first_failing_level():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflow while evaluating R_329,1"):
            evolution._moment_matrices(1, 280, 330)


def test_moment_matrices_small_windows_pass_the_gram_guard_tightly():
    # below n_max = 7 the rule reaches 196 bohr instead of 4 n_max^2
    for n_min in range(2, 7):
        for n_max in range(n_min, 7):
            s = evolution._moment_matrices(1, n_min, n_max)[0]
            assert np.linalg.norm(s - np.eye(s.shape[0]), 2) <= 1e-12, (n_min, n_max)


@pytest.mark.parametrize(
    "window", [(2, 30), (16, 24), (73, 97), (138, 162), (210, 250), (265, 305), (2, 3), (2, 6)]
)
def test_moment_matrices_match_closed_form_diagonals(window):
    # <r>, <r^2>, <r^-1> and <r^-2> of a bound level (Bethe & Salpeter, section 3)
    mats = evolution._moment_matrices(1, *window)
    ns = np.arange(window[0], window[1] + 1.0)
    assert mats.shape == (5, ns.size, ns.size)
    assert not mats.flags.writeable
    ll = 2.0  # l (l + 1) at l = 1
    want = [
        (3.0 * ns**2 - ll) / 2.0,
        ns**2 * (5.0 * ns**2 + 1.0 - 3.0 * ll) / 2.0,
        1.0 / ns**2,
        1.0 / (ns**3 * 1.5),
    ]
    for mat, diag in zip(mats[1:], want):
        assert np.max(np.abs(np.diag(mat) / diag - 1.0)) <= 5e-12
    assert np.linalg.norm(mats[0] - np.eye(ns.size), 2) <= 1e-12


def test_observables_rejects_mismatched_basis(exp85, grid85, basis85):
    other = RadialGrid.uniform(4.0 * 85**2, 1234)
    with pytest.raises(ValueError):
        observables(exp85, 0.0, other, basis85)


@pytest.mark.parametrize("nbar", [85, 150])
def test_scan_point_equals_numpy_scalar_reference(nbar, request, numpy_scalar_point):
    # the Python-float tail and the cached populations keep every bit
    exp = request.getfixturevalue(f"exp{nbar}")
    t_cl = timescales(QuantumNumbers(nbar)).T_cl_au
    times = [0.0] + np.random.default_rng(nbar).uniform(0.0, 4.0 * t_cl, 300).tolist()
    for t in times:
        want, want_ac = numpy_scalar_point(exp, t)
        got = observables(exp, t, None)
        for field, a, b in zip(UncertaintyRecord.__dataclass_fields__, astuple(got), astuple(want)):
            assert type(a) is float and a.hex() == b.hex(), (t, field)
        ac = autocorrelation(exp, t)
        assert type(ac) is float and ac.hex() == want_ac.hex(), t


def test_observables_accepts_its_own_table_by_identity(exp85, grid85, basis85, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the table was compared again")

    monkeypatch.setattr(np, "array_equal", refuse)
    assert observables(exp85, 1.0e5, grid85, basis85) == observables(exp85, 1.0e5, None)


def test_equal_grid_copy_matches_through_the_full_comparison(exp85, grid85, basis85, monkeypatch):
    copy = RadialGrid(grid85.points.copy())
    compared = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(a.size) or array_equal(a, b))
    assert basis85.matches(exp85, copy)
    assert compared == [exp85.ns.size, grid85.points.size]
    observables(exp85, 0.0, copy, basis85)


def test_observables_without_momentum_spread_raise(monkeypatch):
    # one level with <r^-1> = 1/4 and <r^-2> = 1/8: <p_r^2> = 2 E_2 + 2/4 - 2/8 = 0
    stack = np.array([[[1.0]], [[5.0]], [[30.0]], [[0.25]], [[0.125]]])
    monkeypatch.setattr(evolution, "_moment_matrices", lambda l, n_min, n_max: stack)
    single = EigenExpansion(l=1, n_min=2, n_max=2, coeffs=np.array([1.0]))
    with pytest.raises(NumericalError, match="dp_r = 0"):
        observables(single, 0.0, None)


def test_zero_weight_expansion_has_no_observables():
    empty = EigenExpansion(l=1, n_min=2, n_max=3, coeffs=np.zeros(2))
    with pytest.raises(ValueError, match="empty expansion"):
        observables(empty, 0.0, None)
    with pytest.raises(ValueError, match="empty expansion"):
        autocorrelation(empty, 0.0)


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
