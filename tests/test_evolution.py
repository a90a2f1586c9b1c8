import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rydpack import evolution, specfun, spectral
from rydpack.analysis import detect_revival, timescales
from rydpack.evolution import (
    BasisTable,
    RadialGrid,
    autocorrelation,
    density,
    observables,
)
from rydpack.specfun import (
    NumericalError,
    hydrogen_energy,
    hydrogen_radial,
    radial_quadrature,
)
from rydpack.spectral import (
    DeficitToleranceWarning,
    EigenExpansion,
    UncertaintyRecord,
    decompose,
)
from rydpack.squeezed import L, QuantumNumbers, fit_parameters, uncertainties_RP, uncertainties_rp


# an UncertaintyRecord's fields and derived values, in the scan.csv order;
# astuple would drop the derived ones
RECORD = ("t", "dr", "dpr", "product", "ratio", "dR", "dP", "bound_half_rm2")


def as_tuple(rec):
    return tuple(getattr(rec, name) for name in RECORD)


def two_level_toy():
    return EigenExpansion(n_min=2, coeffs=np.ones(2) / math.sqrt(2.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(points=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        RadialGrid(points=np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        RadialGrid(points=np.array([-1.0, 0.0, 1.0]))
    # NaN compares False in every order check, so non-finite points are
    # refused by name
    for points in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            RadialGrid(points=np.array(points))
    with pytest.raises(ValueError, match="finite"):
        RadialGrid.uniform(np.nan, 5)
    g = RadialGrid.uniform(10.0, 11)
    assert g.points[0] == 0.0 and g.points[-1] == 10.0


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


def test_phases_keep_the_coefficients_at_t0_and_the_weight_and_energy_later(exp85):
    # c(t) = c exp(-i E_n t) is c itself at t = 0, and a unit-modulus phase
    # per level later, so the weight and sum |c_n(t)|^2 E_n do not move
    same = exp85.coeffs * spectral._phases(exp85, 0.0)
    assert np.array_equal(same, exp85.coeffs) and not same.imag.any()
    later = exp85.coeffs * spectral._phases(exp85, 1.234e6)
    assert abs(float(np.sum(np.abs(later) ** 2)) - exp85.weight) <= 1e-14
    energy1 = float(np.dot(np.abs(later) ** 2, exp85.energies))
    assert abs(energy1 - exp85.energy_sum) <= 1e-14
    assert exp85.energy_sum == float(np.dot(exp85.coeffs**2, exp85.energies))


def test_phases_of_a_block_are_the_rows_of_one_time_each(exp85):
    # a (B, 1) column of times gives one row per time, each with the bits of
    # the scalar call and of exp(-1j * E_n * t)
    times = np.array([0.0, 1.0e5, -3.3e7])
    block = spectral._phases(exp85, times[:, None])
    assert block.shape == (3, exp85.ns.size)
    for t, row in zip(times, block):
        assert np.array_equal(row, spectral._phases(exp85, t))
        assert np.array_equal(row, np.exp(-1j * exp85.energies * t))


NON_FINITE = {
    "observables-nan": lambda exp, grid: observables(exp, math.nan),
    "density-nan": lambda exp, grid: density(exp, grid, math.nan),
    "autocorrelation-nan": lambda exp, grid: autocorrelation(exp, math.nan),
    "observables-inf": lambda exp, grid: observables(exp, math.inf),
    "density-inf": lambda exp, grid: density(exp, grid, math.inf),
    "autocorrelation-minus-inf": lambda exp, grid: autocorrelation(exp, -math.inf),
    "density-table-minus-inf": lambda exp, grid: density(exp, grid, -math.inf, BasisTable.for_expansion(exp, grid)),
    "detect_revival-nan-values": lambda exp, grid: detect_revival([0.0, 1.0, 2.0], [math.nan] * 3, (0.0, 2.0)),
    "detect_revival-inf-time": lambda exp, grid: detect_revival([0.0, math.inf], [1.0, 0.5], (0.0, 1.0)),
}


@pytest.mark.parametrize("call", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_times_and_values_are_refused(call):
    # a ValueError naming the cause, before any NaN record or RuntimeWarning
    # (the suite turns every warning into an error)
    exp = two_level_toy()
    with pytest.raises(ValueError, match="must be finite"):
        call(exp, RadialGrid.uniform(400.0, 50))


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
    single = EigenExpansion(n_min=5, coeffs=np.ones(1))
    for t in (0.0, 17.3, 9.9e7):
        assert autocorrelation(single, t) == pytest.approx(1.0, abs=1e-14)


def test_density_initial_peak_and_norm(exp85, grid85, basis85):
    f = density(exp85, grid85, 0.0, basis85)
    assert np.all(f >= 0.0)
    peak_r = grid85.points[np.argmax(f)]
    assert peak_r == pytest.approx(14449.0, rel=0.02)
    simpson = pytest.importorskip("scipy.integrate").simpson
    total = simpson(f, x=grid85.points)
    assert total == pytest.approx(1.0 - exp85.deficit, abs=1e-6)


@pytest.mark.parametrize("nbar", [20, 85, 150])
def test_density_and_reconstruct_match_the_complex_product(nbar, per_level_radial):
    # the reference is the complex product c(t) @ T with an independent table
    q = QuantumNumbers(nbar)
    exp = decompose(fit_parameters(q), center=nbar)
    grid = RadialGrid.uniform(4.0 * nbar**2, 16000)  # the CLI default
    table = np.array([per_level_radial(int(n), 1, grid.points) for n in exp.ns])
    basis = BasisTable.for_expansion(exp, grid)
    ts = timescales(q)
    for t in (0.0, ts.T_cl_au / 2.0, ts.t_rev_au / 2.0):
        psi = (exp.coeffs * spectral._phases(exp, t)) @ table
        want = grid.points**2 * np.abs(psi) ** 2
        f = density(exp, grid, t, basis)
        assert np.max(np.abs(f - want)) <= 2e-15 * np.max(want), t
    # near the core the levels cancel to a fraction of a percent of their
    # sum (sum |c_n R_n| reaches 1200 max |psi| at t = 0), so the rounding
    # of either route is bounded pointwise by that sum, not by max |psi|
    scale = np.abs(exp.coeffs) @ np.abs(table)
    got = np.concatenate([re for _, _, (re, _) in spectral._amplitude_blocks(exp.ns, [exp.coeffs], grid.points)])
    assert np.all(np.abs(got - exp.coeffs @ table) <= 2e-15 * scale)


@pytest.mark.parametrize("points", [16000, 10007])
@pytest.mark.parametrize("nbar", [20, 85, 150, 230])
def test_density_without_a_table_has_the_bits_of_the_table_route(nbar, points):
    # ``density`` without a table is one row of ``_densities``; blocks of 4096
    # radii end in a short block on either grid, and at nbar 230 the envelope
    # underflows on the grid, so the blocks meet cut columns too
    q = QuantumNumbers(nbar)
    exp = decompose(fit_parameters(q), center=nbar)
    grid = RadialGrid.uniform(4.0 * nbar**2, points)
    assert points % spectral._POINT_BLOCK
    basis = BasisTable.for_expansion(exp, grid)
    assert nbar < 230 or (basis.values[:, 1:] == 0.0).any()
    ts = timescales(q)
    times = [0.0, ts.T_cl_au / 2.0, ts.t_rev_au / 3.0]
    snapshots = evolution._densities(exp, grid.points, times)
    for t, f in zip(times, snapshots):
        assert np.array_equal(f, density(exp, grid, t, basis)), t
        # and both have the bits of one real product with the whole table
        c = exp.coeffs * spectral._phases(exp, t)
        re, im = np.stack([c.real, c.imag]) @ basis.values * grid.points
        assert np.array_equal(f, re**2 + im**2), t
    re, im = np.stack([exp.coeffs, np.zeros_like(exp.coeffs)]) @ basis.values
    blocks = [parts for _, _, parts in spectral._amplitude_blocks(exp.ns, [exp.coeffs], grid.points)]
    assert np.array_equal(np.concatenate(blocks, axis=1), np.stack([re, im])) and not im.any()


def test_density_memory_grows_with_points_not_levels():
    # on 160 000 points a whole table of 41 levels is 52 MB and one of 9
    # levels 12 MB; one block of radii at a time, the 32 more levels may add
    # at most 5 MB to the traced peak of one snapshot
    state = fit_parameters(QuantumNumbers(85))
    wide = decompose(state, window=(65, 105))
    with pytest.warns(DeficitToleranceWarning):
        narrow = decompose(state, window=(81, 89))
    grid = RadialGrid.uniform(4.0 * 85**2, 160_000)
    peaks = []
    for e in (narrow, wide):
        tracemalloc.start()
        try:
            density(e, grid, 1.0e5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 5e6, peaks


def test_density_holds_one_block_table_and_one_tile_at_a_time(exp85, grid85):
    # a block's table is 25 levels x 4096 radii, 0.8 MB.  With one table and
    # one tile alive one snapshot peaks at 2.46 MB; keeping the previous
    # block's table while the next is built reads 3.28 MB, and stepping a
    # tile's Laguerre rows outside the table 2.85 MB (3.7 MB with both)
    density(exp85, grid85, 1.0e5)
    tracemalloc.start()
    try:
        density(exp85, grid85, 1.0e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * exp85.ns.size * spectral._POINT_BLOCK * 8, peak


def test_density_makes_no_complex_copy_of_the_table(exp85, grid85, basis85):
    # a complex c(t) @ table would first copy the table to complex, twice its
    # size; the real (2, N) product allocates a few grid-sized rows
    density(exp85, grid85, 1.0e5, basis85)
    tracemalloc.start()
    try:
        density(exp85, grid85, 1.0e5, basis85)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < basis85.values.nbytes / 2


def test_density_core_focus_at_half_period(exp85, grid85, basis85, ts85):
    simpson = pytest.importorskip("scipy.integrate").simpson
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


def test_record_derives_product_ratio_and_dP():
    rec = UncertaintyRecord(t=1.0, dr=2.0, dpr=3.0, dR=4.0, bound_half_rm2=0.5)
    assert (rec.product, rec.ratio, rec.dP) == (6.0, 2.0 / 3.0, 3.0)
    # a replaced field gives freshly derived values, never stale ones
    moved = replace(rec, dr=4.0)
    assert (moved.product, moved.ratio, moved.dP) == (12.0, 4.0 / 3.0, 3.0)
    assert replace(rec, dpr=5.0).dP == 5.0


def direct_record(exp, t, radial_pr, r_max=None):
    """Reference: the same moments by sampling psi(t) and (d/dr + 1/r) psi(t)
    on the 4096-node rule over [0, r_max] (default 4 n_max^2) and summing,
    with no operator matrices."""
    x, w = radial_quadrature(r_max or 4.0 * exp.n_max**2, 4096)
    psi = np.zeros(x.size, dtype=complex)
    dpsi = np.zeros(x.size, dtype=complex)
    for n, c in zip(exp.ns, exp.coeffs * spectral._phases(exp, t)):
        psi += c * hydrogen_radial(int(n), L, x)
        dpsi += c * radial_pr(int(n), L, x)
    wr2 = w * x**2
    dens = wr2 * np.abs(psi) ** 2
    norm = dens.sum()
    m1, m2 = (dens * x).sum() / norm, (dens * x**2).sum() / norm
    w1, w2 = (dens / x).sum() / norm, (dens / x**2).sum() / norm
    pr = (wr2 * np.imag(np.conj(psi) * dpsi)).sum() / norm
    pr2 = (wr2 * np.abs(dpsi) ** 2).sum() / norm
    dr, dpr, dR = math.sqrt(m2 - m1 * m1), math.sqrt(pr2 - pr * pr), math.sqrt(w2 - w1 * w1)
    return UncertaintyRecord(t, dr, dpr, dR, 0.5 * w2)


@pytest.mark.parametrize("orbits", [0.0, 0.5, 1.0, 4.0])
def test_observables_match_direct_quadrature(exp85, ts85, radial_pr, orbits):
    t = orbits * ts85.T_cl_au
    got = as_tuple(observables(exp85, t, None))
    want = as_tuple(direct_record(exp85, t, radial_pr))
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("t", [0.0, 2.0 * math.pi * 2**3])  # 0 and T_cl(2)
def test_observables_answer_on_the_two_level_toy(radial_pr, t):
    # a rule over [0, 4 n_max^2] = [0, 36] would cut the tail of R_31 short
    # and fail the Gram guard; the reference reaches 400 bohr
    rec = observables(two_level_toy(), t, None)
    want = as_tuple(direct_record(two_level_toy(), t, radial_pr, r_max=400.0))
    assert as_tuple(rec) == pytest.approx(want, rel=1e-8)
    assert rec.product >= 0.5 - 1e-9


def test_expansion_levels_and_energies_are_computed_once_and_read_only(exp85):
    assert exp85.ns is exp85.ns and exp85.energies is exp85.energies
    for arr in (exp85.ns, exp85.energies):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_observables_rejects_coarse_quadrature(exp85, ts85, coarse_quadrature):
    with pytest.raises(NumericalError, match="quadrature too coarse"):
        observables(exp85, ts85.T_cl_au / 2.0, None)


def test_moment_guard_refuses_a_diagonal_that_s_passes(monkeypatch):
    # a rule cut at 2.6 n_max^2 on nbar 20's window [16, 24]: ||S - I||_F is
    # 7.9e-7, within _GRAM_TOL, but <r^2> of the top level, which weighs the
    # cut tail most, is 2.2e-6 off its closed form
    monkeypatch.setattr(
        spectral, "_moment_rule", lambda n_min, n_max: specfun.radial_quadrature(2.6 * n_max**2, 256)
    )
    ns = np.arange(16, 25)
    x, w = spectral._moment_rule(16, 24)
    vals = specfun._radial_rows(ns, L, x)
    gap = np.linalg.norm((vals * (w * x * x)) @ vals.T - np.eye(ns.size))
    assert 1e-7 < gap <= spectral._GRAM_TOL
    spectral._moment_matrices.cache_clear()
    try:
        with pytest.raises(NumericalError, match=r"the <r\^2> diagonal is 2\.19\de-06 off its closed form"):
            spectral._moment_matrices(16, 24)
    finally:
        spectral._moment_matrices.cache_clear()


def test_rule_too_coarse_for_the_window_trips_all_three_guards(monkeypatch, full_moment_rule):
    # 256 nodes over [0, 4 n_max^2] on nbar 85's window [73, 97], where the
    # sized rule has 576: every guard's residual is far past the tolerance,
    # so the build raises on the first, ||S - I||_F
    window, ns = (73, 97), np.arange(73, 98)
    x, w = full_moment_rule(*window, 256)
    vals = specfun._radial_rows(ns, L, x)
    wv = vals * (w * x * x)
    r, r2, rm1, rm2 = ((wv * x) @ vals.T, (wv * x * x) @ vals.T, (wv / x) @ vals.T, (vals * w) @ vals.T)
    gram = np.linalg.norm(_gram(window, (x, w)) - np.eye(ns.size))
    n = ns.astype(float)
    closed = [(3.0 * n**2 - 2.0) / 2.0, n**2 * (5.0 * n**2 - 5.0) / 2.0, 1.0 / n**2, 1.0 / (1.5 * n**3)]
    diagonal = max(np.max(np.abs(np.diag(m) / c - 1.0)) for m, c in zip((r, r2, rm1, rm2), closed))
    energies = -0.5 / n**2
    off = ~np.eye(ns.size, dtype=bool)
    miss = ((energies[:, None] - energies[None, :]) ** 2 * r2 + 2.0 * rm1)[off]
    hypervirial = np.max(np.abs(miss)) / np.max(np.abs(2.0 * rm1[off]))
    assert [round(v, 2) for v in (gram, diagonal, hypervirial)] == [0.05, 0.42, 0.31]
    monkeypatch.setattr(spectral, "_moment_rule", lambda n_min, n_max: full_moment_rule(n_min, n_max, 256))
    spectral._moment_matrices.cache_clear()
    try:
        with pytest.raises(NumericalError, match=r"window \[73, 97\]: \|\|S - I\|\|_F = 5\.376e-02 > 1e-06"):
            spectral._moment_matrices(*window)
    finally:
        spectral._moment_matrices.cache_clear()


def test_hypervirial_guard_refuses_off_diagonals_that_miss_the_spectrum(monkeypatch):
    # energies shifted by a quantum defect of 1e-4, as of a Rydberg level of
    # an alkali atom, leave S and the diagonals of the hydrogen matrices
    # untouched, but (E_m - E_n)^2 <m|r^2|n> = -2 <m|r^-1|n> then misses by
    # 8e-6 of the largest off-diagonal on [73, 97]
    monkeypatch.setattr(spectral, "_energies", lambda ns: -0.5 / (ns.astype(float) + 1e-4) ** 2)
    spectral._moment_matrices.cache_clear()
    try:
        with pytest.raises(
            NumericalError, match=r"window \[73, 97\]: the off-diagonal hypervirial residual is 8\.16\de-06, > 1e-06"
        ):
            spectral._moment_matrices(73, 97)
    finally:
        spectral._moment_matrices.cache_clear()


def test_observables_answer_every_nbar150_point():
    q = QuantumNumbers(150)
    exp = decompose(fit_parameters(q), center=150)
    grid = RadialGrid.uniform(4.0 * 150**2, 16000)  # the CLI default
    for t in np.linspace(0.0, 4.0 * timescales(q).T_cl_au, 250):
        assert observables(exp, t, grid).product >= 0.5 - 1e-9


def test_moment_matrices_run_one_recurrence_per_tile(laguerre_calls):
    calls = laguerre_calls
    spectral._moment_matrices.cache_clear()
    try:
        spectral._moment_matrices(10, 17)
        # 42 anchors of the 576-node rule fill a tile, so the five anchors of
        # [73, 97] (75, 80, ..., 95) share one recurrence
        calls_10_17, calls[:] = calls[:], []
        spectral._moment_matrices(73, 97)
    finally:
        spectral._moment_matrices.cache_clear()
    # below degree 26 every level is its own anchor: one tile steps all eight
    # levels on every node to the largest degree, 17 - 2
    assert calls_10_17 == [(15, (8, 256))]
    # the anchors step to the group's largest degree, 97 - 2, on the 576
    # nodes and a lane per summed level n of its nodes below rho = 1 (r < n/2)
    x = spectral._moment_rule(73, 97)[0]
    lanes = [sum(int((x < n / 2).sum()) for n in (m - 2, m - 1, m + 1, m + 2) if n <= 97) for m in range(75, 100, 5)]
    assert calls == [(95, (5, 576 + max(lanes)))] and max(lanes) == 52


# each window and the node count of its sized rule
RULE_SIZES = {(7, 30): 448, (73, 97): 576, (210, 250): 1152, (265, 305): 1408}


@pytest.mark.parametrize("window", list(RULE_SIZES))
def test_moment_matrices_equal_per_level_reference(window, per_level_radial):
    # the same rule and four products, with R_nl one level at a time;
    # (265, 305): the far nodes are dead (envelope underflowed) for the low rows
    n_min, n_max = window
    x, w = spectral._moment_rule(*window)
    assert x.size == w.size == RULE_SIZES[window]
    vals = np.array([per_level_radial(n, 1, x) for n in range(n_min, n_max + 1)])
    wv = vals * (w * x * x)
    want = np.stack([(wv * x) @ vals.T, (wv * x * x) @ vals.T, (wv / x) @ vals.T, (vals * w) @ vals.T])
    stack = spectral._moment_matrices(*window)
    assert stack.shape == (5, n_max - n_min + 1, n_max - n_min + 1)
    assert np.array_equal(stack.real[:4], want)
    # the four moments are real, and the p_r layer is imaginary
    assert not stack[:4].imag.any() and not stack[4].real.any()


def _full_stack(monkeypatch, rule, window):
    # the uncached build on ``rule``, leaving the matrix cache untouched
    with monkeypatch.context() as m:
        m.setattr(spectral, "_moment_rule", rule)
        return spectral._moment_matrices.__wrapped__(*window)


# the windows decompose grows at nbar 4, 5, 10, 20, 50, 85, 120, 150, 200,
# 230, 260 and 288, and two wide windows from n = 2
SIZED_WINDOWS = [
    (2, 32), (2, 9), (6, 14), (16, 24), (38, 62), (73, 97), (108, 132),
    (138, 162), (180, 220), (210, 250), (240, 280), (268, 308), (2, 15), (2, 40),
]


@pytest.mark.parametrize("window", SIZED_WINDOWS)
def test_sized_moment_rule_agrees_with_the_2048_node_rule(window, monkeypatch, full_moment_rule):
    sized = spectral._moment_matrices(*window)
    full = _full_stack(monkeypatch, full_moment_rule, window)
    for got, want in zip(sized, full):
        assert np.max(np.abs(got - want)) <= 2e-12 * np.max(np.abs(want))


def test_window_past_the_panel_cap_gets_the_2048_node_rule(monkeypatch, full_moment_rule):
    # [2, 120] asks for ceil(120/16) + ceil(120/2) = 8 + 60 panels, more than 32
    assert spectral._moment_rule(2, 120)[0].size == 2048
    full = _full_stack(monkeypatch, full_moment_rule, (2, 120))
    assert np.array_equal(spectral._moment_matrices(2, 120), full)


@pytest.mark.parametrize(
    "nbar, deficit_tol", [(3, 2e-3), (4, 1e-4), (20, 1e-4), (85, 1e-4), (150, 1e-4), (230, 1e-4), (285, 1e-4)]
)
def test_observables_across_the_served_range(nbar, deficit_tol, monkeypatch, full_moment_rule):
    # nbar 3 reaches 2e-3 on [2, 15]; every record agrees with one on the
    # 2048-node stack and keeps the Heisenberg floor.  dR^2 = <r^-2> - <r^-1>^2
    # cancels about three digits near the outer turning point (nbar 230 at
    # t = 0), so dR is compared through its square, against <r^-2>
    q = QuantumNumbers(nbar)
    exp = decompose(fit_parameters(q), center=nbar, deficit_tol=deficit_tol)
    times = [0.0] + np.random.default_rng(nbar).uniform(0.0, 2.0 * timescales(q).T_cl_au, 8).tolist()
    spectral._moment_matrices.cache_clear()
    try:
        got = [observables(exp, t, None) for t in times]
        monkeypatch.setattr(spectral, "_moment_rule", full_moment_rule)
        spectral._moment_matrices.cache_clear()
        want = [observables(exp, t, None) for t in times]
    finally:
        spectral._moment_matrices.cache_clear()
    for rec, ref in zip(got, want):
        assert as_tuple(replace(rec, dR=0.0)) == pytest.approx(
            as_tuple(replace(ref, dR=0.0)), rel=1e-10, abs=0.0
        ), rec.t
        assert abs(rec.dR**2 - ref.dR**2) <= 1e-10 * 2.0 * ref.bound_half_rm2, rec.t
        assert rec.product >= 0.5 - 1e-9


def test_nbar_3_expansion_answers_at_t0():
    # the default tolerance stops growth on the n^-3 law well below N_CAP, so
    # the moment stack no longer needs R_329,1
    with pytest.warns(DeficitToleranceWarning):
        exp = decompose(fit_parameters(QuantumNumbers(3)), center=3)
    assert observables(exp, 0.0, None).product >= 0.5 - 1e-9


def test_basis_table_runs_one_recurrence_per_anchor_group(laguerre_calls):
    calls = laguerre_calls
    r = np.linspace(0.0, 1600.0, 16000)
    BasisTable.build(np.arange(20, 23), r)
    # levels of degree below 26 are their own anchors, one per recurrence
    assert calls == [(18, (1, 16000)), (19, (1, 16000)), (20, (1, 16000))]
    calls[:] = []
    r = np.linspace(0.0, 4.0 * 85**2, 16000)
    BasisTable.build(np.arange(73, 98), r)
    # nbar 85's window on the CLI grid: five recurrences, not 25, each at its
    # anchor m and up to the degree of m + 2, on the 16 000 radii and a lane
    # per summed level n of its radii below rho = 1 (r < n/2)
    lanes = [sum(int((r < n / 2).sum()) for n in (m - 2, m - 1, m + 1, m + 2) if n >= 73) for m in range(75, 100, 5)]
    assert calls == [(m, (1, 16000 + w)) for m, w in zip(range(75, 100, 5), lanes)]
    assert lanes == [86, 90, 96, 102, 107]


def test_basis_table_gives_repeated_and_unsorted_levels_their_own_rows(per_level_radial):
    # on 50 radii one tile holds all four rows; a repeated level is read off
    # into every row that asks for it.  Bytes are compared, so that -0.0 and
    # +0.0 differ
    ns, r = np.array([5, 5, 7, 5]), np.linspace(0.0, 100.0, 50)
    table = BasisTable.build(ns, r)
    for n, row in zip(ns, table.values):
        assert row.tobytes() == per_level_radial(int(n), 1, r).tobytes(), n
    # summed levels out of order and repeated, around the anchors 75, 85, 90
    # and 95: on 50 radii and on the [73, 97] moment rule one tile reads
    # from all four anchors, on 16 000 each tile holds one anchor's run of
    # rows (86 and 84 share 85), and a 4096-point density block is between
    grid = np.linspace(0.0, 4.0 * 85**2, 16000)
    ns = np.array([88, 86, 84, 90, 86, 73, 97, 75, 86])
    for r in (np.linspace(0.0, 4.0 * 85**2, 50), grid, grid[:4096], spectral._moment_rule(73, 97)[0]):
        table = BasisTable.build(ns, r)
        for n, row in zip(ns, table.values):
            assert row.tobytes() == per_level_radial(int(n), 1, r).tobytes(), (n, r.size)


@pytest.mark.parametrize("nbar", [20, 85, 150, 230])
def test_basis_table_equals_per_level_reference(nbar, per_level_radial):
    exp = decompose(fit_parameters(QuantumNumbers(nbar)), center=nbar)
    grid = RadialGrid.uniform(4.0 * nbar**2, 16000)  # the CLI default
    table = BasisTable.for_expansion(exp, grid)
    assert table.values.shape == (exp.ns.size, grid.points.size)
    # the grid, its first 4096-point density block and the window's moment
    # rule; bytes are compared, so that -0.0 and +0.0 differ
    block = BasisTable.build(exp.ns, grid.points[:4096])
    rule = spectral._moment_rule(exp.n_min, exp.n_max)[0]
    for points, values in ((grid.points, table.values), (block.points, block.values), (rule, BasisTable.build(exp.ns, rule).values)):
        for n, row in zip(exp.ns, values):
            assert row.tobytes() == per_level_radial(int(n), 1, points).tobytes(), (n, points.size)


def test_basis_table_validates_levels_and_radii():
    # a p state needs n >= l + 1 = 2
    with pytest.raises(ValueError, match="principal quantum number must be >= 2, got 1"):
        BasisTable.build(np.arange(1, 4), np.linspace(0.0, 10.0, 5))
    with pytest.raises(ValueError, match="non-negative"):
        BasisTable.build(np.arange(2, 5), np.linspace(-1.0, 10.0, 5))
    assert BasisTable.build(np.arange(2, 2), np.linspace(0.0, 10.0, 5)).values.shape == (0, 5)


def test_basis_table_values_are_computed_and_read_only(exp85, grid85, basis85):
    # the table computes its values, and nothing can write them afterwards, so
    # a table accepted by identity of ns and points still holds their values
    assert not basis85.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        basis85.values[0, 0] = 1.0
    assert basis85.ns is exp85.ns and basis85.points is grid85.points


def test_basis_table_keeps_no_writable_caller_array():
    # a caller that rewrites the arrays it passed in cannot make a table claim
    # another expansion or grid: the table keeps read-only copies of them
    exp = decompose(fit_parameters(QuantumNumbers(20)))
    grid = RadialGrid.uniform(4.0 * 20**2, 2000)
    ns = exp.ns + 1  # the window shifted up by one level
    shifted = BasisTable(ns, grid.points)
    ns[:] = exp.ns
    assert not shifted.matches(exp, grid)
    with pytest.raises(ValueError, match="read-only"):
        shifted.ns[0] = exp.n_min
    points = grid.points.copy()
    table = BasisTable(exp.ns, points)
    points[1] *= 2.0
    assert table.matches(exp, grid)
    # a read-only view of a writable array is copied too
    base = exp.ns.copy()
    view = base[:]
    view.flags.writeable = False
    table = BasisTable(view, grid.points)
    base += 1
    assert table.matches(exp, grid)


def test_moment_matrices_overflow_names_the_first_failing_level():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # R_327,1 is summed from its anchor's recurrence at 2r/325, which
        # overflows first (one recurrence per level overflowed at R_329,1)
        with pytest.raises(NumericalError, match="overflow while evaluating R_327,1"):
            spectral._moment_matrices(280, 330)


def _gram(window, rule=None):
    # the Gram matrix S of the window on its moment rule (or on ``rule``), as
    # the guard of ``spectral._moment_matrices`` builds it
    ns = np.arange(window[0], window[1] + 1)
    x, w = rule or spectral._moment_rule(*window)
    vals = specfun._radial_rows(ns, L, x)
    return (vals * (w * x * x)) @ vals.T


def test_moment_matrices_small_windows_pass_the_gram_guard_tightly():
    # below n_max = 7 the rule reaches 196 bohr instead of 4 n_max^2
    for n_min in range(2, 7):
        for n_max in range(n_min, 7):
            spectral._moment_matrices(n_min, n_max)  # passes all three guards
            s = _gram((n_min, n_max))
            assert np.linalg.norm(s - np.eye(s.shape[0]), 2) <= 1e-12, (n_min, n_max)


@pytest.mark.parametrize(
    "window", [(2, 30), (16, 24), (73, 97), (138, 162), (210, 250), (265, 305), (2, 3), (2, 6)]
)
def test_moment_matrices_match_closed_form_diagonals(window):
    stack = spectral._moment_matrices(*window)
    ns = np.arange(window[0], window[1] + 1.0)
    assert stack.shape == (5, ns.size, ns.size)
    assert not stack.flags.writeable
    assert not stack[:4].imag.any() and not stack[4].real.any()
    assert_hydrogen_identities(stack, ns)
    assert np.linalg.norm(_gram(window) - np.eye(ns.size), 2) <= 1e-12


@pytest.mark.parametrize(
    "nbar, deficit_tol", [(3, 2e-3), (4, 1e-4), (20, 1e-4), (85, 1e-4), (150, 1e-4), (230, 1e-4), (285, 1e-4)]
)
def test_moment_matrices_keep_hydrogen_identities_across_the_served_range(nbar, deficit_tol):
    # an oracle for the stack that does not depend on the radial kernel, on
    # the windows decompose grows
    exp = decompose(fit_parameters(QuantumNumbers(nbar)), center=nbar, deficit_tol=deficit_tol)
    assert_hydrogen_identities(spectral._moment_matrices(exp.n_min, exp.n_max), exp.ns.astype(float))


def assert_hydrogen_identities(stack, ns):
    # <r>, <r^2>, <r^-1> and <r^-2> of a bound level (Bethe & Salpeter, section 3)
    mats = stack.real[:4]
    ll = 2.0  # l (l + 1) at l = 1
    want = [
        (3.0 * ns**2 - ll) / 2.0,
        ns**2 * (5.0 * ns**2 + 1.0 - 3.0 * ll) / 2.0,
        1.0 / ns**2,
        1.0 / (ns**3 * 1.5),
    ]
    for mat, diag in zip(mats, want):
        assert np.max(np.abs(np.diag(mat) / diag - 1.0)) <= 5e-12
    # off the diagonal, the double commutator [[H, r^2], H] gives
    # (E_n - E_m)^2 <n|r^2|m> = -2 <n|r^-1|m> for n != m
    energies = -0.5 / ns**2
    residual = (energies[:, None] - energies[None, :]) ** 2 * mats[1] + 2.0 * mats[2]
    off = ~np.eye(ns.size, dtype=bool)
    assert np.max(np.abs(residual[off])) <= 1e-10 * np.max(np.abs(mats[2][off]))


def test_observables_rejects_mismatched_basis(exp85, grid85, basis85):
    other = RadialGrid.uniform(4.0 * 85**2, 1234)
    with pytest.raises(ValueError):
        observables(exp85, 0.0, other, basis85)


@pytest.mark.parametrize("nbar", [85, 150])
def test_scan_point_equals_numpy_scalar_reference(nbar, request, numpy_scalar_point):
    # the Python-float tail, the cached phase rates and the cached
    # populations keep every bit
    exp = request.getfixturevalue(f"exp{nbar}")
    t_cl = timescales(QuantumNumbers(nbar)).T_cl_au
    times = [0.0] + np.random.default_rng(nbar).uniform(0.0, 4.0 * t_cl, 300).tolist()
    for t in times:
        want, want_ac = numpy_scalar_point(exp, t)
        got = observables(exp, t, None)
        for field, a, b in zip(RECORD, as_tuple(got), as_tuple(want)):
            assert type(a) is float and a.hex() == b.hex(), (t, field)
        ac = autocorrelation(exp, t)
        assert type(ac) is float and ac.hex() == want_ac.hex(), t


def test_record_stack_adds_the_momentum_layer_to_the_moment_matrices(exp85):
    # the layers r, r^2, r^-1, r^-2 on the window's rule, then p_r from
    # [H, r] = -i p_r with the expansion's energies: <m|p_r|n> at [n, m]
    stack = spectral._moment_matrices(exp85.n_min, exp85.n_max)
    x, w = spectral._moment_rule(exp85.n_min, exp85.n_max)
    vals = specfun._radial_rows(exp85.ns, L, x)
    wv = vals * (w * x * x)
    energies = exp85.energies
    assert stack.dtype == complex and not stack.flags.writeable
    assert stack.shape == (5, exp85.ns.size, exp85.ns.size)
    assert not stack[:4].imag.any()
    for layer, weighted in zip(stack.real[:4], [wv * x, wv * x * x, wv / x, vals * w]):
        assert np.array_equal(layer, weighted @ vals.T)
    assert not stack[4].real.any()
    assert np.array_equal(stack[4].imag, (energies[None, :] - energies[:, None]) * stack.real[0])
    assert spectral._moment_matrices(exp85.n_min, exp85.n_max) is stack


@pytest.mark.parametrize("nbar", [20, 85, 150, 285])
def test_momentum_form_is_the_rate_of_the_r_form(nbar):
    # Ehrenfest: d<r>/dt = <p_r>.  dp_r squares <p_r>, so only this checks its
    # sign; the forms are read as the record tail reads them, over the weight
    exp = decompose(fit_parameters(QuantumNumbers(nbar)), center=nbar)
    stack = spectral._moment_matrices(exp.n_min, exp.n_max)
    t_cl = timescales(QuantumNumbers(nbar)).T_cl_au
    times = np.random.default_rng(nbar).uniform(0.0, 4.0 * t_cl, 40)
    h = 1e-5 * t_cl

    def mean(layer, ts):
        coeff_t = exp.coeffs * spectral._phases(exp, ts[:, None])
        forms = np.vecdot(coeff_t, coeff_t @ stack).real
        return forms[layer] / exp.weight

    pr = mean(4, times)
    rate = (mean(0, times + h) - mean(0, times - h)) / (2.0 * h)
    assert np.max(np.abs(pr - rate)) <= 1e-6 * np.max(np.abs(pr))


def test_record_stack_follows_the_moment_matrix_cache(exp85, monkeypatch, full_moment_rule):
    # clearing the cache clears what a record reads: no stale stack is served
    times = np.random.default_rng(85).uniform(0.0, 1.0e7, 16)
    phases = spectral._phases(exp85, times[:, None])
    stale = spectral._records(exp85, times.tolist(), phases)
    monkeypatch.setattr(spectral, "_moment_rule", full_moment_rule)
    spectral._moment_matrices.cache_clear()
    try:
        got = spectral._records(exp85, times.tolist(), phases)
        fresh = spectral._moment_matrices.__wrapped__(exp85.n_min, exp85.n_max)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_moment_matrices", lambda n_min, n_max: fresh)
            want = spectral._records(exp85, times.tolist(), phases)
    finally:
        spectral._moment_matrices.cache_clear()
    assert [as_tuple(rec) for rec in got] == [as_tuple(rec) for rec in want]
    assert [as_tuple(rec) for rec in got] != [as_tuple(rec) for rec in stale]


def test_scan_builds_each_window_once(exp85, monkeypatch):
    # three blocks of times read one build of the window's stack
    calls = []
    rule = spectral._moment_rule
    monkeypatch.setattr(
        spectral, "_moment_rule", lambda n_min, n_max: calls.append((n_min, n_max)) or rule(n_min, n_max)
    )
    times = np.linspace(0.0, 1.0e7, 2049)
    spectral._moment_matrices.cache_clear()
    try:
        blocks = list(spectral._scan(exp85, times))
    finally:
        spectral._moment_matrices.cache_clear()
    assert [len(records) for records, _ in blocks] == [1024, 1024, 1]
    assert calls == [(exp85.n_min, exp85.n_max)]


@pytest.mark.parametrize("nbar", [85, 150])
def test_scan_block_records_do_not_depend_on_their_block(nbar, request):
    exp = request.getfixturevalue(f"exp{nbar}")
    t_cl = timescales(QuantumNumbers(nbar)).T_cl_au
    times = [0.0] + np.random.default_rng(nbar).uniform(0.0, 4.0 * t_cl, 300).tolist()
    records, acs = spectral._scan_block(exp, times)
    for block in (times[::-1], times[7:9], times[100:237], [times[50], 0.0, times[50]]):
        got, got_acs = spectral._scan_block(exp, block)
        for rec, ac in zip(got, got_acs):
            i = times.index(rec.t)
            assert rec == records[i] and ac == acs[i], rec.t
    # the autocorrelations have the bits of the one-time call
    for t, ac in zip(times, acs):
        assert ac == autocorrelation(exp, t), t


@pytest.mark.parametrize("nbar", [20, 85, 150, 230])
def test_autocorrelation_keeps_the_bits_of_the_dot_product_form(nbar):
    # the one-time call is a row of the scan's conjugated vecdot of the phases
    # with the populations; it keeps the bits of the former one-time form,
    # the dot product of the populations with the phases on NumPy scalars
    q = QuantumNumbers(nbar)
    exp = decompose(fit_parameters(q))
    t_rev = timescales(q).t_rev_au
    times = [0.0] + np.random.default_rng(nbar + 3).uniform(-t_rev, 2.0 * t_rev, 1000).tolist()
    acs = spectral._autocorrelations(exp, spectral._phases(exp, np.array(times)[:, None]))
    s = exp.weight
    for t, ac in zip(times, acs):
        want = float(abs(np.dot(exp.populations, np.exp(exp.phase_rates * t)))) ** 2 / s**2
        assert autocorrelation(exp, t).hex() == ac.hex() == want.hex(), t


@pytest.mark.parametrize("nbar", [85, 150])
def test_scan_yields_consecutive_slices_lazily(nbar, request, monkeypatch):
    # 1025 times are a slice of 1024 and a slice of one, each evaluated when
    # it is asked for, and their rows are those of one block of them all
    exp = request.getfixturevalue(f"exp{nbar}")
    t_cl = timescales(QuantumNumbers(nbar)).T_cl_au
    times = np.sort(np.random.default_rng(nbar + 2).uniform(0.0, 4.0 * t_cl, 1025)).tolist()
    want = spectral._scan_block(exp, times)
    slices = []

    def counted(exp, ts):
        slices.append(np.asarray(ts).tolist())
        return scan_block(exp, ts)

    scan_block = spectral._scan_block
    monkeypatch.setattr(spectral, "_scan_block", counted)
    scan = spectral._scan(exp, times)
    assert slices == []  # a block is evaluated only when it is asked for
    blocks = [next(scan)]
    assert slices == [times[:1024]]
    blocks += list(scan)
    assert slices == [times[:1024], times[1024:]]
    assert [rec for records, _ in blocks for rec in records] == want[0]
    assert [ac for _, acs in blocks for ac in acs] == want[1]


@pytest.mark.parametrize("nbar", [20, 85, 150, 230, 285])
def test_one_time_record_matches_its_row_of_a_block(nbar):
    # every time takes the same one-row product in any block, so a record has
    # one bit pattern: in blocks of 1, 2, 1024 and 1025 times, t = 0 among them
    exp = decompose(fit_parameters(QuantumNumbers(nbar)), center=nbar)
    t_cl = timescales(QuantumNumbers(nbar)).T_cl_au
    times = [0.0] + np.random.default_rng(nbar + 1).uniform(0.0, 4.0 * t_cl, 1024).tolist()
    records = spectral._scan_block(exp, times)[0]
    assert [as_tuple(rec) for rec in spectral._scan_block(exp, times[:1024])[0]] == [
        as_tuple(rec) for rec in records[:1024]
    ]
    for t, row in zip(times, records):
        assert as_tuple(observables(exp, t, None)) == as_tuple(row), t
        assert as_tuple(spectral._scan_block(exp, [t, 0.0])[0][0]) == as_tuple(row), t


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
    # one level with <r^-1> = 1/4 and <r^-2> = 1/8: <p_r^2> = 2 E_2 + 2/4 - 2/8 = 0,
    # E_2 = -1/8, and <p_r> = 0
    stack = np.array([[[5.0]], [[30.0]], [[0.25]], [[0.125]], [[0.0]]], dtype=complex)
    monkeypatch.setattr(spectral, "_moment_matrices", lambda n_min, n_max: stack)
    single = EigenExpansion(n_min=2, coeffs=np.array([1.0]))
    with pytest.raises(NumericalError, match="dp_r = 0"):
        observables(single, 0.0, None)


def test_zero_weight_expansion_has_no_observables():
    # an expansion always carries weight: one of zero weight is refused when
    # it is built, so observables and autocorrelation never divide by 0
    with pytest.raises(ValueError, match="captured weight 0.0 lies outside"):
        EigenExpansion(n_min=2, coeffs=np.zeros(2))


def test_zero_weight_is_refused_before_any_product(monkeypatch):
    # the norm is the weight, so no stack is built or read for an expansion
    # of zero weight: the constructor refuses it
    def refuse(n_min, n_max):
        raise AssertionError("the stack was read")

    monkeypatch.setattr(spectral, "_moment_matrices", refuse)
    with pytest.raises(ValueError, match="captured weight 0.0 lies outside"):
        spectral._scan_block(EigenExpansion(n_min=2, coeffs=np.zeros(2)), [0.0, 1.0])


def test_autocorrelation_of_a_weight_whose_square_underflows_is_refused():
    # a weight below 2^-511 squares to no normal float: 4.1e-87 gives a weight
    # of 1.7e-173, whose square, the normalization, is 0, so the
    # autocorrelation divided by 0; 2^-511 itself is served
    tiny = EigenExpansion(2, [4.1e-87])
    with pytest.raises(NumericalError, match="weight 1.68.*e-173 squares past the float range"):
        autocorrelation(tiny, 0.0)
    with pytest.raises(NumericalError, match="squares past the float range"):
        spectral._scan_block(tiny, [0.0])
    assert autocorrelation(EigenExpansion(2, [2.0**-256, 2.0**-256]), 0.0) == 1.0


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
