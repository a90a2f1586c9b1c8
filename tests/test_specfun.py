import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rydpack import specfun
from rydpack.evolution import BasisTable
from rydpack.specfun import (
    NumericalError,
    hydrogen_energy,
    hydrogen_radial,
    radial_quadrature,
)


def test_laguerre_low_orders(laguerre):
    assert laguerre(0, 3.0, 17.2) == 1.0
    assert laguerre(1, 3.0, 2.0) == pytest.approx(2.0, abs=1e-15)
    # L2^a(x) = (a+1)(a+2)/2 - (a+2) x + x^2/2 expanded by hand at a=1, x=2
    assert laguerre(2, 1.0, 2.0) == pytest.approx(-1.0, abs=1e-14)
    assert np.allclose(laguerre(0, 0.5, np.array([0.0, 1.0, 5.0])), 1.0)


def test_laguerre_three_term_recurrence(laguerre):
    # values of one-row recurrences to consecutive degrees must satisfy the
    # textbook recurrence
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 201))
        a = float(rng.uniform(0.0, 400.0))
        x = float(rng.uniform(0.0, min(5e4, 8.0 * n + 2.0 * a)))
        lm2, lm1, ln = (laguerre(n - 2, a, x), laguerre(n - 1, a, x), laguerre(n, a, x))
        resid = n * ln - (2 * n - 1 + a - x) * lm1 + (n - 1 + a) * lm2
        assert abs(resid) <= 1e-10 * max(1.0, abs(ln))


@pytest.mark.parametrize(
    "k, a", [(2, 3.0), (20, 3.0), (84, 3.0), (149, 3.0), (229, 3.0), (300, 3.0), (60, 171.2), (140, 461.0)]
)
def test_laguerre_matches_mpmath_oracle(k, a, laguerre):
    # one-row _laguerre_rows calls over the scale m_k they carry; m_k comes
    # from a running frexp product; taken as exp(lgamma(k + 1) - E_k ln 2)
    # instead, the cancellation between two ~1e3 logs costs ~5e-14 and fails
    # these bounds
    mp = pytest.importorskip("mpmath")
    inner = 4.0 * k + 2.0 * a + 2.0
    x_in = inner * (np.arange(61) + 0.5) / 61.0
    x_out = inner + (4.0 * k + 8.0) * np.arange(1, 25) / 24.0  # up to 8k + 2a + 10
    with mp.workdps(40):
        ref_in = np.array([float(mp.laguerre(k, a, mp.mpf(v))) for v in x_in])
        ref_out = np.array([float(mp.laguerre(k, a, mp.mpf(v))) for v in x_out])
    assert np.max(np.abs(laguerre(k, a, x_in) - ref_in)) <= 2e-14 * np.max(np.abs(ref_in))
    finite = np.isfinite(ref_out)  # L_300 passes 1e308 far out
    got_out = laguerre(k, a, x_out)
    assert np.all(np.abs(got_out[finite] - ref_out[finite]) <= 5e-14 * np.abs(ref_out[finite]))
    # where the value passes the float range, and only there, it is not finite
    assert not np.isfinite(got_out[~finite]).any()


def _laguerre_allocating(n, a, x):
    # allocate-per-step reference of the carried recurrence
    # P_k = k! 2^-E_k L_k = (2k-1+a-x) 2^-e_k P_{k-1} - (k-1)(k-1+a) 2^-(E_k-E_{k-2}) P_{k-2},
    # with k! = m_k 2^E_k from a running frexp product; L_n = P_n / m_n at
    # real or complex x
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    m, E = [1.0, 1.0], [0, 0]
    for k in range(2, n + 1):
        frac, shift = math.frexp(m[-1] * k)
        m.append(frac)
        E.append(E[-1] + shift)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 1.0 + a - x
    for k in range(2, n + 1):
        e = E[k] - E[k - 1]
        step = math.ldexp(2.0 * k - 1.0 + a, -e) - x * math.ldexp(1.0, -e)
        prev, cur = cur, step * cur - math.ldexp((k - 1.0) * (k - 1.0 + a), E[k - 2] - E[k]) * prev
    return cur / m[n]


def test_laguerre_in_place_steps_are_bit_identical(laguerre):
    rng = np.random.default_rng(2024)
    degrees = [0, 1, 2, 3, 84, 149, 229, 300] + [int(d) for d in rng.integers(0, 301, 12)]
    for n in degrees:
        a = float(rng.choice([1.0, 3.0, rng.uniform(0.0, 50.0)]))
        x = rng.uniform(0.0, 8.0 * n + 2.0 * a + 10.0, int(rng.integers(1, 300)))
        with np.errstate(over="ignore", invalid="ignore"):  # the top degrees overflow far out
            want = _laguerre_allocating(n, a, x)
        finite = np.isfinite(want)
        got = laguerre(n, a, x)
        assert np.array_equal(got[finite], want[finite]), (n, a)
        assert not np.isfinite(got[~finite]).any(), (n, a)
    grid = rng.uniform(0.0, 40.0, (3, 5))
    assert np.array_equal(laguerre(7, 3.0, grid), _laguerre_allocating(7, 3.0, grid))


def test_radial_costs_one_recurrence_on_the_live_columns(laguerre_calls):
    calls = laguerre_calls
    hydrogen_radial(20, 1, np.linspace(0.0, 800.0, 101))
    assert calls == [(18, (1, 101))]
    # on a sorted grid the recurrence stops at the level's live bound, the
    # first radius past r_live, a few columns past the last point whose
    # envelope is nonzero
    r = np.linspace(0.0, 4.0 * 230**2, 16000)
    values = hydrogen_radial(20, 1, r)
    envelope = specfun._envelope(specfun._radial_log_const(20, 1), 1, (2.0 / 20) * r)
    last = np.flatnonzero(envelope)[-1]
    end = np.searchsorted(r, specfun._level(20, 1).r_live)
    assert calls[1:] == [(18, (1, end))] and last < end and last < 2000
    # every value where the envelope is 0 is +0.0, at r = 0 and past the end
    cut = values[envelope == 0.0]
    assert cut.size > 14000 and np.all(cut == 0.0) and not np.signbit(cut).any()
    # and so for a summed level: R_87,1 steps its anchor 85 to its own
    # degree, 87 - 2, on the radii up to its bound and a lane of the 4 radii
    # below rho = 1 (r < 43.5) at its own rho
    calls[:] = []
    values = hydrogen_radial(87, 1, r)
    envelope = specfun._envelope(specfun._radial_log_const(87, 1), 1, (2.0 / 87) * r)
    end = np.searchsorted(r, specfun._level(87, 1).r_live)
    assert calls == [(85, (1, end + 4))] and r[3] < 43.5 < r[4]
    cut = values[envelope == 0.0]
    assert cut.size > 3000 and np.all(cut == 0.0) and not np.signbit(cut).any()


def _mp_radial(mp, n, l, r):
    rho = 2 * r / n
    norm = mp.sqrt((mp.mpf(2) / n) ** 3 * mp.factorial(n - l - 1) / (2 * n * mp.factorial(n + l)))
    return norm * mp.exp(-rho / 2) * rho**l * mp.laguerre(n - l - 1, 2 * l + 1, rho)


def _mp_radius_grid(n):
    return 2.2 * n * n * (np.arange(37) + 0.5) / 37.0


# every residue of n mod 5 (so every offset d = n - m from an anchor) at
# small and large n; n = 2 and n = 3 put the Laguerre recurrence at degree 0
# and 1
@pytest.mark.parametrize("n", [2, 3, 20, *range(36, 41), 85, 150, 200, 230, *range(281, 286), 320])
def test_radial_kernel_matches_mpmath_oracle(n):
    # l = 0, 1, 2, n // 2 and n - 27 (from n = 54 on a summed level of
    # degree 26 or more, the largest summed l) and n - 1, whose degree 0 makes
    # the level its own anchor
    mp = pytest.importorskip("mpmath")
    r = _mp_radius_grid(n)
    for l in sorted({0, 1, 2, n // 2, n - 27, n - 1} & set(range(n))):
        with mp.workdps(40):
            ref = np.array([float(_mp_radial(mp, n, l, mp.mpf(x))) for x in r])
        assert np.max(np.abs(hydrogen_radial(n, l, r) - ref)) <= 2e-12 * np.max(np.abs(ref)), l


def test_anchor_groups_and_term_counts():
    # |d|^t / t! >= 2^-60 keeps t = 0..19 at |d| = 1 and t = 0..25 at |d| = 2
    assert specfun._TERMS == {1: 20, 2: 26} and specfun._OWN_ANCHOR_DEGREE == 26
    for n in range(2, 401):
        level = specfun._level(n, 1)
        if n - 2 < 26:
            assert level.anchor == n and level.weights is None, n
        else:
            d = n - level.anchor
            assert level.anchor % 5 == 0 and -2 <= d <= 2, n
            assert (level.weights is None) == (d == 0), n
            if d:
                assert level.weights.size == {1: 20, 2: 26}[abs(d)] and not level.weights.flags.writeable


@pytest.mark.parametrize("m", [35, 285])
@pytest.mark.parametrize("l", [0, 1, 2])
def test_anchor_weights_match_the_multiplication_theorem(m, l):
    # each weight against e_t = C(k + a, t) lambda^(k-t) (1 - lambda)^t m_k/m_{k-t}
    # in 50 digits, and the truncated sum against L_k^a(2r/n) itself
    mp = pytest.importorskip("mpmath")
    a = 2 * l + 1
    for d in (-2, -1, 1, 2):
        n = m + d
        k = n - l - 1
        level = specfun._level(n, l)
        assert level.anchor == m
        E = specfun._factorial_scale(k)[1]
        rho_m = np.linspace(0.0, 3.0 * n, 25)
        with mp.workdps(50):
            lam = mp.mpf(m) / n

            def scale(j):
                return mp.factorial(j) / mp.mpf(2) ** E[j]

            for t, w in enumerate(level.weights):
                exact = mp.binomial(k + a, t) * lam ** (k - t) * (1 - lam) ** t * scale(k) / scale(k - t)
                assert abs(w - exact) <= 2e-15 * abs(exact), (n, t)
            want = np.array([float(scale(k) * mp.laguerre(k, a, lam * mp.mpf(x))) for x in rho_m])
        terms = [specfun._laguerre_rows([k - t], a, rho_m[None])[0] for t in range(level.weights.size)]
        got = sum(w * p for w, p in zip(level.weights, terms))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), n


def test_kernel_weights_equal_the_python_float_reference(anchor_weights):
    # the vectorized weights of the kernel against the conftest reference's
    # loop in Python floats, bit for bit
    for l in (0, 1, 2):
        for n in range(l + 1, 401):
            m, weights = anchor_weights(n, l)
            level = specfun._level(n, l)
            assert level.anchor == m, (n, l)
            if weights is None:
                assert level.weights is None, (n, l)
            else:
                assert np.array_equal(level.weights, weights), (n, l)


@pytest.mark.parametrize("nbar, window", [(20, (16, 24)), (85, (73, 97)), (150, (138, 162)), (230, (210, 250)), (285, (265, 305))])
def test_anchor_groups_stay_close_to_one_recurrence_per_level(nbar, window, one_recurrence_radial):
    # on the CLI grid, every row within 2e-12 of its maximum of the
    # one-recurrence-per-level values, and the rows read off a recurrence
    # at their own rho (anchors, levels of degree below 26) keep its bits
    ns = np.arange(window[0], window[1] + 1)
    r = np.linspace(0.0, 4.0 * nbar**2, 16000)
    table = specfun._radial_rows(ns, 1, r)
    for n, row in zip(ns, table):
        want = one_recurrence_radial(int(n), 1, r)
        if specfun._level(int(n), 1).weights is None:
            assert np.array_equal(row, want), n
        else:
            assert np.max(np.abs(row - want)) <= 2e-12 * np.max(np.abs(want)), n
            # below rho = 1 a summed level has the bits of its own recurrence
            near = r < n / 2
            assert near.sum() >= 4 and np.array_equal(row[near], want[near]), n


def test_anchor_groups_are_no_less_accurate_than_one_recurrence_per_level(one_recurrence_radial):
    # nbar 85's window on its CLI grid, the first 39 radii (where each row
    # has its maximum) and every 400th, against 60-digit mpmath: the worst
    # error over the row maximum is no larger than that of one recurrence
    # per level (9.75e-14, at R_85,1 and r = 1.8); summing at the first
    # radii gave 1.5e-13 at R_86,1
    mp = pytest.importorskip("mpmath")
    ns = np.arange(73, 98)
    r = np.linspace(0.0, 4.0 * 85**2, 16000)
    idx = np.unique(np.concatenate([np.arange(1, 40), np.arange(0, 16000, 400)]))
    table = specfun._radial_rows(ns, 1, r)[:, idx]
    worst = {"groups": 0.0, "one": 0.0}
    for n, row in zip(ns, table):
        with mp.workdps(60):
            ref = np.array([float(_mp_radial(mp, int(n), 1, mp.mpf(float(x)))) for x in r[idx]])
        top = np.max(np.abs(ref))
        worst["groups"] = max(worst["groups"], np.max(np.abs(row - ref)) / top)
        worst["one"] = max(worst["one"], np.max(np.abs(one_recurrence_radial(int(n), 1, r[idx]) - ref)) / top)
    assert worst["groups"] <= worst["one"] < 2e-13, worst


def _assert_stops_at_the_live_bound(tiles, l, r, tile_calls):
    # the recurrence of each tile (a list of levels) steps the radii before the
    # first past the tile's largest r_live, and the summed levels' lanes
    # below rho = 1; every radius from there on has a zero envelope in every
    # row, and at most 1% of the radii are stepped past the last live one
    for tile, (_, shape) in zip(tiles, tile_calls, strict=True):
        levels = [specfun._level(n, l) for n in tile]
        end = np.searchsorted(r, max(v.r_live for v in levels))
        lanes = sum(np.searchsorted(r, 0.5 * n) for n, v in zip(tile, levels) if v.weights is not None)
        assert shape == (len({v.anchor for v in levels}), end + lanes), tile
        envelope = np.array([specfun._envelope(v.log_const, l, (2.0 / n) * r) for n, v in zip(tile, levels)])
        live = np.flatnonzero(envelope.any(axis=0))
        assert live[-1] < end and not envelope[:, end:].any(), tile
        assert end - (live[-1] + 1) <= 0.01 * r.size, (tile, end - live[-1] - 1)


def test_recurrence_stops_at_the_tiles_live_bound(laguerre_calls):
    # far radii, to twice the bound, on tiles of up to eight anchors
    for ns, l in (([20, 21, 87], 1), ([30], 0), ([148, 150], 2)):
        r_live = max(specfun._level(n, l).r_live for n in ns)
        r = np.linspace(0.0, 2.0 * r_live, 3000)
        laguerre_calls[:] = []
        specfun._radial_rows(np.array(ns), l, r)
        _assert_stops_at_the_live_bound([ns], l, r, laguerre_calls)
    # 16 000-point tables, one anchor group per tile
    for nbar, (lo, hi) in ((20, (16, 24)), (85, (73, 97)), (150, (138, 162)), (230, (210, 250)), (285, (265, 305))):
        r = np.linspace(0.0, 4.0 * nbar**2, 16000)
        groups = {}
        for n in range(lo, hi + 1):
            groups.setdefault(specfun._level(n, 1).anchor, []).append(n)
        laguerre_calls[:] = []
        specfun._radial_rows(np.arange(lo, hi + 1), 1, r)
        _assert_stops_at_the_live_bound(list(groups.values()), 1, r, laguerre_calls)


def test_package_tables_come_in_the_kernels_own_order(tmp_path, monkeypatch, capsys):
    # every table the package builds has strictly increasing levels and
    # non-decreasing radii, so none takes the kernel's sorting step: the CLI
    # pipeline at nbar 20 and 85 (the moment rules of scan and density, the
    # density blocks) and in-process tables and snapshots
    import rydpack as rp
    from rydpack import cli, evolution, spectral

    kernel, calls = specfun._radial_rows, []

    def recorded(ns, l, r):
        calls.append(bool((np.diff(ns) > 0).all() and (np.diff(r) >= 0.0).all()))
        return kernel(ns, l, r)

    # a caller's unsorted call is recorded before the door sorts it
    for module in (specfun, spectral, evolution):
        monkeypatch.setattr(module, "_radial_rows", recorded)
    spectral._moment_matrices.cache_clear()
    for nbar in (20, 85):
        out = tmp_path / str(nbar)
        common = ["--nbar", str(nbar), "-o", str(out)]
        exp = ["--expansion", str(out / "expansion.csv")]
        assert cli.main(["fit", *common]) == 0
        assert cli.main(["decompose", *common, "--state", str(out / "state.json")]) == 0
        assert cli.main(["scan", *common, *exp, "--t-stop", "Tcl", "--t-steps", "11"]) == 0
        assert cli.main(["density", *common, *exp, "--times", "0,trev/2"]) == 0
        expansion = rp.decompose(rp.fit_parameters(rp.QuantumNumbers(nbar)))
        grid = rp.RadialGrid.uniform(4.0 * nbar**2, 16000)
        before = len(calls)
        rp.BasisTable.for_expansion(expansion, grid)
        rp.density(expansion, grid, 0.0)
        assert len(calls) - before == 1 + 4  # a table, then 4 blocks
    capsys.readouterr()
    # per nbar: scan's moment build (density reuses it), density's 4 blocks
    # and the 5 in-process calls
    assert len(calls) == 2 * (1 + 4 + 5) and all(calls), calls


def test_table_transient_memory_stays_below_one_recurrence_per_level():
    # a 16 000-point table of nbar 85's window: beside the table, the
    # kernel holds the anchor's rho and lanes, the recurrence's five buffers
    # and one scratch row, 7.4 grid rows at its peak; one recurrence per
    # level held 8.3 (rho, envelope and live mask beside the five buffers)
    ns, r = np.arange(73, 98), np.linspace(0.0, 4.0 * 85**2, 16000)
    specfun._radial_rows(ns, 1, r)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = specfun._radial_rows(ns, 1, r)
        transient = tracemalloc.get_traced_memory()[1] - base - table.nbytes
    finally:
        tracemalloc.stop()
    assert transient <= 8.3 * 8 * r.size, transient / (8 * r.size)


@pytest.mark.parametrize("n", [2, 3, 20, 85, 150])
def test_radial_pr_reference_matches_mpmath_oracle(n, radial_pr):
    # the (d/dr + 1/r) R_n1 that test_evolution's direct quadrature relies on;
    # n = 2 puts its L_{k-1}^{a+1} term at degree -1, where it is absent
    mp = pytest.importorskip("mpmath")
    r = _mp_radius_grid(n)
    with mp.workdps(40):
        dref = [
            mp.diff(lambda s: _mp_radial(mp, n, 1, s), mp.mpf(x)) + _mp_radial(mp, n, 1, mp.mpf(x)) / x
            for x in r
        ]
        dref = np.array([float(v) for v in dref])
    assert np.max(np.abs(radial_pr(n, 1, r) - dref)) <= 2e-12 * np.max(np.abs(dref))


def test_hydrogen_energy():
    assert hydrogen_energy(1) == -0.5
    assert hydrogen_energy(2) == -0.125
    assert hydrogen_energy(85) == pytest.approx(-1.0 / 14450.0, rel=1e-15)
    with pytest.raises(ValueError):
        hydrogen_energy(0)


def test_radial_ground_state_value():
    # R_10(r) = 2 exp(-r)
    assert hydrogen_radial(1, 0, 0.0) == pytest.approx(2.0, rel=1e-14)
    r = np.linspace(0.0, 10.0, 11)
    assert np.allclose(hydrogen_radial(1, 0, r), 2.0 * np.exp(-r), rtol=1e-13)


def test_radial_invalid_quantum_numbers():
    for n, l in ((0, 0), (3, 3), (2, -1)):
        with pytest.raises(ValueError):
            hydrogen_radial(n, l, 1.0)
    with pytest.raises(ValueError):
        hydrogen_radial(2, 1, -1.0)


def test_radial_orthogonality_low_n():
    x, w = radial_quadrature(200.0, 4096)
    overlap = np.dot(w, hydrogen_radial(2, 1, x) * hydrogen_radial(3, 1, x) * x**2)
    assert abs(overlap) < 1e-12


def test_radial_normalization_independent_quadrature():
    # independent oracle: dense Simpson rule, not the Gauss-Legendre panels
    simpson = pytest.importorskip("scipy.integrate").simpson
    r = np.linspace(0.0, 4.0 * 85**2, 120_001)
    vals = hydrogen_radial(85, 1, r)
    norm = simpson(vals**2 * r**2, x=r)
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_radial_orthonormality_window():
    x, w = radial_quadrature(4.0 * 85**2, 4096)
    basis = {n: hydrogen_radial(n, 1, x) for n in range(80, 91)}
    for n in range(80, 91):
        for m in range(n, 91):
            overlap = np.dot(w, basis[n] * basis[m] * x**2)
            want = 1.0 if n == m else 0.0
            assert abs(overlap - want) <= 1e-8, (n, m, overlap)


@pytest.mark.parametrize("n,l", [(5, 1), (12, 1), (30, 1), (10, 0), (9, 4)])
def test_radial_node_count(n, l):
    r = np.linspace(1e-6, 2.2 * n**2 + 20.0, 40_000)
    vals = hydrogen_radial(n, l, r)
    signs = np.sign(vals)
    changes = int(np.sum(signs[:-1] * signs[1:] < 0))
    assert changes == n - l - 1


def test_radial_quadrature_exactness():
    x, w = radial_quadrature(50.0, 2048)
    assert np.dot(w, np.exp(-x)) == pytest.approx(1.0 - math.exp(-50.0), rel=1e-13)
    assert np.dot(w, x**2) == pytest.approx(50.0**3 / 3.0, rel=1e-13)
    assert x.min() > 0.0 and x.max() < 50.0
    with pytest.raises(ValueError):
        radial_quadrature(-1.0)


def test_radial_quadrature_rounds_the_count_up_to_whole_panels():
    # one panel of up to 64 nodes, above that whole panels of 64
    for asked, got in ((1, 1), (64, 64), (65, 128), (100, 128), (128, 128)):
        x, w = radial_quadrature(50.0, asked)
        assert x.shape == w.shape == (got,), asked


def test_radial_quadrature_returns_fresh_arrays():
    # the reference Legendre rule is cached; what callers get must not alias it
    x1, w1 = radial_quadrature(50.0, 2048)
    x2, w2 = radial_quadrature(50.0, 2048)
    assert np.array_equal(x1, x2) and np.array_equal(w1, w2)
    for a, b in ((x1, x2), (w1, w2)):
        assert a.flags.writeable and not np.shares_memory(a, b)
    x1[:] = 0.0
    w1[:] = 0.0
    x3, w3 = radial_quadrature(50.0, 2048)
    assert np.array_equal(x3, x2) and np.array_equal(w3, w2)


_RADII = np.linspace(0.0, 4.0 * 85**2, 200)


@pytest.mark.parametrize(
    "call, bad, whole",
    [
        (lambda state, v: hydrogen_energy(v), 2.5, 2.0),
        (lambda state, v: hydrogen_energy(v), math.nan, 2.0),
        (lambda state, v: hydrogen_radial(v, 1, _RADII), 85.5, 85.0),
        (lambda state, v: hydrogen_radial(85, v, _RADII), 1.5, 1.0),
        # the second level is checked too, not only the lowest
        (lambda state, v: BasisTable.build(np.array([85.0, v]), _RADII).values, 86.5, 86.0),
    ],
    ids=["energy", "energy-nan", "radial-n", "radial-l", "table"],
)
def test_levels_and_degrees_must_be_whole_numbers(call, bad, whole, state85):
    # QuantumNumbers' rule: a fractional level or l is refused by
    # name, and a whole float gives the bits of the int
    with pytest.raises(ValueError, match=f"whole number, got {bad}"):
        call(state85, bad)
    want = np.asarray(call(state85, int(whole)))
    assert np.asarray(call(state85, whole)).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "r_max, n_nodes, message",
    [
        (50.0, 0, "n_nodes must be >= 1"),
        (50.0, -5, "n_nodes must be >= 1"),
        (50.0, 2.5, "n_nodes must be a whole number"),
        (math.nan, 64, "r_max must be positive and finite"),
        (math.inf, 64, "r_max must be positive and finite"),
        (0.0, 64, "r_max must be positive and finite"),
        (50.0, 2**63, "n_nodes must be <= 1048576"),  # once asked NumPy for an exbibyte
    ],
)
def test_radial_quadrature_refuses_bad_inputs_by_name(r_max, n_nodes, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            radial_quadrature(r_max, n_nodes)
    # a whole float is a node count
    assert all(np.array_equal(a, b) for a, b in zip(radial_quadrature(50.0, 64.0), radial_quadrature(50.0, 64)))


def test_radial_quadrature_past_the_float_range_is_a_numerical_error():
    # the top panel's midpoint sums its edges, which passed the float range
    # with a RuntimeWarning; one panel of the same r_max is served
    with pytest.raises(NumericalError, match="passes the float range"):
        radial_quadrature(sys.float_info.max, 600)
    x, w = radial_quadrature(sys.float_info.max, 64)
    assert np.isfinite(x).all() and np.isfinite(w).all()


@pytest.mark.parametrize("complex_x", [False, True])
def test_laguerre_rows_read_each_row_at_its_own_degree(complex_x):
    # one recurrence to the largest degree gives, row by row, exactly the
    # values of a one-row call stopped at that row's degree and of the
    # allocating reference, whatever the order of the degrees and repeats
    degrees = [30, 3, 0, 17, 1, 3, 30]
    x = np.linspace(0.1, 60.0, 7 * 40).reshape(7, 40)
    if complex_x:
        x = x * (0.9 + 0.2j)
    rows = specfun._laguerre_rows(degrees, 3.0, x)
    m = specfun._factorial_scale(max(degrees))[0]
    for i, k in enumerate(degrees):
        assert np.array_equal(rows[i], specfun._laguerre_rows([k], 3.0, x[i][None])[0]), k
        assert np.array_equal(rows[i] / m[k], _laguerre_allocating(k, 3.0, x[i])), k


def test_radial_overflow_still_raises_without_warnings():
    # R_340,1 on the nbar-300 CLI grid overflows where it still matters; the
    # guard raises and NumPy prints nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(specfun.NumericalError, match="overflow while evaluating R_340,1"):
            hydrogen_radial(340, 1, np.linspace(0.0, 4.0 * 300**2, 16000))


@pytest.mark.parametrize("n", [210, 230, 250])
def test_radial_kernel_is_pointwise_on_unsorted_radii(n):
    # unsorted radii are evaluated sorted and scattered back, so any order of
    # the radii gives the same values, permuted; where the envelope
    # underflows the value is exactly 0
    r = np.linspace(0.0, 4.0 * 230**2, 16000)
    perm = np.random.default_rng(n).permutation(r.size)
    values = hydrogen_radial(n, 1, r)
    assert np.array_equal(hydrogen_radial(n, 1, r[perm]), values[perm])
    rho = 2.0 * r / n
    log_const = specfun._radial_log_const(n, 1)
    with np.errstate(divide="ignore"):
        far = log_const - 0.5 * rho + np.log(rho) < -800.0
    assert far.sum() > 1000
    assert np.all(values[far] == 0.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_radial_rows_raise_on_any_non_finite_live_value(monkeypatch, bad):
    # at r = 0 every l = 1 envelope is exactly 0; at r = 1 it is live
    ns, r = np.array([8, 9, 10]), np.array([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # each level is its own anchor, so the stub's row i is level i's P_k
        monkeypatch.setattr(specfun, "_laguerre_rows", lambda degrees, a, x, visit=None: [visit(k, poly) for k in sorted(degrees)])
        poly = np.array([[1.0, 1.0], [3.0, bad], [1.0, bad]])
        with pytest.raises(specfun.NumericalError, match="overflow while evaluating R_9,1"):
            specfun._radial_rows(ns, 1, r)
        # the rows are written into the table; a negative P_k where the
        # envelope is 0 must give +0.0 there, not -0.0
        poly = np.array([[bad, 1.0], [-1.0, 3.0], [bad, 2.0]])
        values = specfun._radial_rows(ns, 1, r)
    for i, n in enumerate(ns):
        envelope = specfun._envelope(specfun._radial_log_const(int(n), 1), 1, (2.0 / n) * r)
        assert values[i, 0] == 0.0 and values[i, 1] == envelope[1] * poly[i, 1]
    assert not np.signbit(values[:, 0]).any()


@pytest.mark.parametrize("n", [1, 2, 3, 20, 85, 86, 87, 88, 89, 230, 283, 284, 285])
def test_hydrogen_radial_equals_per_level_reference(n, per_level_radial):
    # the tiled kernel against the per-level reference on scalar, 2-d, empty
    # and unsorted radii
    l = min(1, n - 1)
    rng = np.random.default_rng(n)
    for x in (0.0, 1.5, 2.0 * n * n):
        value = hydrogen_radial(n, l, x)
        assert type(value) is float and value == per_level_radial(n, l, x)
    grid = rng.uniform(0.0, 5.0 * n * n, (9, 31))
    assert np.array_equal(hydrogen_radial(n, l, grid), per_level_radial(n, l, grid))
    assert hydrogen_radial(n, l, np.array([])).shape == (0,)
    r = rng.permutation(np.linspace(0.0, 4.0 * 230**2, 16000))
    assert np.array_equal(hydrogen_radial(n, l, r), per_level_radial(n, l, r))


@pytest.mark.parametrize("m, beta", [(3, 4.0), (20, 1.5), (60, 171.2), (140, 461.0)])
def test_gauss_laguerre_rule_is_exact_to_degree_2m_minus_1(m, beta):
    # sum_i w_i t_i^j = Gamma(beta + j + 1), compared in log space since the
    # weights alone overflow for beta of a few hundred; the rule and its
    # guard's rule of 8 more nodes, built together as decompose builds them
    for size, (t, log_w) in zip((m, m + 8), specfun._gauss_laguerre((m, m + 8), beta)):
        assert t.shape == (size,) and np.all(np.diff(t) > 0) and t[0] > 0
        for j in (0, 1, size, 2 * size - 1):
            terms = log_w + j * np.log(t)
            top = terms.max()
            got = top + math.log(np.exp(terms - top).sum())
            assert got == pytest.approx(math.lgamma(beta + j + 1.0), rel=1e-14), (size, j)


def test_gauss_laguerre_refuses_non_finite_weights(monkeypatch):
    # L_{m+1} = 0 at a node gives an infinite log-weight; the rules are
    # checked in the order of their sizes, so the message names the first
    # rule whose weights are not finite
    rows = specfun._laguerre_rows
    for zero_row, m in ((0, 20), (1, 28)):
        def zeroed(degrees, a, x, zero_row=zero_row):
            out = rows(degrees, a, x)
            out[zero_row:] = 0.0
            return out

        monkeypatch.setattr(specfun, "_laguerre_rows", zeroed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(specfun.NumericalError, match=rf"weights overflowed \({m} nodes, beta=1\.5\)"):
                specfun._gauss_laguerre((20, 28), 1.5)


def test_legendre_rule_has_the_bits_of_numpy_leggauss():
    # the rule ports NumPy 2.4's leggauss.  A NumPy that rounds the Clenshaw
    # recurrence as (c1 * (nd - 1)) / nd moves the weights by up to 4.3e-11
    # relative at m <= 128 (the port with that rounding, against itself)
    from numpy.polynomial.legendre import leggauss

    exact = np.lib.NumpyVersion(np.__version__) >= "2.4.0"
    for m in range(1, 129):
        (x, w), (want_x, want_w) = specfun._legendre_rule.__wrapped__(m), leggauss(m)
        if exact:
            assert np.array_equal(x, want_x) and np.array_equal(w, want_w), m
        else:
            assert np.max(np.abs(x - want_x)) <= 1e-15 and np.allclose(w, want_w, rtol=1e-10, atol=0.0), m
        assert not x.flags.writeable and not w.flags.writeable


COLD_PIPELINE = """
import sys
from rydpack import cli
out = sys.argv[1]
common = ["--nbar", "20", "-o", out]
assert cli.main(["fit", *common]) == 0
assert cli.main(["decompose", *common, "--state", out + "/state.json"]) == 0
exp = ["--expansion", out + "/expansion.csv"]
assert cli.main(["scan", *common, *exp, "--t-stop", "Tcl", "--t-steps", "11"]) == 0
assert cli.main(["density", *common, *exp, "--times", "0,trev/2"]) == 0
print(*(name in sys.modules for name in ("numpy.polynomial", "fractions", "decimal")))
"""


def test_cli_pipeline_never_imports_numpy_polynomial(tmp_path):
    # the moment rules need no numpy.polynomial, and the anchor weights no
    # fractions or decimal, whose imports cost every cold process
    src = str(Path(specfun.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-c", COLD_PIPELINE, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False False False"
