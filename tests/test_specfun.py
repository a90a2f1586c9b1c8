import math
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from rydpack import specfun
from rydpack.specfun import (
    hydrogen_energy,
    hydrogen_radial,
    laguerre,
    radial_quadrature,
)


def test_laguerre_low_orders():
    assert laguerre(0, 3.0, 17.2) == 1.0
    assert laguerre(1, 3.0, 2.0) == pytest.approx(2.0, abs=1e-15)
    # L2^a(x) = (a+1)(a+2)/2 - (a+2) x + x^2/2 expanded by hand at a=1, x=2
    assert laguerre(2, 1.0, 2.0) == pytest.approx(-1.0, abs=1e-14)
    assert np.allclose(laguerre(0, 0.5, np.array([0.0, 1.0, 5.0])), 1.0)


def test_laguerre_domain():
    with pytest.raises(ValueError):
        laguerre(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        laguerre(2, -1.0, 1.0)


def test_laguerre_three_term_recurrence():
    # values returned for consecutive degrees must satisfy the recurrence
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
def test_laguerre_matches_mpmath_oracle(k, a):
    # the scale m_k of the carried value comes from a running frexp product;
    # taken as exp(lgamma(k + 1) - E_k ln 2) instead, the cancellation between
    # two ~1e3 logs costs ~5e-14 and fails these bounds
    mp = pytest.importorskip("mpmath")
    inner = 4.0 * k + 2.0 * a + 2.0
    x_in = inner * (np.arange(61) + 0.5) / 61.0
    x_out = inner + (4.0 * k + 8.0) * np.arange(1, 25) / 24.0  # up to 8k + 2a + 10
    with mp.workdps(40):
        ref_in = np.array([float(mp.laguerre(k, a, mp.mpf(v))) for v in x_in])
        ref_out = np.array([float(mp.laguerre(k, a, mp.mpf(v))) for v in x_out])
    assert np.max(np.abs(laguerre(k, a, x_in) - ref_in)) <= 2e-14 * np.max(np.abs(ref_in))
    finite = np.isfinite(ref_out)  # L_300 passes 1e308 far out
    with np.errstate(over="ignore", invalid="ignore"):
        got_out = laguerre(k, a, x_out)
    assert np.array_equal(np.isfinite(got_out), finite)
    assert np.all(np.abs(got_out[finite] - ref_out[finite]) <= 5e-14 * np.abs(ref_out[finite]))


def _laguerre_allocating(n, a, x):
    # allocate-per-step reference of the carried recurrence
    # P_k = k! 2^-E_k L_k = (2k-1+a-x) 2^-e_k P_{k-1} - (k-1)(k-1+a) 2^-(E_k-E_{k-2}) P_{k-2},
    # with k! = m_k 2^E_k from a running frexp product; L_n = P_n / m_n
    x = np.asarray(x, dtype=float)
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


def test_laguerre_in_place_steps_are_bit_identical():
    rng = np.random.default_rng(2024)
    degrees = [0, 1, 2, 3, 84, 149, 229, 300] + [int(d) for d in rng.integers(0, 301, 12)]
    with np.errstate(over="ignore", invalid="ignore"):  # the top degrees overflow far out
        for n in degrees:
            a = float(rng.choice([1.0, 3.0, rng.uniform(0.0, 50.0)]))
            x = rng.uniform(0.0, 8.0 * n + 2.0 * a + 10.0, int(rng.integers(1, 300)))
            assert np.array_equal(laguerre(n, a, x), _laguerre_allocating(n, a, x), equal_nan=True), (n, a)
            value = laguerre(n, a, float(x[0]))
            assert type(value) is float
            assert value == float(_laguerre_allocating(n, a, x[0])) or math.isnan(value)
        grid = rng.uniform(0.0, 40.0, (3, 5))
        assert np.array_equal(laguerre(7, 3.0, grid), _laguerre_allocating(7, 3.0, grid))


def test_radial_costs_one_recurrence_on_the_live_columns(monkeypatch):
    calls = []
    steps = specfun._laguerre_steps
    monkeypatch.setattr(
        specfun, "_laguerre_steps", lambda n, a, x: calls.append((n, x.shape)) or steps(n, a, x)
    )
    hydrogen_radial(20, 1, np.linspace(0.0, 800.0, 101))
    assert calls == [(18, (1, 101))]
    # on a sorted grid the recurrence stops at the last point whose envelope
    # is nonzero
    r = np.linspace(0.0, 4.0 * 230**2, 16000)
    hydrogen_radial(20, 1, r)
    envelope = specfun._envelope(specfun._radial_log_const(20, 1), 1, (2.0 / 20) * r)
    last = np.flatnonzero(envelope)[-1]
    assert calls[1:] == [(18, (1, last + 1))] and last < 2000


def _mp_radial(mp, n, l, r):
    rho = 2 * r / n
    norm = mp.sqrt((mp.mpf(2) / n) ** 3 * mp.factorial(n - l - 1) / (2 * n * mp.factorial(n + l)))
    return norm * mp.exp(-rho / 2) * rho**l * mp.laguerre(n - l - 1, 2 * l + 1, rho)


def _mp_radius_grid(n):
    return 2.2 * n * n * (np.arange(37) + 0.5) / 37.0


@pytest.mark.parametrize("n", [2, 3, 20, 85, 150, 200, 230, 285, 320])
def test_radial_kernel_matches_mpmath_oracle(n):
    # n = 2 and n = 3 put the Laguerre recurrence at degree 0 and 1
    mp = pytest.importorskip("mpmath")
    r = _mp_radius_grid(n)
    with mp.workdps(40):
        ref = np.array([float(_mp_radial(mp, n, 1, mp.mpf(x))) for x in r])
    assert np.max(np.abs(hydrogen_radial(n, 1, r) - ref)) <= 2e-12 * np.max(np.abs(ref))


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


@pytest.mark.parametrize("complex_x", [False, True])
def test_laguerre_rows_read_each_row_at_its_own_degree(complex_x):
    # one recurrence to the largest degree gives, row by row, exactly the
    # values of a recurrence stopped at that row's degree
    degrees = [30, 3, 0, 17, 1]
    x = np.linspace(0.1, 60.0, 5 * 40).reshape(5, 40)
    if complex_x:
        x = x * (0.9 + 0.2j)
    rows = specfun._laguerre_rows(degrees, 3.0, x)
    for i, k in enumerate(degrees):
        assert np.array_equal(rows[i], specfun._laguerre_scaled(k, 3.0, x[i].copy())), k


def test_radial_overflow_still_raises_without_warnings():
    # R_340,1 on the nbar-300 CLI grid overflows where it still matters; the
    # guard raises and NumPy prints nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(specfun.NumericalError, match="overflow while evaluating R_340,1"):
            hydrogen_radial(340, 1, np.linspace(0.0, 4.0 * 300**2, 16000))


@pytest.mark.parametrize("n", [210, 230, 250])
def test_radial_kernel_is_pointwise_on_unsorted_radii(n):
    # live points are chosen by mask, so any order of the radii gives the same
    # values, permuted; where the envelope underflows the value is exactly 0
    r = np.linspace(0.0, 4.0 * 230**2, 16000)
    perm = np.random.default_rng(n).permutation(r.size)
    values = hydrogen_radial(n, 1, r)
    assert np.array_equal(hydrogen_radial(n, 1, r[perm]), values[perm])
    rho = 2.0 * r / n
    logpref = specfun.radial_log_prefactor(n, 1)
    with np.errstate(divide="ignore"):
        far = logpref - 0.5 * rho + np.log(rho) < -800.0
    assert far.sum() > 1000
    assert np.all(values[far] == 0.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_radial_rows_raise_on_any_non_finite_live_value(monkeypatch, bad):
    # at r = 0 every l = 1 envelope is exactly 0; at r = 1 it is live
    ns, r = np.array([8, 9, 10]), np.array([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poly = np.array([[1.0, 1.0], [3.0, bad], [1.0, bad]])
        monkeypatch.setattr(specfun, "_laguerre_rows", lambda degrees, a, x: poly)
        with pytest.raises(specfun.NumericalError, match="overflow while evaluating R_9,1"):
            specfun._radial_rows(ns, 1, r)
        poly = np.array([[bad, 1.0], [bad, 3.0], [bad, 2.0]])
        monkeypatch.setattr(specfun, "_laguerre_rows", lambda degrees, a, x: poly)
        values = specfun._radial_rows(ns, 1, r)
    for i, n in enumerate(ns):
        envelope = specfun._envelope(specfun._radial_log_const(int(n), 1), 1, (2.0 / n) * r)
        assert values[i, 0] == 0.0 and values[i, 1] == envelope[1] * poly[i, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 20, 85, 230, 285])
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
    # weights alone overflow for beta of a few hundred
    t, log_w = specfun._gauss_laguerre(m, beta)
    assert t.shape == (m,) and np.all(np.diff(t) > 0) and t[0] > 0
    for j in (0, 1, m, 2 * m - 1):
        terms = log_w + j * np.log(t)
        top = terms.max()
        got = top + math.log(np.exp(terms - top).sum())
        assert got == pytest.approx(math.lgamma(beta + j + 1.0), rel=1e-14), j
