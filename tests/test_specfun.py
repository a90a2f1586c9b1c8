import math
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from rydpack import specfun
from rydpack.specfun import (
    HydrogenLevel,
    hydrogen_energy,
    hydrogen_radial,
    hydrogen_radial_pr,
    laguerre,
    log_gamma,
    radial_quadrature,
)

# reference values computed once with 40-digit arbitrary precision arithmetic
LGAMMA_GOLDEN = {
    0.5: 0.5723649429247001,
    1.0: 0.0,
    2.0: 0.0,
    340.45: 1642.468882349463,
    2000.0: 13198.923448054265,
}


def test_log_gamma_reference_values():
    for x, want in LGAMMA_GOLDEN.items():
        got = log_gamma(x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_log_gamma_domain():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            log_gamma(bad)


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


def _laguerre_allocating(n, a, x):
    # the allocate-per-step loop the in-place recurrence replaced
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 1.0 + a - x
    for k in range(2, n + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + a - x) * cur - (k - 1.0 + a) * prev) / k
    return cur


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


def test_radial_pair_costs_one_recurrence(monkeypatch):
    degrees = []
    pair = specfun._laguerre_pair
    monkeypatch.setattr(specfun, "_laguerre_pair", lambda n, a, x: degrees.append(n) or pair(n, a, x))
    r = np.linspace(0.0, 800.0, 101)
    hydrogen_radial(20, 1, r)
    hydrogen_radial_pr(20, 1, r)
    assert degrees == [18, 18]


def _mp_radial(mp, n, l, r):
    rho = 2 * r / n
    norm = mp.sqrt((mp.mpf(2) / n) ** 3 * mp.factorial(n - l - 1) / (2 * n * mp.factorial(n + l)))
    return norm * mp.exp(-rho / 2) * rho**l * mp.laguerre(n - l - 1, 2 * l + 1, rho)


@pytest.mark.parametrize("n", [2, 3, 20, 85, 150, 200])
def test_radial_kernel_matches_mpmath_oracle(n):
    # n = 2 and n = 3 put the Laguerre pair at degree 0 (L_{-1} = 0) and 1
    mp = pytest.importorskip("mpmath")
    r = 2.2 * n * n * (np.arange(37) + 0.5) / 37.0
    with mp.workdps(40):
        ref = [_mp_radial(mp, n, 1, mp.mpf(x)) for x in r]
        dref = [mp.diff(lambda s: _mp_radial(mp, n, 1, s), mp.mpf(x)) + v / x for x, v in zip(r, ref)]
        ref = np.array([float(v) for v in ref])
        dref = np.array([float(v) for v in dref])
    assert np.max(np.abs(hydrogen_radial(n, 1, r) - ref)) <= 2e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(hydrogen_radial_pr(n, 1, r) - dref)) <= 2e-12 * np.max(np.abs(dref))


def test_hydrogen_energy():
    assert hydrogen_energy(1) == -0.5
    assert hydrogen_energy(2) == -0.125
    assert hydrogen_energy(85) == pytest.approx(-1.0 / 14450.0, rel=1e-15)
    with pytest.raises(ValueError):
        hydrogen_energy(0)


def test_hydrogen_level():
    lvl = HydrogenLevel(n=85, l=1, energy=123.0)  # energy field is recomputed
    assert lvl.energy == hydrogen_energy(85)
    with pytest.raises(ValueError):
        HydrogenLevel(n=2, l=2)
    with pytest.raises(ValueError):
        HydrogenLevel(n=0, l=0)


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


def test_radial_pr_matches_finite_differences():
    h = 1e-6
    for n, l in ((2, 1), (7, 1), (20, 1), (6, 2)):
        for r in (0.7, 3.1, float(n * n) / 2.0, 1.7 * n * n):
            direct = hydrogen_radial_pr(n, l, r)
            fd = (hydrogen_radial(n, l, r + h) - hydrogen_radial(n, l, r - h)) / (2 * h)
            expected = fd + hydrogen_radial(n, l, r) / r
            assert direct == pytest.approx(expected, rel=5e-7, abs=1e-12)


def test_radial_pr_finite_at_origin_for_p_states():
    val = hydrogen_radial_pr(5, 1, 0.0)
    assert np.isfinite(val) and val > 0
    with pytest.raises(ValueError):
        hydrogen_radial_pr(5, 0, 0.0)


def test_radial_quadrature_exactness():
    x, w = radial_quadrature(50.0, 2048)
    assert np.dot(w, np.exp(-x)) == pytest.approx(1.0 - math.exp(-50.0), rel=1e-13)
    assert np.dot(w, x**2) == pytest.approx(50.0**3 / 3.0, rel=1e-13)
    assert x.min() > 0.0 and x.max() < 50.0
    with pytest.raises(ValueError):
        radial_quadrature(-1.0)


def test_radial_overflow_still_raises_without_warnings():
    # R_320,1 on the nbar-300 CLI grid overflows where it still matters; the
    # guard raises and NumPy prints nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(specfun.NumericalError, match="overflow while evaluating R_320,1"):
            hydrogen_radial(320, 1, np.linspace(0.0, 4.0 * 300**2, 16000))


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
