import contextlib
import hashlib
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

import rydpack as rp
from rydpack import specfun, spectral
from rydpack.cli import main
from rydpack.io import read_expansion
from rydpack.specfun import NumericalError
from rydpack.squeezed import L

NBAR = 85


# the ledger's pipelines (tests/test_artifact_digests.py): their nbar, and
# the scan range and density times every one of them runs
LEDGER_NBARS = (20, 85, 150)
LEDGER_SCAN = ["--t-stop", "4*Tcl", "--t-steps", "2049"]
LEDGER_TIMES = "0,0.5*Tcl,trev/3,trev/2,trev"


def run_pipeline(nbar, out):
    """fit -> decompose -> scan -> density at ``nbar`` through ``cli.main``,
    with the ledger's scan range and density times, into the directory
    ``out``; the SHA-256 hex digest of each artifact, by file name."""
    expansion = str(out / "expansion.csv")
    for argv in (
        ["fit", "--nbar", str(nbar)],
        ["decompose", "--state", str(out / "state.json")],
        ["scan", "--expansion", expansion, *LEDGER_SCAN],
        ["density", "--expansion", expansion, "--times", LEDGER_TIMES],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "-o", str(out)]) == 0, argv
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """``pipeline(nbar)``: the directory of ``run_pipeline``'s artifacts at
    nbar and their digests, taken when the run ends; one run per nbar per
    session.  Tests read the files and write nothing there."""
    runs = {}

    def run(nbar):
        if nbar not in runs:
            out = tmp_path_factory.mktemp(f"pipeline{nbar}")
            runs[nbar] = out, run_pipeline(nbar, out)
        return runs[nbar]

    return run


@pytest.fixture(scope="session")
def range_expansion(pipeline):
    """``range_expansion(nbar)``: the expansion the range checks take at
    nbar, the fit decomposed as ``rydpack decompose`` does: the ledger
    pipeline's ``expansion.csv`` at 20, 85 and 150, else decomposed here, to
    a deficit of 2e-3 at nbar 3, whose continuum weight is about 1e-3."""

    def expansion(nbar):
        if nbar in LEDGER_NBARS:
            return read_expansion(pipeline(nbar)[0] / "expansion.csv")[1]
        tol = 2e-3 if nbar == 3 else spectral.DEFAULT_DEFICIT_TOL
        return spectral.decompose(rp.fit_parameters(rp.QuantumNumbers(nbar)), deficit_tol=tol)

    return expansion


@pytest.fixture(scope="session")
def q85():
    return rp.QuantumNumbers(NBAR)


@pytest.fixture(scope="session")
def state85(q85):
    return rp.fit_parameters(q85)


@pytest.fixture(scope="session")
def exp85(state85):
    return rp.decompose(state85)


@pytest.fixture(scope="session")
def ts85(q85):
    return rp.timescales(q85)


@pytest.fixture(scope="session")
def grid85():
    return rp.RadialGrid.uniform(4 * NBAR**2, 16000)


@pytest.fixture(scope="session")
def basis85(exp85, grid85):
    return rp.BasisTable.for_expansion(exp85, grid85)


@pytest.fixture(scope="session")
def exp150():
    return rp.decompose(rp.fit_parameters(rp.QuantumNumbers(150)), center=150)


@pytest.fixture(scope="session")
def scan85(exp85, grid85, basis85, ts85):
    """Uncertainty records over the first orbit, spaced T_cl/100."""
    times = np.linspace(0.0, ts85.T_cl_au, 101)
    return times, [rp.observables(exp85, t, grid85, basis85) for t in times]


def _full_moment_rule(n_min, n_max, n_nodes=2048):
    """The window's moment span, [0, max(4 n_max^2, 196)], on a rule of
    ``n_nodes`` nodes whatever the window; by default the capped rule."""
    return specfun.radial_quadrature(max(4.0 * n_max**2, spectral._R_MAX_FLOOR), n_nodes)


@pytest.fixture(scope="session")
def full_moment_rule():
    """A stand-in for ``spectral._moment_rule`` with 2048 nodes for every window."""
    return _full_moment_rule


@pytest.fixture
def coarse_quadrature(monkeypatch):
    """Build the moment matrices on a 32-node rule over the window's span, far
    too coarse to pass the norm guard; the matrix cache is emptied before and
    after."""
    monkeypatch.setattr(
        spectral, "_moment_rule", lambda n_min, n_max: _full_moment_rule(n_min, n_max, 32)
    )
    spectral._moment_matrices.cache_clear()
    yield
    spectral._moment_matrices.cache_clear()


def _laguerre(k, a, x):
    """L_k^a(x) from a one-row ``specfun._laguerre_rows`` call, over the scale
    m_k that the recurrence carries."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return specfun._laguerre_rows([k], a, x[None])[0] / specfun._factorial_scale(k)[0][k]


def _radial_pr(n, l, r):
    """(d/dr + 1/r) R_nl(r), the real radial factor of p_r R_nl, for l >= 1.

    With rho = 2r/n, a = 2l + 1, k = n - l - 1 and
    dL_k^a/drho = -L_{k-1}^{a+1} (Abramowitz & Stegun 22.8.6),
    (d/dr + 1/r) R_nl = (2/n) A e^{-rho/2} rho^{l-1} [(l + 1 - rho/2) L_k^a - rho L_{k-1}^{a+1}]
    with A = sqrt((2/n)^3 (n - l - 1)! / (2n (n + l)!)) the prefactor of
    R_nl, taken in log space.  The Laguerre values are taken in linear
    space, so trust it to n of about 150.
    """
    k, a = n - l - 1, 2 * l + 1
    rho = (2.0 / n) * np.asarray(r, dtype=float)
    poly = (l + 1 - 0.5 * rho) * _laguerre(k, a, rho)
    if k:
        poly -= rho * _laguerre(k - 1, a + 1, rho)
    log_prefactor = 1.5 * math.log(2.0 / n) + 0.5 * (math.lgamma(n - l) - math.log(2.0 * n) - math.lgamma(n + l + 1))
    return (2.0 / n) * np.exp(log_prefactor - 0.5 * rho) * rho ** (l - 1) * poly


@pytest.fixture(scope="session")
def radial_pr():
    """A reference (d/dr + 1/r) R_nl built from one-row Laguerre recurrences."""
    return _radial_pr


@pytest.fixture(scope="session")
def laguerre():
    """L_k^a(x) from a one-row Laguerre recurrence."""
    return _laguerre


def _anchor_weights(n, l):
    """The anchor m of R_nl and its weights e_0, e_1, ... as a list of Python
    floats, or None where m = n: an independent statement of the arithmetic
    that ``specfun._level`` vectorizes.

    m = 5 round(n/5) unless the degree k = n - l - 1 is below
    ``specfun._OWN_ANCHOR_DEGREE``; T = min(_TERMS[|d|], k + 1) terms with
    e_0 = m^k/n^k and each e_{t+1} = e_t * ldexp((k + a - t)(k - t) d / ((t + 1) m),
    E_{k-t-1} - E_{k-t}), every division a correctly rounded int division.
    """
    k, a = n - l - 1, 2 * l + 1
    m = n if k < specfun._OWN_ANCHOR_DEGREE else 5 * round(n / 5)
    d = n - m
    if d == 0:
        return m, None
    E = specfun._factorial_scale(k)[1]
    e = m**k / n**k
    weights = [e]
    for t in range(min(specfun._TERMS[abs(d)], k + 1) - 1):
        e *= math.ldexp((k + a - t) * (k - t) * d / ((t + 1) * m), E[k - t - 1] - E[k - t])
        weights.append(e)
    return m, weights


def _per_level_radial(n, l, r):
    """R_nl(r) one level at a time: an independent reference for the tiled
    kernel ``specfun._radial_rows``, with its arithmetic.

    The envelope comes first, and only the points where it is nonzero are
    evaluated; the others are exactly 0.  At those points a one-row
    recurrence at rho_m = 2r/m gives P_k(2r/n) itself when n is its own
    anchor m; else it hands over P_{k-t}(rho_m) for every t, and P_k(2r/n) is
    0.0 plus e_t P_{k-t}(rho_m) from the lowest degree up, except below
    rho = ``specfun._NEAR_RHO``, where a one-row recurrence at rho = 2r/n
    gives it.  A live value that is not finite raises NumericalError.
    """
    shape = np.shape(r)
    r = np.asarray(r, dtype=float).reshape(-1)
    rho = (2.0 / n) * r
    envelope = specfun._envelope(specfun._radial_log_const(n, l), l, rho)
    live = envelope != 0.0
    m, weights = _anchor_weights(n, l)
    k, rho_m = n - l - 1, (2.0 / m) * r[None, live]
    with np.errstate(over="ignore", invalid="ignore"):
        if weights is None:
            poly = specfun._laguerre_rows([k], 2 * l + 1, rho_m)[0]
        else:
            terms = {}
            degrees = range(k + 1 - len(weights), k + 1)
            specfun._laguerre_rows(degrees, 2 * l + 1, rho_m, visit=lambda j, p: terms.update({j: p[0].copy()}))
            poly = np.zeros(rho_m.shape[1])
            for t in reversed(range(len(weights))):
                poly += weights[t] * terms[k - t]
            near = r[live] < 0.5 * specfun._NEAR_RHO * n
            poly[near] = specfun._laguerre_rows([k], 2 * l + 1, rho[None, live][:, near])[0]
        radial = envelope[live] * poly
    if not np.isfinite(radial).all():
        raise NumericalError(f"overflow while evaluating R_{n},{l}")
    out = np.zeros(rho.shape)
    out[live] = radial
    return out.reshape(shape)


@pytest.fixture(scope="session")
def per_level_radial():
    """A reference R_nl with the kernel's arithmetic, one level at a time."""
    return _per_level_radial


@pytest.fixture(scope="session")
def anchor_weights():
    """The anchor and weights of a level, computed in Python floats."""
    return _anchor_weights


def _one_recurrence_radial(n, l, r):
    """R_nl(r) from one Laguerre recurrence at rho = 2r/n per level, as the
    kernel computed every level before anchor groups: an accuracy
    reference, not a bit reference."""
    rho = (2.0 / n) * np.asarray(r, dtype=float)
    envelope = specfun._envelope(specfun._radial_log_const(n, l), l, rho)
    with np.errstate(over="ignore", invalid="ignore"):
        values = envelope * specfun._laguerre_rows([n - l - 1], 2 * l + 1, rho[None])[0]
    values[envelope == 0.0] = 0.0
    return values


def _one_gauss_laguerre_rule(m, beta):
    """The m-node Gauss-Laguerre rule (t, ln w) built alone, with the
    arithmetic of ``specfun._gauss_laguerre``: Jacobi eigenvalues, then
    log-weights from a one-row recurrence to degree m + 1."""
    jacobi = np.zeros((m, m))
    i = np.arange(1.0, m)
    jacobi.flat[:: m + 1] = np.arange(m) * 2.0 + (beta + 1.0)
    jacobi.flat[m :: m + 1] = np.sqrt(i * (i + beta))
    t = np.linalg.eigvalsh(jacobi)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lag = specfun._laguerre_rows([m + 1], beta, t[None])[0]
        log_w = (
            math.lgamma(m + beta + 1.0)
            - math.lgamma(m + 1.0)
            - 2.0 * math.log(m + 1.0)
            + 2.0 * math.log(specfun._factorial_scale(m + 1)[0][m + 1])
            + np.log(t)
            - 2.0 * np.log(np.abs(lag))
        )
    if not np.isfinite(log_w).all():
        raise NumericalError(f"Gauss-Laguerre weights overflowed ({m} nodes, beta={beta:g})")
    return t, log_w


def _per_rule_project(state, ns, m):
    """``spectral._project`` one rule at a time: the m-node rule and the
    guard's rule of m + ``spectral._CHECK_NODES`` nodes are each built alone
    and each steps every level in a recurrence of its own, with the
    arithmetic of the batched route."""
    beta = state.alpha + L + 2.0
    ns = np.asarray(ns)
    sigma = state.gamma0 + 1.0 / ns
    log_const = (
        state.log_norm
        + np.array([specfun._radial_log_const(int(n), L) for n in ns])
        + L * np.log(2.0 / ns)
        - (beta + 1.0) * np.log(sigma)
    )

    def on_rule(size):
        t, log_w = _one_gauss_laguerre_rule(size, beta)
        with np.errstate(over="ignore", invalid="ignore"):
            lag = specfun._laguerre_rows(ns - L - 1, 2 * L + 1, (2.0 / (ns * sigma))[:, None] * t)
            return np.sum(np.exp(log_w + log_const[:, None]) * lag, axis=1)

    c = on_rule(m)
    err = np.max(np.abs(c - on_rule(m + spectral._CHECK_NODES)))
    if not err <= spectral._ERR_TOL:
        raise NumericalError(
            f"projection quadrature did not converge: estimated error {err:.3e} > {spectral._ERR_TOL:g}"
        )
    return c


@pytest.fixture(scope="session")
def per_rule_project():
    """A reference ``spectral._project`` that builds and steps each rule alone."""
    return _per_rule_project


@pytest.fixture
def laguerre_calls(monkeypatch):
    """(top degree, shape of x) of every recurrence ``specfun._laguerre_rows``
    runs while the test does."""
    calls = []
    rows = specfun._laguerre_rows

    def recorded(degrees, a, x, visit=None):
        calls.append((int(max(degrees)), x.shape))
        return rows(degrees, a, x, visit)

    monkeypatch.setattr(specfun, "_laguerre_rows", recorded)
    return calls


@pytest.fixture(scope="session")
def one_recurrence_radial():
    """R_nl with one recurrence per level, for accuracy comparisons."""
    return _one_recurrence_radial


def _numpy_scalar_observables(exp, t):
    """``evolution.observables`` as computed on NumPy scalars, with the phases
    and the populations formed afresh: the record stack's forms of a one-time
    block over the weight sum |c_n|^2, then the reference the Python-float
    tail must equal bit for bit."""
    coeff_t = exp.coeffs * np.exp(-1j * exp.energies * t)[None]
    forms = np.vecdot(coeff_t, coeff_t @ spectral._moment_matrices(exp.n_min, exp.n_max))[:, 0].real
    populations = np.abs(exp.coeffs) ** 2
    norm = populations.sum()
    m1, m2, w1, w2, pr = forms / norm
    energy = np.dot(populations, exp.energies)
    pr2 = 2.0 * energy / norm + 2.0 * w1 - L * (L + 1) * w2
    dr = np.sqrt(max(m2 - m1 * m1, 0.0))
    dpr = np.sqrt(max(pr2 - pr * pr, 0.0))
    dR = np.sqrt(max(w2 - w1 * w1, 0.0))
    # a record's fields, and its derived values as formed on NumPy scalars
    return SimpleNamespace(
        t=float(t),
        dr=float(dr),
        dpr=float(dpr),
        product=float(dr * dpr),
        ratio=float(dr / dpr),
        dR=float(dR),
        dP=float(dpr),
        bound_half_rm2=float(0.5 * w2),
    )


def _numpy_scalar_autocorrelation(exp, t):
    """``evolution.autocorrelation`` with |c_n|^2 and their sum recomputed on
    every call, on NumPy scalars."""
    p = np.abs(exp.coeffs) ** 2
    s = p.sum()
    amp = np.dot(p, np.exp(-1j * exp.energies * t))
    return float(abs(amp) ** 2 / s**2)


@pytest.fixture(scope="session")
def numpy_scalar_point():
    """A reference scan point (record, autocorrelation) on NumPy scalars."""
    return lambda exp, t: (_numpy_scalar_observables(exp, t), _numpy_scalar_autocorrelation(exp, t))
