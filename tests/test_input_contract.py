"""The library's input contract under fuzzing.

Every public callable of ``rydpack.__all__``, and every public method and
classmethod of its classes, either returns finite values or raises
ValueError for a bad input, or NumericalError or FitError as documented; no
other exception and no warning escapes, but the one documented warning,
``decompose``'s DeficitToleranceWarning.  A method is called on its class,
with the instance drawn as its first argument.  Each argument is drawn by
its kind: finite and non-finite floats (and, in place of a float, ints and a
Fraction past float range and a numeric string), whole and non-whole
numbers, 1-d arrays (empty ones included, and ones that hold such ints or
strings) and 2-d arrays, and the package's objects (quantum numbers,
states, expansions, grids, basis tables), which are built inside the call
from drawn arguments, so that a constructor's refusal counts as the call's.
Half the expansions are fitted states of a small nbar, decomposed, and half
the grids uniform, so that the calls that take them often get past their
construction; half the basis tables are built for the call's own expansion
and grid, so that they match it.  Every value ``observables``,
``autocorrelation`` and ``density`` return must obey the bounds of a
physical state: both uncertainty relations, an autocorrelation in [0, 1]
and a density >= 0.  Their fitted calls, on a fitted expansion of a small
nbar, have a test of their own, in which every draw must return.  The
constants, the error and warning types and the plain records, which hold
what a routine computed, are not called.
"""

import dataclasses
import functools
import inspect
import math
import sys
import types
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rydpack
from rydpack import (
    BasisTable,
    DeficitToleranceWarning,
    EigenExpansion,
    FitError,
    NumericalError,
    QuantumNumbers,
    RadialGrid,
    RadialSqueezedState,
    decompose,
    fit_parameters,
    fractional_period_check,
    timescales,
)


@dataclass(frozen=True)
class Make:
    """An object of the package, built inside the checked call from its
    arguments, which may be ``Make``s themselves."""

    factory: object
    args: tuple


def _built(arg, done: dict):
    """``arg``, or for a ``Make`` the object it builds.  ``done`` holds each
    ``Make`` built so far with its object, by the ``Make``'s id, so that a
    ``Make`` that stands in two places is built once, for both."""
    if not isinstance(arg, Make):
        return arg
    if id(arg) not in done:
        done[id(arg)] = arg, arg.factory(*(_built(a, done) for a in arg.args))
    return done[id(arg)][1]


@dataclass(frozen=True)
class OwnTable:
    """In place of a basis table: the table for the call's own expansion and
    grid, built from those very objects when ``same``, else from equal ones
    built again, so that it matches by identity or by comparison."""

    same: bool


def _with_own_tables(name: str, args: tuple) -> tuple:
    """``args`` with each ``OwnTable`` replaced by the ``Make`` of its table."""
    kinds = CALLS[name]

    def table(own):
        exp, grid = args[kinds.index("expansion")], args[kinds.index("grid")]
        if not own.same:
            exp, grid = Make(exp.factory, exp.args), Make(grid.factory, grid.args)
        return Make(BasisTable.for_expansion, (exp, grid))

    return tuple(table(a) if isinstance(a, OwnTable) else a for a in args)


EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 2.5, 1e300, sys.float_info.max, -1.0, -1e300,
               math.nan, math.inf, -math.inf]
# a float argument given as an int or a Fraction past float range, or as a
# numeric string
NOT_FLOATS = [10**400, -(10**400), "1.0", Fraction(10**400, 3)]
# each kind mixes values in the range a call serves with values outside it
reals = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats(1e-3, 1e3))
floats = st.one_of(reals, st.sampled_from(NOT_FLOATS))
wholes = st.one_of(
    st.integers(-3, 600),
    st.integers(2, 100),
    st.sampled_from([10**154, 2**63, 10**400, -(10**400)]),  # in float range, and past it
    st.sampled_from([2.5, 85.0, -0.5, math.nan, math.inf]),  # non-whole numbers, and a whole float
)
arrays = st.one_of(
    # NumPy picks the dtype: an object array for an int past float range, a
    # string array for a numeric string
    st.lists(floats, max_size=6).map(np.array),
    # eight values, so that two arrays of a call often share a shape: any
    # floats, sorted radii and a uniform grid
    st.lists(reals, min_size=8, max_size=8).map(np.array),
    st.lists(st.floats(0.0, 1e4), min_size=8, max_size=8).map(lambda xs: np.array(sorted(xs))),
    st.floats(1.0, 1e6).map(lambda r_max: np.linspace(0.0, r_max, 8)),
    st.lists(floats, min_size=4, max_size=4).map(lambda xs: np.array(xs).reshape(2, 2)),
)
values = st.one_of(floats, arrays)  # a scalar or an array of arguments
quantum_numbers = wholes.map(lambda n: Make(QuantumNumbers, (n,)))
states = st.one_of(
    st.tuples(floats, floats).map(lambda ag: Make(RadialSqueezedState, ag)),
    st.integers(2, 300).map(lambda n: Make(fit_parameters, (Make(QuantumNumbers, (n,)),))),
)
coefficients = st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4).map(np.array)  # weight <= 1
fitted_expansions = st.integers(3, 30).map(
    lambda n: Make(decompose, (Make(fit_parameters, (Make(QuantumNumbers, (n,)),)),))
)
coefficient_expansions = st.tuples(st.integers(2, 420), coefficients).map(lambda na: Make(EigenExpansion, na))
other_expansions = st.one_of(
    st.tuples(wholes, arrays).map(lambda na: Make(EigenExpansion, na)),
    coefficient_expansions,
    states.map(lambda state: Make(decompose, (state,))),
)
uniform_grids = st.tuples(st.floats(1.0, 1e6), st.integers(3, 50)).map(lambda rn: Make(RadialGrid.uniform, rn))
# half the expansions are fitted, and half the grids uniform (a flatmap on a
# coin, since one_of would flatten the branches and weigh each alike)
expansions = st.booleans().flatmap(lambda fit: fitted_expansions if fit else other_expansions)
array_grids = arrays.map(lambda r: Make(RadialGrid, (r,)))
grids = st.booleans().flatmap(lambda uniform: uniform_grids if uniform else array_grids)
# a table of drawn levels and points, or the one for the call's expansion and grid
tables = st.one_of(
    st.tuples(arrays, arrays).map(lambda nr: Make(BasisTable, nr)), st.builds(OwnTable, st.booleans())
)
bases = st.one_of(st.none(), tables)
own_bases = st.one_of(st.none(), st.builds(OwnTable, st.booleans()))  # none, or the call's own table
windows = st.one_of(st.none(), st.tuples(wholes, wholes))
centers = st.one_of(st.none(), wholes)

KINDS = {
    "float": floats, "whole": wholes, "array": arrays, "values": values, "q": quantum_numbers,
    "state": states, "expansion": expansions, "grid": grids, "table": tables, "basis": bases,
    "window": windows, "center": centers,
}

# the argument kinds of each public callable, in order; a method's first is
# its instance's
CALLS = {
    "BasisTable": ("array", "array"),
    "BasisTable.build": ("array", "array"),
    "BasisTable.for_expansion": ("expansion", "grid"),
    "BasisTable.matches": ("table", "expansion", "grid"),
    "EigenExpansion": ("whole", "array"),
    "QuantumNumbers": ("whole",),
    "RadialGrid": ("array",),
    "RadialGrid.uniform": ("float", "whole"),
    "RadialSqueezedState": ("float", "float"),
    "RadialSqueezedState.log_envelope": ("state", "values"),
    "RadialSqueezedState.psi": ("state", "values"),
    "autocorrelation": ("expansion", "float"),
    "coefficient_spread": ("expansion",),
    "count_packets": ("array", "array", "float", "float", "float"),
    "decompose": ("state", "window", "center", "float"),
    "density": ("expansion", "grid", "float", "basis"),
    "detect_revival": ("array", "array", "array"),
    "expectation_H": ("state",),
    "expectation_pr2": ("state",),
    "fit_parameters": ("q",),
    "fractional_period_check": ("array", "array", "array", "float", "float"),
    "hydrogen_energy": ("whole",),
    "hydrogen_radial": ("whole", "whole", "values"),
    "moment_r": ("state", "whole"),
    "observables": ("expansion", "float", "grid", "basis"),
    "orbit_geometry": ("q",),
    "radial_quadrature": ("float", "whole"),
    "timescales": ("q",),
    "uncertainties_RP": ("state",),
    "uncertainties_rp": ("state",),
}

# constants, error and warning types, and plain records of computed values
NOT_CALLED = {
    "DEFAULT_DEFICIT_TOL", "FRACTIONAL_ORDERS", "L", "N_CAP",
    "DeficitToleranceWarning", "FitError", "NumericalError",
    "FractionalRevival", "OrbitGeometry", "PacketReport", "Timescales", "UncertaintyRecord",
}



def _resolved(name: str):
    """The public callable ``name``, a package name or "Class.method"."""
    return functools.reduce(getattr, name.split("."), rydpack)


def _required(name: str) -> int:
    """How many leading arguments of the callable ``name`` have no default."""
    parameters = inspect.signature(_resolved(name)).parameters.values()
    return sum(p.default is inspect.Parameter.empty for p in parameters)


def _drawn_call(name: str):
    """A call of ``name`` on its required arguments and a drawn number of its
    optional ones, each drawn by its kind."""
    return st.integers(_required(name), len(CALLS[name])).flatmap(
        lambda count: st.tuples(st.just(name), st.tuples(*(KINDS[kind] for kind in CALLS[name][:count])))
    )


def _fitted_call(name: str):
    """A call of ``name`` on a fitted expansion of nbar 3 to 30, a uniform
    grid to 4 nbar^2 (the CLI's default span), a time in [-t_rev, t_rev] and
    no table or the call's own."""

    def call(nbar, u, points, basis):
        exp = Make(decompose, (Make(fit_parameters, (Make(QuantumNumbers, (nbar,)),)),))
        grid = Make(RadialGrid.uniform, (4.0 * nbar**2, points))
        t = u * timescales(QuantumNumbers(nbar)).t_rev_au
        args = {"autocorrelation": (exp, t), "density": (exp, grid, t, basis), "observables": (exp, t, grid, basis)}
        return name, args[name]

    return st.builds(call, st.integers(3, 30), st.floats(-1.0, 1.0), st.integers(3, 200), own_bases)


# the calls whose values are checked beyond finiteness (``_check_value``);
# their fitted calls, which must return, have a test of their own
FITTED = ("autocorrelation", "density", "observables")
cases = st.sampled_from(sorted(CALLS)).flatmap(_drawn_call)


def _public_methods() -> set[str]:
    """"Class.method" for each public method, classmethod and staticmethod
    that a class of ``rydpack.__all__`` defines."""
    return {
        f"{name}.{key}"
        for name in rydpack.__all__
        if inspect.isclass(cls := getattr(rydpack, name))
        for key, member in vars(cls).items()
        if not key.startswith("_") and isinstance(member, (types.FunctionType, classmethod, staticmethod))
    }


def test_every_public_name_is_called_or_exempt():
    # a name or method joins the public API only with its argument kinds
    # here, and leaves it with them (test_exports.WITHDRAWN names the four
    # that no caller needs: laguerre, radial_log_prefactor,
    # project_coefficient and reconstruct)
    names = {name for name in CALLS if "." not in name}
    assert sorted(names | NOT_CALLED) == rydpack.__all__
    assert not names & NOT_CALLED
    assert CALLS.keys() - names == _public_methods()
    assert len(CALLS) == 30


def _finite(value) -> bool:
    """Whether every number ``value`` holds, in any container, is finite."""
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, BasisTable):  # its radii are the caller's; R_nl is 0 at an infinite one
        return _finite(value.values)
    return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))


A_STATE = Make(RadialSqueezedState, (1e300, 1e-300))
A_FIT = Make(fit_parameters, (Make(QuantumNumbers, (20,)),))
A_EXP = Make(decompose, (A_FIT,))
A_GRID = Make(RadialGrid.uniform, (1600.0, 50))


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases)
# a NaN position came back as a peak position
@example(case=("count_packets", ([0.0, math.nan, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 2.0, 0.0], 0.05, 0.0, 0.0)))
# closed forms past the float range gave inf, or let OverflowError escape
@example(case=("orbit_geometry", (Make(QuantumNumbers, (10**154,)),)))
@example(case=("moment_r", (A_STATE, 2)))
@example(case=("uncertainties_rp", (A_STATE,)))
@example(case=("expectation_H", (Make(RadialSqueezedState, (1e300, 1e300)),)))
# an expansion of zero weight gave a NaN spread
@example(case=("coefficient_spread", (Make(EigenExpansion, (2, np.zeros(3))),)))
# a coefficient whose square overflows leaked a RuntimeWarning; a rule whose
# midpoints pass the float range too; a window of no pair raised IndexError,
# and levels of a 2-d array TypeError
@example(case=("EigenExpansion", (85, np.array([1e300, -1e300, 5e-324]))))
@example(case=("radial_quadrature", (sys.float_info.max, 600)))
@example(case=("detect_revival", (np.arange(4.0), np.arange(4.0), np.array([]))))
@example(case=("BasisTable", (np.zeros((2, 2)), np.arange(3.0))))
# radii whose differences overflow leaked a RuntimeWarning; a packet report
# took an infinite time; a weight whose square underflows to 0 made the
# autocorrelation divide by 0
@example(case=("RadialGrid", (np.array([0.0, -1e300, sys.float_info.max]),)))
@example(case=("count_packets", (np.arange(5.0), np.ones(5), 0.05, math.inf)))
@example(case=("autocorrelation", (Make(EigenExpansion, (2, np.array([4.1e-87]))), 0.0)))
# radii whose steps overflow leaked a RuntimeWarning from the smoothing's grid
# check, and a projection's guard another from inf - inf; 2-d radii of a
# basis table are refused (unsorted ones once made its sorting recurse until
# NumPy was asked for 64 GiB)
@example(case=("count_packets", (np.array([1.0, -1e300, sys.float_info.max]), np.ones(3), 0.05, 0.0, 1.0)))
@example(case=("decompose", (Make(RadialSqueezedState, (5.16317538603794e19, 5.16317538603794e19)), (2, 2))))
@example(case=("BasisTable", (np.array([]), np.array([[1.0, 0.5], [807.8, 2.0]]))))
# heights whose differences pass the float range leaked a RuntimeWarning from
# the peak search, and from the smoothing's transforms
@example(case=("count_packets", (np.arange(5.0), np.array([0.0, sys.float_info.max, 0.0, -1e300, 0.0]))))
@example(case=("count_packets", (np.arange(9.0), np.array([0, 0, 1.7e308, 1.7e308, 1.7e308, 0, 0, 0, 0.0]),
                                 0.05, 0.0, 1.0)))
# a NaN or negative radius gave psi NaN or leaked a RuntimeWarning, and so did
# ln psi at r = inf (inf - inf) and where gamma0 r overflows; psi past the
# float range came back inf
@example(case=("RadialSqueezedState.psi", (A_FIT, math.nan)))
@example(case=("RadialSqueezedState.psi", (A_FIT, -1.0)))
@example(case=("RadialSqueezedState.psi", (A_FIT, math.inf)))
@example(case=("RadialSqueezedState.log_envelope", (A_FIT, math.inf)))
@example(case=("RadialSqueezedState.log_envelope", (A_FIT, -1.0)))
@example(case=("RadialSqueezedState.log_envelope", (Make(RadialSqueezedState, (1.0, 10.0)), 1e308)))
@example(case=("RadialSqueezedState.psi", (Make(RadialSqueezedState, (1.0, 1e300)), 1e-300)))
# a grid's count was truncated (3.7 made 3 points), a NaN count went to int()
# unnamed, an infinite r_max leaked a RuntimeWarning, and 2^63 points raised
# IndexError; an infinite r_out matched any two packets
@example(case=("RadialGrid.uniform", (10.0, 3.7)))
@example(case=("RadialGrid.uniform", (10.0, math.nan)))
@example(case=("RadialGrid.uniform", (math.inf, 10)))
@example(case=("RadialGrid.uniform", (10.0, 2**63)))
@example(case=("fractional_period_check", (np.arange(10.0), np.eye(10)[2], np.eye(10)[8], math.inf)))
# a float argument given as an int past float range raised OverflowError, or
# TypeError inside an array; a numeric string was taken as its number by some
# entry points and raised TypeError in others
@example(case=("RadialGrid.uniform", (10**400, 10)))
@example(case=("radial_quadrature", (10**400, 64)))
@example(case=("fractional_period_check", (np.arange(10.0), np.eye(10)[2], np.eye(10)[8], 10**400)))
@example(case=("RadialSqueezedState.psi", (A_FIT, 10**400)))
@example(case=("EigenExpansion", (2, np.array([0.5, 10**400]))))
@example(case=("count_packets", (np.arange(5.0), np.ones(5), 0.05, "1.0")))
@example(case=("RadialSqueezedState", ("1", 1.0)))
@example(case=("decompose", (A_FIT, None, None, "0.1")))
# a table for the call's own expansion and grid, matched by identity and by
# comparison
@example(case=("density", (A_EXP, A_GRID, 0.0, OwnTable(True))))
@example(case=("observables", (A_EXP, 0.0, A_GRID, OwnTable(False))))
def test_public_calls_return_finite_values_or_raise_a_documented_error(case):
    name, args = case
    args = _with_own_tables(name, args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", DeficitToleranceWarning)
        try:
            done = {}
            result = _resolved(name)(*(_built(a, done) for a in args))
        except (ValueError, NumericalError, FitError):
            return
    if name == "RadialSqueezedState.log_envelope":  # ln 0 = -inf, where psi is 0, is its value
        result = np.where(result == -np.inf, 0.0, result)
    assert _finite(result), (name, args, result)
    _check_value(name, result)


@pytest.mark.parametrize("name", FITTED)
def test_fitted_calls_return_values_within_the_bounds_of_a_state(name):
    # a fitted call is a state the package serves, so each of 30 draws must
    # return, and its value must obey the bounds of a physical state
    counts = {"drawn": 0, "returned": 0}

    @settings(max_examples=30, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_fitted_call(name))
    def call(case):
        counts["drawn"] += 1
        args = _with_own_tables(name, case[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", DeficitToleranceWarning)
            done = {}
            result = _resolved(name)(*(_built(a, done) for a in args))
        assert _finite(result), (name, args, result)
        _check_value(name, result)
        counts["returned"] += 1

    call()
    print(f"{name}: {counts['returned']} of {counts['drawn']} fitted draws returned")


def _check_value(name: str, result):
    """The bounds a returned value of the calls in ``FITTED`` obeys, to
    rounding: both uncertainty relations of a record, dr dp_r >= 1/2 and
    dR dP >= <r^-2>/2, an autocorrelation in [0, 1] and a density >= 0."""
    if name == "observables":
        assert result.product >= 0.5 * (1.0 - 1e-9), result
        assert result.dR * result.dP >= result.bound_half_rm2 * (1.0 - 1e-9), result
    elif name == "autocorrelation":
        assert 0.0 <= result <= 1.0 + 1e-9, result
    elif name == "density":
        assert (result >= 0.0).all(), result


def _outcome(name: str, args: tuple, done: dict):
    """What the call ``name`` gives: its result (a density as its bytes), or
    the documented error it raises."""
    try:
        result = _resolved(name)(*(_built(a, done) for a in args))
    except (ValueError, NumericalError) as e:
        return repr(e)
    return result.tobytes() if isinstance(result, np.ndarray) else result


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    exp=st.one_of(fitted_expansions, coefficient_expansions),
    grid=uniform_grids,
    t=reals,
    own=st.builds(OwnTable, st.booleans()),
)
def test_a_table_for_the_calls_own_expansion_and_grid_gives_the_bits_of_none(exp, grid, t, own):
    # the table path of density and observables (matched by identity or by
    # comparison) returns what the call without a table returns, bit for bit,
    # or raises what it raises
    done = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", DeficitToleranceWarning)
        for name, args in (("density", (exp, grid, t)), ("observables", (exp, t, grid))):
            assert _outcome(name, _with_own_tables(name, (*args, own)), done) == _outcome(name, args, done)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda state: state.psi(math.nan), "radius is NaN"),
        (lambda state: state.psi(-1.0), "radius must be non-negative"),
        (lambda state: state.log_envelope(math.nan), "radius is NaN"),
        (lambda state: state.log_envelope(-1.0), "radius must be non-negative"),
        (lambda state: RadialGrid.uniform(10.0, 3.7), "n_points must be a whole number, got 3.7"),
        (lambda state: RadialGrid.uniform(10.0, math.nan), "n_points must be a whole number, got nan"),
        (lambda state: RadialGrid.uniform(math.inf, 10), "r_max must be finite, got inf"),
        # on a 10-bohr grid one packet at 2 bohr matched one at 8 bohr
        (lambda state: fractional_period_check(np.arange(10.0), np.eye(10)[2], np.eye(10)[8], math.inf),
         "r_out must be positive and finite, got inf"),
        (lambda state: fractional_period_check(np.arange(10.0), np.eye(10)[2], np.eye(10)[2], 0.0),
         "r_out must be positive and finite, got 0.0"),
        # a real past float range that is no int was named as one
        (lambda state: RadialGrid.uniform(Fraction(10**400, 3), 5),
         "r_max must lie within float range, got a Fraction of 1328 integer bits"),
    ],
    ids=["psi-nan", "psi-negative", "log-envelope-nan", "log-envelope-negative", "uniform-count-3.7",
         "uniform-count-nan", "uniform-r-max-inf", "r-out-inf", "r-out-zero", "uniform-r-max-fraction"],
)
def test_bad_input_is_refused_by_name(call, message):
    state = fit_parameters(QuantumNumbers(20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(state)


def test_the_squeezed_state_takes_its_limits_at_infinity():
    # psi -> 0 and ln psi -> -inf as r -> inf, as R_nl gives 0.0 there
    state = fit_parameters(QuantumNumbers(20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert state.psi(math.inf) == 0.0
        assert state.log_envelope(math.inf) == -math.inf
        assert np.array_equal(state.psi(np.array([0.0, math.inf])), [0.0, 0.0])
        assert rydpack.hydrogen_radial(20, 1, math.inf) == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: rydpack.hydrogen_radial(65537, 1, 1.0),
        lambda: rydpack.density(EigenExpansion(65537, [1.0]), RadialGrid.uniform(10.0, 5)),
    ],
    ids=["hydrogen_radial", "density"],
)
def test_a_level_past_the_recurrences_range_is_refused_at_once(call):
    # a recurrence steps once per degree and its scale table grows with it, so
    # a level of 1e154 never returned: levels stop at 2^16
    with pytest.raises(ValueError, match=r"principal quantum number must be <= 65536, got"):
        call()


BIG = 10**400  # a Python int past float range

# the fourteen entry points that let such an int escape as OverflowError (or
# as TypeError inside an array), each called with BIG in one real argument,
# and the name its refusal gives that argument
PAST_FLOAT_RANGE = {
    "observables": (lambda state, exp: rydpack.observables(exp, BIG), "time"),
    "autocorrelation": (lambda state, exp: rydpack.autocorrelation(exp, BIG), "time"),
    "density": (lambda state, exp: rydpack.density(exp, RadialGrid.uniform(400.0, 50), BIG), "time"),
    "count_packets": (lambda state, exp: rydpack.count_packets(np.arange(5.0), np.ones(5), t=BIG), "time"),
    "hydrogen_radial": (lambda state, exp: rydpack.hydrogen_radial(20, 1, [1.0, BIG]), "radius"),
    "RadialGrid": (lambda state, exp: RadialGrid([0.0, 1.0, BIG]), "grid points"),
    "RadialGrid.uniform": (lambda state, exp: RadialGrid.uniform(BIG, 10), "r_max"),
    "radial_quadrature": (lambda state, exp: rydpack.radial_quadrature(BIG, 64), "r_max"),
    "psi": (lambda state, exp: state.psi(BIG), "radius"),
    "log_envelope": (lambda state, exp: state.log_envelope([BIG]), "radius"),
    "detect_revival": (lambda state, exp: rydpack.detect_revival(np.arange(3.0), [1.0, BIG, 0.0], (0.0, 2.0)),
                       "values"),
    "fractional_period_check": (
        lambda state, exp: fractional_period_check(np.arange(10.0), np.eye(10)[2], np.eye(10)[2], BIG), "r_out"),
    "BasisTable": (lambda state, exp: BasisTable(exp.ns, [0.0, BIG]), "radius"),
    "EigenExpansion": (lambda state, exp: EigenExpansion(2, [0.5, BIG]), "coefficients"),
}


@pytest.fixture(scope="module")
def fitted20():
    state = fit_parameters(QuantumNumbers(20))
    return state, decompose(state)


@pytest.mark.parametrize("call, name", PAST_FLOAT_RANGE.values(), ids=PAST_FLOAT_RANGE.keys())
def test_an_int_past_float_range_is_refused_by_name(call, name, fitted20):
    # one rule of specfun for real scalars and one for real arrays: a value
    # of an array is named "a value of <argument>"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} must lie within float range, got an integer of 1329 bits"):
            call(*fitted20)


# a numeric string is no real number, as a scalar or inside an array
NUMERIC_STRINGS = {
    "observables": (lambda state, exp: rydpack.observables(exp, "1.0"), "time"),
    "count_packets": (lambda state, exp: rydpack.count_packets(np.arange(5.0), np.ones(5), t="1.0"), "time"),
    "decompose": (lambda state, exp: decompose(state, deficit_tol="0.1"), "deficit_tol"),
    "RadialSqueezedState": (lambda state, exp: RadialSqueezedState("1", 1.0), "alpha"),
    "RadialGrid.uniform": (lambda state, exp: RadialGrid.uniform("10", 10), "r_max"),
    "hydrogen_radial": (lambda state, exp: rydpack.hydrogen_radial(3, 1, "1.0"), "radius"),
    "count_packets-positions": (lambda state, exp: rydpack.count_packets(["0", "1", "2"], np.ones(3)), "positions"),
    "moment_r": (lambda state, exp: rydpack.moment_r(state, "1"), "moment order"),
}


@pytest.mark.parametrize("call, name", NUMERIC_STRINGS.values(), ids=NUMERIC_STRINGS.keys())
def test_a_numeric_string_is_refused_by_name(call, name, fitted20):
    # observables, RadialGrid.uniform and hydrogen_radial took "1.0" as 1.0;
    # count_packets, decompose, RadialSqueezedState and moment_r
    # raised TypeError
    with pytest.raises(ValueError, match=f"{name} must be a real number, got '"):
        call(*fitted20)


@pytest.mark.skipif(np.finfo(np.longdouble).max <= sys.float_info.max, reason="long double is double here")
def test_a_long_double_past_float_range_is_infinite_without_a_warning():
    # the cast of a long double array to float64 warned past float range
    beyond = np.array([np.longdouble("1e400")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rydpack.hydrogen_radial(20, 1, beyond)[0] == 0.0  # R_nl is 0 at r = inf
        with pytest.raises(ValueError, match="^positions must be finite$"):
            rydpack.count_packets(beyond, np.ones(1))
