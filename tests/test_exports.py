import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import rydpack
from rydpack.analysis import PacketReport, fractional_period_check, timescales
from rydpack.evolution import BasisTable
from rydpack.spectral import UncertaintyRecord
from rydpack.squeezed import QuantumNumbers, RadialSqueezedState, expectation_H, fit_parameters

SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(rydpack.__path__) if name != "__main__"
)


@pytest.mark.parametrize("module", ["rydpack"] + [f"rydpack.{name}" for name in SUBMODULES])
def test_every_exported_name_resolves(module):
    # a function deleted from a module must leave its __all__ and the
    # package's re-exports too
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


REEXPORTED = ["analysis", "evolution", "specfun", "spectral", "squeezed"]


def test_package_exports_the_union_of_its_modules():
    # each module's __all__ is the one list of its public names; the package
    # re-exports every one of them as the very same object
    modules = [importlib.import_module(f"rydpack.{name}") for name in REEXPORTED]
    assert rydpack.__all__ == sorted({name for mod in modules for name in mod.__all__})
    assert [
        (mod.__name__, name)
        for mod in modules
        for name in mod.__all__
        if getattr(rydpack, name) is not getattr(mod, name)
    ] == []


PUBLIC = [
    "BasisTable", "DEFAULT_DEFICIT_TOL", "DeficitToleranceWarning", "EigenExpansion",
    "FRACTIONAL_ORDERS", "FitError", "FractionalRevival", "L", "N_CAP", "NumericalError",
    "OrbitGeometry", "PacketReport", "QuantumNumbers", "RadialGrid", "RadialSqueezedState",
    "Timescales", "UncertaintyRecord", "autocorrelation", "coefficient_spread", "count_packets",
    "decompose", "density", "detect_revival", "expectation_H", "expectation_pr2", "fit_parameters",
    "fractional_period_check", "hydrogen_energy", "hydrogen_radial", "moment_r", "observables",
    "orbit_geometry", "radial_quadrature", "timescales", "uncertainties_RP", "uncertainties_rp",
]

# names that nothing in the package, the CLI, the benchmark or the acceptance
# suite calls, so they stay private: specfun._laguerre_rows,
# specfun._radial_log_const, spectral._project and spectral._amplitude_blocks
# do their work
WITHDRAWN = {
    "specfun": ("laguerre", "radial_log_prefactor"),
    "spectral": ("project_coefficient", "reconstruct"),
}


def test_package_exports_pin_the_public_names():
    # a name joins or leaves the public API only with this list; there is no
    # evolve, since an expansion is real and its phases are applied where a
    # time is evaluated
    assert rydpack.__all__ == PUBLIC and len(PUBLIC) == 36
    assert not hasattr(rydpack, "evolve")
    for module, names in WITHDRAWN.items():
        for name in names:
            assert not hasattr(rydpack, name) and not hasattr(getattr(rydpack, module), name), name


def _signatures(obj):
    # a callable's own signature, and for a class those of its public methods
    try:
        yield obj.__qualname__, inspect.signature(obj)
    except (TypeError, ValueError):
        pass
    if inspect.isclass(obj):
        for key, member in vars(obj).items():
            member = getattr(member, "__func__", member)
            if not key.startswith("_") and callable(member):
                yield from _signatures(member)


@pytest.mark.parametrize("module", ["spectral", "evolution", "io", "squeezed"])
def test_no_public_callable_takes_l_or_n_cap(module):
    # l is the constant squeezed.L and the level cap is spectral.N_CAP;
    # neither is a setting above the special functions
    mod = importlib.import_module(f"rydpack.{module}")
    found = [
        f"{where}({name})"
        for attr in mod.__all__
        if callable(getattr(mod, attr))
        for where, sig in _signatures(getattr(mod, attr))
        for name in sig.parameters
        if name in ("l", "n_cap")
    ]
    assert found == []


INDEPENDENT_VALUES = [
    (QuantumNumbers, ("nbar",)),
    (RadialSqueezedState, ("alpha", "gamma0")),
    (UncertaintyRecord, ("t", "dr", "dpr", "dR", "bound_half_rm2")),
    (PacketReport, ("t", "peak_positions", "prominence_threshold")),
    (BasisTable, ("ns", "points")),
    (expectation_H, ("state",)),
    (fit_parameters, ("q",)),
    (timescales, ("q",)),
    (fractional_period_check, ("r", "f_a", "f_b", "r_out", "smooth")),
]


@pytest.mark.parametrize(
    "obj, params", INDEPENDENT_VALUES, ids=[obj.__name__ for obj, _ in INDEPENDENT_VALUES]
)
def test_callers_pass_only_independent_values(obj, params):
    # log_norm, product, ratio, dP, peak_count and a table's values are derived
    # from these, and the level spread is measured on an expansion; the potential (l = 1 in <H> and in the fit), the fractional
    # orders and the packet-matching tolerance and prominence take one value
    # each; none of them may come back as an argument that could contradict
    # the rest
    assert tuple(inspect.signature(obj).parameters) == params


# the package's modules from the bottom up; a module imports only from the
# layers below its own, so no import cycle can form
LAYERS = [
    {"units"},
    {"specfun"},
    {"squeezed"},
    {"spectral"},
    {"evolution", "analysis"},
    {"io", "stages"},
    {"cli"},
    {"__init__", "__main__"},
]


def _package_imports(tree):
    # the rydpack modules a module's source imports, at any depth
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "rydpack":
            yield from node.module.split(".")[1:2] or (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rydpack."):
                    yield alias.name.split(".")[1]


def test_package_imports_only_go_down_the_layers():
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    sources = sorted(Path(rydpack.__file__).parent.glob("*.py"))
    assert sorted(path.stem for path in sources) == sorted(rank)
    upward = [
        (path.stem, target)
        for path in sources
        for target in _package_imports(ast.parse(path.read_text(encoding="utf-8")))
        if rank[target] >= rank[path.stem]
    ]
    assert upward == []
