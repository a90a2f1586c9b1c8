"""Radial squeezed states and Rydberg wave-packet revivals for hydrogen.

The pipeline mirrors the CLI: fit a squeezed state to the matching conditions
(`squeezed.fit_parameters`), expand it over bound p eigenstates
(`spectral.decompose`), propagate and measure (`evolution`), and analyse the
revival structure (`analysis`).
"""

from .analysis import (
    FractionalRevival,
    PacketReport,
    Timescales,
    count_packets,
    detect_revival,
    fractional_period_check,
    timescales,
)
from .evolution import (
    BasisTable,
    RadialGrid,
    UncertaintyRecord,
    autocorrelation,
    density,
    evolve,
    observables,
)
from .specfun import (
    NumericalError,
    hydrogen_energy,
    hydrogen_radial,
    laguerre,
    radial_quadrature,
)
from .spectral import (
    DeficitToleranceWarning,
    EigenExpansion,
    coefficient_spread,
    decompose,
    project_coefficient,
    reconstruct,
)
from .squeezed import (
    FitError,
    OrbitGeometry,
    QuantumNumbers,
    RadialSqueezedState,
    expectation_H,
    expectation_pr,
    expectation_pr2,
    fit_parameters,
    moment_r,
    orbit_geometry,
    uncertainties_RP,
    uncertainties_rp,
)

__version__ = "0.1.0"

__all__ = [
    "BasisTable",
    "DeficitToleranceWarning",
    "EigenExpansion",
    "FitError",
    "FractionalRevival",
    "NumericalError",
    "OrbitGeometry",
    "PacketReport",
    "QuantumNumbers",
    "RadialGrid",
    "RadialSqueezedState",
    "Timescales",
    "UncertaintyRecord",
    "autocorrelation",
    "coefficient_spread",
    "count_packets",
    "decompose",
    "density",
    "detect_revival",
    "evolve",
    "expectation_H",
    "expectation_pr",
    "expectation_pr2",
    "fit_parameters",
    "fractional_period_check",
    "hydrogen_energy",
    "hydrogen_radial",
    "laguerre",
    "moment_r",
    "observables",
    "orbit_geometry",
    "project_coefficient",
    "radial_quadrature",
    "reconstruct",
    "timescales",
    "uncertainties_RP",
    "uncertainties_rp",
]
