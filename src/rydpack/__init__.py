"""Radial squeezed states and Rydberg wave-packet revivals for hydrogen.

The pipeline mirrors the CLI: fit a squeezed state to the matching conditions
(`squeezed.fit_parameters`), expand it over bound p eigenstates
(`spectral.decompose`), propagate and measure (`evolution`), and analyse the
revival structure (`analysis`).

The package re-exports the public names of those four modules and of
`specfun`.  Each module's ``__all__`` is the one list of its public names,
and the package's ``__all__`` is their sorted union.  `io` and `cli` stay
submodules.
"""

from . import analysis, evolution, specfun, spectral, squeezed
from .analysis import *
from .evolution import *
from .specfun import *
from .spectral import *
from .squeezed import *

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (analysis, evolution, specfun, spectral, squeezed)
        for name in module.__all__
    }
)
