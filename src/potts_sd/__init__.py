"""Computational workbench for the anisotropic self-dual Potts model above
the first-order point: exact finite-lattice series, closed-form free
energies, root-equation numerics, and machine verification of the
inversion and rotation functional relations."""

__version__ = "0.1.0"

from .bundle import FreeEnergyBundle, LogSeries
from .params import CouplingParams, SpectralParams
from .qseries import LaurentPolyS, TruncatedSeries

__all__ = [
    "CouplingParams",
    "FreeEnergyBundle",
    "LaurentPolyS",
    "LogSeries",
    "SpectralParams",
    "TruncatedSeries",
    "__version__",
]
