"""Spectral simulator and verification harness for the Schrodinger flow on S^d.

Each module's __all__ is its public API; the package republishes them all, in import order."""
from . import experiments, grids, harmonics, norms, potential, spectral
from .harmonics import *  # noqa: F403
from .grids import *  # noqa: F403
from .spectral import *  # noqa: F403
from .norms import *  # noqa: F403
from .experiments import *  # noqa: F403
from .potential import *  # noqa: F403

__all__ = [name for module in (harmonics, grids, spectral, norms, experiments, potential)
           for name in module.__all__]
__version__ = "0.1.0"
