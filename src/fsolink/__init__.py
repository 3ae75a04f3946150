"""Seeded simulator of a GEO-to-ground free-space optical link.

Pipeline: turbulent wavefront synthesis, Hermite-Gauss decomposition,
single-mode vs coherently-combined multimode receiver coupling, closed-loop
phase control of a photonic combiner, and OOK/DPSK bit-error-rate
evaluation.
"""

__version__ = "0.1.0"

from . import combiner, comms, controller, field, modes, scenario, turbulence, wdm
from .combiner import *
from .comms import *
from .controller import *
from .field import *
from .modes import *
from .scenario import *
from .turbulence import *
from .wdm import *

# what is public is each module's __all__, declared there and only there
__all__ = [name for module in (combiner, comms, controller, field, modes, scenario, turbulence, wdm)
           for name in module.__all__]
