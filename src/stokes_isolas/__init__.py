"""High-frequency instability isolas of small-amplitude Stokes waves.

Numerical evaluation of the coefficients that control the size of the p-th
instability isola (p = 2, 3, 4) as a function of water depth: dispersion
kernels, critical Floquet wavenumbers, closed-form coefficient sums with
full term breakdowns, critical-depth location, deep-water asymptotics with
rate verification, and the leading-order isola geometry.
"""

# The public API is each module's __all__, exported as it stands: a name leaves the API by leaving its list.
from . import asymptotics, beta, dispersion, errors, isola, resonance, stokes_coefficients

# Read before the star imports: the last of them rebinds stokes_coefficients from the module to the function.
__all__ = [name for module in (asymptotics, beta, dispersion, errors, isola, resonance, stokes_coefficients)
           for name in module.__all__]

from .asymptotics import *
from .beta import *
from .dispersion import *
from .errors import *
from .isola import *
from .resonance import *
from .stokes_coefficients import *

__version__ = "0.1.0"
