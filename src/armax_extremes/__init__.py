"""Multivariate max-autoregressive (ARMAX) processes.

Simulation of d-variate ARMAX recursions with configurable innovation
margins and copulas, their stationary laws, extremal indices, lag-r tail
dependence coefficients, and estimators for the autoregression
coefficients — plus a CLI that emits seeded, reproducible CSV/JSON runs.
"""

from . import armax, copulas, errors, estimation, extremal, margins, taildep
from .armax import *
from .copulas import *
from .errors import *
from .estimation import *
from .extremal import *
from .margins import *
from .taildep import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += armax.__all__
__all__ += copulas.__all__
__all__ += errors.__all__
__all__ += estimation.__all__
__all__ += extremal.__all__
__all__ += margins.__all__
__all__ += taildep.__all__
