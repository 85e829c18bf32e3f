"""Sobolev orthonormal polynomials via inverse eigenvalue problems.

Discretized Sobolev inner products are encoded as a Jordan matrix plus a
weight vector; solving the associated Hessenberg inverse eigenvalue
problem yields the recurrence matrix of the orthonormal polynomial
sequence, which then drives evaluation, root finding and Hermite least
squares.

Each layer module lists its public names in its own ``__all__``: the
package re-exports them in pipeline order (quadrature, spectral, hiep,
eigen, sop), after ``NumericalFailure`` and before ``__version__``.
"""

from . import eigen, hiep, quadrature, sop, spectral
from .errors import NumericalFailure
from .quadrature import *  # noqa: F403
from .spectral import *  # noqa: F403
from .hiep import *  # noqa: F403
from .eigen import *  # noqa: F403
from .sop import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "NumericalFailure",
    *quadrature.__all__,
    *spectral.__all__,
    *hiep.__all__,
    *eigen.__all__,
    *sop.__all__,
    "__version__",
]
