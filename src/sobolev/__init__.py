"""Sobolev orthonormal polynomials via inverse eigenvalue problems.

Discretized Sobolev inner products are encoded as a Jordan matrix plus a
weight vector; solving the associated Hessenberg inverse eigenvalue
problem yields the recurrence matrix of the orthonormal polynomial
sequence, which then drives evaluation, root finding and Hermite least
squares.
"""

from .errors import NumericalFailure
from .quadrature import (
    JacobiCoefficients,
    QuadratureRule,
    gauss_radau_right,
    golub_welsch,
    laguerre_jacobi,
    legendre_jacobi,
)
from .spectral import (
    JordanBlockSpec,
    JordanOperator,
    WeightVector,
    build_discrete_laguerre_sobolev,
    build_radau_endpoint,
    build_same_measure,
    jordan_matvec,
    spectral_from_json,
    spectral_to_json,
)
from .hiep import (
    ArnoldiResult,
    arnoldi,
    hessenberg_defect,
    solve_hessenberg,
    update_solve,
)
from .eigen import Spectrum, hessenberg_eigenvalues, smallest_root, smallest_roots
from .sop import (
    LsqFit,
    SopEvaluation,
    evaluate,
    hermite_least_squares,
    pentadiagonal_recurrence,
)

__version__ = "0.1.0"

__all__ = [
    "NumericalFailure",
    "JacobiCoefficients",
    "QuadratureRule",
    "legendre_jacobi",
    "laguerre_jacobi",
    "golub_welsch",
    "gauss_radau_right",
    "JordanBlockSpec",
    "JordanOperator",
    "WeightVector",
    "build_same_measure",
    "build_discrete_laguerre_sobolev",
    "build_radau_endpoint",
    "jordan_matvec",
    "spectral_to_json",
    "spectral_from_json",
    "ArnoldiResult",
    "arnoldi",
    "update_solve",
    "solve_hessenberg",
    "hessenberg_defect",
    "Spectrum",
    "hessenberg_eigenvalues",
    "smallest_root",
    "smallest_roots",
    "SopEvaluation",
    "evaluate",
    "LsqFit",
    "hermite_least_squares",
    "pentadiagonal_recurrence",
    "__version__",
]
