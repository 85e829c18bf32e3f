"""Eigenvalues of upper Hessenberg matrices.

Roots of the orthonormal polynomial p_k are the eigenvalues of the k x k
leading principal section of its recurrence matrix, so all root finding
in this package reduces to the Hessenberg eigenvalue problem.  The input
is validated here (square, finite, Hessenberg within a relative
tolerance) and the eigenvalues come from LAPACK through
``np.linalg.eigvals``.  A real H reaches the real double-shift QR
(``dhseqr`` via ``dgeev``), which returns real eigenvalues with an
imaginary part of exactly zero; a complex H reaches ``zgeev``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .hiep import hessenberg_defect

__all__ = ["Spectrum", "hessenberg_eigenvalues", "smallest_root"]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by real part, ties by imaginary part; float64 if all real."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.eigenvalues))
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def n(self) -> int:
        return self.eigenvalues.size


def hessenberg_eigenvalues(H, trace=None) -> Spectrum:
    """All eigenvalues of an upper Hessenberg matrix, real or complex.

    Entries below the subdiagonal may deviate from zero by at most
    1e-13 * max(||H||_F, 1); they are then set to zero before LAPACK sees
    the matrix.  ``trace``, if given, receives one dict per LAPACK call
    with its dimension ``n`` and wall time ``seconds``.

    Raises
    ------
    ValueError
        If H is not square, holds NaN or inf, or is not Hessenberg.
    NumericalFailure
        If LAPACK's QR iteration does not converge.
    """
    A = np.asarray(H)
    A = A.astype(np.result_type(A, float), copy=False)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    n = A.shape[0]
    if hessenberg_defect(A) > 1e-13 * max(float(np.linalg.norm(A)), 1.0):
        raise ValueError("matrix is not upper Hessenberg within tolerance")
    start = time.perf_counter()
    try:
        vals = np.linalg.eigvals(np.triu(A, -1))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"LAPACK eigenvalue iteration failed: {exc}", n=n) from exc
    if trace is not None:
        trace({"event": "eigen", "n": n, "seconds": time.perf_counter() - start})
    return Spectrum(vals[np.lexsort((vals.imag, vals.real))])


def smallest_root(H, k: int, trace=None) -> complex:
    """Smallest eigenvalue of the leading k x k section of H.

    Smallest means smallest real part; exact ties are broken by smallest
    absolute imaginary part.  ``trace`` is passed on to
    :func:`hessenberg_eigenvalues`.
    """
    H = np.asarray(H)
    if not 1 <= k <= H.shape[0]:
        raise ValueError(f"leading dimension k={k} must lie in 1..{H.shape[0]}")
    vals = hessenberg_eigenvalues(H[:k, :k], trace=trace).eigenvalues
    best = min(vals, key=lambda z: (z.real, abs(z.imag)))
    return complex(best)
