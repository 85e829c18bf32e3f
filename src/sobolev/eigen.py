"""Eigenvalues of upper Hessenberg matrices.

Roots of the orthonormal polynomial p_k are the eigenvalues of the k x k
leading principal section of its recurrence matrix, so all root finding
in this package reduces to the Hessenberg eigenvalue problem.  The input
is validated here (square, finite, Hessenberg within a relative
tolerance) and the eigenvalues come from LAPACK through
``np.linalg.eigvals``.  A real H reaches the real double-shift QR
(``dhseqr`` via ``dgeev``), which returns real eigenvalues with an
imaginary part of exactly zero; a complex H reaches ``zgeev``.

A root table makes one LAPACK call for its sections up to order 75:
section k sits in the top-left corner of a zero matrix of the largest
order, and the stack goes to LAPACK at once.  Balancing isolates the zero
rows and columns, so the QR iteration runs on the section's own block.
xHSEQR picks its small-matrix QR (xLAHQR) by the order of the whole
matrix, up to order 75 (the crossover of reference LAPACK's ILAENV, which
OpenBLAS ships), and the multishift QR of Braman, Byers & Mathias (2002)
above it, whose shifts and deflation windows depend on that order.  So up
to order 75 a padded section gets exactly the bits of the section alone;
above it, padding changes them, and each larger section keeps a call of
its own.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import NumericalFailure
from .hiep import hessenberg_defect

__all__ = ["hessenberg_eigenvalues", "smallest_root", "smallest_roots"]


# the largest order at which xHSEQR still runs xLAHQR, and a zero-padded
# section gets the bits of the section alone
_STACK_ORDER = 75


def _lapack_eigenvalues(T: np.ndarray, trace) -> np.ndarray:
    """Eigenvalues of a stack of validated, exactly Hessenberg matrices of
    one order n, shape (sections, n, n), by one LAPACK call."""
    sections, n = T.shape[:2]
    start = time.perf_counter()
    try:
        vals = np.linalg.eigvals(T)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"LAPACK eigenvalue iteration failed: {exc}", n=n) from exc
    if trace is not None:
        trace({"event": "eigen", "n": n, "sections": sections,
               "seconds": time.perf_counter() - start})
    return vals


def _as_float_matrix(H) -> np.ndarray:
    A = np.asarray(H)
    A = A.astype(np.result_type(A, float), copy=False)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    return A


def _leading(H, k: int, name: str) -> np.ndarray:
    """H as an array whose leading k x k section exists, else a ValueError."""
    A = np.asarray(H)
    if A.ndim != 2 or not 1 <= k <= min(A.shape):
        raise ValueError(f"leading dimension {name}={k} must lie in 1..{min(A.shape, default=0)}")
    return A


def _smallest(vals: np.ndarray) -> complex:
    """Smallest real part, exact ties by smallest absolute imaginary part,
    then by the imaginary part itself (the lower of a conjugate pair)."""
    return complex(vals[np.lexsort((vals.imag, np.abs(vals.imag), vals.real))[0]])


def hessenberg_eigenvalues(H, trace=None) -> np.ndarray:
    """All eigenvalues of an upper Hessenberg matrix, real or complex,
    sorted by real part, ties by imaginary part; float64 if H is real and
    every eigenvalue is real.

    Entries below the subdiagonal may deviate from zero by at most
    1e-13 * max(||H||_F, 1); they are then set to zero before LAPACK sees
    the matrix.  ``trace``, if given, receives one dict per LAPACK call
    with its dimension ``n``, ``sections`` (1 here) and wall time
    ``seconds``.

    Raises
    ------
    ValueError
        If H is not square, holds NaN or inf, or is not Hessenberg.
    NumericalFailure
        If LAPACK's QR iteration does not converge.
    """
    A = _as_float_matrix(H)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    if hessenberg_defect(A) > 1e-13 * max(float(np.linalg.norm(A)), 1.0):
        raise ValueError("matrix is not upper Hessenberg within tolerance")
    vals = _lapack_eigenvalues(np.triu(A, -1)[None], trace)[0]
    return vals[np.lexsort((vals.imag, vals.real))]


def smallest_root(H, k: int, trace=None) -> complex:
    """Smallest eigenvalue of the leading k x k section of H.

    Smallest means smallest real part; exact ties are broken by smallest
    absolute imaginary part.  ``trace`` is passed on to
    :func:`hessenberg_eigenvalues`.
    """
    H = _leading(H, k, "k")
    return _smallest(hessenberg_eigenvalues(H[:k, :k], trace=trace))


def smallest_roots(H, k_max: int, trace=None) -> list[complex]:
    """Smallest eigenvalue of every leading section, k = 1 .. k_max.

    Equal to ``[smallest_root(H, k) for k in 1 .. k_max]``, with H
    validated once: each section still passes the checks of
    :func:`hessenberg_eigenvalues`, its own tolerance
    1e-13 * max(||H_k||_F, 1) included, and the first section that fails
    one raises its ``ValueError`` before any LAPACK call.  The sections
    share one copy with the entries below the subdiagonal set to zero.
    Sections 1 .. min(k_max, 75) go to LAPACK as one stack, each
    zero-padded to the largest order, and give the bits of their own
    calls (see the module docstring); each larger section gets a call of
    its own.  Each LAPACK call emits one ``eigen``
    trace event with its order ``n`` and its ``sections``.
    """
    A = _as_float_matrix(_leading(H, k_max, "k_max")[:k_max, :k_max])
    # section k holds entry (i, j) iff max(i, j) < k, and its defect is the
    # largest one of rows 0 .. k-1; only a defect above 1e-13 can fail
    rows, cols = np.nonzero(~np.isfinite(A))
    first_bad = int(np.maximum(rows, cols).min(initial=k_max)) + 1
    defect = np.maximum.accumulate(np.abs(np.tril(A, -2)).max(axis=1))
    for k in np.flatnonzero(defect[:first_bad - 1] > 1e-13).tolist():
        if defect[k] > 1e-13 * max(float(np.linalg.norm(A[:k + 1, :k + 1])), 1.0):
            raise ValueError("matrix is not upper Hessenberg within tolerance")
    if first_bad <= k_max:
        raise ValueError("matrix entries must be finite")
    T = np.triu(A, -1)
    s = min(k_max, _STACK_ORDER)
    # section k in layer k - 1; its eigenvalues come out in places
    # 0 .. k-1 of the layer, the padding's zeros after them
    stack = np.zeros((s, s, s), dtype=T.dtype)
    for k in range(1, s + 1):
        stack[k - 1, :k, :k] = T[:k, :k]
    vals = _lapack_eigenvalues(stack, trace)
    layer = np.arange(s)
    padding = layer > layer[:, None]
    # _smallest's order in each layer, the padding last
    smallest = np.lexsort((vals.imag, np.abs(vals.imag), vals.real, padding))[:, 0]
    roots = vals[layer, smallest].astype(complex).tolist()
    for k in range(s + 1, k_max + 1):
        roots.append(_smallest(_lapack_eigenvalues(T[None, :k, :k], trace)[0]))
    return roots
