"""Working with the polynomials encoded by a recurrence Hessenberg matrix.

With H the recurrence matrix and ||w|| the weight norm of the underlying
product, the orthonormal sequence satisfies p_0 = 1/||w|| and

    h_{j+1,j} p_j(x) = x p_{j-1}(x) - sum_{i=1}^{j} h_{i,j} p_{i-1}(x).

Everything here runs off that relation: pointwise evaluation with
derivatives, Hermite least-squares fitting in the orthonormal basis, and
the banded matrix of the induced five-term recurrence for point-mass
products.  Input of a real dtype (recurrence matrix, points, samples)
stays in float64; input of a complex dtype runs in complex128, whatever
its values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .hiep import DEFAULT_SOLVER, solve_hessenberg
from .quadrature import _check_count
from .spectral import JordanOperator, WeightVector

__all__ = [
    "SopEvaluation",
    "evaluate",
    "LsqFit",
    "hermite_least_squares",
    "pentadiagonal_recurrence",
]


@dataclass(frozen=True)
class SopEvaluation:
    """Values and first derivatives of p_0..p_k at the evaluation points.

    Both arrays are float64 when the recurrence section and the points
    are real, and complex128 otherwise.  They are views of one array, in
    which each degree's values and derivatives sit side by side.
    """

    values: np.ndarray
    derivs: np.ndarray


# degrees per block of the basis recurrence in :func:`evaluate`, and the
# rows of a block's coupling product padded to a multiple of _ROWS
_BLOCK = 32
_ROWS = 8


def _round_up(n: int, step: int) -> int:
    return -(-n // step) * step


def _subdiagonal(H: np.ndarray) -> np.ndarray:
    """The subdiagonal h_{j+1,j}, j = 1..k, of the (k+1) x (k+1) section H as
    float64, after checking that every entry is real positive."""
    sub = np.diagonal(H, -1)
    bad = ~(sub.real > 0) | (np.abs(sub.imag) > 1e-12 * np.maximum(sub.real, 1.0))
    if bad.any():
        j = int(np.argmax(bad)) + 1
        raise ValueError(
            f"subdiagonal entry ({j + 1},{j}) must be real positive; "
            f"the polynomial sequence ends before degree {j}"
        )
    return sub.real


def _section(H, w_norm: float, k: int) -> np.ndarray:
    """The leading (k+1) x (k+1) section of H that fixes p_0..p_k, after
    checking that H is square, holds degree k and is finite there, and
    that the weight norm is finite and positive."""
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"recurrence matrix must be square, got {H.shape}")
    if not 0 <= k <= H.shape[0] - 1:
        raise ValueError(
            f"degree k={k} needs subdiagonal entry ({k + 1},{k}); "
            f"matrix of dimension {H.shape[0]} holds degrees 0..{H.shape[0] - 1}"
        )
    if not (math.isfinite(w_norm) and w_norm > 0):
        raise ValueError("weight norm must be finite and positive")
    section = H[: k + 1, : k + 1]
    if not np.isfinite(section).all():
        raise ValueError("recurrence matrix entries must be finite")
    return section


def evaluate(H, w_norm: float, x, k: int, trace=None) -> SopEvaluation:
    """Evaluate p_0..p_k and their derivatives at x (scalar or array).

    Runs the recurrence directly in value space; derivatives use the
    differentiated recurrence, which stays stable at degrees in the
    hundreds where monomial coefficients would overflow.  Both share one
    pass: the basis is one (k+1, 2, points) array with (p_j, p_j') in
    row j, so each step of the recurrence updates both with the same
    coefficients.  Degrees go in blocks of 32: one matrix product per
    block adds the terms of every lower degree, and only the terms within
    the block are added degree by degree.  Zero rows pad each block's
    product to a multiple of 8 rows, so that no degree's rounding depends
    on k: a lower degree is bitwise a prefix of a higher one.  A real H
    with real points runs in float64.  ``values`` and ``derivs`` of the
    result are views of that one array.

    Parameters
    ----------
    H : recurrence matrix, at least (k+1) x (k+1), finite in its leading
        (k+1) x (k+1) section.
    w_norm : Euclidean norm of the weight vector (sets p_0 = 1/w_norm).
    x : finite evaluation point(s), real or complex.
    k : highest degree to evaluate, k <= dim(H) - 1.
    trace : optional callable receiving one dict per call with ``k``,
        the number of ``points`` given, whether the ``real`` path ran,
        and the wall time ``seconds``.
    """
    start = time.perf_counter()
    _check_count(k=k)
    H = _section(H, w_norm, k)
    x = np.asarray(x)
    if not np.isfinite(x).all():
        raise ValueError("evaluation points must be finite")
    dtype = np.result_type(H, x, float)
    H = H.astype(dtype, copy=False)
    sub = _subdiagonal(H)
    points = x.reshape(-1).astype(dtype, copy=False)

    # basis[j] = (p_j, p_j'); flat[j] is the same row as one vector
    basis = np.empty((k + 1, 2, points.size), dtype=dtype)
    flat = basis.reshape(k + 1, -1)
    basis[0, 0] = 1.0 / w_norm
    basis[0, 1] = 0.0
    for j0 in range(1, k + 1, _BLOCK):
        j1 = min(j0 + _BLOCK, k + 1)
        # row j - j0: sum over i < j0 of h_{i,j-1} (p_i, p_i'), for j in the block
        coupling = np.zeros((_round_up(j1 - j0, _ROWS), j0), dtype=dtype)
        coupling[: j1 - j0] = H[:j0, j0 - 1 : j1 - 1].T
        proj = coupling @ flat[:j0]
        for j in range(j0, j1):
            proj[j - j0] += H[j0:j, j - 1] @ flat[j0:j]
            cur = basis[j]
            np.multiply(points, basis[j - 1], out=cur)
            cur[1] += basis[j - 1, 0]
            cur -= proj[j - j0].reshape(2, -1)
            cur /= sub[j - 1]
    if trace is not None:
        trace({"event": "evaluate", "k": k, "points": x.size, "real": dtype == float,
               "seconds": time.perf_counter() - start})
    basis = basis.reshape((k + 1, 2) + x.shape)
    return SopEvaluation(values=basis[:, 0], derivs=basis[:, 1])


@dataclass(frozen=True)
class _Interpolation:
    """What carries polynomials of degree at most s from the s + 1
    Chebyshev points of the second kind to a uniform grid, with the exact
    functions' values there (see :func:`_interpolation`)."""

    points: np.ndarray
    R: np.ndarray
    denominator: np.ndarray
    on: np.ndarray
    g: np.ndarray
    exacts: dict


def _interpolation(s: int, grid_points: int, f_exact, fprime_exact) -> _Interpolation | None:
    """The interpolation from the s + 1 Chebyshev points of the second kind
    x_i = sin(pi (2i - s) / (2s)), i = 0..s, to a uniform grid of
    ``grid_points`` over [-1, 1], and the values there of each of
    ``f_exact`` and ``fprime_exact`` that is given; None when neither is.

    A polynomial S of degree at most s is fixed by its values at the
    points, and the second (true) barycentric formula carries them to the
    grid: S(x) = sum_i w_i S(x_i) R_i(x) / sum_i w_i R_i(x), with R_i(x) =
    1/(x - x_i) and w_i = (-1)^i halved at both ends (Berrut & Trefethen
    2004).  It is forward stable at these points (Higham 2004).  ``R``
    holds w_i R_i on the grid, ``denominator`` its column sums, and a grid
    point g equal to x_on, where R is 0, takes S(x_on) instead.
    """
    grid = np.linspace(-1.0, 1.0, grid_points)
    exacts = {name: _on_grid(name, exact, grid) for name, exact in
              (("f_exact", f_exact), ("fprime_exact", fprime_exact)) if exact is not None}
    if not exacts:
        return None
    points = np.sin(np.pi * np.arange(-s, s + 1, 2) / (2 * s))
    # R[i, j] = w_i / (grid[j] - points[i]), but 0 where grid[j] is points[i]
    weights = np.where(np.arange(s + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    R = grid - points[:, None]
    on, g = np.divmod(np.flatnonzero(R == 0), grid.size)
    R[on, g] = np.inf
    np.divide(weights[:, None], R, out=R)
    denominator = R.sum(axis=0)
    denominator[g] = 1.0
    return _Interpolation(points, R, denominator, on, g, exacts)


def _fit(H, w_norm, coeff, degrees, interpolation: _Interpolation, trace):
    """The max-norm errors on the grid of the fits of the given degrees,
    from the coefficients c_0..c_n of the fit of the highest degree n, for
    ``f_exact`` and ``fprime_exact`` in turn, or None for one that is not
    given.

    One :func:`evaluate` of p_0..p_n at the interpolation points, and at no
    other point, gives the running sums S_d = sum_{i<=d} c_i p_i (and
    p_i'), one add per degree in order.  Every S_d with d <= n <= s is
    fixed by its values at the points, and the numerators of every
    requested degree are one BLAS product of their rows (S_d, S_d') with
    ``R``, divided by one denominator row.  Each degree's errors are thus
    those of its own coefficients, within rounding, not bitwise those of
    a separate fit.  An interpolation of s >= n serves every family fitted
    to degree at most s, so several share one set of points, one ``R``
    and one grid.  The caller forms the coefficients: ``cmd_least_squares``
    from the solver's Krylov basis, Q^H f(Z) w, :func:`hermite_least_squares`
    at the nodes.
    """
    on, g, s = interpolation.on, interpolation.g, interpolation.points.size - 1
    basis = evaluate(H, w_norm, interpolation.points, max(degrees), trace=trace)
    # the running sums (S_d, S_d') at the points, d = 0..n
    running = np.empty((coeff.size, 2, s + 1), dtype=coeff.dtype)
    np.multiply(coeff[:, None], basis.values, out=running[:, 0])
    np.multiply(coeff[:, None], basis.derivs, out=running[:, 1])
    np.cumsum(running, axis=0, out=running)
    at = running[degrees]
    R = interpolation.R.astype(at.dtype, copy=False)
    fits = (at.reshape(-1, s + 1) @ R).reshape(len(degrees), 2, -1)
    fits /= interpolation.denominator
    fits[:, :, g] = at[:, :, on]
    exacts = interpolation.exacts
    errors = {name: np.max(np.abs(fits[:, k] - exacts[name]), axis=1).tolist()
              for k, name in enumerate(("f_exact", "fprime_exact")) if name in exacts}
    return errors.get("f_exact"), errors.get("fprime_exact")


def _on_grid(name: str, exact, grid: np.ndarray) -> np.ndarray:
    """What the exact function ``exact`` returns on ``grid``, after checking
    that it broadcasts to the grid (a scalar does) and is finite."""
    values = np.asarray(exact(grid))
    try:
        np.broadcast_to(values, grid.shape)
    except ValueError:
        raise ValueError(
            f"{name} returned shape {values.shape}, which does not broadcast "
            f"to the {grid.size} grid points"
        ) from None
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite on the grid")
    return values


@dataclass(frozen=True)
class LsqFit:
    """Least-squares expansion in the orthonormal basis.

    ``coefficients[j]`` multiplies p_j; errors are max-norm deviations of
    the approximant (and its derivative) from the supplied exact
    functions on the evaluation grid, or None when no exact function was
    given.  The coefficients are float64 when H's section and the samples
    are real, and complex128 otherwise.
    """

    coefficients: np.ndarray
    degree: int
    value_error: float | None
    deriv_error: float | None


def hermite_least_squares(
    H,
    w_norm: float,
    nodes,
    node_weights,
    f_values,
    fprime_values,
    gamma: float,
    n: int,
    f_exact=None,
    fprime_exact=None,
    grid_points: int = 2001,
    trace=None,
) -> LsqFit:
    """Degree-n least-squares fit penalizing value and derivative misfit.

    Minimizes sum_m weight_m (|f - f_n|^2 + gamma |f' - f_n'|^2) at the
    nodes over polynomials f_n of degree n.  In the basis orthonormal
    under that product the minimizer is the truncated expansion with

        c_j = sum_m weight_m (f_m conj(p_j(x_m)) + gamma f'_m conj(p_j'(x_m))).

    H must therefore be the recurrence matrix generated from the same
    nodes, weights and gamma, and the weights must be positive, or the
    product is not positive definite.  Each c_j sums its own row, so a
    lower-degree fit is bitwise a prefix.  Each of ``f_exact`` and
    ``fprime_exact`` that is given (a callable returning finite values
    that broadcast to its argument, a scalar included) has its error
    measured in the max norm on a uniform grid of ``grid_points`` >= 1
    points over [-1, 1], by :func:`_fit` from the max(n, 1) + 1 Chebyshev
    points, so the cost follows n, not dim(H).  With no spectral data
    there is no Krylov basis to take the coefficients from, so they are
    formed from one basis evaluation at the nodes alone, bitwise the same
    whether or not errors are asked for.  That limits them past degree m,
    the number of nodes: at m = 201, gamma = 1e4, degree 281's derivative
    error reads 6.1e-5 here and 3.6e-12 from the Krylov coefficients
    Q^H f(Z) w of ``cmd_least_squares``, the accurate path for a caller
    that has the spectral data (Z, w).  ``trace`` goes to :func:`evaluate`.
    """
    nodes = np.asarray(nodes, dtype=float)
    node_weights = np.asarray(node_weights, dtype=float)
    f_values = np.asarray(f_values)
    fprime_values = np.asarray(fprime_values)
    samples = np.result_type(f_values, fprime_values, float)
    f_values = f_values.astype(samples, copy=False)
    fprime_values = fprime_values.astype(samples, copy=False)
    if not (
        nodes.shape == node_weights.shape == f_values.shape == fprime_values.shape
    ):
        raise ValueError("nodes, weights and sample arrays must share one shape")
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValueError(f"nodes must be a non-empty 1-d array, got shape {nodes.shape}")
    for name, array in (("node_weights", node_weights), ("f_values", f_values),
                        ("fprime_values", fprime_values)):
        if not np.isfinite(array).all():
            raise ValueError(f"{name} must be finite")
    if not (node_weights > 0).all():
        raise ValueError("node_weights must be positive")
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError("gamma must be finite and non-negative")
    _check_count(n=n, grid_points=grid_points)
    if grid_points < 1:
        raise ValueError(f"grid_points={grid_points} must be at least 1")

    basis = evaluate(H, w_norm, nodes, n, trace=trace)
    coeff = (basis.values.conj() * (node_weights * f_values)).sum(axis=1)
    if gamma > 0:
        coeff += gamma * (basis.derivs.conj() * (node_weights * fprime_values)).sum(axis=1)
    value_error = deriv_error = None
    interpolation = _interpolation(max(n, 1), grid_points, f_exact, fprime_exact)
    if interpolation is not None:
        errors = _fit(H, w_norm, coeff, [n], interpolation, trace)
        value_error, deriv_error = (None if e is None else e[0] for e in errors)
    return LsqFit(
        coefficients=coeff, degree=n, value_error=value_error, deriv_error=deriv_error
    )


def pentadiagonal_recurrence(
    Z: JordanOperator, w: WeightVector, m: int, solver: str = DEFAULT_SOLVER, trace=None
) -> np.ndarray:
    """Matrix of the five-term recurrence induced by a squared argument.

    For spectral data whose operator has been shifted so the point-mass
    block sits at eigenvalue zero, Z^2 is diagonal and the polynomials
    satisfy a five-term recurrence in x^2.  Its matrix is the leading
    m x m section of H_{m+1}^2, Hermitian and pentadiagonal up to the
    solver's accuracy.  ``trace`` is passed on to the solver.
    """
    _check_count(m=m)
    if m < 1:
        raise ValueError("recurrence dimension m must be at least 1")
    if Z.m < m + 1:
        raise ValueError(
            f"need spectral data of dimension at least {m + 1}, got {Z.m}"
        )
    H = solve_hessenberg(Z, w, m + 1, method=solver, trace=trace)
    return (H @ H)[:m, :m]
