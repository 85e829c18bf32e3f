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


# degrees per block of the basis recurrence in :func:`evaluate`, the rows
# of a block's coupling product padded to a multiple of _ROWS, and the
# point count padded to a multiple of _POINTS
_BLOCK = 32
_ROWS = 8
_POINTS = 16


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
    product to a multiple of 8 rows, and zero points pad the points to a
    multiple of 16, so that every BLAS call runs on whole kernel tiles.
    That makes two invariants hold bitwise: no degree's rounding depends
    on k, so a lower degree is a prefix of a higher one, and no point's
    (p_j, p_j') depends on the other points in the call, so one call on
    several point sets equals one call per set.  A real H with real
    points runs in float64.  ``values`` and ``derivs`` of the result are
    views of that one array.

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
    size = x.size
    points = np.zeros(_round_up(size, _POINTS), dtype=dtype)
    points[:size] = x.reshape(-1)

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
        trace({"event": "evaluate", "k": k, "points": size, "real": dtype == float,
               "seconds": time.perf_counter() - start})
    basis = basis[:, :, :size].reshape((k + 1, 2) + x.shape)
    return SopEvaluation(values=basis[:, 0], derivs=basis[:, 1])


def _fit(H, w_norm, nodes, node_weights, f_values, fprime_values, gamma, degrees,
         f_exact, fprime_exact, grid_points, trace):
    """The coefficients c_0..c_n, n = max(degrees), of the fit that
    :func:`hermite_least_squares` describes, then for ``f_exact`` and
    ``fprime_exact`` in turn the max-norm errors of the fits of the given
    degrees on a uniform grid of ``grid_points`` over [-1, 1], or None
    for one that is not given.

    One :func:`evaluate` call takes the nodes and then, when an error is
    asked for, the s + 1 Chebyshev points of the second kind x_i =
    sin(pi (2i - s) / (2s)), i = 0..s, s = max(n, 1), whatever dim(H).
    No point's basis depends on the other points of the call, so the
    coefficients are bitwise those of the nodes alone.  Each c_j sums its
    own row.  At the points the running sums S_d = sum_{i<=d} c_i p_i
    (and p_i') take one add per degree in order.

    Every S_d with d <= n has degree at most s, so its values at the
    points fix it, and the second (true) barycentric formula carries them
    to the grid: S_d(x) = sum_i w_i S_d(x_i) R_i(x) / sum_i w_i R_i(x),
    with R_i(x) = 1/(x - x_i) and w_i = (-1)^i halved at both ends
    (Berrut & Trefethen 2004).  It is forward stable at these points
    (Higham 2004).  A grid point equal to x_i takes S_d(x_i).  The
    numerators of every requested degree are one BLAS product of their
    rows (S_d, S_d') with the s + 1 by grid matrix of w_i R_i, divided by
    one denominator row.  Each degree's errors are thus those of its own
    coefficients, within rounding, not bitwise those of a separate fit.
    """
    n = max(degrees)
    size = nodes.size
    grid = np.linspace(-1.0, 1.0, grid_points)
    exacts = {name: _on_grid(name, exact, grid) for name, exact in
              (("f_exact", f_exact), ("fprime_exact", fprime_exact)) if exact is not None}
    s = max(n, 1)
    points = np.sin(np.pi * np.arange(-s, s + 1, 2) / (2 * s)) if exacts else np.empty(0)
    basis = evaluate(H, w_norm, np.concatenate((nodes, points)), n, trace=trace)
    values, derivs = basis.values[:, :size], basis.derivs[:, :size]
    coeff = (values.conj() * (node_weights * f_values)).sum(axis=1)
    if gamma > 0:
        coeff += gamma * (derivs.conj() * (node_weights * fprime_values)).sum(axis=1)
    if not exacts:
        return coeff, None, None

    # the running sums (S_d, S_d') at the points, d = 0..n
    running = np.empty((n + 1, 2, points.size), dtype=coeff.dtype)
    np.multiply(coeff[:, None], basis.values[:, size:], out=running[:, 0])
    np.multiply(coeff[:, None], basis.derivs[:, size:], out=running[:, 1])
    np.cumsum(running, axis=0, out=running)
    # R[i, j] = w_i / (grid[j] - points[i]), but 0 where grid[j] is points[i]
    weights = np.where(np.arange(s + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    R = grid - points[:, None]
    on, g = np.divmod(np.flatnonzero(R == 0), grid.size)
    R[on, g] = np.inf
    np.divide(weights[:, None], R, out=R)
    denominator = R.sum(axis=0)
    denominator[g] = 1.0
    at = running[degrees]
    fits = (at.reshape(-1, s + 1) @ R.astype(at.dtype, copy=False)).reshape(len(degrees), 2, -1)
    fits /= denominator
    fits[:, :, g] = at[:, :, on]
    errors = {name: np.max(np.abs(fits[:, k] - exacts[name]), axis=1).tolist()
              for k, name in enumerate(("f_exact", "fprime_exact")) if name in exacts}
    return coeff, errors.get("f_exact"), errors.get("fprime_exact")


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
    points over [-1, 1].  The fit and its errors are those of
    :func:`_fit`, which the experiment drivers share: one basis
    evaluation, on the nodes and the max(n, 1) + 1 Chebyshev points from
    which the fit is interpolated to the grid, so the cost follows n, not
    dim(H), and coefficients bitwise the same whether or not errors are
    asked for.  ``trace`` goes to :func:`evaluate`.
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

    coeff, *errors = _fit(H, w_norm, nodes, node_weights, f_values, fprime_values, gamma, [n],
                          f_exact, fprime_exact, grid_points, trace)
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
