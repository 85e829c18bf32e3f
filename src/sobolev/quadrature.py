"""Gauss-type quadrature rules from three-term recurrence data.

Rules are generated with the Golub-Welsch algorithm: nodes are the
eigenvalues of the symmetric tridiagonal Jacobi matrix, weights come from
the first components of its eigenvectors.  Supported measures: Legendre on
[-1, 1], generalized Laguerre on [0, inf), and a Gauss-Radau variant of
the Legendre measure with one node pinned at an endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "JacobiCoefficients",
    "QuadratureRule",
    "legendre_jacobi",
    "laguerre_jacobi",
    "golub_welsch",
    "gauss_radau_right",
]


@dataclass(frozen=True)
class JacobiCoefficients:
    """Three-term recurrence data of an orthonormal polynomial family.

    ``diag`` holds a_0..a_{n-1}, ``offdiag`` the positive couplings
    b_1..b_{n-1}, and ``moment0`` the total mass of the measure.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    moment0: float

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        if diag.ndim != 1 or offdiag.ndim != 1:
            raise ValueError("recurrence coefficients must be 1-d sequences")
        if diag.size == 0:
            raise ValueError("diag must hold at least one coefficient")
        if offdiag.size != diag.size - 1:
            raise ValueError("offdiag must have one entry less than diag")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))
                and math.isfinite(self.moment0)):
            raise ValueError("recurrence coefficients and moment0 must be finite")
        if offdiag.size and not np.all(offdiag > 0):
            raise ValueError("offdiagonal recurrence coefficients must be positive")
        if not self.moment0 > 0:
            raise ValueError("moment0 must be positive")

    @property
    def n(self) -> int:
        return self.diag.size

    def matrix(self) -> np.ndarray:
        """Dense symmetric tridiagonal Jacobi matrix."""
        J = np.diag(self.diag)
        if self.offdiag.size:
            J += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return J


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights of a Gauss-type rule."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        if nodes.size and np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("weights must be strictly positive")

    @property
    def n(self) -> int:
        return self.nodes.size

    def integrate(self, values) -> float:
        """Apply the rule to function values at the nodes."""
        return float(np.dot(self.weights, values))


def _check_count(**counts):
    """Reject, by name, a count that is not a Python or numpy integer, which
    numpy would round up (np.arange(10.5) has 11 entries) or fail on later,
    or that is a bool, which Python counts as an int."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name}={value!r} must be an integer")


def legendre_jacobi(n: int) -> JacobiCoefficients:
    """Recurrence data of the Legendre measure on [-1, 1] (mass 2).

    The orthonormal recurrence has zero diagonal and couplings
    b_k = k / sqrt(4 k^2 - 1).
    """
    _check_count(n=n)
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    k = np.arange(1.0, n)
    return JacobiCoefficients(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0), 2.0)


def laguerre_jacobi(n: int, alpha: float = 0.0) -> JacobiCoefficients:
    """Recurrence data of the generalized Laguerre measure x^alpha e^{-x}.

    diag_k = 2k + alpha + 1, offdiag_k = sqrt(k (k + alpha)); the total
    mass is Gamma(alpha + 1), so alpha must be finite and small enough
    (about 170.6 at most) for that mass to fit the double range.
    """
    _check_count(n=n)
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    if not (alpha > -1.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be finite and exceed -1, got {alpha}")
    try:
        moment0 = math.exp(math.lgamma(alpha + 1.0))
    except OverflowError:
        raise ValueError(f"alpha={alpha} is too large: Gamma(alpha + 1) overflows") from None
    k = np.arange(float(n))
    diag = 2.0 * k + alpha + 1.0
    kk = np.arange(1.0, n)
    offdiag = np.sqrt(kk * (kk + alpha))
    return JacobiCoefficients(diag, offdiag, moment0)


def _recurrence_weights(jac, nodes):
    """Weights as moment0 over the sum of squared orthonormal recurrence values.

    Mathematically identical to moment0 times the squared first eigenvector
    components, but evaluated through the three-term recurrence with
    per-node rescaling, so weights that are tiny relative to moment0 keep
    full relative accuracy instead of degrading to eigensolver noise.
    Values below the double-precision range are flushed to the smallest
    positive normal number.
    """
    x = np.asarray(nodes, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    total = np.ones_like(x)
    logscale = np.zeros_like(x)
    off_prev = np.concatenate(([0.0], jac.offdiag[:-1]))
    for k in range(jac.n - 1):
        nxt = ((x - jac.diag[k]) * cur - off_prev[k] * prev) / jac.offdiag[k]
        prev, cur = cur, nxt
        big = np.abs(cur) > 1e100
        if np.any(big):
            factor = np.where(big, np.abs(cur), 1.0)
            logscale += np.log(factor)
            cur = cur / factor
            prev = prev / factor
            total = total / factor**2
        total += cur * cur
    logw = math.log(jac.moment0) - np.log(total) - 2.0 * logscale
    return np.exp(np.maximum(logw, math.log(np.finfo(float).tiny)))


def golub_welsch(jac: JacobiCoefficients) -> QuadratureRule:
    """Quadrature rule from recurrence data via the Jacobi-matrix eigenproblem.

    Nodes are the eigenvalues, weight_j = moment0 * (first eigenvector
    component)_j^2.  Nodes come out sorted ascending.  When any squared
    first component is tiny relative to moment0 (large Laguerre rules push
    the extreme tail weights below eigensolver accuracy and eventually
    below the double range) the whole weight vector is reevaluated through
    the orthonormal recurrence, which preserves relative accuracy there.
    """
    try:
        nodes, vectors = np.linalg.eigh(jac.matrix())
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalFailure(
            f"tridiagonal eigensolver did not converge: {exc}", n=jac.n
        ) from exc
    # eigh returns the eigenvalues ascending, so the nodes need no sort
    weights = jac.moment0 * vectors[0, :] ** 2
    if weights.min() < 1e-12 * jac.moment0:
        weights = _recurrence_weights(jac, nodes)
    return QuadratureRule(nodes, weights)


def gauss_radau_right(n_free: int, endpoint: float = 1.0) -> QuadratureRule:
    """Gauss-Radau rule for the Legendre measure with a node pinned at an endpoint.

    Returns ``n_free + 1`` nodes, one of them equal to ``endpoint`` (+1 or
    -1), exact for polynomials of degree <= 2 * n_free.  The rule is built
    by the classical endpoint modification: the last diagonal entry of the
    n-point Jacobi matrix, n = n_free + 1, is replaced so that ``endpoint``
    becomes an eigenvalue.  For Legendre that entry is endpoint * n / (2n - 1):
    the endpoint minus b_{n-1} p_{n-2}(endpoint) / p_{n-1}(endpoint), with
    the orthonormal p_k(+-1) = (+-1)^k sqrt(k + 1/2).
    """
    _check_count(n_free=n_free)
    if n_free < 0:
        raise ValueError(f"n_free must be non-negative, got {n_free}")
    if endpoint not in (-1.0, 1.0):
        raise ValueError(f"endpoint must be -1 or +1, got {endpoint}")
    n = n_free + 1
    jac = legendre_jacobi(n)
    diag = jac.diag.copy()
    diag[-1] = endpoint * n / (2 * n - 1)
    rule = golub_welsch(JacobiCoefficients(diag, jac.offdiag, jac.moment0))
    # snap the pinned node, which is an exact eigenvalue up to roundoff
    nodes = rule.nodes.copy()
    idx = int(np.argmin(np.abs(nodes - endpoint)))
    if abs(nodes[idx] - endpoint) > 1e-10:
        raise NumericalFailure(
            "endpoint modification failed to pin the requested node",
            endpoint=endpoint,
            nearest=float(nodes[idx]),
        )
    nodes[idx] = endpoint
    return QuadratureRule(nodes, rule.weights)
