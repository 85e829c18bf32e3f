"""Slow direct oracles for the matrix form of a Sobolev product.

The symbolic form of a discretized Sobolev product (one node with its
derivative weights per term), the product evaluated by differentiating
at the nodes, the last column of p(J) for one Jordan block, the
monomial coefficients of p_0..p_k read off H, and the least-squares
errors of the ``least-squares`` experiment's bump fits from node
coefficients, for an H that comes without a Krylov basis.  Polynomials are
``numpy.polynomial.Polynomial`` with the default domain and window, so
calling one and ``deriv`` are plain monomial evaluation and
differentiation.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from sobolev import hermite_least_squares
from sobolev.experiments import _gauss_bump, _gauss_bump_prime, _rows
from sobolev.sop import _fit, _interpolation


@dataclass(frozen=True)
class ProductTerm:
    """One node of a discretized Sobolev product with its derivative weights.

    ``weights[r]`` multiplies p^(r)(node) conj(q^(r)(node)).  Sequential
    dominance asks for a nonzero weight at every order below a nonzero
    one and a positive weight at the highest order; with non-negative
    weights that is: every weight is positive.
    """

    node: complex
    weights: np.ndarray

    def __post_init__(self):
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must form a non-empty 1-d sequence")
        if not (weights > 0).all():
            raise ValueError("derivative weights must be positive up to the highest order")
        object.__setattr__(self, "node", complex(self.node))
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class SobolevProductSpec:
    """Symbolic form of a discretized Sobolev product: terms at distinct nodes."""

    terms: tuple

    def __post_init__(self):
        if len({t.node for t in self.terms}) != len(self.terms):
            raise ValueError("product nodes must be pairwise distinct")


def spec_of(Z, w) -> SobolevProductSpec:
    """The product encoded by (Z, w): the order-r weight at the node of
    block j is |beta_j|^2 |alpha_1 ... alpha_r|^2 / (r!)^2."""
    terms = []
    for b, beta in zip(Z.blocks, w.betas, strict=True):
        prods = np.cumprod(np.concatenate(([1.0], b.superdiag)))
        terms.append(ProductTerm(b.z, [
            abs(beta) ** 2 * abs(x) ** 2 / math.factorial(r) ** 2 for r, x in enumerate(prods)
        ]))
    return SobolevProductSpec(tuple(terms))


def inner_product_direct(p: Polynomial, q: Polynomial, spec: SobolevProductSpec) -> complex:
    """The product <p, q> by differentiating p and q at the nodes."""
    return complex(sum(
        weight * p.deriv(r)(t.node) * np.conj(q.deriv(r)(t.node))
        for t in spec.terms
        for r, weight in enumerate(t.weights)
    ))


def jordan_poly_column(block, p: Polynomial) -> np.ndarray:
    """Last column of p(J) for one block J: entry r from the bottom is
    (alpha_1 ... alpha_r / r!) p^(r)(z)."""
    prods = np.cumprod(np.concatenate(([1.0], block.superdiag)))
    col = [prods[r] / math.factorial(r) * p.deriv(r)(block.z) for r in range(block.size)]
    return np.array(col[::-1], dtype=complex)


def coefficients(H, w_norm: float, k: int) -> list:
    """p_0..p_k in the monomial basis, from p_0 = 1/w_norm and
    h_{j+1,j} p_j = x p_{j-1} - sum_{i=1}^{j} h_{i,j} p_{i-1}; only for small
    k, where the coefficients stay representable."""
    coeff = [np.array([1.0 / w_norm], dtype=complex)]
    for j in range(1, k + 1):
        c = np.zeros(j + 1, dtype=complex)
        c[1:] = coeff[j - 1]
        for i in range(j):
            c[: i + 1] -= H[i, j - 1] * coeff[i]
        coeff.append(c / H[j, j - 1].real)
    return [Polynomial(c) for c in coeff]


def fit_errors(H, w_norm, rule, gamma, degrees, grid_points, family, trace=None):
    """Max-norm value and derivative errors of the bump fits of the given
    degrees, one dict per degree with keys suffixed by ``family``, with
    the coefficients of the top degree formed at the rule's nodes from H
    alone (see :func:`sop.hermite_least_squares`), as for an H, such as a
    reference one, that comes without a Krylov basis."""
    nodes, top = rule.nodes, max(degrees)
    coeff = hermite_least_squares(
        H, w_norm, nodes, rule.weights, _gauss_bump(nodes), _gauss_bump_prime(nodes), gamma, top,
        trace=trace,
    ).coefficients
    interpolation = _interpolation(max(top, 1), grid_points, _gauss_bump, _gauss_bump_prime)
    return _rows(family, *_fit(H, w_norm, coeff, degrees, interpolation, trace))
