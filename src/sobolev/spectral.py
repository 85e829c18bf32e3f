"""Discretized Sobolev inner products and their Jordan spectral data.

A discretized Sobolev inner product

    <p, q> = sum_j sum_r  lambda_{j,r} p^(r)(z_j) conj(q^(r)(z_j))

is encoded by a block-diagonal Jordan matrix Z together with a weight
vector w that carries one entry beta_j per block.  The translation rests
on the identity (q(Z) w)^H (p(Z) w) = <p, q>, which holds whenever the
order-r weight at node j equals |beta_j|^2 |alpha_1 ... alpha_r|^2 / (r!)^2
with alpha_i the superdiagonal scalings of block j.  This module provides
that matrix form, builders for the standard product families, the O(m)
product with Z, and a JSON form of the spectral data.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule, _is_real

__all__ = [
    "JordanBlockSpec",
    "JordanOperator",
    "WeightVector",
    "build_same_measure",
    "build_discrete_laguerre_sobolev",
    "build_radau_endpoint",
    "jordan_matvec",
    "spectral_to_json",
    "spectral_from_json",
]


def _norm(v: np.ndarray) -> float:
    """||v||_2 of a contiguous vector by np.linalg.norm's own formula, bit
    for bit, without the cost of its generic wrapper."""
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


@dataclass(frozen=True)
class JordanBlockSpec:
    """One Jordan block: eigenvalue z and superdiagonal scalings.

    ``superdiag`` stores (alpha_1, ..., alpha_k) where alpha_1 sits next to
    the last diagonal entry in the dense block; the dense superdiagonal
    read top to bottom is therefore the reverse of this sequence.
    """

    z: complex
    superdiag: np.ndarray

    def __post_init__(self):
        z = complex(self.z)
        superdiag = np.atleast_1d(np.asarray(self.superdiag, dtype=complex))
        if superdiag.ndim != 1:
            raise ValueError("superdiag must be a 1-d sequence")
        if not (cmath.isfinite(z) and np.all(np.isfinite(superdiag))):
            raise ValueError("block eigenvalue and scalings must be finite")
        if superdiag.size and np.any(superdiag == 0):
            raise ValueError("superdiagonal scalings must be nonzero")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "superdiag", superdiag)

    @property
    def size(self) -> int:
        return self.superdiag.size + 1

    def dense(self) -> np.ndarray:
        A = self.z * np.eye(self.size, dtype=complex)
        if self.superdiag.size:
            A += np.diag(self.superdiag[::-1], 1)
        return A


class JordanOperator:
    """Block-diagonal Jordan matrix stored as its two bands and block ends.

    ``_diag`` and ``_sup`` are the diagonal and superdiagonal bands of the
    dense matrix, the latter with a zero at every block boundary, and
    ``_ends`` holds the index one past the last row of each block.  All
    of them come from one vectorized pass that validates the data; the
    bands are float64 if all real: only here and in WeightVector is it
    decided whether data are real, the rest follows the dtype.  The
    builders and :meth:`shift` hand their arrays to that pass directly;
    ``blocks`` is read off the bands on first use unless the operator was
    constructed from blocks.
    """

    __slots__ = ("_diag", "_sup", "_ends", "_blocks")

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if not all(isinstance(b, JordanBlockSpec) for b in blocks):
            raise ValueError("blocks must be JordanBlockSpec instances")
        scalings = [b.superdiag[::-1] for b in blocks]
        self._set_bands(
            [b.z for b in blocks],
            np.concatenate(scalings) if blocks else [],
            [b.size for b in blocks],
        )
        self._blocks = blocks

    @classmethod
    def _from_bands(cls, eigs, scalings, sizes) -> "JordanOperator":
        Z = cls.__new__(cls)
        Z._set_bands(eigs, scalings, sizes)
        return Z

    def _set_bands(self, eigs, scalings, sizes):
        """Validate and store one eigenvalue and one size per block, and the
        scalings of all blocks in dense order (the superdiagonal band without
        its block-boundary zeros)."""
        eigs = np.asarray(eigs, dtype=complex)
        scalings = np.asarray(scalings, dtype=complex)
        if not eigs.size:
            raise ValueError("need at least one Jordan block")
        if not (np.isfinite(eigs).all() and np.isfinite(scalings).all()):
            raise ValueError("block eigenvalue and scalings must be finite")
        if (scalings == 0).any():
            raise ValueError("superdiagonal scalings must be nonzero")
        if len(set(eigs.tolist())) != eigs.size:
            raise ValueError("block eigenvalues must be pairwise distinct")
        ends = np.cumsum(sizes)
        diag = np.repeat(eigs, sizes)
        sup = np.insert(scalings, (ends - np.arange(1, ends.size + 1))[:-1], 0.0)
        if not (diag.imag.any() or sup.imag.any()):
            diag, sup = diag.real.copy(), sup.real.copy()
        self._diag, self._sup, self._ends, self._blocks = diag, sup, ends, None

    @property
    def blocks(self) -> tuple:
        """The blocks as JordanBlockSpec instances, in order."""
        if self._blocks is None:
            self._blocks = tuple(
                JordanBlockSpec(self._diag[s], self._sup[s : e - 1][::-1])
                for s, e in zip(self.offsets(), self._ends.tolist())
            )
        return self._blocks

    @property
    def m(self) -> int:
        """Total dimension."""
        return self._diag.size

    def offsets(self):
        """Row offset of each block in the dense matrix."""
        return [0, *self._ends[:-1].tolist()]

    def dense(self) -> np.ndarray:
        Z = np.zeros((self.m, self.m), dtype=complex)
        for off, b in zip(self.offsets(), self.blocks):
            Z[off : off + b.size, off : off + b.size] = b.dense()
        return Z

    def frobenius_norm(self) -> float:
        # the bands are scaled exactly, by the power of two at their largest
        # entry, so that no square overflows while every entry is finite
        big = max(np.abs(self._diag).max(), np.abs(self._sup).max(initial=0.0))
        scale = math.ldexp(1.0, math.frexp(big)[1] - 1)
        return scale * math.hypot(_norm(self._diag / scale), _norm(self._sup / scale))

    def shift(self, c: complex) -> "JordanOperator":
        """The operator Z - c I (same block structure, shifted eigenvalues)."""
        return JordanOperator._from_bands(
            self._diag[self.offsets()] - c,
            np.delete(self._sup, self._ends[:-1] - 1),
            np.diff(self._ends, prepend=0),
        )


@dataclass(frozen=True)
class WeightVector:
    """Per-block weights beta_j, float64 if all real; densely, beta_j is last in block j."""

    betas: np.ndarray

    def __post_init__(self):
        betas = np.atleast_1d(np.asarray(self.betas, dtype=complex))
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("betas must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(betas)):
            raise ValueError("block weights must be finite")
        if np.any(betas == 0):
            raise ValueError("all block weights must be nonzero")
        if not betas.imag.any():
            betas = betas.real.copy()
        object.__setattr__(self, "betas", betas)

    def norm(self) -> float:
        return float(np.linalg.norm(self.betas))

    def dense(self, Z: JordanOperator) -> np.ndarray:
        if Z._ends.size != self.betas.size:
            raise ValueError(
                f"weight count {self.betas.size} does not match "
                f"block count {Z._ends.size}"
            )
        w = np.zeros(Z.m, dtype=self.betas.dtype)
        w[Z._ends - 1] = self.betas
        return w


def _check_finite(**values):
    """Reject, by name, a value that is not a finite real number (see
    :func:`quadrature._is_real`); an infinite point mass would reach the
    band check as a zero or infinite scaling, reported under that name."""
    for name, value in values.items():
        if not (_is_real(value) and math.isfinite(value)):
            raise ValueError(f"{name}={value!r} must be a finite real number")


def build_same_measure(rule: QuadratureRule, gammas):
    """Spectral data for a product with one measure shared by all derivatives.

    Discretizes sum_r gamma_r * integral p^(r) conj(q^(r)) with the given
    quadrature rule: every node becomes a Jordan block of size len(gammas)
    whose scalings alpha_r = r * sqrt(gamma_r / gamma_{r-1}) make the
    order-r weight equal gamma_r * weight_j, and beta_j = sqrt(gamma_0 *
    weight_j).

    Parameters
    ----------
    rule : QuadratureRule
        Discretization of the base measure.
    gammas : sequence of positive finite floats
        Factors gamma_0..gamma_s weighting derivative orders 0..s.

    Returns
    -------
    (JordanOperator, WeightVector)
    """
    if np.ndim(gammas) > 1 or np.size(gammas) == 0:
        raise ValueError("gammas must form a non-empty 1-d sequence")
    if not all(map(_is_real, gammas if np.ndim(gammas) else [gammas])):
        raise ValueError(f"gammas={gammas!r} must be real numbers")
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    if not np.isfinite(gammas).all():
        raise ValueError("all gamma factors must be finite")
    if np.any(gammas <= 0):
        raise ValueError("all gamma factors must be positive")
    r = np.arange(1.0, gammas.size)
    # a ratio beyond the double range becomes an infinite scaling, which the
    # band pass rejects
    with np.errstate(over="ignore"):
        ratios = gammas[1:] / gammas[:-1]
    alphas = r * np.sqrt(ratios)
    Z = JordanOperator._from_bands(
        rule.nodes, np.tile(alphas[::-1], rule.n), np.full(rule.n, gammas.size)
    )
    return Z, WeightVector(np.sqrt(gammas[0] * rule.weights))


def build_discrete_laguerre_sobolev(rule: QuadratureRule, c: float, M: float, N: float):
    """Spectral data for integral p conj(q) x^a e^{-x} dx + M p(c)conj(q(c)) + N p'(c)conj(q'(c)).

    The point part becomes a leading 2x2 Jordan block at c with scaling
    sqrt(N/M) and weight sqrt(M); the quadrature rule contributes one 1x1
    block per node.
    """
    _check_finite(c=c, M=M, N=N)
    if not (M > 0 and N > 0):
        raise ValueError("point masses M and N must be positive")
    if np.any(rule.nodes == c):
        raise ValueError(f"point mass location {c} collides with a quadrature node")
    Z = JordanOperator._from_bands(
        np.concatenate(([c], rule.nodes)), [math.sqrt(N) / math.sqrt(M)], [2] + [1] * rule.n
    )
    return Z, WeightVector(np.concatenate(([math.sqrt(M)], np.sqrt(rule.weights))))


def build_radau_endpoint(rule: QuadratureRule, gamma: float, endpoint: float = 1.0):
    """Spectral data for a product with a derivative term at one endpoint.

    Expects a rule that contains ``endpoint`` among its nodes (a Gauss-Radau
    rule).  That node becomes a point mass of its own weight beta_0^2 with
    the derivative term gamma (see :func:`build_discrete_laguerre_sobolev`):
    a 2x2 block with scaling sqrt(gamma)/beta_0; the remaining nodes stay 1x1.
    """
    _check_finite(gamma=gamma, endpoint=endpoint)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    hits = np.flatnonzero(rule.nodes == endpoint)
    if hits.size != 1:
        raise ValueError(f"rule must contain the endpoint {endpoint} exactly once")
    idx = int(hits[0])
    rest = QuadratureRule(np.delete(rule.nodes, idx), np.delete(rule.weights, idx))
    return build_discrete_laguerre_sobolev(rest, endpoint, rule.weights[idx], gamma)


def _function_times_weight(Z: JordanOperator, w: WeightVector, f, fprime) -> np.ndarray:
    """f(Z) w, from the bands of an operator whose blocks have size 1 or 2.

    On a block x I + alpha N of size 2, f(Z) is f(x) I + alpha f'(x) N, so
    the block's part of f(Z) w is (alpha beta f'(x), beta f(x)); a block of
    size 1 keeps beta f(x) only.  ``f`` is called once on the block
    eigenvalues and ``fprime`` once on those of the blocks of size 2.
    """
    ends = Z._ends
    sizes = np.diff(ends, prepend=0)
    if sizes.max() > 2:
        raise ValueError("f(Z) w is built for Jordan blocks of size 1 and 2 only")
    last = ends - 1
    x = Z._diag[last]
    values = w.betas * f(x)
    fw = np.zeros(Z.m, dtype=np.result_type(values, Z._sup))
    fw[last] = values
    pairs = sizes == 2
    if pairs.any():
        above = last[pairs] - 1
        fw[above] = Z._sup[above] * w.betas[pairs] * fprime(x[pairs])
    return fw


def jordan_matvec(Z: JordanOperator, x) -> np.ndarray:
    """Apply Z to a vector in O(m) from its diagonal and superdiagonal bands."""
    x = np.asarray(x)
    if x.shape != (Z.m,):
        raise ValueError(f"vector length {x.shape} does not match dimension {Z.m}")
    y = Z._diag * x
    y[:-1] += Z._sup * x[1:]
    return y


# what spectral_from_json takes for a JSON array
_ARRAY = (list, tuple)


def _c2pair(value) -> list:
    value = complex(value)
    return [value.real, value.imag]


def _pair2c(pair) -> complex:
    """The complex number of one [re, im] pair of real numbers; a JSON
    boolean is no number here, though Python counts bool as one."""
    if not (isinstance(pair, _ARRAY) and len(pair) == 2
            and all(map(_is_real, pair))):
        raise ValueError(f"expected an [re, im] pair of real numbers, got {pair!r}")
    return complex(*pair)


def spectral_to_json(Z: JordanOperator, w: WeightVector) -> dict:
    """JSON-ready dict with blocks (eigenvalue, scalings) and weights."""
    return {
        "blocks": [
            {"z": _c2pair(b.z), "alphas": [_c2pair(a) for a in b.superdiag]}
            for b in Z.blocks
        ],
        "betas": [_c2pair(beta) for beta in w.betas],
    }


def spectral_from_json(obj: dict):
    """Inverse of spectral_to_json.  A missing key, blocks, betas or
    alphas that are not lists, a number that is not an [re, im] pair, or
    a weight count other than the block count raises ValueError."""
    if not (isinstance(obj, dict) and {"blocks", "betas"} <= obj.keys()):
        raise ValueError('spectral data need the keys "blocks" and "betas"')
    entries, betas = obj["blocks"], obj["betas"]
    if not (isinstance(entries, _ARRAY) and isinstance(betas, _ARRAY)):
        raise ValueError('"blocks" and "betas" must be lists')
    for entry in entries:
        if not (isinstance(entry, dict) and {"z", "alphas"} <= entry.keys()
                and isinstance(entry["alphas"], _ARRAY)):
            raise ValueError(f'a block needs the keys "z" and "alphas", a list; got {entry!r}')
    if len(betas) != len(entries):
        raise ValueError(f"weight count {len(betas)} does not match block count {len(entries)}")
    Z = JordanOperator._from_bands(
        [_pair2c(entry["z"]) for entry in entries],
        [_pair2c(a) for entry in entries for a in reversed(entry["alphas"])],
        [len(entry["alphas"]) + 1 for entry in entries],
    )
    return Z, WeightVector(np.asarray([_pair2c(b) for b in betas]))
