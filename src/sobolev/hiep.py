"""Solvers for the Hessenberg inverse eigenvalue problem.

Given a Jordan operator Z and a weight vector w, both solvers produce a
unitary Q and an upper Hessenberg H with real non-negative subdiagonal
such that

    Q^H Z Q = H   and   Q e_1 = w / ||w||_2.

H is the recurrence matrix of the Sobolev orthonormal polynomials of the
product encoded by (Z, w), and column j+1 of Q is p_j(Z) w / ||w||_2.

Two independent methods are implemented: :func:`arnoldi`, a Krylov
iteration with modified Gram-Schmidt and one reorthogonalization sweep,
and :func:`update_solve`, which merges single-block solutions one block
at a time -- embed, inject the new weight with a plane rotation, restore
the Hessenberg structure column by column, and rescale the subdiagonal to
be real non-negative.  The restoration chases a bulge of at most block
size + 1 rows whose position follows from the indices, applying each
small elimination kernel to the live slices of H only.
:func:`solve_hessenberg` needs only H, so with the updating solvers it
skips the accumulation of Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .spectral import JordanBlockSpec, JordanOperator, WeightVector, jordan_matvec

__all__ = [
    "ArnoldiResult",
    "arnoldi",
    "update_solve",
    "solve_hessenberg",
    "PlaneRotation",
    "Householder",
    "hessenberg_defect",
]

SOLVER_NAMES = ("arnoldi", "update-hh", "update-rot")


def _phase(value: complex) -> complex:
    a = abs(value)
    return value / a if a > 0 else 1.0 + 0.0j


def hessenberg_defect(H) -> float:
    """Largest magnitude strictly below the first subdiagonal."""
    return float(np.abs(np.tril(H, -2)).max(initial=0.0))


@dataclass(frozen=True)
class ArnoldiResult:
    """Output of the Arnoldi iteration.

    ``Q`` has orthonormal columns spanning the Krylov space, ``H`` is the
    square Hessenberg section, ``h_next`` the would-be next subdiagonal
    entry (zero at breakdown) and ``q_next`` the next basis vector, or
    None when the iteration broke down.
    """

    Q: np.ndarray
    H: np.ndarray
    h_next: float
    q_next: np.ndarray | None


def arnoldi(Z: JordanOperator, w: WeightVector, k: int, trace=None) -> ArnoldiResult:
    """Run k steps of the Arnoldi iteration on (Z, w).

    Each step applies Z to the newest basis vector, orthogonalizes by
    modified Gram-Schmidt against all previous vectors, and repeats the
    orthogonalization once to keep ``Q^H Q`` near the identity also for
    dimensions in the hundreds.  Breakdown (residual below
    1e-13 * ||Z||_F) truncates the result; for valid spectral data it can
    only occur at the full dimension m.

    Parameters
    ----------
    Z, w : spectral data of the discretized product.
    k : number of columns requested, 1 <= k <= m.
    trace : optional callable receiving one dict per step.
    """
    m = Z.m
    if not 1 <= k <= m:
        raise ValueError(f"column count k={k} must lie in 1..{m}")
    wd = w.dense(Z)
    wnorm = float(np.linalg.norm(wd))
    tol = 1e-13 * Z.frobenius_norm()

    Q = np.zeros((m, k), dtype=complex)
    Hext = np.zeros((k + 1, k), dtype=complex)
    Q[:, 0] = wd / wnorm
    ncols = k
    h_next = 0.0
    q_next = None
    for col in range(k):
        v = jordan_matvec(Z, Q[:, col])
        basis = Q[:, : col + 1]
        h = basis.conj().T @ v
        v = v - basis @ h
        correction = basis.conj().T @ v
        v = v - basis @ correction
        h += correction
        Hext[: col + 1, col] = h
        hn = float(np.linalg.norm(v))
        if trace is not None:
            trace(
                {
                    "event": "arnoldi-step",
                    "column": col + 1,
                    "subdiag": hn,
                    "reorth_correction": float(np.linalg.norm(correction)),
                }
            )
        if hn <= tol:
            ncols = col + 1
            h_next = hn
            q_next = None
            break
        Hext[col + 1, col] = hn
        if col + 1 < k:
            Q[:, col + 1] = v / hn
        else:
            h_next = hn
            q_next = v / hn

    Q = Q[:, :ncols]
    H = Hext[:ncols, :ncols]
    ortho = float(np.linalg.norm(Q.conj().T @ Q - np.eye(ncols)))
    if ortho > 1e-8:
        raise NumericalFailure(
            "orthogonality lost beyond recovery despite reorthogonalization",
            orthogonality=ortho,
            columns=ncols,
        )
    return ArnoldiResult(Q=Q, H=H, h_next=h_next, q_next=q_next)


@dataclass(frozen=True)
class PlaneRotation:
    """Unitary plane rotation acting on the coordinate pair (i, j).

    The 2x2 kernel is ``[[conj(a), -conj(b)], [b, a]]`` with
    |a|^2 + |b|^2 = 1, embedded in an identity of size ``dim``.
    """

    a: complex
    b: complex
    i: int
    j: int
    dim: int

    def __post_init__(self):
        if abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0) > 1e-14:
            raise ValueError("rotation parameters must satisfy |a|^2+|b|^2 = 1")
        if not (0 <= self.i < self.dim and 0 <= self.j < self.dim):
            raise ValueError("coordinate indices out of range")
        if self.i == self.j:
            raise ValueError("coordinate indices must differ")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

    @classmethod
    def annihilating(cls, f: complex, g: complex, i: int, j: int, dim: int):
        """Rotation mapping (f, g) on (i, j) to (r, 0) with r = ||(f,g)|| >= 0."""
        r = math.hypot(abs(f), abs(g))
        if r == 0.0:
            return cls(1.0, 0.0, i, j, dim)
        return cls(f / r, -g / r, i, j, dim)

    def kernel(self) -> np.ndarray:
        return np.array(
            [[np.conj(self.a), -np.conj(self.b)], [self.b, self.a]], dtype=complex
        )

    def adjoint(self) -> "PlaneRotation":
        return PlaneRotation(np.conj(self.a), -self.b, self.i, self.j, self.dim)

    def matrix(self) -> np.ndarray:
        P = np.eye(self.dim, dtype=complex)
        P[np.ix_((self.i, self.j), (self.i, self.j))] = self.kernel()
        return P

    def apply_left(self, A: np.ndarray) -> np.ndarray:
        """Return P @ A without materializing P."""
        A = np.array(A, dtype=complex, copy=True)
        rows = A[(self.i, self.j), :]
        A[(self.i, self.j), :] = self.kernel() @ rows
        return A

    def apply_right(self, A: np.ndarray) -> np.ndarray:
        """Return A @ P without materializing P."""
        A = np.array(A, dtype=complex, copy=True)
        cols = A[:, (self.i, self.j)]
        A[:, (self.i, self.j)] = cols @ self.kernel()
        return A


@dataclass(frozen=True)
class Householder:
    """Reflector R = I - 2 y y^H / (y^H y) sending a vector to a multiple of e_1."""

    y: np.ndarray
    alpha: complex

    @classmethod
    def from_vector(cls, c) -> "Householder":
        """Reflector with R c = -alpha e_1, alpha = ||c|| e^{i arg(c_1)}.

        The sign of alpha matches the phase of c_1 so that forming
        y = c + alpha e_1 never cancels.
        """
        c = np.atleast_1d(np.asarray(c, dtype=complex))
        norm = float(np.linalg.norm(c))
        if norm == 0.0:
            raise ValueError("cannot build a reflector from the zero vector")
        alpha = _phase(c[0]) * norm
        y = c.copy()
        y[0] += alpha
        return cls(y=y, alpha=alpha)

    @property
    def dim(self) -> int:
        return self.y.size

    def matrix(self) -> np.ndarray:
        y = self.y
        return np.eye(self.dim, dtype=complex) - 2.0 * np.outer(y, y.conj()) / (
            y.conj() @ y
        )

    def apply_left(self, A: np.ndarray) -> np.ndarray:
        A = np.asarray(A, dtype=complex)
        y = self.y
        return A - np.outer(y, (2.0 / (y.conj() @ y)) * (y.conj() @ A))

    def apply_right(self, A: np.ndarray) -> np.ndarray:
        A = np.asarray(A, dtype=complex)
        y = self.y
        return A - np.outer(A @ y, (2.0 / (y.conj() @ y)) * y.conj())


def _single_block_solution(block: JordanBlockSpec, beta: complex):
    """Closed-form solution for one Jordan block with weight beta e_last.

    H is lower bidiagonal with the block eigenvalue on the diagonal and
    the scaling magnitudes on the subdiagonal; Q is the flip matrix with
    per-column phases chosen so that Q e_1 = (beta/|beta|) e_last and the
    subdiagonal of H comes out real positive.
    """
    s = block.size
    H = block.z * np.eye(s, dtype=complex)
    for i in range(s - 1):
        H[i + 1, i] = abs(block.superdiag[i])
    Q = np.zeros((s, s), dtype=complex)
    d = _phase(beta)
    for j in range(s):
        Q[s - 1 - j, j] = d
        if j < s - 1:
            d *= _phase(block.superdiag[j])
    return H, Q


def _rotation_kernel(c: list) -> list:
    """Rows of K = G_1 ... G_{r-1} with K c = (||c||, 0, ..., 0).

    G_idx is the plane rotation of :meth:`PlaneRotation.annihilating` on
    the pair (idx-1, idx); the chain runs bottom up.  Row idx of K is final
    once G_idx is applied, and row idx-1 is a unit row until then, so only
    the trailing part ``acc`` of the row being carried is kept.
    """
    r = len(c)
    K = [None] * r
    acc = [1.0]
    g = c[-1]
    for idx in range(r - 1, 0, -1):
        f = c[idx - 1]
        norm = math.hypot(abs(f), abs(g))
        a, b = (f / norm, -g / norm) if norm else (1.0, 0.0)
        K[idx] = [0.0] * (idx - 1) + [b] + [a * x for x in acc]
        cb = b.conjugate()
        acc = [a.conjugate()] + [-cb * x for x in acc]
        g = norm
    K[0] = acc
    return K


def _reflector_kernel(c: list) -> list:
    """Rows of the reflector of :meth:`Householder.from_vector` for c."""
    norm = math.sqrt(sum(abs(x) ** 2 for x in c))
    y = list(c)
    y[0] += (c[0] / abs(c[0]) if c[0] else 1.0) * norm
    scale = 2.0 / sum(abs(x) ** 2 for x in y)
    return [
        [(a == b) - scale * ya * yb.conjugate() for b, yb in enumerate(y)]
        for a, ya in enumerate(y)
    ]


_KERNELS = {"rotations": _rotation_kernel, "householder": _reflector_kernel}


def _embed(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Block-diagonal [[A, 0], [0, B]], column-major for the column updates."""
    n = A.shape[0]
    out = np.zeros((n + B.shape[0],) * 2, dtype=complex, order="F")
    out[:n, :n] = A
    out[n:, n:] = B
    return out


def update_solve(Z: JordanOperator, w: WeightVector, strategy: str = "rotations", trace=None,
                 *, _with_q: bool = True):
    """Solve the inverse problem by updating with one Jordan block at a time.

    Starting from the closed-form single-block solution, each further
    block is (1) embedded block-diagonally, (2) tied to the existing
    solution by a plane rotation that turns the first basis column into
    the enlarged normalized weight vector, (3) brought back to Hessenberg
    form column by column, eliminating in column i the subdiagonal entry
    together with every nonzero below it, and (4) rescaled by a unimodular
    diagonal so the subdiagonal is real non-negative.

    Merging a block of size s onto dimension d_prev leaves a bulge of at
    most s + 1 rows: in column i the nonzeros sit in row i+1 and in rows
    max(i+2, d_prev) .. d_prev+i+1, so the rows to reduce follow from
    the indices alone.  Each elimination kernel is a small matrix applied
    in place to the live slices, H[rows, i:] on the left and the leading
    rows of H[:, rows] on the right.  After each merge H is checked to be
    exactly Hessenberg, which shows the bulge window missed no entry.

    Parameters
    ----------
    Z, w : spectral data of the discretized product.
    strategy : "rotations" or "householder" -- how the per-column
        elimination kernel is built.
    trace : optional callable receiving one dict per elimination step.

    Returns
    -------
    (H, Q) : m x m Hessenberg matrix and unitary basis.  Q is None when
    the private flag ``_with_q`` is false; :func:`solve_hessenberg` sets
    it because it only needs H, and calls through this function so that
    a ``trace`` hook on it sees every updating solve.
    """
    kernel_of = _KERNELS.get(strategy)
    if kernel_of is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    if len(Z.blocks) != w.betas.size:
        raise ValueError("weight count does not match block count")

    tol = 1e-10 * max(Z.frobenius_norm(), 1.0)
    H, Q = _single_block_solution(Z.blocks[0], w.betas[0])
    Q = Q if _with_q else None
    wnorm2 = abs(w.betas[0]) ** 2

    for bidx in range(1, len(Z.blocks)):
        block = Z.blocks[bidx]
        beta = w.betas[bidx]
        Hb, Qb = _single_block_solution(block, beta)

        d_prev = H.shape[0]
        d = d_prev + block.size
        Hn = _embed(H, Hb)
        Qn = None if Q is None else _embed(Q, Qb)

        # plane rotation turning the first basis column into w/||w||; the
        # phase of beta already sits in the first column of Qb, so both
        # parameters are real
        prev_norm = math.sqrt(wnorm2)
        wnorm2 += abs(beta) ** 2
        cur_norm = math.sqrt(wnorm2)
        pair = [0, d_prev]
        R = np.array([[prev_norm, abs(beta)], [-abs(beta), prev_norm]]) / cur_norm
        Hn[pair, :] = R @ Hn[pair, :]
        Hn[:, pair] = Hn[:, pair] @ R.T
        if Qn is not None:
            Qn[:, pair] = Qn[:, pair] @ R.T

        # column-by-column return to Hessenberg structure inside the bulge;
        # exact zeros in it need no elimination
        for i in range(d - 2):
            hi = min(d, d_prev + i + 2)
            rows = np.array([i + 1, *range(max(i + 2, d_prev), hi)])
            column = Hn[rows, i].tolist()
            if not all(column[1:]):
                keep = [0] + [k for k in range(1, len(column)) if column[k]]
                if len(keep) == 1:
                    continue
                rows, column = rows[keep], [column[k] for k in keep]
            K = np.array(kernel_of(column), dtype=complex)
            KH = K.conj().T
            left = K @ Hn[rows, i:]
            residual = max(map(abs, left[1:, 0].tolist()))
            if residual > tol:
                raise NumericalFailure(
                    "Hessenberg restoration left a residual above tolerance",
                    column=i + 1,
                    block=bidx,
                    residual=residual,
                )
            left[1:, 0] = 0.0
            Hn[rows, i:] = left
            top = min(d, hi + 1)
            Hn[:top, rows] = Hn[:top, rows] @ KH
            if Qn is not None:
                Qn[:, rows] = Qn[:, rows] @ KH
            if trace is not None:
                trace(
                    {
                        "event": "update-restore",
                        "block": bidx + 1,
                        "column": i + 1,
                        "eliminated": len(rows) - 1,
                        "residual": residual,
                    }
                )

        if np.tril(Hn, -2).any():
            raise NumericalFailure(
                "Hessenberg restoration missed an entry outside the bulge window",
                block=bidx,
                defect=hessenberg_defect(Hn),
            )

        # unimodular rescaling: subdiagonal real non-negative, first column kept
        sub = np.diagonal(Hn, -1)
        size = np.abs(sub)
        steps = np.divide(sub, size, out=np.ones_like(sub), where=size > 0)
        phases = np.cumprod(np.concatenate(([1.0], steps)))
        Hn = phases.conj()[:, None] * Hn * phases[None, :]
        idx = np.arange(d - 1)
        Hn[idx + 1, idx] = Hn[idx + 1, idx].real
        if Qn is not None:
            Qn = Qn * phases[None, :]

        H, Q = Hn, Qn

    return H, Q


def solve_hessenberg(Z: JordanOperator, w: WeightVector, k: int, method: str = "update-rot", trace=None):
    """Leading k x k recurrence matrix by the named solver.

    ``method`` is one of "arnoldi", "update-hh" (updating with Householder
    reflectors) or "update-rot" (updating with plane rotations).  The
    updating solvers compute the full m x m matrix, without accumulating
    Q, and truncate; the result is the same by uniqueness of the solution.
    The result is exactly k x k: an Arnoldi breakdown before column k
    raises NumericalFailure with the breakdown ``column`` and ``k``.
    """
    if method == "arnoldi":
        H = arnoldi(Z, w, k, trace=trace).H
        if H.shape[0] < k:
            raise NumericalFailure(
                "Arnoldi iteration broke down before k columns",
                column=H.shape[0],
                k=k,
            )
        return H
    strategy = {"update-hh": "householder", "update-rot": "rotations"}.get(method)
    if strategy is None:
        raise ValueError(f"unknown solver {method!r}; expected one of {SOLVER_NAMES}")
    H, _ = update_solve(Z, w, strategy=strategy, trace=trace, _with_q=False)
    return H[:k, :k]
