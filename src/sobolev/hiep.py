"""Solvers for the Hessenberg inverse eigenvalue problem.

Given a Jordan operator Z and a weight vector w, both solvers produce a
unitary Q and an upper Hessenberg H with real non-negative subdiagonal
such that

    Q^H Z Q = H   and   Q e_1 = w / ||w||_2.

H is the recurrence matrix of the Sobolev orthonormal polynomials of the
product encoded by (Z, w), and column j+1 of Q is p_j(Z) w: p_0 is
1/||w||_2, so column 1 is w / ||w||_2.

:func:`arnoldi` runs a Krylov iteration with classical Gram-Schmidt and
one reorthogonalization sweep.  :func:`update_solve` merges the
closed-form single-block solutions one Jordan block at a time, as a
wavefront of batched steps.  :func:`solve_hessenberg` returns the leading
k x k section of H by either method.  Both solvers compute in the dtype of
Z's bands and w combined, float64 for real data and complex128 otherwise,
and return H and Q in that dtype.

Complex H and Q are bitwise reproducible only under the same numpy SIMD
dispatch: numpy's vectorized complex loops (``np.abs``, products,
``np.cumprod``) round differently from scalar arithmetic, and the kernel
numpy picks depends on the CPU.  Complex products also depend on operand
order: with fused multiply-add, ``s * x`` and ``x * s`` can differ in the
last bit, so a rewrite that swaps operands is not bitwise neutral.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .quadrature import JacobiCoefficients, _check_count
from .spectral import JordanOperator, WeightVector, _norm, jordan_matvec

__all__ = [
    "ArnoldiResult",
    "arnoldi",
    "update_solve",
    "solve_hessenberg",
    "hessenberg_defect",
]

# each solver name and the update_solve strategy it runs; arnoldi runs none
_STRATEGIES = {"arnoldi": None, "update-hh": "householder", "update-rot": "rotations"}
SOLVER_NAMES = tuple(_STRATEGIES)
DEFAULT_SOLVER = "arnoldi"


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
    classical Gram-Schmidt against all previous vectors, and repeats the
    orthogonalization once to keep ``Q^H Q`` near the identity also for
    dimensions in the hundreds.  Breakdown (residual below 1e-13 times
    ||Z q_col||, the norm before orthogonalization) truncates the result;
    for valid spectral data it can only occur at the full dimension m.
    It runs in the dtype of Z's bands and w combined (float64 for real
    data), which H, Q and ``q_next`` keep.

    The basis is kept as Q^T, one contiguous row per vector, so both
    Gram-Schmidt passes read whole rows, and they update the new vector
    in place; complex data keep the conjugated rows next to it, each
    written once, and the first pass writes its projections straight
    into their row of H^T.  The closing orthogonality check forms Q^H Q
    as one Gram product of the conjugated rows with the transpose of
    Q^T, which numpy runs as a symmetric rank-k update for real data.
    ``Q`` and ``H`` are returned C-contiguous.

    Parameters
    ----------
    Z, w : spectral data of the discretized product.
    k : number of columns requested, 1 <= k <= m.
    trace : optional callable receiving one dict per step.
    """
    _check_count(k=k)
    m = Z.m
    if not 1 <= k <= m:
        raise ValueError(f"column count k={k} must lie in 1..{m}")
    dtype = np.result_type(Z._diag, w.betas)
    wd = w.dense(Z).astype(dtype, copy=False)
    wnorm = _norm(wd)

    # row j of QT is column j of Q, row j of HT column j of the (k+1) x k H;
    # QH holds the conjugated rows, each conjugated once, not the whole basis
    # at every step; for real data QT.conj() is QT itself
    QT = np.zeros((k, m), dtype=dtype)
    QH = QT.conj()
    HT = np.zeros((k, k + 1), dtype=dtype)
    QT[0] = wd / wnorm
    np.conjugate(QT[0], out=QH[0])
    ncols = k
    h_next = 0.0
    q_next = None
    for col in range(k):
        v = jordan_matvec(Z, QT[col])
        tol = 1e-13 * _norm(v)
        basis, adjoint = QT[: col + 1], QH[: col + 1]
        h = np.matmul(adjoint, v, out=HT[col, : col + 1])
        v -= h @ basis
        correction = adjoint @ v
        v -= correction @ basis
        h += correction
        hn = _norm(v)
        if trace is not None:
            trace(
                {
                    "event": "arnoldi-step",
                    "column": col + 1,
                    "subdiag": hn,
                    "reorth_correction": _norm(correction),
                }
            )
        if hn <= tol:
            ncols = col + 1
            h_next = hn
            break
        HT[col, col + 1] = hn
        if col + 1 < k:
            np.divide(v, hn, out=QT[col + 1])
            np.conjugate(QT[col + 1], out=QH[col + 1])
        else:
            h_next = hn
            q_next = v / hn

    QT = QT[:ncols]
    _check_orthonormal(QH[:ncols], QT, "orthogonality lost beyond recovery despite reorthogonalization")
    Q = np.ascontiguousarray(QT.T)
    H = np.ascontiguousarray(HT[:ncols, :ncols].T)
    return ArnoldiResult(Q=Q, H=H, h_next=h_next, q_next=q_next)


def _check_orthonormal(QH: np.ndarray, QT: np.ndarray, message: str) -> None:
    """Raise NumericalFailure(message) with ``orthogonality`` ||Q^H Q - I||_F
    and ``columns`` unless it is at most 1e-8.  Q^H Q is one Gram product of
    the rows QH of Q^H with the transpose of the rows QT of Q^T, which
    numpy runs as a symmetric rank-k update for real data (QH is QT)."""
    ncols = QT.shape[0]
    gram = QH @ QT.T
    gram[np.diag_indices(ncols)] -= 1.0
    ortho = float(np.linalg.norm(gram))
    # a NaN orthogonality fails too: no NaN is <= 1e-8
    if not ortho <= 1e-8:
        raise NumericalFailure(message, orthogonality=ortho, columns=ncols)


def _gauss_basis(jac: JacobiCoefficients, vectors: np.ndarray, k: int):
    """(H, Q) of the plain product of a Gauss rule, k columns, read off the
    rule's own eigendecomposition instead of solved for.

    For Z = X, the diagonal of the rule's nodes, and w the square roots of
    its weights (``build_same_measure(rule, [1.0])``), the Jacobi matrix
    J = V X V^T the rule was built from is the recurrence matrix H, and
    Q = V_s^T, V_s being V with each column multiplied by the sign of its
    first entry: then Q e_1 = w / ||w||_2 and Q^T Z Q = V X V^T = J
    (Golub & Welsch 1969, read backwards as by Gragg & Harrod 1984).
    ``vectors`` is V as :func:`quadrature._golub_welsch` returns it.  Q^T Q
    gets Arnoldi's closing check.  H and Q are float64, H C-contiguous.
    """
    QT = vectors[:k] * np.copysign(1.0, vectors[0])
    _check_orthonormal(QT, QT, "eigenvectors of the Jacobi matrix are not orthonormal")
    return np.ascontiguousarray(jac.matrix()[:k, :k]), QT.T


@functools.cache
def _strict_lower(r: int) -> np.ndarray:
    """Flat indices of the entries below the subdiagonal of an r x r matrix,
    built once per r and read-only, since every kernel batch of a solve
    needs them and building them per batch slows the small solves."""
    index = np.ravel_multi_index(np.tril_indices(r, -2), (r, r))
    index.flags.writeable = False
    return index


def _rotation_kernels(V: np.ndarray) -> np.ndarray:
    """Batched K = G_1 ... G_{r-1} with K v = (||v||, 0, ..., 0) for each row v of V.

    G_idx acts on the pair (idx-1, idx) with the 2x2 kernel
    [[conj(a), -conj(b)], [b, a]], a = f/rho and b = -g/rho, which maps
    (f, g) to (rho, 0) with rho = ||(f, g)||; the chain runs bottom up and
    carries the norm of the part below.  Row idx-1 of K is a unit row until
    G_idx is applied.  A pair whose lower entry is exactly zero gets the
    identity instead, so trailing zero padding leaves exact identity rows
    and columns in K.

    The chain is not run pair by pair.  Its carried values are known in
    advance: the tail norms G_i = hypot(|v_i|, G_{i+1}), one hypot
    accumulation over the reversed rows, are the rho of every pair, and
    the lower entry g of pair idx is G_idx when pair idx+1 rotated and
    v_idx when it did not.  So a and b
    of all pairs come from whole-batch operations, and row idx-1 of K is
    conj(a_idx) followed by -conj(b_idx) times row idx from column idx on,
    one product per row, with the scalar on the left as in the chain.
    Rows 1 .. r-1 are then scaled by their a, their subdiagonal set to b
    and the zeros below it restored, since a_idx * 0 can be -0.0.  The
    batch works in an (r, r, B) layout, contiguous along the batch, and
    one transposing copy returns K.  Every operation is the chain's own on
    the same operands, given hypot(x, 0) = |x| (C99 Annex F), the symmetry
    of hypot, which the accumulation applies as hypot(G_{i+1}, |v_i|), and
    |G + 0i| = G, which hold exactly; so K is bitwise the chain's, which
    the tests keep as the reference.
    """
    B, r = V.shape
    v = V.T.copy()
    # tail norms G[i] = ||v_i .. v_{r-1}||, hypot-accumulated bottom up; G[r] = 0
    G = np.zeros((r + 1, B))
    np.hypot.accumulate(np.abs(v)[::-1], axis=0, out=G[r - 1 :: -1])
    # pair p = 1 .. r-1 (row p-1 here) rotates when its lower entry is
    # nonzero; that entry is G[p] if pair p+1 rotated, else v_p itself
    nonzero = G != 0
    live = nonzero[1:r]
    safe = np.where(live, G[: r - 1], 1.0)
    a = np.where(live, v[:-1] / safe, 1.0)
    b = -np.where(nonzero[2:], G[1:r], v[1:]) / safe
    # P[i, :, n] is row i of kernel n: row i-1 is conj(a_i) on the diagonal
    # followed by -conj(b_i) times row i from column i on, row i itself
    # a_i times that part with b_i before it; rows live along the last axis
    P = np.zeros((r, r, B), dtype=V.dtype)
    flat = P.reshape(r * r, B)
    diagonal = flat[:: r + 1]
    np.conjugate(a, out=diagonal[:-1])
    diagonal[-1] = 1.0
    nb = np.conjugate(b)
    np.negative(nb, out=nb)
    for i in range(r - 1, 0, -1):
        np.multiply(nb[i - 1], P[i, i:], out=P[i - 1, i:])
    np.multiply(a[:, None], P[1:], out=P[1:])
    flat[r :: r + 1] = b
    flat[_strict_lower(r)] = 0.0
    return P.transpose(2, 0, 1).copy()


def _reflector_kernels(V: np.ndarray) -> np.ndarray:
    """Batched reflectors K = I - 2 y y^H / (y^H y), one per row c of V, with
    y = c + alpha e_1 and alpha = e^{i arg c_1} ||c||, so that K c = -alpha e_1
    and forming y never cancels; zero padding stays zero in y and so gives
    exact identity rows and columns.  ||c|| and the sums run as the ufunc
    reductions that np.linalg.norm and np.sum call, so K is bitwise that
    of those wrappers at a lower cost."""
    head = V[:, 0]
    size = np.abs(head)
    # ||c|| by np.linalg.norm's own formula along an axis, without its wrapper
    norm = np.sqrt(np.add.reduce((V.conj() * V).real, axis=1))
    y = V.copy()
    y[:, 0] += np.divide(head, size, out=np.ones_like(head), where=size > 0) * norm
    scale = 2.0 / np.add.reduce(np.abs(y) ** 2, axis=1)
    K = scale[:, None, None] * y[:, :, None] * y[:, None, :].conj()
    return np.subtract(np.eye(V.shape[1]), K, out=K)


_KERNELS = {"rotations": _rotation_kernels, "householder": _reflector_kernels}


# windows per batched product, and the multiple to which the column cuts
# of a group's left product are rounded (see update_solve)
_GROUP = 32
_ALIGN = 16


def _schedule(ends: np.ndarray, r: int, k: int):
    """Windows of all (merge j, column c) pairs in step order, padded to r
    indices with the scratch index m, and per step (start, stop, dmax,
    inject, groups): its windows start .. stop-1, the dimension d_j of its
    newest merge, the rows (0, d_{j-1}) of the merge j injected at that
    step as one index array, or None, and its groups (lo, hi, cols), each
    its windows start+lo .. start+hi-1 with the columns of its left
    product (see update_solve).

    Merge j restores column c at step t = j - 1 + c, for c = 0 ..
    min(d_j - 3, k - 2), so step t holds the merges j <= t + 1 with
    j + d_j >= t + 4 and j >= t + 3 - k: one range of j, generated in step
    order with no sort.  The steps run to the last restore, and at least to
    the last merge's injection at step len(ends) - 2.  A step's groups are
    cut every _GROUP windows from its first window, so a leading solve
    groups only the windows it keeps.
    """
    m, last = int(ends[-1]), len(ends) - 1
    # the last merge makes the last restore; step t holds merges kept ..
    # newest, and kept <= newest + 1
    steps = last + max(min(m - 3, k - 2), 0) if last else 0
    reach = ends + np.arange(last + 1)
    t = np.arange(steps)
    newest = np.minimum(t + 1, last)
    kept = np.maximum(reach[1:].searchsorted(t + 4) + 1, t + 3 - k)
    count = newest + 1 - kept
    bounds = np.zeros(steps + 1, dtype=count.dtype)
    count.cumsum(out=bounds[1:])

    # window of merge j at column c = c2 - 2: row c+1 and the size rows from lo
    step = np.repeat(t, count)
    j = np.arange(bounds[-1]) - bounds[step] + kept[step]
    c2 = step + 3 - j
    prev = ends[j - 1]
    lo = np.maximum(c2, prev)
    size = np.minimum(ends[j], prev + c2) - lo
    wins = np.full((j.size, r), m, dtype=ends.dtype)
    np.subtract(c2, 1, out=wins[:, 0])
    for i in range(1, r):
        np.add(lo, i - 1, out=wins[:, i], where=size >= i)

    # groups of _GROUP windows from the start of each step, its windows
    # g_lo .. g_hi-1 and merges kept + g_lo .. jb
    per_step = -(-count // _GROUP)
    cuts = np.zeros(steps + 1, dtype=count.dtype)
    per_step.cumsum(out=cuts[1:])
    tg = np.repeat(t, per_step)
    g_lo = _GROUP * (np.arange(tg.size) - cuts[tg])
    g_hi = np.minimum(g_lo + _GROUP, count[tg])
    jb = kept[tg] + g_hi - 1
    # over a group c falls and hi grows with j, so its columns run from c of
    # jb to hi of jb; the newest merge of step t is at column t + 1 - newest,
    # where the left product over all of H starts, and the group's left
    # product runs over columns left0 .. left1-1
    tg1 = tg + 1
    c_min = tg1 - jb
    hi_max = np.minimum(ends[jb], ends[jb - 1] + c_min + 2)
    dmax, origin = ends[newest[tg]], tg1 - newest[tg]
    left0 = origin + (c_min - origin) // _ALIGN * _ALIGN
    left1 = np.minimum(dmax, origin - (origin - hi_max) // _ALIGN * _ALIGN)
    groups = [
        (i0, i1, slice(c0, c1))
        for i0, i1, c0, c1 in zip(g_lo.tolist(), g_hi.tolist(), left0.tolist(), left1.tolist())
    ]
    pairs = np.zeros((last, 2), dtype=ends.dtype)
    pairs[:, 1] = ends[:-1]
    dims, bounds, cuts = ends.tolist(), bounds.tolist(), cuts.tolist()
    return wins, [
        (bounds[i], bounds[i + 1], dims[min(i + 1, last)], pairs[i] if i < last else None,
         groups[cuts[i]:cuts[i + 1]])
        for i in range(steps)
    ]


# an overflow (gamma near the double range) ends in the residual check, which
# fails on NaN, so numpy's warnings would only interleave with --trace's lines
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def update_solve(Z: JordanOperator, w: WeightVector, strategy: str = "rotations", trace=None,
                 *, _leading: int | None = None, _basis: bool = True):
    """Solve the inverse problem by updating with one Jordan block at a time.

    (1) The closed-form single-block solutions are laid out once on the
    block diagonal of one workspace for H (and Q).  Block j then
    merges into the leading d_j x d_j section: (2) a plane rotation on
    (0, d_{j-1}) turns the first basis column into the enlarged weight
    vector, and (3) column by column, the entries below the subdiagonal
    are eliminated.  In column c they sit in the window of row c+1 and
    rows max(c+2, d_{j-1}) .. d_{j-1}+c+1, which follows from the indices.

    The merges run as a wavefront: merge j starts one step after merge
    j-1 and restores one column per step.  Windows in flight are
    disjoint and no merge writes the column another one reads, so each
    step builds all kernels in one batched call from the state at its
    start and applies them with batched products.  The rotation kernels
    come from the tail norms of each window, one hypot accumulation over
    the batch, and their rows from one product per window row; everything
    else is a fixed set of whole-batch operations, so the cost of the build
    does not grow with the number of windows (see
    :func:`_rotation_kernels`).  Both builders are bitwise the loop over
    the pairs of a window that they replace.  Windows are padded
    with a scratch index m, whose row and column stay zero.  After the
    last step, the restored columns of H are checked to be exactly
    Hessenberg in every row, and (4) one unimodular diagonal makes its
    subdiagonal non-negative.

    The left products touch only each window's envelope.  With the window
    of merge j at column c being rows c+1 and lo .. hi-1, its rows are
    zero outside columns c .. hi-1.  A step's windows are cut into groups
    of 32 from its first; each group gets one left product on the union of
    its windows' columns and one right product on rows 0 .. dmax-1.  On the
    Legendre m=201 input at k=202 the left products touch 70% of the
    entries that products over columns c_new .. dmax-1 would, where c_new
    is the step's newest column.  Each cut is rounded outward to a
    multiple of 16 counted from c_new, which adds only zero entries and
    keeps every column at its position modulo 16 within the BLAS call, by
    which the complex OpenBLAS kernels round: unrounded cuts changed the
    last bits of H on most random complex instances.  So H and Q are
    bitwise those of the products over all of H.

    The workspace is one row-major array S with H^T in rows 0 .. m and,
    when Q is accumulated, Q^T in rows m+1 .. 2m+1; H is the transposed
    view of its first m+1 rows.  Every product on columns is then a product
    on rows of S: the right product as conj(K) @ S[win, :dmax] and the
    injection as R @ S[(0, d_{j-1}), :dmax], in H^T and Q^T at once.  Each
    group, and each injection, gathers its rows of H^T and Q^T as one
    index, multiplies them in one call with its kernels broadcast over
    both, and scatters them back in one; each window's product is still
    its own BLAS call on the same operands.  A batched product
    streams the long rows of its operand instead of multiplying a tall,
    skinny matrix from the right and transposing the result.  Each entry
    is the same sum of the same products, so real H and Q are bitwise
    those of (H[:, win] K^H); complex products round by
    operand order under fused multiply-add, so complex H and Q differ
    from them in the last bits (on 520 random complex instances up to
    dimension 150, the distance to Arnoldi grew on about half and shrank
    on the other half).  The products on rows (the left products and the
    injection on rows) gather their rows of H through the transposed
    view; the gather is a contiguous copy, so the BLAS operands are those
    of a row-major H.

    :func:`_schedule` gives the windows, the injection rows and the groups,
    and from the windows come the flat indices in H^T of the gathered
    entries V = H[win, col], which the elimination then zeroes.  The
    residual check reads what the left products leave below each window's
    head row, the entries the elimination discards, without a product of
    its own.

    A caller that keeps only the leading k x k section of H and the first
    k columns of Q needs only columns 0 .. k-2 restored, so every merge
    stops there.  The skipped restores act on rows and columns >= k of H
    and on columns >= k of Q, and later merges mix into a column c+1 < k
    only their own new-block columns, so nothing skipped flows back into
    H[:k, :k] or Q[:, :k].  A step groups only the windows it keeps, so a
    window kept may share its group, and with it the columns of its left
    product, with other windows than in the full solve.  Its bits stay:
    inside the batched product each window is its own BLAS call on its own
    operands, and any rounded cut rounds as the product over all columns.
    So the section and the k columns are bitwise those of the full solve.

    Accuracy is that of the leading section only while the subdiagonal of
    H stays large.  On Legendre m=201 with gamma=0.01 (dimension 402), the
    leading 202 x 202 section is within 7.8e-14 of a long-double
    reference (relative Frobenius), but the full 402-column H only within
    9.1e-12: the error builds up in columns 200-399, after the
    subdiagonal drops to 0.025, from rounding in the entries that later
    merges keep rotating.  Arnoldi reaches 2.7e-15 on the full matrix.

    Parameters
    ----------
    Z, w : spectral data of the discretized product.
    strategy : "rotations" or "householder" -- how the per-column
        elimination kernel is built.
    trace : optional callable receiving one dict per merge and column.

    Returns
    -------
    (H, Q) : m x m Hessenberg matrix and unitary basis, contiguous, in the
    workspace dtype (float64 for real data).  With the private
    ``_leading=k``, H is the leading k x k section and Q the first k
    columns of the basis; with the private ``_basis=False``, Q is None,
    not accumulated.  :func:`_solve` sets both for its callers, which
    need only the section, and calls through this function so that a
    ``trace`` hook on it sees every updating solve.
    """
    kernels_of = _KERNELS.get(strategy) if isinstance(strategy, str) else None
    if kernels_of is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    if Z._ends.size != w.betas.size:
        raise ValueError("weight count does not match block count")

    tol = 1e-10 * max(Z.frobenius_norm(), 1.0)
    m = Z.m
    k = m if _leading is None else _leading
    dtype = np.result_type(Z._diag, w.betas)
    # one row-major workspace S: H^T in rows 0..m and, when Q is accumulated,
    # Q^T in rows m+1..2m+1, so that every product on columns of H or Q is
    # a product on rows of S; index m is the scratch index that pads every
    # window.  H is the transposed view of the H^T plane.
    planes = 2 if _basis else 1
    S = np.zeros((planes * (m + 1), m + 1), dtype=dtype)
    H = S[: m + 1].T
    QT = S[m + 1 :] if planes == 2 else None
    # single-block solutions: H lower bidiagonal with the scaling magnitudes
    # below the eigenvalue; Q the flip matrix with the phases that make
    # Q e_1 = (beta/|beta|) e_last and the subdiagonal of H real positive.
    # Index i is at position pos[i] of its block, and flip[i] mirrors it.
    ends = Z._ends
    starts = np.concatenate(([0], ends[:-1]))
    sizes = ends - starts
    block = np.repeat(np.arange(sizes.size), sizes)
    idx = np.arange(m)
    pos = idx - starts[block]
    flip = ends[block] - 1 - pos
    # alpha_1 .. alpha_{s-1}, 0 of each block, from the band read backwards
    scalings = np.concatenate(([0.0], Z._sup))[flip]
    H[idx, idx] = Z._diag
    H[idx + 1, idx] = np.hypot(scalings.real, scalings.imag)
    if QT is not None:
        # row j: beta_j, alpha_1 .. alpha_{s-1} of block j, each scaled to a
        # unit phase t * (1/|t|); the running products of a row are the
        # phases of the block's columns.
        turns = np.ones((sizes.size, sizes.max()), dtype=dtype)
        turns[block, pos] = scalings[idx - 1]
        turns[:, 0] = w.betas
        units = turns * (1.0 / np.hypot(turns.real, turns.imag))
        QT[idx, flip] = np.cumprod(units, axis=1)[block, pos]

    # plane rotation of merge j on rows and columns (0, d_{j-1}), turning the
    # first basis column into w/||w||; the phase of beta already sits in the
    # first column of the block's Q, so both parameters are real
    moduli = np.hypot(w.betas.real, w.betas.imag)
    norms = np.sqrt((moduli**2).cumsum())
    rotations = np.empty((moduli.size - 1, 2, 2))
    rotations[:, 0, 0] = rotations[:, 1, 1] = norms[:-1]
    rotations[:, 0, 1] = moduli[1:]
    rotations[:, 1, 0] = -moduli[1:]
    rotations /= norms[1:, None, None]
    wins, steps = _schedule(ends, int(sizes.max()) + 1, k)
    # each entry H[i, c] of a window of column c at its flat index c (m+1) + i in H^T
    cells = (wins[:, :1] - 1) * (m + 1) + wins
    cells_of_S = S.reshape(-1)
    # the row offset in S of the H^T and Q^T planes
    offsets = np.arange(0, S.shape[0], m + 1)[:, None, None]
    for t, (start, stop, dmax, inject, groups) in enumerate(steps):
        if inject is not None:
            R = rotations[t]
            H[inject, :dmax] = R @ H[inject, :dmax]
            rows = inject + offsets[:, 0]
            S[rows, :dmax] = R @ S[rows, :dmax]
        if start == stop:
            continue
        win, cell = wins[start:stop], cells[start:stop]
        K = kernels_of(cells_of_S[cell])
        for lo, hi, cols in groups:
            part = win[lo:hi]
            H[part, cols] = K[lo:hi] @ H[part, cols]
        # the left products wrote K V into the window's column: what they
        # left below its head row is the residual of the elimination; a NaN
        # residual fails too (np.maximum propagates it, and no NaN is <= tol)
        below = cell[:, 1:]
        leftover = np.abs(cells_of_S[below])
        if not np.maximum.reduce(leftover, axis=None) <= tol:
            residual = leftover.max(axis=1)
            bad = int(np.argmax(~(residual <= tol)))
            c = int(win[bad, 0]) - 1
            raise NumericalFailure(
                "Hessenberg restoration left a residual above tolerance",
                column=c + 1,
                block=t + 1 - c,
                residual=float(residual[bad]),
            )
        cells_of_S[below] = 0.0
        # the right products H[:, win] K^H and Q[:, win] K^H run as row
        # products conj(K) @ S[win, :dmax], both planes in one product;
        # for real data K.conj() is K itself
        Kc = K.conj()
        for lo, hi, _ in groups:
            part = win[lo:hi] + offsets
            S[part, :dmax] = Kc[lo:hi] @ S[part, :dmax]
        if trace is not None:
            for c, eliminated, res in zip((win[:, 0] - 1).tolist(), (win[:, 1:] < m).sum(axis=1).tolist(),
                                          leftover.max(axis=1).tolist()):
                trace({"event": "update-restore", "block": t + 1 - c, "column": c + 1,
                       "eliminated": eliminated, "residual": res})

    # columns 0..k-2 over all rows: the restored columns that fix H[:k, :k]
    restored = H[:m, :k - 1]
    if restored[np.tri(m, k - 1, -2, dtype=bool)].any():
        raise NumericalFailure(
            "Hessenberg restoration missed an entry outside the bulge window",
            defect=hessenberg_defect(restored),
        )
    # unimodular rescaling: subdiagonal real non-negative, first column kept;
    # the running product is renormalized so its rounding cannot accumulate
    H = H[:k, :k].copy()
    sub = H.reshape(-1)[k :: k + 1]
    size = np.abs(sub)
    steps = np.ones(k, dtype=dtype)
    np.divide(sub, size, out=steps[1:], where=size > 0)
    phases = np.multiply.accumulate(steps)
    phases /= np.abs(phases)
    H *= phases
    H *= phases.conj()[:, None]
    sub[:] = size
    Q = None if QT is None else np.multiply(QT[:k, :m].T, phases, order="C")
    return H, Q


def solve_hessenberg(Z: JordanOperator, w: WeightVector, k: int, method: str = DEFAULT_SOLVER, trace=None):
    """Leading k x k recurrence matrix by the named solver.

    ``method`` is one of "arnoldi", "update-hh" (updating with Householder
    reflectors) or "update-rot" (updating with plane rotations).  The
    updating solvers merge every block but restore only the columns
    0 .. k-2 that fix the section, without accumulating Q; the section is
    bitwise the leading k x k part of the full :func:`update_solve`, whose
    docstring says why.
    The result is exactly k x k: an Arnoldi breakdown before column k
    raises NumericalFailure with the breakdown ``column`` and ``k``.

    "update-hh" can return a wrong H without an error: with it,
    ``laguerre-roots --gamma 1e300`` repeats the k=2 root -0.2071 at k=3
    and 4 and reads -3.05e132 from k=5 on (update-rot: -0.1312, -0.0961,
    -0.0758), and on Laguerre n_quad=40, alpha=-1/2, gamma=1 its H moves
    with the block order by up to 0.16 relative (update-rot: 1.4e-14).
    """
    return _solve(Z, w, k, method, trace, basis=False)[0]


def _solve(Z: JordanOperator, w: WeightVector, k: int, method: str, trace, basis: bool = True):
    """(H, Q) of the named solver: H as :func:`solve_hessenberg` returns
    it, and Q the first k columns of the basis, column j+1 being p_j(Z) w.
    Arnoldi's Q is the one it builds.  The updating solvers run the
    leading :func:`update_solve`, which stops every merge at column k and
    accumulates Q only when ``basis`` asks for it; with ``basis=False``, Q
    is None.  H and Q are bitwise the sections of the full solve.
    """
    if not isinstance(method, str) or method not in _STRATEGIES:
        raise ValueError(f"unknown solver {method!r}; expected one of {SOLVER_NAMES}")
    strategy = _STRATEGIES[method]
    if strategy is None:
        result = arnoldi(Z, w, k, trace=trace)
        if result.H.shape[0] < k:
            raise NumericalFailure(
                "Arnoldi iteration broke down before k columns",
                column=result.H.shape[0],
                k=k,
            )
        return result.H, result.Q
    _check_count(k=k)
    if not 1 <= k <= Z.m:
        raise ValueError(f"column count k={k} must lie in 1..{Z.m}")
    return update_solve(Z, w, strategy=strategy, trace=trace, _leading=k, _basis=basis)
