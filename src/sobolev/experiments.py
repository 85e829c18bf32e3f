"""Reproducible experiment drivers behind the CLI.

Each ``cmd_*`` function runs one experiment end to end and returns an
ExperimentReport (configuration echo, result rows, diagnostics, wall
time) plus the spectral data it solved.  No driver writes a file: the CLI
serializes the report, the spectral data and the least-squares figure.
Everything is deterministic given the arguments; randomized runs take an
explicit seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .eigen import hessenberg_eigenvalues, smallest_roots
from .errors import NumericalFailure
from .hiep import DEFAULT_SOLVER, arnoldi, solve_hessenberg
from .quadrature import golub_welsch, laguerre_jacobi, legendre_jacobi
from .sop import _fit_and_grid, _prefix_errors, pentadiagonal_recurrence
from .spectral import (
    JordanBlockSpec,
    JordanOperator,
    WeightVector,
    build_discrete_laguerre_sobolev,
    build_same_measure,
)
from . import svgplot

__all__ = [
    "ExperimentReport",
    "report_to_csv",
    "report_to_json",
    "random_spectral_data",
    "cmd_laguerre_roots",
    "cmd_althammer_roots",
    "cmd_least_squares",
    "least_squares_figure",
    "cmd_penta",
    "cmd_compare_solvers",
]


@dataclass
class ExperimentReport:
    """Result bundle of one experiment run."""

    experiment: str
    config: dict
    rows: list
    diagnostics: dict = field(default_factory=dict)
    wall_time: float = 0.0


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    return str(value)


def report_to_csv(report: ExperimentReport) -> str:
    """Rows as UTF-8 CSV, header from the first row, floats as %.16e."""
    if not report.rows:
        return "\n"
    header = list(report.rows[0].keys())
    lines = [",".join(header)]
    for row in report.rows:
        lines.append(",".join(_cell(row.get(key)) for key in header))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    return value


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(_jsonable(asdict(report)), indent=2) + "\n"


def random_spectral_data(rng, max_m: int = 40, max_block: int = 4):
    """Random valid (Z, w): block sizes 1..max_block, nodes in [-2,2]x[-1,1]i.

    Nodes are kept at least 0.15 apart and scalings/weights have moduli
    in [0.5, 1.5]; near-confluent nodes make the inverse problem
    arbitrarily ill-conditioned, which is not what this sampler is for.
    """
    m_target = int(rng.integers(2, max_m + 1))
    blocks = []
    betas = []
    dim = 0
    while dim < m_target:
        size = int(rng.integers(1, min(max_block, m_target - dim) + 1))
        while True:
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
            if all(abs(z - b.z) > 0.15 for b in blocks):
                break
        alphas = rng.uniform(0.5, 1.5, size - 1) * np.exp(
            2j * np.pi * rng.uniform(0.0, 1.0, size - 1)
        )
        blocks.append(JordanBlockSpec(z, alphas))
        betas.append(
            rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
        )
        dim += size
    return JordanOperator(tuple(blocks)), WeightVector(np.asarray(betas))


def cmd_laguerre_roots(
    gamma: float = 1.0,
    alpha: float = -0.5,
    n_quad: int = 10,
    k_max: int = 10,
    solver: str = DEFAULT_SOLVER,
    trace=None,
):
    """Smallest roots of p_k, k = 1..k_max, for the product
    integral (p conj(q) + gamma p' conj(q')) x^alpha e^{-x} dx discretized
    by an n_quad-point Gauss-Laguerre rule."""
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma={gamma} must be positive and finite")
    if k_max < 1:
        raise ValueError(f"k_max={k_max} must be at least 1")
    if n_quad < 1:
        raise ValueError(f"n_quad={n_quad} must be at least 1 (the number of Gauss-Laguerre nodes)")
    start = time.perf_counter()
    rule = golub_welsch(laguerre_jacobi(n_quad, alpha))
    Z, w = build_same_measure(rule, [1.0, gamma])
    if k_max > Z.m:
        raise ValueError(f"k_max={k_max} exceeds spectral dimension {Z.m}")
    H = solve_hessenberg(Z, w, k_max, method=solver, trace=trace)
    rows = [
        {"k": k, "smallest_root_re": root.real, "smallest_root_im": root.imag}
        for k, root in enumerate(smallest_roots(H, k_max, trace=trace), start=1)
    ]
    report = ExperimentReport(
        experiment="laguerre-roots",
        config={
            "gamma": gamma,
            "alpha": alpha,
            "n_quad": n_quad,
            "k_max": k_max,
            "solver": solver,
        },
        rows=rows,
        diagnostics={"m": Z.m},
        wall_time=time.perf_counter() - start,
    )
    return report, (Z, w)


def cmd_althammer_roots(
    n: int = 60,
    gamma: float = 100.0,
    n_quad: int = 60,
    solver: str = DEFAULT_SOLVER,
    trace=None,
):
    """All roots of the degree-n polynomial for the Legendre-plus-derivative
    product, with qualitative checks: roots should be simple, real, inside
    [-1, 1]."""
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma={gamma} must be positive and finite")
    if n < 1:
        raise ValueError(f"degree n={n} must be at least 1")
    if n_quad < 1:
        raise ValueError(f"n_quad={n_quad} must be at least 1 (the number of Gauss-Legendre nodes)")
    if n > 2 * n_quad:
        raise ValueError(f"degree n={n} exceeds rule capacity 2*n_quad={2 * n_quad}")
    start = time.perf_counter()
    rule = golub_welsch(legendre_jacobi(n_quad))
    Z, w = build_same_measure(rule, [1.0, gamma])
    H = solve_hessenberg(Z, w, n, method=solver, trace=trace)
    roots = hessenberg_eigenvalues(H[:n, :n], trace=trace)
    rows = [
        {"index": i + 1, "root_re": r.real, "root_im": r.imag}
        for i, r in enumerate(roots)
    ]
    gaps = np.abs(roots[:, None] - roots[None, :])[np.triu_indices(n, 1)]
    diagnostics = {
        "m": Z.m,
        "max_abs_imag": float(np.max(np.abs(roots.imag))),
        "min_real": float(np.min(roots.real)),
        "max_real": float(np.max(roots.real)),
        "min_pair_gap": float(gaps.min(initial=np.inf)),
        "n_imag_violations": int(np.sum(np.abs(roots.imag) > 1e-6)),
        "n_range_violations": int(
            np.sum((roots.real < -1.0 - 1e-8) | (roots.real > 1.0 + 1e-8))
        ),
        "n_gap_violations": int(np.count_nonzero(gaps <= 1e-10)),
    }
    report = ExperimentReport(
        experiment="althammer-roots",
        config={"n": n, "gamma": gamma, "n_quad": n_quad, "solver": solver},
        rows=rows,
        diagnostics=diagnostics,
        wall_time=time.perf_counter() - start,
    )
    return report, (Z, w)


def _gauss_bump(x):
    return np.exp(-100.0 * (x - 0.2) ** 2)


def _gauss_bump_prime(x):
    return -200.0 * (x - 0.2) * _gauss_bump(x)


def _fit_errors(H, w_norm, rule, gamma, degrees, grid_points, family, trace=None):
    """Max-norm value and derivative errors of the bump fits of the given
    degrees on a uniform grid over [-1, 1], one dict per degree with keys
    suffixed by ``family``.

    The coefficients do not depend on the fit degree, so the degree-d fit
    is a prefix of the top-degree fit, and one basis evaluation on the
    nodes and the grid together serves every degree.  The fit and the
    running sums over the degrees are those of :func:`hermite_least_squares`
    (:func:`sop._fit_and_grid`, :func:`sop._prefix_errors`), read off at
    each requested degree, so every row has the bits of a separate fit of
    its degree.
    """
    grid = np.linspace(-1.0, 1.0, grid_points)
    coeff, values, derivs = _fit_and_grid(
        H, w_norm, rule.nodes, rule.weights, _gauss_bump(rule.nodes),
        _gauss_bump_prime(rule.nodes), gamma, max(degrees), grid, trace,
    )
    value = _prefix_errors(coeff, values, _gauss_bump(grid), degrees)
    deriv = _prefix_errors(coeff, derivs, _gauss_bump_prime(grid), degrees)
    return [
        {f"value_error_{family}": v, f"deriv_error_{family}": d} for v, d in zip(value, deriv)
    ]


def cmd_least_squares(
    gamma: float = 0.01,
    m: int = 201,
    degrees=None,
    solver: str = DEFAULT_SOLVER,
    trace=None,
    grid_points: int = 2001,
):
    """Least-squares fits of exp(-100(x-1/5)^2) on m Gauss-Legendre nodes.

    Compares the plain value-only fit (gamma = 0) with the fit penalizing
    derivative misfit by ``gamma``, over the requested degrees.  The
    value-only basis ends at degree m-1 (the m-point discrete product
    cannot separate higher degrees), so such degrees are clamped and the
    clamp recorded per row.  ``trace`` goes to both solves and to the
    two basis evaluations, one per family.
    """
    if m < 1:
        raise ValueError(f"m={m} must be at least 1 (the number of Gauss-Legendre nodes)")
    if degrees is None:
        degrees = list(range(1, 202, 10))
    degrees = [int(d) for d in degrees]
    if not degrees:
        raise ValueError("the degree list is empty: give at least one degree")
    if min(degrees) < 1:
        raise ValueError("degrees must be positive")
    if max(degrees) > 2 * m - 1:
        raise ValueError(f"degrees above 2m-1 = {2 * m - 1} are not resolvable")
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma={gamma} must be positive and finite (the gamma=0 fit is always run)")
    if grid_points < 1:
        raise ValueError(f"grid_points={grid_points} must be at least 1")
    start = time.perf_counter()
    rule = golub_welsch(legendre_jacobi(m))
    top = max(degrees)

    Z0, w0 = build_same_measure(rule, [1.0])
    top0 = min(top, Z0.m - 1)
    H0 = solve_hessenberg(Z0, w0, top0 + 1, method=solver, trace=trace)
    Zg, wg = build_same_measure(rule, [1.0, gamma])
    if top + 1 > Zg.m:
        raise ValueError(f"degree {top} needs spectral dimension > {Zg.m}")
    Hg = solve_hessenberg(Zg, wg, top + 1, method=solver, trace=trace)

    # the families in turn, so that one grid basis at a time is held
    degrees0 = [min(d, top0) for d in degrees]
    errors0 = _fit_errors(H0, w0.norm(), rule, 0.0, degrees0, grid_points, "plain", trace)
    errorsg = _fit_errors(Hg, wg.norm(), rule, gamma, degrees, grid_points, "sobolev", trace)
    rows = [
        {"degree": d, **e0, **eg, "effective_degree_plain": d0}
        for d, d0, e0, eg in zip(degrees, degrees0, errors0, errorsg)
    ]
    report = ExperimentReport(
        experiment="least-squares",
        config={
            "gamma": gamma,
            "m": m,
            "degrees": degrees,
            "solver": solver,
            "grid_points": grid_points,
        },
        rows=rows,
        diagnostics={"m_plain": Z0.m, "m_sobolev": Zg.m},
        wall_time=time.perf_counter() - start,
    )
    return report, (Zg, wg)


def least_squares_figure(report: ExperimentReport) -> str:
    """The error curves of a least-squares report as an SVG document: value
    and derivative errors of both fits against the degree, log10 y axis."""
    rows, gamma = report.rows, report.config["gamma"]
    return svgplot.line_plot_svg(
        [row["degree"] for row in rows],
        {
            "value err, gamma=0": [row["value_error_plain"] for row in rows],
            f"value err, gamma={gamma:g}": [row["value_error_sobolev"] for row in rows],
            "deriv err, gamma=0": [row["deriv_error_plain"] for row in rows],
            f"deriv err, gamma={gamma:g}": [row["deriv_error_sobolev"] for row in rows],
        },
        title="Least-squares max-norm errors",
        xlabel="degree",
        ylabel="max error (log10)",
    )


# largest relative deviation of the penta matrix from Hermitian and from
# pentadiagonal that counts as rounding.  Over m = 2..20, alpha -1/2..3,
# M 0..1e8 and c -1, -0.1 the worst deviation of every solver grows like
# eps sqrt(N): below 4.5e-8 up to N = 1e16, 2.2e-6 at 1e20, 2e-4 at 1e24;
# the default input reads 7.9e-3 (update-rot) at N = 1e30 and 1.4 at 1e300
PENTA_STRUCTURE_BOUND = 1e-6


def cmd_penta(
    m: int = 5,
    alpha: float = 0.0,
    c: float = -1.0,
    M: float = 1.0,
    N: float = 1.0,
    solver: str = DEFAULT_SOLVER,
    trace=None,
):
    """Banded matrix of the five-term recurrence for the Laguerre product
    with point masses M, N at c, from an (m+1)-point rule shifted by c.

    A matrix that deviates from Hermitian or from pentadiagonal by more
    than PENTA_STRUCTURE_BOUND relative to its norm raises
    NumericalFailure with both deviations.  A failed cross-check keeps
    the matrix: see ``cross_solver_failure``."""
    if m < 1:
        raise ValueError(f"m={m} must be at least 1 (the number of rows of the recurrence matrix)")
    start = time.perf_counter()
    rule = golub_welsch(laguerre_jacobi(m + 1, alpha))
    Z, w = build_discrete_laguerre_sobolev(rule, c, M, N)
    Zs = Z.shift(c)
    B = pentadiagonal_recurrence(Zs, w, m, solver=solver, trace=trace)
    bnorm = float(np.linalg.norm(B))
    def relative(size):
        return float(size) / bnorm if bnorm else 0.0
    offband = max(np.abs(np.triu(B, 3)).max(initial=0.0), np.abs(np.tril(B, -3)).max(initial=0.0))
    structure = {
        "offband_rel": relative(offband),
        "hermitian_rel": relative(np.linalg.norm(B - B.conj().T)),
    }
    if max(structure.values()) > PENTA_STRUCTURE_BOUND:
        raise NumericalFailure(
            "recurrence matrix is not Hermitian and pentadiagonal to rounding",
            bound=PENTA_STRUCTURE_BOUND,
            **structure,
        )
    reference = "arnoldi" if solver != "arnoldi" else "update-rot"
    try:
        B_ref = pentadiagonal_recurrence(Zs, w, m, solver=reference, trace=trace)
        cross = {"cross_solver_rel": relative(np.linalg.norm(B - B_ref))}
    except NumericalFailure as exc:
        cross = {"cross_solver_failure": {"error": str(exc), **exc.details}}
    rows = [
        {"i": i + 1, "j": j + 1, "re": B[i, j].real, "im": B[i, j].imag}
        for i in range(m)
        for j in range(m)
    ]
    report = ExperimentReport(
        experiment="penta",
        config={"m": m, "alpha": alpha, "c": c, "M": M, "N": N, "solver": solver},
        rows=rows,
        diagnostics={
            **structure,
            "cross_solver": reference,
            **cross,
        },
        wall_time=time.perf_counter() - start,
    )
    return report, (Zs, w)


def cmd_compare_solvers(
    count: int = 100,
    max_m: int = 40,
    seed: int = 20260826,
    trace=None,
):
    """Cross-validate the three solvers on random spectral data.

    For each instance the Arnoldi recurrence matrix is the reference;
    rows carry the relative Frobenius differences of both updating
    strategies.  The spectral data returned are None: each row has its own.
    """
    if count < 1:
        raise ValueError("need at least one instance")
    if max_m < 2:
        raise ValueError(f"max_m={max_m} must be at least 2")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    rows = []
    for idx in range(count):
        Z, w = random_spectral_data(rng, max_m=max_m)
        H_ref = arnoldi(Z, w, Z.m, trace=trace).H
        scale = float(np.linalg.norm(H_ref))
        H_hh = solve_hessenberg(Z, w, Z.m, method="update-hh", trace=trace)
        H_rot = solve_hessenberg(Z, w, Z.m, method="update-rot", trace=trace)
        rows.append(
            {
                "instance": idx + 1,
                "m": Z.m,
                "rel_diff_update_hh": float(np.linalg.norm(H_hh - H_ref)) / scale,
                "rel_diff_update_rot": float(np.linalg.norm(H_rot - H_ref)) / scale,
            }
        )
    report = ExperimentReport(
        experiment="compare-solvers",
        config={"count": count, "max_m": max_m, "seed": seed},
        rows=rows,
        diagnostics={
            "max_rel_diff_update_hh": max(row["rel_diff_update_hh"] for row in rows),
            "max_rel_diff_update_rot": max(row["rel_diff_update_rot"] for row in rows),
        },
        wall_time=time.perf_counter() - start,
    )
    return report, None
