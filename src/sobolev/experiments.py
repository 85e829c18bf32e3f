"""Reproducible experiment drivers behind the CLI.

Each ``cmd_*`` function runs one experiment end to end and returns an
ExperimentReport (the call's arguments, result rows, diagnostics, wall
time) plus the spectral data it solved.  No driver writes a file: the CLI
serializes the report, the spectral data and the least-squares figure.
Everything is deterministic given the arguments; randomized runs take an
explicit seed.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .eigen import hessenberg_eigenvalues, smallest_roots
from .errors import NumericalFailure
from .hiep import DEFAULT_SOLVER, SOLVER_NAMES, solve_hessenberg
from .quadrature import _check_count, golub_welsch, laguerre_jacobi, legendre_jacobi
from .sop import _fit, pentadiagonal_recurrence
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
    # most cells are floats: skip the isinstance chain for them
    if type(value) is float:
        return f"{value:.16e}"
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
        # a list, not a generator: join makes one of it anyway, at more cost
        lines.append(",".join([_cell(row.get(key)) for key in header]))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    """value in strict JSON types: a non-finite float as None, a complex
    number as [re, im], and any other non-JSON value as its str."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, range)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        # strict JSON has no NaN or Infinity
        return float(value) if np.isfinite(value) else None
    if isinstance(value, (complex, np.complexfloating)):
        return [_jsonable(value.real), _jsonable(value.imag)]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if value is None or isinstance(value, str):
        return value
    return str(value)


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(_jsonable(asdict(report)), indent=2) + "\n"


def _experiment(name: str):
    """Turn a driver body that returns (rows, diagnostics, data) into the
    ``cmd_*`` that returns (ExperimentReport, data).  The report's config
    is the call's arguments in signature order, defaults filled in and
    ``trace`` left out, and its wall time covers the whole call."""

    def decorate(body):
        signature = inspect.signature(body)

        @functools.wraps(body)
        def driver(*args, **kwargs):
            start = time.perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            # a one-shot iterator (say, of degrees) is read once, for body and echo
            for key, value in bound.arguments.items():
                if isinstance(value, Iterator):
                    bound.arguments[key] = list(value)
            rows, diagnostics, data = body(*bound.args, **bound.kwargs)
            config = {key: value for key, value in bound.arguments.items() if key != "trace"}
            return ExperimentReport(name, config, rows, diagnostics, time.perf_counter() - start), data

        return driver

    return decorate


def random_spectral_data(rng, max_m: int = 40, max_block: int = 4):
    """Random valid (Z, w): block sizes 1..max_block, nodes in [-2,2]x[-1,1]i.

    Nodes are kept at least 0.15 apart and scalings/weights have moduli
    in [0.5, 1.5]; near-confluent nodes make the inverse problem
    arbitrarily ill-conditioned, which is not what this sampler is for.
    """
    _check_count(max_m=max_m, max_block=max_block)
    if max_m < 2:
        raise ValueError(f"max_m={max_m} must be at least 2")
    if max_block < 1:
        raise ValueError(f"max_block={max_block} must be at least 1")
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


@_experiment("laguerre-roots")
def cmd_laguerre_roots(
    gamma: float = 1.0,
    alpha: float = -0.5,
    n_quad: int = 10,
    k_max: int = 10,
    solver: str = DEFAULT_SOLVER,
    *,
    trace=None,
):
    """Smallest roots of p_k, k = 1..k_max, for the product
    integral (p conj(q) + gamma p' conj(q')) x^alpha e^{-x} dx discretized
    by an n_quad-point Gauss-Laguerre rule."""
    _check_count(n_quad=n_quad, k_max=k_max)
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma={gamma} must be positive and finite")
    if k_max < 1:
        raise ValueError(f"k_max={k_max} must be at least 1")
    if n_quad < 1:
        raise ValueError(f"n_quad={n_quad} must be at least 1 (the number of Gauss-Laguerre nodes)")
    rule = golub_welsch(laguerre_jacobi(n_quad, alpha))
    Z, w = build_same_measure(rule, [1.0, gamma])
    if k_max > Z.m:
        raise ValueError(f"k_max={k_max} exceeds spectral dimension {Z.m}")
    H = solve_hessenberg(Z, w, k_max, method=solver, trace=trace)
    rows = [
        {"k": k, "smallest_root_re": root.real, "smallest_root_im": root.imag}
        for k, root in enumerate(smallest_roots(H, k_max, trace=trace), start=1)
    ]
    return rows, {"m": Z.m}, (Z, w)


@_experiment("althammer-roots")
def cmd_althammer_roots(
    n: int = 60,
    gamma: float = 100.0,
    n_quad: int = 60,
    solver: str = DEFAULT_SOLVER,
    *,
    trace=None,
):
    """All roots of the degree-n polynomial for the Legendre-plus-derivative
    product, with qualitative checks: roots should be simple, real, inside
    [-1, 1], as they are for n <= n_quad, where the rule is exact on every
    product that orthogonality up to degree n needs.  A root off the real
    axis or two within 1e-10 raise NumericalFailure; roots outside [-1, 1]
    are only counted, as at large gamma conditioning alone can move them."""
    _check_count(n=n, n_quad=n_quad)
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma={gamma} must be positive and finite")
    if n < 1:
        raise ValueError(f"degree n={n} must be at least 1")
    if n_quad < 1:
        raise ValueError(f"n_quad={n_quad} must be at least 1 (the number of Gauss-Legendre nodes)")
    if n > n_quad:
        raise ValueError(f"degree n={n} exceeds n_quad={n_quad}: the rule is not exact for its orthogonality")
    rule = golub_welsch(legendre_jacobi(n_quad))
    Z, w = build_same_measure(rule, [1.0, gamma])
    H = solve_hessenberg(Z, w, n, method=solver, trace=trace)
    roots = hessenberg_eigenvalues(H, trace=trace)
    rows = [
        {"index": i, "root_re": re, "root_im": im}
        for i, (re, im) in enumerate(zip(roots.real.tolist(), roots.imag.tolist()), start=1)
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
    if diagnostics["n_imag_violations"] or diagnostics["n_gap_violations"]:
        raise NumericalFailure("roots are not real and simple, as they are for n <= n_quad", **diagnostics)
    return rows, diagnostics, (Z, w)


def _gauss_bump(x):
    return np.exp(-100.0 * (x - 0.2) ** 2)


def _gauss_bump_prime(x):
    return -200.0 * (x - 0.2) * _gauss_bump(x)


def _fit_errors(H, w_norm, rule, gamma, degrees, grid_points, family, trace=None):
    """Max-norm value and derivative errors of the bump fits of the given
    degrees, one dict per degree with keys suffixed by ``family``, each
    bitwise that of a separate fit of its degree (see :func:`sop._fit`)."""
    nodes = rule.nodes
    _, value, deriv = _fit(
        H, w_norm, nodes, rule.weights, _gauss_bump(nodes), _gauss_bump_prime(nodes), gamma,
        degrees, _gauss_bump, _gauss_bump_prime, grid_points, trace,
    )
    return [
        {f"value_error_{family}": v, f"deriv_error_{family}": d} for v, d in zip(value, deriv)
    ]


@_experiment("least-squares")
def cmd_least_squares(
    gamma: float = 0.01,
    m: int = 201,
    degrees=tuple(range(1, 202, 10)),
    solver: str = DEFAULT_SOLVER,
    *,
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
    _check_count(m=m, grid_points=grid_points)
    if m < 1:
        raise ValueError(f"m={m} must be at least 1 (the number of Gauss-Legendre nodes)")
    for d in degrees:
        if not isinstance(d, (int, np.integer)):
            raise ValueError(f"degree {d} must be an integer")
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
    rule = golub_welsch(legendre_jacobi(m))
    top = max(degrees)

    Z0, w0 = build_same_measure(rule, [1.0])
    top0 = min(top, Z0.m - 1)
    H0 = solve_hessenberg(Z0, w0, top0 + 1, method=solver, trace=trace)
    Zg, wg = build_same_measure(rule, [1.0, gamma])
    Hg = solve_hessenberg(Zg, wg, top + 1, method=solver, trace=trace)

    # the families in turn, so that one grid basis at a time is held
    degrees0 = [min(d, top0) for d in degrees]
    errors0 = _fit_errors(H0, w0.norm(), rule, 0.0, degrees0, grid_points, "plain", trace)
    errorsg = _fit_errors(Hg, wg.norm(), rule, gamma, degrees, grid_points, "sobolev", trace)
    rows = [
        {"degree": d, **e0, **eg, "effective_degree_plain": d0}
        for d, d0, e0, eg in zip(degrees, degrees0, errors0, errorsg)
    ]
    return rows, {"m_plain": Z0.m, "m_sobolev": Zg.m}, (Zg, wg)


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


@_experiment("penta")
def cmd_penta(
    m: int = 5,
    alpha: float = 0.0,
    c: float = -1.0,
    M: float = 1.0,
    N: float = 1.0,
    solver: str = DEFAULT_SOLVER,
    *,
    trace=None,
):
    """Banded matrix of the five-term recurrence for the Laguerre product
    with point masses M, N at c, from an (m+1)-point rule shifted by c.

    A matrix that deviates from Hermitian or from pentadiagonal by more
    than PENTA_STRUCTURE_BOUND relative to its norm raises
    NumericalFailure with both deviations.  A failed cross-check keeps
    the matrix: see ``cross_solver_failure``."""
    _check_count(m=m)
    if m < 1:
        raise ValueError(f"m={m} must be at least 1 (the number of rows of the recurrence matrix)")
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
    return rows, {**structure, "cross_solver": reference, **cross}, (Zs, w)


@_experiment("compare-solvers")
def cmd_compare_solvers(
    count: int = 100,
    max_m: int = 40,
    seed: int = 20260826,
    *,
    trace=None,
):
    """Cross-validate every solver of SOLVER_NAMES on random spectral data.

    For each instance the Arnoldi recurrence matrix is the reference; rows
    carry the relative Frobenius difference of each other solver, in order,
    as ``rel_diff_<name>``.  The spectral data returned are None: each row
    has its own.
    """
    _check_count(count=count, max_m=max_m, seed=seed)
    if count < 1:
        raise ValueError("need at least one instance")
    columns = {name: "rel_diff_" + name.replace("-", "_") for name in SOLVER_NAMES if name != "arnoldi"}
    rng = np.random.default_rng(seed)
    rows = []
    for idx in range(count):
        Z, w = random_spectral_data(rng, max_m=max_m)
        H_ref = solve_hessenberg(Z, w, Z.m, method="arnoldi", trace=trace)
        scale = float(np.linalg.norm(H_ref))
        row = {"instance": idx + 1, "m": Z.m}
        for name, column in columns.items():
            H = solve_hessenberg(Z, w, Z.m, method=name, trace=trace)
            row[column] = float(np.linalg.norm(H - H_ref)) / scale
        rows.append(row)
    return rows, {f"max_{column}": max(row[column] for row in rows) for column in columns.values()}, None
