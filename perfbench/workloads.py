"""The four benchmark workloads: inputs, references, warm-up, op and gate.

``PREPARE[name](seed)`` builds a workload's inputs and its references
outside the timing and warms the op's code paths up.  The returned
``Prepared`` holds the op (one closed-loop request) and the gate that
checks the op's output against the references with the acceptance-suite
tolerances.  Every program function is looked up on its
module when the op runs, so the traced run sees the calls.

Only ``compare`` draws its inputs from the seed; the other workloads are
the fixed paper instances named in their docstrings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import sobolev
from sobolev import experiments

COMPARE_MAX_M = 40
COMPARE_PER_DIM = 5
LSQ_DEGREES = list(range(1, 202, 10))


class GateFailure(RuntimeError):
    """An op returned, but its output misses the workload's correctness gate."""


@dataclass
class Prepared:
    """A workload ready to run.

    ``steps(i)`` lists the calls that make up op i; they are timed one by
    one and their results, in order, are the op's output.  ``gate(i, out)``
    is not timed: it returns the op's worst error against the reference,
    in the units of the workload's tolerance, or raises GateFailure.
    In a traced run every layer in ``layers`` and every counter in
    ``counters`` must record something.
    """

    steps: Callable
    gate: Callable
    shape: dict
    reference: dict
    layers: tuple
    counters: tuple


def _rel_diff(H, H_ref) -> float:
    return float(np.linalg.norm(H - H_ref)) / float(np.linalg.norm(H_ref))


def _check(ok: bool, message: str):
    if not ok:
        raise GateFailure(message)


def _gate_solver_agreement(outputs, H_ref, what: str) -> float:
    worst = max(_rel_diff(H, H_ref) for H in outputs)
    _check(worst <= 1e-11, f"{what}: relative difference {worst:.3e} from Arnoldi H > 1e-11")
    return worst


def _legendre_same_measure(m: int, gammas):
    rule = sobolev.golub_welsch(sobolev.legendre_jacobi(m))
    return rule, sobolev.build_same_measure(rule, gammas)


def prepare_solve(seed: int) -> Prepared:
    """Same-measure Legendre product, m=201 nodes, gamma=0.01 (dimension
    402); one op is the leading 202 x 202 H by update-rot, then update-hh."""
    m, gamma, k = 201, 0.01, 202
    _, (Z, w) = _legendre_same_measure(m, [1.0, gamma])
    H_ref = sobolev.arnoldi(Z, w, k).H
    _, small = _legendre_same_measure(10, [1.0, gamma])
    methods = ("update-rot", "update-hh")
    for method in methods:
        sobolev.solve_hessenberg(*small, 11, method=method)

    def steps(i):
        return [
            lambda method=method: sobolev.solve_hessenberg(Z, w, k, method=method)
            for method in methods
        ]

    return Prepared(
        steps=steps,
        gate=lambda i, out: _gate_solver_agreement(out, H_ref, "solve"),
        shape={"nodes": m, "gamma": gamma, "dimension": Z.m, "blocks": len(Z.blocks), "k": k},
        reference={"arnoldi_H_norm": float(np.linalg.norm(H_ref))},
        layers=("hiep",),
        counters=("hiep.restore_steps",),
    )


def _bump(x):
    return np.exp(-100.0 * (x - 0.2) ** 2)


def _bump_prime(x):
    return -200.0 * (x - 0.2) * _bump(x)


def prepare_lsq(seed: int) -> Prepared:
    """The least-squares experiment at paper defaults (gamma=0.01, m=201,
    degrees 1:201:10, 2001 grid points) with the Arnoldi solver, plus CSV.

    The gate takes criterion 8's plateau and derivative-dominance checks;
    its value-ratio bound was pinned on update-rot, and with Arnoldi the
    ratio reaches 5.6 at degree 111, where both errors are below 1e-13."""
    m, gamma, grid = 201, 0.01, 2001
    top = max(LSQ_DEGREES)
    rule, (Z, w) = _legendre_same_measure(m, [1.0, gamma])
    H = sobolev.solve_hessenberg(Z, w, top + 1, method="arnoldi")
    fit = sobolev.hermite_least_squares(
        H, w.norm(), rule.nodes, rule.weights, _bump(rule.nodes), _bump_prime(rule.nodes),
        gamma, top, _bump, _bump_prime, grid,
    )
    experiments.cmd_least_squares(gamma=gamma, m=21, degrees=[1, 11, 21], solver="arnoldi")

    def op():
        report, _ = experiments.cmd_least_squares(
            gamma=gamma, m=m, degrees=LSQ_DEGREES, solver="arnoldi", grid_points=grid
        )
        return report, experiments.report_to_csv(report)

    def gate(i, out):
        [(report, csv)] = out
        rows = report.rows
        _check([row["degree"] for row in rows] == LSQ_DEGREES, "lsq: degrees differ from the request")
        _check(len(csv.splitlines()) == len(rows) + 1, "lsq: CSV row count differs from the report")
        for row in rows:
            if row["degree"] >= 51:
                _check(
                    row["deriv_error_sobolev"] <= row["deriv_error_plain"],
                    f"lsq: no derivative dominance at degree {row['degree']}",
                )
        last = rows[-1]
        plateau = max(last["value_error_plain"], last["value_error_sobolev"])
        _check(plateau <= 1e-11, f"lsq: plateau {plateau:.3e} > 1e-11")
        worst = max(last["value_error_sobolev"], last["deriv_error_sobolev"])
        _check(worst <= 1e-11, f"lsq: top-degree Sobolev fit error {worst:.3e} > 1e-11")
        return worst

    return Prepared(
        steps=lambda i: [op],
        gate=gate,
        shape={"nodes": m, "gamma": gamma, "dimension": Z.m, "degrees": len(LSQ_DEGREES),
               "top_degree": top, "grid_points": grid},
        reference={"top_value_error": fit.value_error, "top_deriv_error": fit.deriv_error},
        layers=("quadrature", "spectral", "hiep", "sop", "experiments"),
        counters=("hiep.arnoldi_steps", "spectral.matvec_calls", "sop.evaluate_calls"),
    )


def _sorted_roots(values):
    return np.asarray(sorted(values, key=lambda z: (z.real, z.imag)))


def _smallest(values) -> complex:
    return complex(min(values, key=lambda z: (z.real, abs(z.imag))))


def prepare_roots(seed: int) -> Prepared:
    """Two root tables with the Arnoldi solver: althammer-roots (n=100,
    n_quad=100, gamma=100) and laguerre-roots (n_quad=40, k_max=40,
    gamma=1, alpha=-0.5).  References are LAPACK eigenvalues of the same
    sections."""
    n, n_quad_a, gamma_a = 100, 100, 100.0
    n_quad_l, k_max, gamma_l, alpha = 40, 40, 1.0, -0.5
    _, (Za, wa) = _legendre_same_measure(n_quad_a, [1.0, gamma_a])
    Ha = sobolev.solve_hessenberg(Za, wa, n, method="arnoldi")
    ref_alt = _sorted_roots(np.linalg.eigvals(Ha))
    scale_alt = float(np.linalg.norm(Ha))
    rule_l = sobolev.golub_welsch(sobolev.laguerre_jacobi(n_quad_l, alpha))
    Zl, wl = sobolev.build_same_measure(rule_l, [1.0, gamma_l])
    Hl = sobolev.solve_hessenberg(Zl, wl, k_max, method="arnoldi")
    ref_lag = [_smallest(np.linalg.eigvals(Hl[:k, :k])) for k in range(1, k_max + 1)]
    scale_lag = [float(np.linalg.norm(Hl[:k, :k])) for k in range(1, k_max + 1)]
    experiments.cmd_althammer_roots(n=10, gamma=gamma_a, n_quad=10, solver="arnoldi")
    experiments.cmd_laguerre_roots(gamma=gamma_l, alpha=alpha, n_quad=5, k_max=5, solver="arnoldi")

    def althammer():
        report, _ = experiments.cmd_althammer_roots(n=n, gamma=gamma_a, n_quad=n_quad_a, solver="arnoldi")
        return report, experiments.report_to_csv(report)

    def laguerre():
        report, _ = experiments.cmd_laguerre_roots(
            gamma=gamma_l, alpha=alpha, n_quad=n_quad_l, k_max=k_max, solver="arnoldi"
        )
        return report, experiments.report_to_csv(report)

    def gate(i, out):
        (alt, csv_alt), (lag, csv_lag) = out
        csv = csv_alt + csv_lag
        violations = sum(
            alt.diagnostics[key]
            for key in ("n_imag_violations", "n_range_violations", "n_gap_violations")
        )
        _check(violations == 0, f"roots: {violations} criterion-6 violations")
        _check(len(csv.splitlines()) == n + k_max + 2, "roots: CSV row count differs from the reports")
        roots = _sorted_roots([complex(r["root_re"], r["root_im"]) for r in alt.rows])
        _check(roots.size == n, f"roots: {roots.size} althammer roots, expected {n}")
        worst = float(np.max(np.abs(roots - ref_alt))) / scale_alt
        _check(len(lag.rows) == k_max, f"roots: {len(lag.rows)} laguerre rows, expected {k_max}")
        for row, ref, scale in zip(lag.rows, ref_lag, scale_lag):
            root = complex(row["smallest_root_re"], row["smallest_root_im"])
            worst = max(worst, abs(root - ref) / scale)
        _check(worst <= 1e-9, f"roots: error {worst:.3e} relative to ||H|| > 1e-9")
        return worst

    return Prepared(
        steps=lambda i: [althammer, laguerre],
        gate=gate,
        shape={"althammer": {"n": n, "n_quad": n_quad_a, "gamma": gamma_a, "dimension": Za.m},
               "laguerre": {"n_quad": n_quad_l, "k_max": k_max, "gamma": gamma_l, "alpha": alpha,
                            "dimension": Zl.m}},
        reference={"althammer_H_norm": scale_alt, "laguerre_H_norm": scale_lag[-1]},
        layers=("quadrature", "spectral", "hiep", "eigen", "experiments"),
        counters=("hiep.arnoldi_steps", "eigen.dim_sum"),
    )


def sample_instance(rng, m_target: int, max_block: int = 4):
    """Random valid (Z, w) of dimension >= m_target: block sizes 1..max_block,
    nodes in [-2,2]x[-1,1]i at least 0.15 apart, scalings and weights of
    modulus in [0.5, 1.5] with uniform phases.  Given m_target this is the
    distribution of the package's random spectral data, drawn here so that
    no program change can change the inputs."""
    blocks, betas, nodes = [], [], []
    dim = 0
    while dim < m_target:
        size = int(rng.integers(1, min(max_block, m_target - dim) + 1))
        while True:
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
            if all(abs(z - other) > 0.15 for other in nodes):
                break
        alphas = rng.uniform(0.5, 1.5, size - 1) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size - 1))
        nodes.append(z)
        blocks.append(sobolev.JordanBlockSpec(z, alphas))
        betas.append(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()))
        dim += size
    return sobolev.JordanOperator(tuple(blocks)), sobolev.WeightVector(np.asarray(betas))


def prepare_compare(seed: int) -> Prepared:
    """A pool of random complex instances (dimension <= 40, Jordan blocks
    of size 1..4); one op solves the next instance by all three methods.

    The package draws the target dimension uniformly from 2..40.  Here
    every target appears COMPARE_PER_DIM times, in seeded order, so that
    the op-time distribution does not move with the seed's dimension mix.
    """
    rng = np.random.default_rng(seed)
    targets = rng.permutation(np.repeat(np.arange(2, COMPARE_MAX_M + 1), COMPARE_PER_DIM))
    pool = [sample_instance(rng, int(m)) for m in targets]
    refs = [sobolev.arnoldi(Z, w, Z.m).H for Z, w in pool]

    def op(i):
        Z, w = pool[i % len(pool)]
        return [
            sobolev.arnoldi(Z, w, Z.m).H,
            sobolev.update_solve(Z, w, strategy="householder")[0],
            sobolev.update_solve(Z, w, strategy="rotations")[0],
        ]

    def gate(i, out):
        i %= len(pool)
        return _gate_solver_agreement(out[0], refs[i], f"compare instance {i}")

    for i in range(3):
        op(i)
    dims = [Z.m for Z, _ in pool]
    sizes = [b.size for Z, _ in pool for b in Z.blocks]
    return Prepared(
        steps=lambda i: [lambda: op(i)],
        gate=gate,
        shape={"instances": len(pool), "per_dimension": COMPARE_PER_DIM, "dimension_min": min(dims),
               "dimension_median": float(np.median(dims)), "dimension_max": max(dims),
               "blocks": len(sizes), "block_size_max": max(sizes)},
        reference={"arnoldi_H_norm_median": float(np.median([np.linalg.norm(H) for H in refs]))},
        layers=("spectral", "hiep"),
        counters=("hiep.restore_steps", "hiep.arnoldi_steps", "spectral.matvec_calls"),
    )


PREPARE = {
    "solve": prepare_solve,
    "lsq": prepare_lsq,
    "roots": prepare_roots,
    "compare": prepare_compare,
}
