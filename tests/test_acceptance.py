"""End-to-end acceptance gate.

Each test covers one numbered criterion; every run records a one-line
pass/fail summary that conftest prints after the test session, so the
status of all criteria is visible in one block.
"""

import math
import time

import numpy as np
import pytest
from conftest import log_criterion

from sobolev import (
    PolyCoeffs,
    arnoldi,
    build_same_measure,
    gauss_radau_right,
    golub_welsch,
    inner_product_direct,
    laguerre_jacobi,
    legendre_jacobi,
    pentadiagonal_recurrence,
    spec_of,
    update_solve,
)
from sobolev.hiep import SOLVER_NAMES
from sobolev.experiments import (
    _fit_errors,
    cmd_althammer_roots,
    cmd_compare_solvers,
    cmd_laguerre_roots,
    cmd_least_squares,
    cmd_penta,
    random_spectral_data,
)

# reference smallest roots, k = 1..10, for the two standard
# configurations of the Laguerre-type product with a derivative term
ROOTS_GAMMA_1_ALPHA_HALF = [
    0.5,
    0.0515973733627619,
    -0.0709467328567679,
    -0.0874916640141535,
    -0.0799899984977785,
    -0.0689833230536414,
    -0.059147588995331,
    -0.0512004191713639,
    -0.0449179698365336,
    -0.0399294766753265,
]
ROOTS_GAMMA_02_ALPHA_09 = [
    0.1,
    -0.0261349584030074,
    -0.0750911669982843,
    -0.0830880010863875,
    -0.0777522363825043,
    -0.0694388792472855,
    -0.0612413492735963,
    -0.0539763658835064,
    -0.047763992052076,
    -0.042517319218519,
]


def check(num, name, ok, detail):
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    log_criterion(line)
    assert ok, line


def root_errors(gamma, alpha, expected):
    worst_re = 0.0
    worst_im = 0.0
    for solver in SOLVER_NAMES:
        report, _ = cmd_laguerre_roots(
            gamma=gamma, alpha=alpha, n_quad=10, k_max=10, solver=solver
        )
        for row, ref in zip(report.rows, expected):
            worst_re = max(worst_re, abs(row["smallest_root_re"] - ref))
            worst_im = max(worst_im, abs(row["smallest_root_im"]))
    return worst_re, worst_im


class TestAcceptance:
    def test_01_smallest_roots_gamma_one(self):
        start = time.perf_counter()
        worst_re, worst_im = root_errors(1.0, -0.5, ROOTS_GAMMA_1_ALPHA_HALF)
        elapsed = time.perf_counter() - start
        ok = worst_re <= 1e-9 and worst_im <= 1e-9 and elapsed < 1.0
        check(
            1,
            "smallest roots, gamma=1, alpha=-1/2",
            ok,
            f"max err {worst_re:.2e}, {elapsed:.2f} s, all solvers",
        )

    def test_02_smallest_roots_gamma_fifth(self):
        worst_re, worst_im = root_errors(0.2, -0.9, ROOTS_GAMMA_02_ALPHA_09)
        ok = worst_re <= 1e-9 and worst_im <= 1e-9
        check(
            2,
            "smallest roots, gamma=0.2, alpha=-0.9",
            ok,
            f"max err {worst_re:.2e}, all solvers",
        )

    def test_03_cross_solver_agreement(self):
        start = time.perf_counter()
        report, _ = cmd_compare_solvers(count=100, max_m=40, seed=20260826)
        elapsed = time.perf_counter() - start
        worst = max(
            report.diagnostics["max_rel_diff_update_hh"],
            report.diagnostics["max_rel_diff_update_rot"],
        )
        ok = worst <= 1e-11 and elapsed < 30.0
        check(
            3,
            "cross-solver agreement, 100 runs",
            ok,
            f"max rel diff {worst:.2e}, {elapsed:.2f} s",
        )

    def test_04_inner_product_identity(self):
        # Euclidean product of q(Z)w and p(Z)w against the direct
        # derivative-sum evaluation of the Sobolev product
        start = time.perf_counter()
        rng = np.random.default_rng(414)
        worst = 0.0
        for _ in range(200):
            Z, w = random_spectral_data(rng, max_m=12)
            Zd, wd = Z.dense(), w.dense(Z)
            spec = spec_of(Z, w)
            deg = int(rng.integers(0, Z.m))
            p = PolyCoeffs(
                rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            )
            q = PolyCoeffs(
                rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            )
            x = np.zeros(Z.m, dtype=complex)
            y = np.zeros(Z.m, dtype=complex)
            for c in p.coeffs[::-1]:
                x = Zd @ x + c * wd
            for c in q.coeffs[::-1]:
                y = Zd @ y + c * wd
            direct = inner_product_direct(p, q, spec)
            scale = max(np.linalg.norm(x) * np.linalg.norm(y), 1e-30)
            worst = max(worst, abs(np.vdot(y, x) - direct) / scale)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-11 and elapsed < 10.0
        check(
            4,
            "inner-product identity, 200 runs",
            ok,
            f"max rel err {worst:.2e}, {elapsed:.2f} s",
        )

    def test_05_solver_contract(self):
        rng = np.random.default_rng(515)
        worst_orth = worst_sim = worst_first = 0.0
        min_subdiag = math.inf
        for _ in range(25):
            Z, w = random_spectral_data(rng, max_m=40)
            wd = w.dense(Z) / w.norm()
            Zd = Z.dense()
            solutions = [
                update_solve(Z, w, strategy="rotations"),
                update_solve(Z, w, strategy="householder"),
            ]
            res = arnoldi(Z, w, Z.m)
            solutions.append((res.H, res.Q))
            for H, Q in solutions:
                worst_orth = max(
                    worst_orth,
                    np.linalg.norm(Q.conj().T @ Q - np.eye(Z.m)) / (1e-12 * Z.m),
                )
                worst_sim = max(
                    worst_sim,
                    np.linalg.norm(Q.conj().T @ Zd @ Q - H)
                    / (1e-11 * Z.frobenius_norm()),
                )
                worst_first = max(
                    worst_first, np.linalg.norm(Q[:, 0] - wd) / 1e-13
                )
                sub = np.diagonal(H, -1)
                assert np.all(sub.imag == 0.0)
                if sub.size:
                    min_subdiag = min(min_subdiag, float(np.min(sub.real)))
        ok = (
            worst_orth <= 1.0
            and worst_sim <= 1.0
            and worst_first <= 1.0
            and min_subdiag >= 0.0
        )
        check(
            5,
            "solver contract, 25 runs x 3 solvers",
            ok,
            "worst tolerance fractions: orth {:.1e}, sim {:.1e}, "
            "first col {:.1e}".format(worst_orth, worst_sim, worst_first),
        )

    def test_06_root_locations_qualitative(self):
        start = time.perf_counter()
        violations = 0
        for solver in SOLVER_NAMES:
            report, _ = cmd_althammer_roots(
                n=60, gamma=100.0, n_quad=60, solver=solver
            )
            violations += report.diagnostics["n_imag_violations"]
            violations += report.diagnostics["n_range_violations"]
            violations += report.diagnostics["n_gap_violations"]
        elapsed = time.perf_counter() - start
        ok = violations == 0 and elapsed < 5.0
        check(
            6,
            "degree-60 roots simple/real/in range",
            ok,
            f"{violations} violations, {elapsed:.2f} s, all solvers",
        )

    def test_07_five_term_recurrence(self):
        worst_offband = 0.0
        worst_cross = 0.0
        for solver in ("update-rot", "update-hh"):
            report, _ = cmd_penta(m=5, alpha=0.0, c=-1.0, M=1.0, N=1.0, solver=solver)
            worst_offband = max(worst_offband, report.diagnostics["offband_rel"])
            worst_cross = max(worst_cross, report.diagnostics["cross_solver_rel"])
        ok = worst_offband <= 1e-9 and worst_cross <= 1e-12
        check(
            7,
            "five-term recurrence structure",
            ok,
            f"off-band {worst_offband:.2e}, cross-solver {worst_cross:.2e}",
        )

    def test_08_least_squares_error_curves(self, legendre_references):
        start = time.perf_counter()
        report, _ = cmd_least_squares(gamma=0.01, m=201)
        elapsed = time.perf_counter() - start
        dominance_ok = True
        for row in report.rows:
            if row["degree"] >= 51:
                dominance_ok &= (
                    row["deriv_error_sobolev"] <= row["deriv_error_plain"]
                )
        # the same fits from the long-double H of both products; each
        # reference curve falls to a rounding floor (~1.3e-15), and the
        # degrees where both stay above ten times it are resolved
        rule = golub_welsch(legendre_jacobi(201))
        ref_plain = _fit_errors(
            legendre_references["plain"].astype(complex),
            build_same_measure(rule, [1.0])[1].norm(), rule, 0.0,
            [row["effective_degree_plain"] for row in report.rows], 2001, "plain",
        )
        ref_sobolev = _fit_errors(
            legendre_references["sobolev"].astype(complex),
            build_same_measure(rule, [1.0, 0.01])[1].norm(), rule, 0.01,
            [row["degree"] for row in report.rows], 2001, "sobolev",
        )
        vp = np.array([row["value_error_plain"] for row in report.rows])
        vs = np.array([row["value_error_sobolev"] for row in report.rows])
        ep = np.array([e["value_error_plain"] for e in ref_plain])
        es = np.array([e["value_error_sobolev"] for e in ref_sobolev])
        floor_p, floor_s = ep.min(), es.min()
        resolved = (ep > 10 * floor_p) & (es > 10 * floor_s)
        # on the resolved degrees the value curves track each other: the
        # reference ratio peaks at 5.49 (degree 111), so the bound is 6;
        # past them the ratio compares rounding noise and is not bounded
        worst_ratio = float(np.max(np.maximum(vp, vs) / np.minimum(vp, vs), where=resolved,
                                   initial=0.0))
        ratio_ok = resolved.any() and worst_ratio <= 6.0
        # each value curve stays near the reference curve plus its floor
        excess_p = float(np.max(vp / (ep + floor_p)))
        excess_s = float(np.max(vs / (es + floor_s)))
        curves_ok = excess_p <= 12.0 and excess_s <= 2.0
        plateau = max(vp[-1], vs[-1])
        plateau_ok = plateau <= 1e-13
        ok = dominance_ok and ratio_ok and curves_ok and plateau_ok and elapsed < 60.0
        check(
            8,
            "least-squares error curves",
            ok,
            f"deriv dominance {dominance_ok}, value ratio {worst_ratio:.2f} on "
            f"{int(resolved.sum())} resolved degrees, curve excess {excess_p:.2f} / "
            f"{excess_s:.2f}, plateau {plateau:.1e}, {elapsed:.1f} s",
        )

    def test_09_quadrature_exactness(self):
        worst = 0.0
        for n in range(1, 101):
            rule = golub_welsch(legendre_jacobi(n))
            radau = gauss_radau_right(n - 1)
            for d in range(2 * n):
                moment = 0.0 if d % 2 else 2.0 / (d + 1)
                scale = max(abs(moment), 1.0)
                worst = max(
                    worst, abs(rule.integrate(rule.nodes**d) - moment) / scale
                )
                if d <= 2 * (n - 1):
                    worst = max(
                        worst,
                        abs(radau.integrate(radau.nodes**d) - moment) / scale,
                    )
            for alpha in (0.0, -0.5):
                lag = golub_welsch(laguerre_jacobi(n, alpha))
                moment0 = math.exp(math.lgamma(alpha + 1.0))
                for d in range(2 * n):
                    if d == 0:
                        got = lag.integrate(np.ones(n))
                    else:
                        s = math.exp(
                            (math.lgamma(d + alpha + 1.0) - math.lgamma(alpha + 1.0))
                            / d
                        )
                        got = lag.integrate((lag.nodes / s) ** d)
                    worst = max(worst, abs(got - moment0) / moment0)
        ok = worst <= 1e-12
        check(
            9,
            "quadrature exactness, n=1..100",
            ok,
            f"max rel err {worst:.2e}",
        )

    def test_10_classical_degeneration(self):
        # with no derivative term the recurrence matrix must collapse to
        # the classical symmetric tridiagonal one
        rule = golub_welsch(legendre_jacobi(8))
        Z, w = build_same_measure(rule, [1.0])
        H = arnoldi(Z, w, 8).H
        jac = legendre_jacobi(8)
        worst = max(
            float(np.max(np.abs(H.imag))),
            float(np.max(np.abs(H - H.T))),
            float(np.max(np.abs(np.diag(H.real) - jac.diag))),
            float(np.max(np.abs(np.diag(H.real, -1) - jac.offdiag))),
            float(np.max(np.abs(np.triu(H, 2)))),
        )
        ok = worst <= 1e-12
        check(
            10,
            "classical tridiagonal degeneration",
            ok,
            f"max deviation {worst:.2e}",
        )
