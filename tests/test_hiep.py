"""Tests for the two inverse-problem solvers and their transform kernels."""

import numpy as np
import pytest
from conftest import gentle_jordan
from numpy.testing import assert_allclose

from sobolev import (
    Householder,
    JordanBlockSpec,
    JordanOperator,
    NumericalFailure,
    PlaneRotation,
    WeightVector,
    arnoldi,
    build_same_measure,
    coefficients,
    golub_welsch,
    hessenberg_defect,
    laguerre_jacobi,
    legendre_jacobi,
    solve_hessenberg,
    update_solve,
)
from sobolev import hiep
from sobolev.experiments import random_spectral_data


def legendre_instance(m=12, gamma=0.01):
    """Real same-measure Legendre data with one derivative term (2x2 blocks)."""
    return build_same_measure(golub_welsch(legendre_jacobi(m)), [1.0, gamma])


def check_contract(Z, w, H, Q):
    m = Z.m
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(m)) <= 1e-12 * m
    assert (
        np.linalg.norm(Q.conj().T @ Z.dense() @ Q - H)
        <= 1e-11 * Z.frobenius_norm()
    )
    assert np.linalg.norm(Q[:, 0] - w.dense(Z) / w.norm()) <= 1e-13
    sub = np.diagonal(H, -1)
    assert np.all(sub.imag == 0.0)
    assert np.all(sub.real >= 0.0)


class TestArnoldi:
    def test_scalar_case(self):
        Z = JordanOperator((JordanBlockSpec(2.0, []),))
        res = arnoldi(Z, WeightVector([3.0]), 1)
        assert_allclose(res.Q, [[1.0]])
        assert_allclose(res.H, [[2.0]])
        assert res.h_next == 0.0
        assert res.q_next is None

    def test_single_jordan_block(self):
        Z = JordanOperator((JordanBlockSpec(0.0, [1.0]),))
        res = arnoldi(Z, WeightVector([1.0]), 2)
        assert_allclose(res.Q, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        assert_allclose(res.H, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)
        assert res.h_next <= 1e-13 * Z.frobenius_norm()

    def test_rejects_bad_column_counts(self):
        Z = JordanOperator((JordanBlockSpec(0.0, [1.0]),))
        w = WeightVector([1.0])
        with pytest.raises(ValueError):
            arnoldi(Z, w, 0)
        with pytest.raises(ValueError):
            arnoldi(Z, w, 3)

    def test_partial_run_reports_next_vector(self):
        Z, w = random_spectral_data(np.random.default_rng(1), max_m=10)
        k = Z.m - 1
        res = arnoldi(Z, w, k)
        assert res.H.shape == (k, k)
        assert res.h_next > 0
        assert res.q_next is not None
        # residual identity Z Q = Q H + h_next q_next e_k^T
        lhs = Z.dense() @ res.Q
        rhs = res.Q @ res.H
        rhs[:, -1] += res.h_next * res.q_next
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * Z.frobenius_norm()

    def test_trace_events(self):
        events = []
        Z, w = random_spectral_data(np.random.default_rng(2), max_m=8)
        arnoldi(Z, w, Z.m, trace=events.append)
        assert len(events) == Z.m
        assert all(e["event"] == "arnoldi-step" for e in events)
        assert [e["column"] for e in events] == list(range(1, Z.m + 1))


class TestPlaneRotation:
    def test_identity_parameters(self):
        rot = PlaneRotation(1.0, 0.0, 0, 1, 2)
        assert_allclose(rot.matrix(), np.eye(2))

    def test_swap_with_sign(self):
        # kernel [[0, -1], [1, 0]] sends e_1 to e_2
        rot = PlaneRotation(0.0, 1.0, 0, 1, 2)
        assert_allclose(rot.matrix() @ [1.0, 0.0], [0.0, 1.0])

    def test_annihilation(self):
        rot = PlaneRotation.annihilating(3.0, 4.0, 0, 1, 2)
        out = rot.matrix() @ [3.0, 4.0]
        assert_allclose(out, [5.0, 0.0], atol=1e-15)

    def test_annihilation_of_zero_pair_is_identity(self):
        rot = PlaneRotation.annihilating(0.0, 0.0, 0, 1, 3)
        assert_allclose(rot.matrix(), np.eye(3))

    def test_complex_annihilation_gives_real_result(self):
        f, g = 1.0 - 2.0j, -0.5 + 0.3j
        rot = PlaneRotation.annihilating(f, g, 0, 1, 2)
        out = rot.matrix() @ [f, g]
        assert out[0].imag == pytest.approx(0.0, abs=1e-15)
        assert out[0].real == pytest.approx(np.hypot(abs(f), abs(g)))
        assert abs(out[1]) <= 1e-15

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            PlaneRotation(1.0, 1.0, 0, 1, 2)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            PlaneRotation(1.0, 0.0, 0, 0, 2)
        with pytest.raises(ValueError):
            PlaneRotation(1.0, 0.0, 0, 2, 2)

    def test_adjoint_inverts(self):
        rot = PlaneRotation.annihilating(1.0 + 1.0j, 2.0 - 0.5j, 1, 3, 4)
        assert_allclose(
            rot.adjoint().matrix() @ rot.matrix(), np.eye(4), atol=1e-15
        )

    def test_apply_matches_materialized_matrix(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rot = PlaneRotation.annihilating(0.3 - 1.0j, 0.7 + 0.2j, 0, 2, 4)
        assert_allclose(rot.apply_left(A), rot.matrix() @ A, atol=1e-14)
        assert_allclose(rot.apply_right(A), A @ rot.matrix(), atol=1e-14)


class TestHouseholder:
    def test_unit_vector_reflects_to_minus_itself(self):
        refl = Householder.from_vector([1.0, 0.0, 0.0])
        assert_allclose(refl.matrix() @ [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], atol=1e-15)

    def test_real_pair(self):
        refl = Householder.from_vector([3.0, 4.0])
        assert_allclose(refl.matrix() @ [3.0, 4.0], [-5.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_reflection_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        refl = Householder.from_vector(c)
        out = refl.matrix() @ c
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(c), rel=1e-14)
        assert np.max(np.abs(out[1:])) <= 1e-14 * np.linalg.norm(c)
        # unitary and an involution
        R = refl.matrix()
        assert_allclose(R @ R, np.eye(n), atol=1e-14)

    def test_apply_matches_materialized_matrix(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        refl = Householder.from_vector(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        assert_allclose(refl.apply_left(A), refl.matrix() @ A, atol=1e-13)
        assert_allclose(refl.apply_right(A), A @ refl.matrix(), atol=1e-13)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            Householder.from_vector([0.0, 0.0])


class TestEliminationKernels:
    """The updating loop builds its kernels as small arrays; they must equal
    the rotation chain and the reflector of the public classes."""

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_rotation_chain(self, r):
        rng = np.random.default_rng(r)
        c = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        expected = np.eye(r, dtype=complex)
        v = c.copy()
        for idx in range(r - 1, 0, -1):
            rot = PlaneRotation.annihilating(v[idx - 1], v[idx], idx - 1, idx, r)
            v = rot.apply_left(v.reshape(-1, 1)).ravel()
            expected = rot.apply_left(expected)
        K = np.array(hiep._rotation_kernel(c.tolist()))
        assert_allclose(K, expected, atol=1e-15)
        assert_allclose(K @ c, [np.linalg.norm(c)] + [0.0] * (r - 1), atol=1e-14)

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_reflector(self, r):
        rng = np.random.default_rng(10 + r)
        c = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        c[0] = 0.0 if r == 5 else c[0]
        K = np.array(hiep._reflector_kernel(c.tolist()))
        assert_allclose(K, Householder.from_vector(c).matrix(), atol=1e-15)


class TestUpdateSolve:
    def test_single_real_block(self):
        # one block needs no restoration: H bidiagonal, Q the flip matrix
        Z = JordanOperator((JordanBlockSpec(0.5, [2.0, 3.0]),))
        H, Q = update_solve(Z, WeightVector([1.0]))
        expected_H = [[0.5, 0, 0], [2.0, 0.5, 0], [0, 3.0, 0.5]]
        assert_allclose(H, expected_H, atol=1e-15)
        assert_allclose(Q, np.fliplr(np.eye(3)), atol=1e-15)

    def test_single_complex_block(self):
        Z = JordanOperator((JordanBlockSpec(1.0 + 0.5j, [0.8j]),))
        w = WeightVector([1.0])
        H, Q = update_solve(Z, w)
        assert H[1, 0] == pytest.approx(0.8)
        check_contract(Z, w, H, Q)

    def test_two_point_measure(self):
        Z = JordanOperator((JordanBlockSpec(0.0, []), JordanBlockSpec(1.0, [])))
        w = WeightVector([1.0, 1.0])
        H, Q = update_solve(Z, w)
        assert_allclose(H, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)
        check_contract(Z, w, H, Q)

    def test_rejects_unknown_strategy(self):
        Z = JordanOperator((JordanBlockSpec(0.0, []),))
        with pytest.raises(ValueError):
            update_solve(Z, WeightVector([1.0]), strategy="cayley")

    def test_rejects_weight_count_mismatch(self):
        Z = JordanOperator((JordanBlockSpec(0.0, []),))
        with pytest.raises(ValueError):
            update_solve(Z, WeightVector([1.0, 2.0]))

    def test_trace_events(self):
        events = []
        Z, w = random_spectral_data(np.random.default_rng(3), max_m=10)
        update_solve(Z, w, trace=events.append)
        assert events
        assert all(e["event"] == "update-restore" for e in events)
        assert all(e["residual"] <= 1e-10 * Z.frobenius_norm() for e in events)

    def test_bulge_window_covers_every_column(self):
        # merging a 2x2 block onto dimension d_prev restores columns
        # 1..d-2, each with a kernel of at most block size + 1 rows
        Z, w = legendre_instance(m=8)
        events = []
        update_solve(Z, w, trace=events.append)
        assert len(events) == sum(d - 2 for d in range(4, Z.m + 1, 2))
        assert {e["eliminated"] for e in events} <= {1, 2}

    def test_residual_check_raises(self, monkeypatch):
        # a kernel that eliminates nothing must trip the per-column check
        monkeypatch.setitem(
            hiep._KERNELS, "rotations", lambda c: np.eye(len(c)).tolist()
        )
        Z, w = random_spectral_data(np.random.default_rng(4), max_m=10)
        with pytest.raises(NumericalFailure, match="residual"):
            update_solve(Z, w)


class TestSolverContract:
    @pytest.mark.parametrize("strategy", ["rotations", "householder"])
    @pytest.mark.parametrize("seed", range(5))
    def test_update(self, strategy, seed):
        Z, w = random_spectral_data(np.random.default_rng(seed), max_m=40)
        H, Q = update_solve(Z, w, strategy=strategy)
        check_contract(Z, w, H, Q)

    @pytest.mark.parametrize("strategy", ["rotations", "householder"])
    def test_update_real_same_measure(self, strategy):
        Z, w = legendre_instance()
        H, Q = update_solve(Z, w, strategy=strategy)
        assert H.dtype == Q.dtype == np.complex128
        check_contract(Z, w, H, Q)

    @pytest.mark.parametrize("seed", range(5))
    def test_arnoldi(self, seed):
        Z, w = random_spectral_data(np.random.default_rng(seed), max_m=40)
        res = arnoldi(Z, w, Z.m)
        check_contract(Z, w, res.H, res.Q)


class TestCrossMethod:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_solvers_agree(self, seed):
        Z, w = random_spectral_data(np.random.default_rng(100 + seed), max_m=40)
        H_arn = arnoldi(Z, w, Z.m).H
        scale = np.linalg.norm(H_arn)
        H_rot, _ = update_solve(Z, w, strategy="rotations")
        H_hh, _ = update_solve(Z, w, strategy="householder")
        assert np.linalg.norm(H_rot - H_arn) <= 1e-11 * scale
        assert np.linalg.norm(H_hh - H_arn) <= 1e-11 * scale


class TestPhaseInvariance:
    """H depends on w only up to a unimodular factor: w -> e^{i theta} w."""

    @pytest.mark.parametrize("method", ["arnoldi", "update-hh", "update-rot"])
    def test_real_instance_rotated_weights(self, method):
        Z, w = legendre_instance()
        turned = WeightVector(np.exp(0.7j) * w.betas)
        H = solve_hessenberg(Z, w, Z.m, method=method)
        Ht = solve_hessenberg(Z, turned, Z.m, method=method)
        assert np.linalg.norm(Ht - H) <= 1e-11 * np.linalg.norm(H)


class TestBreakdownIndex:
    def test_breakdown_exactly_at_full_dimension(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            Z, w = random_spectral_data(rng, max_m=30)
            res = arnoldi(Z, w, Z.m)
            tol = 1e-13 * Z.frobenius_norm()
            # full square factor: no truncation before m ...
            assert res.H.shape == (Z.m, Z.m)
            subdiag = np.diagonal(res.H, -1).real
            if subdiag.size:
                assert np.min(subdiag) > tol
            # ... and an exact invariant subspace at m
            assert res.h_next <= tol


class TestColumnPolynomialCorrespondence:
    """Column j+1 of Q is p_j(Z) w normalized, with p_j read off H."""

    def test_against_dense_horner(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(30):
            Z, w = gentle_jordan(rng)
            res = arnoldi(Z, w, Z.m)
            Hu, Qu = update_solve(Z, w)
            polys = coefficients(res.H, w.norm(), Z.m - 1)
            Zd, wd = Z.dense(), w.dense(Z)
            eye = np.eye(Z.m)
            for j, p in enumerate(polys):
                col = np.zeros((Z.m, Z.m), dtype=complex)
                for ck in p.coeffs[::-1]:
                    col = Zd @ col + ck * eye
                col = col @ wd
                worst = max(worst, np.max(np.abs(res.Q[:, j] - col)))
                worst = max(worst, np.max(np.abs(Qu[:, j] - col)))
        assert worst <= 1e-10


class TestSolveHessenberg:
    def test_truncation_matches_full_solution(self):
        for Z, w in (
            random_spectral_data(np.random.default_rng(42), max_m=20),
            legendre_instance(),
        ):
            k = Z.m // 2
            full, _ = update_solve(Z, w)
            for method in ("arnoldi", "update-hh", "update-rot"):
                Hk = solve_hessenberg(Z, w, k, method=method)
                assert Hk.shape == (k, k)
                assert np.linalg.norm(Hk - full[:k, :k]) <= 1e-11 * np.linalg.norm(full)

    @pytest.mark.parametrize(
        "method, strategy", [("update-hh", "householder"), ("update-rot", "rotations")]
    )
    def test_q_and_no_q_paths_share_arithmetic(self, method, strategy):
        for Z, w in (
            random_spectral_data(np.random.default_rng(7), max_m=30),
            legendre_instance(),
        ):
            H, _ = update_solve(Z, w, strategy=strategy)
            assert np.array_equal(H, solve_hessenberg(Z, w, Z.m, method=method))

    def test_rejects_unknown_method(self):
        Z = JordanOperator((JordanBlockSpec(0.0, []),))
        with pytest.raises(ValueError):
            solve_hessenberg(Z, WeightVector([1.0]), 1, method="lanczos")

    def test_arnoldi_breakdown_before_k_raises(self):
        # a derivative weight of 1e300 makes the breakdown tolerance
        # 1e-13 * ||Z||_F swallow the residual of the second column
        Z, w = build_same_measure(golub_welsch(laguerre_jacobi(10, -0.5)), [1.0, 1e300])
        assert arnoldi(Z, w, 10).H.shape == (2, 2)
        with pytest.raises(NumericalFailure, match="broke down") as exc:
            solve_hessenberg(Z, w, 10, method="arnoldi")
        assert exc.value.details == {"column": 2, "k": 10}


class TestHessenbergDefect:
    def test_counts_only_below_first_subdiagonal(self):
        A = np.zeros((4, 4))
        A[1, 0] = 9.0
        A[3, 1] = 0.25
        A[2, 0] = 0.125
        assert hessenberg_defect(A) == 0.25

    def test_zero_for_hessenberg(self):
        A = np.triu(np.ones((5, 5)), -1)
        assert hessenberg_defect(A) == 0.0

    def test_rectangular(self):
        tall = np.triu(np.ones((6, 3)), -1)
        tall[5, 2] = -0.5
        assert hessenberg_defect(tall) == 0.5
        wide = np.triu(np.ones((3, 6), dtype=complex), -1)
        assert hessenberg_defect(wide) == 0.0
        wide[2, 0] = 2.0j
        assert hessenberg_defect(wide) == 2.0

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (1, 4), (4, 1), (5, 3), (3, 5), (6, 6)])
    def test_matches_columnwise_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = 0.0
        for i in range(A.shape[1]):
            if i + 2 < A.shape[0]:
                expected = max(expected, float(np.max(np.abs(A[i + 2 :, i]))))
        assert hessenberg_defect(A) == expected
