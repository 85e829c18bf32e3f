"""Tests for the Hessenberg eigenvalue solver."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sobolev import (
    NumericalFailure,
    build_same_measure,
    golub_welsch,
    hessenberg_eigenvalues,
    laguerre_jacobi,
    legendre_jacobi,
    smallest_root,
    smallest_roots,
    solve_hessenberg,
)


def random_hessenberg(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.triu(A, -1)


def sort_key(vals):
    return np.asarray(sorted(vals, key=lambda z: (z.real, z.imag)))


def char_poly_at(H, lam):
    """det(lam I - H_j) by the Hessenberg leading-minor recursion."""
    n = H.shape[0]
    d = [1.0 + 0.0j, lam - H[0, 0]]
    for j in range(2, n + 1):
        val = (lam - H[j - 1, j - 1]) * d[j - 1]
        prod = 1.0 + 0.0j
        for i in range(j - 2, -1, -1):
            prod *= H[i + 1, i]
            val -= H[i, j - 1] * prod * d[i]
        d.append(val)
    return d[n]


class TestHessenbergEigenvalues:
    def test_nilpotent_block(self):
        vals = hessenberg_eigenvalues([[0.0, 0.0], [1.0, 0.0]])
        assert_allclose(vals, [0.0, 0.0], atol=1e-15)

    def test_upper_triangular(self):
        H = np.triu(np.arange(16.0).reshape(4, 4)) + np.eye(4)
        got = hessenberg_eigenvalues(H)
        assert_allclose(got, sort_key(np.diag(H)), atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hessenberg_eigenvalues(np.zeros((3, 2)))

    def test_rejects_non_hessenberg(self):
        A = np.ones((4, 4))
        with pytest.raises(ValueError):
            hessenberg_eigenvalues(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite(self, bad):
        H = random_hessenberg(np.random.default_rng(3), 4)
        H[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            hessenberg_eigenvalues(H)

    def test_lapack_failure_becomes_numerical_failure(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        with pytest.raises(NumericalFailure) as exc:
            hessenberg_eigenvalues(np.eye(3))
        assert exc.value.details == {"n": 3}
        assert "did not converge" in str(exc.value)

    @pytest.mark.parametrize("gamma", [1e-2, 1.0, 1e8])
    def test_backward_error_on_sobolev_section(self, gamma):
        # each eigenvalue is exact for some H + E with ||E|| <= 10 n eps ||H||
        rule = golub_welsch(legendre_jacobi(30))
        Z, w = build_same_measure(rule, [1.0, gamma])
        n = 40
        H = solve_hessenberg(Z, w, n, method="arnoldi")[:n, :n]
        bound = 10 * n * np.finfo(float).eps * np.linalg.norm(H, 2)
        for lam in hessenberg_eigenvalues(H):
            sigma_min = np.linalg.svd(H - lam * np.eye(n), compute_uv=False)[-1]
            assert sigma_min <= bound

    def test_table_configuration_second_degree(self):
        rule = golub_welsch(laguerre_jacobi(10, -0.5))
        Z, w = build_same_measure(rule, [1.0, 1.0])
        H = solve_hessenberg(Z, w, 2)
        root = smallest_root(H, 2)
        assert root.real == pytest.approx(0.0515973733627619, abs=1e-10)
        assert abs(root.imag) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34])
    def test_against_reference_eigensolver(self, n):
        rng = np.random.default_rng(n)
        H = random_hessenberg(rng, n)
        got = hessenberg_eigenvalues(H)
        ref = sort_key(np.linalg.eigvals(H))
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.linalg.norm(H)

    @pytest.mark.parametrize("seed", range(4))
    def test_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 15))
        H = random_hessenberg(rng, n)
        D = np.diag(np.exp(2j * np.pi * rng.uniform(size=n)))
        got = hessenberg_eigenvalues(D.conj().T @ H @ D)
        ref = hessenberg_eigenvalues(H)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.linalg.norm(H), 1.0)

    @pytest.mark.parametrize("n", [2, 5, 12, 30])
    def test_trace_and_determinant(self, n):
        rng = np.random.default_rng(77 + n)
        H = random_hessenberg(rng, n)
        vals = hessenberg_eigenvalues(H)
        assert np.sum(vals) == pytest.approx(np.trace(H), rel=1e-11)
        assert np.prod(vals) == pytest.approx(np.linalg.det(H), rel=1e-9)

    def test_diagonal_operator_round_trip(self):
        # all blocks 1x1: the recurrence matrix must reproduce the nodes
        rule = golub_welsch(legendre_jacobi(10))
        Z, w = build_same_measure(rule, [1.0])
        H = solve_hessenberg(Z, w, Z.m, method="arnoldi")
        got = hessenberg_eigenvalues(H)
        assert np.max(np.abs(got - rule.nodes)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_characteristic_polynomial_residual(self, n):
        rng = np.random.default_rng(n * 11)
        H = random_hessenberg(rng, n)
        scale = np.linalg.norm(H) ** n
        for lam in hessenberg_eigenvalues(H):
            assert abs(char_poly_at(H, lam)) <= 1e-9 * scale


class TestArithmetic:
    """A float64 H reaches LAPACK's real path (dgeev), a complex-typed H the
    complex one (zgeev), on the degree-60 Althammer section."""

    @pytest.fixture(scope="class")
    def section(self):
        Z, w = build_same_measure(golub_welsch(legendre_jacobi(60)), [1.0, 100.0])
        return solve_hessenberg(Z, w, 60, method="arnoldi")

    @staticmethod
    def lapack(H):
        vals = np.linalg.eigvals(H).astype(complex)
        return vals[np.lexsort((vals.imag, vals.real))]

    def test_real_h_is_bitwise_real_lapack(self, section):
        assert section.dtype == np.float64
        got = hessenberg_eigenvalues(section)
        assert np.array_equal(got, self.lapack(section))
        assert not got.imag.any()

    def test_complex_typed_h_takes_the_complex_path(self, section):
        H = section.astype(complex)
        got = hessenberg_eigenvalues(H)
        assert np.array_equal(got, self.lapack(H))
        assert got.imag.any()
        assert np.max(np.abs(got - hessenberg_eigenvalues(section))) <= 1e-12


class TestSmallestRoot:
    def test_scalar_section(self):
        H = np.array([[4.0, 1.0], [1.0, 2.0]])
        assert smallest_root(H, 1) == 4.0

    def test_tie_broken_by_imaginary_part(self):
        H = np.diag([1.0 + 2.0j, 1.0 + 0.0j, 3.0])
        assert smallest_root(H, 3) == 1.0 + 0.0j

    def test_leading_section_only(self):
        H = np.diag([5.0, 6.0, -7.0])
        assert smallest_root(H, 2) == 5.0

    def test_trace_sees_one_lapack_call(self):
        events = []
        H = random_hessenberg(np.random.default_rng(5), 6)
        smallest_root(H, 4, trace=events.append)
        assert [(e["event"], e["n"]) for e in events] == [("eigen", 4)]
        assert events[0]["seconds"] >= 0.0

    def test_rejects_out_of_range(self):
        H = np.eye(3)
        with pytest.raises(ValueError):
            smallest_root(H, 0)
        with pytest.raises(ValueError):
            smallest_root(H, 4)

    @pytest.mark.parametrize("H", [np.float64(1.0), np.ones(3)], ids=["0-d", "1-d"])
    def test_rejects_non_matrix_like_smallest_roots(self, H):
        with pytest.raises(ValueError, match="leading dimension k=1 must lie in"):
            smallest_root(H, 1)
        with pytest.raises(ValueError, match="leading dimension k_max=1 must lie in"):
            smallest_roots(H, 1)


class TestSmallestRoots:
    """Every leading section at once, validated once: the same roots and
    rejections as smallest_root section by section, with the sections up to
    order 75 in one LAPACK call and one trace event."""

    @staticmethod
    def one_by_one(H, k_max):
        events, roots = [], []
        for k in range(1, k_max + 1):
            roots.append(smallest_root(H, k, trace=events.append))
        return roots, events

    @pytest.mark.parametrize("kind", ["complex", "laguerre", "conjugate-pairs"])
    def test_equals_smallest_root_per_section(self, kind):
        if kind == "complex":
            H = random_hessenberg(np.random.default_rng(8), 12)
        elif kind == "laguerre":
            Z, w = build_same_measure(golub_welsch(laguerre_jacobi(20, -0.5)), [1.0, 1e8])
            H = solve_hessenberg(Z, w, 20, method="arnoldi")
        else:
            # real, with the pair -5 +- 1j smallest from section 2 on
            H = np.triu(np.random.default_rng(9).uniform(0.0, 1.0, (12, 12)), -1)
            H[:2, :2] = [[-5.0, -1.0], [1.0, -5.0]]
        k_max = H.shape[0] - 1
        expected, expected_events = self.one_by_one(H, k_max)
        events = []
        roots = smallest_roots(H, k_max, trace=events.append)
        assert [(z.real, z.imag) for z in roots] == [(z.real, z.imag) for z in expected]
        assert [(e["event"], e["n"], e["sections"]) for e in expected_events] == [
            ("eigen", k, 1) for k in range(1, k_max + 1)
        ]
        assert [(e["event"], e["n"], e["sections"]) for e in events] == [("eigen", k_max, k_max)]
        if kind == "conjugate-pairs":
            assert roots[1] == -5.0 - 1.0j

    @pytest.mark.parametrize(
        "entry, value, message",
        [
            # 1e-12 below the subdiagonal of a section of norm ~2 fails its own
            # tolerance, although the whole matrix (norm ~1e4) would pass
            ((3, 1), 1e-12, "not upper Hessenberg"),
            ((1, 4), np.nan, "finite"),
            ((5, 2), np.inf, "finite"),
        ],
    )
    def test_rejects_the_first_section_smallest_root_rejects(self, entry, value, message):
        H = np.triu(np.random.default_rng(11).uniform(0.1, 0.5, (8, 8)), -1)
        H[6:, 6:] *= 1e4
        H[entry] = value
        _, events = self.one_by_one(H, max(entry))
        with pytest.raises(ValueError, match=message):
            smallest_root(H, max(entry) + 1)
        seen = []
        with pytest.raises(ValueError, match=message):
            smallest_roots(H, 8, trace=seen.append)
        # smallest_root accepts every section before the failing one, while
        # smallest_roots raises before any LAPACK call
        assert [e["n"] for e in events] == list(range(1, max(entry) + 1))
        assert seen == []
        if np.isfinite(value):
            smallest_root(H, 8)

    @pytest.mark.parametrize("value, message", [(1e-9, "not upper Hessenberg"),
                                                (np.nan, "finite")])
    def test_rejects_above_the_stack_order_before_any_call(self, value, message):
        H = np.triu(np.random.default_rng(12).uniform(0.1, 0.5, (80, 80)), -1)
        H[78, 3] = value
        smallest_root(H, 78)
        with pytest.raises(ValueError, match=message):
            smallest_root(H, 79)
        seen = []
        with pytest.raises(ValueError, match=message):
            smallest_roots(H, 80, trace=seen.append)
        assert seen == []

    def test_rejects_out_of_range(self):
        for k_max in (0, 4):
            with pytest.raises(ValueError, match="k_max"):
                smallest_roots(np.eye(3), k_max)


def per_section_roots(H, k_max):
    """Smallest eigenvalue of each leading section by its own
    np.linalg.eigvals call, as bytes: real and imaginary parts bit for bit."""
    T = np.triu(np.asarray(H)[:k_max, :k_max], -1)
    roots = []
    for k in range(1, k_max + 1):
        vals = np.linalg.eigvals(T[:k, :k]).astype(complex)
        roots.append(min(vals, key=lambda z: (z.real, abs(z.imag), z.imag)))
    return np.array(roots, dtype=complex).tobytes()


class TestStackedSections:
    """Sections up to order 75 zero-padded into one stack give the bits of
    one LAPACK call per section; larger sections keep a call each."""

    @staticmethod
    def laguerre(n_quad, solver, k):
        Z, w = build_same_measure(golub_welsch(laguerre_jacobi(n_quad, -0.5)), [1.0, 1.0])
        return solve_hessenberg(Z, w, k, method=solver)

    def test_bitwise_on_the_benchmark_table(self):
        H = self.laguerre(40, "arnoldi", 40)
        events = []
        roots = smallest_roots(H, 40, trace=events.append)
        assert np.array(roots).tobytes() == per_section_roots(H, 40)
        assert [(e["n"], e["sections"]) for e in events] == [(40, 40)]

    # on these H, sections padded to order 76..80 differ from their own calls
    # in 72 and more of their smallest roots; padded to 75 in none
    @pytest.mark.parametrize("solver", ["update-rot", "update-hh"])
    @pytest.mark.parametrize("k_max", [75, 80])
    def test_bitwise_at_the_stack_order_and_above(self, solver, k_max):
        H = self.laguerre(40, solver, 80)
        events = []
        roots = smallest_roots(H, k_max, trace=events.append)
        assert np.array(roots).tobytes() == per_section_roots(H, k_max)
        assert [(e["n"], e["sections"]) for e in events] == [(75, 75)] + [
            (k, 1) for k in range(76, k_max + 1)
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_on_complex_graded_sections(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 61))
        grading = np.exp(rng.uniform(-20.0, 20.0, n))
        H = random_hessenberg(rng, n) * grading[:, None] / grading[None, :]
        assert np.array(smallest_roots(H, n)).tobytes() == per_section_roots(H, n)
