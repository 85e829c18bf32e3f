"""Tests for polynomial evaluation, least squares, and the five-term
recurrence built from the recurrence Hessenberg matrix."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import assert_reported_errors, gentle_jordan
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose
from oracles import coefficients, inner_product_direct, spec_of

import sobolev.sop
from sobolev import (
    build_discrete_laguerre_sobolev,
    build_same_measure,
    evaluate,
    golub_welsch,
    hermite_least_squares,
    hessenberg_eigenvalues,
    laguerre_jacobi,
    legendre_jacobi,
    pentadiagonal_recurrence,
    solve_hessenberg,
    update_solve,
)


class TestEvaluate:
    def test_monomial_sequence(self):
        H = np.array([[0.0, 0.0], [1.0, 0.0]])
        x = np.array([-1.0, 0.3, 2.0])
        out = evaluate(H, 1.0, x, 1)
        assert_allclose(out.values[0], np.ones(3))
        assert_allclose(out.values[1], x)
        assert_allclose(out.derivs[0], np.zeros(3))
        assert_allclose(out.derivs[1], np.ones(3))

    def test_two_point_measure(self):
        # nodes {0, 1} with equal weights: p_0 = 1/sqrt(2),
        # p_1(x) = (x - 1/2)/(1/2) * p_0
        H = np.array([[0.5, 0.5], [0.5, 0.5]])
        x = np.linspace(-1.0, 2.0, 7)
        out = evaluate(H, math.sqrt(2.0), x, 1)
        assert_allclose(out.values[0], np.full(7, 1.0 / math.sqrt(2.0)))
        assert_allclose(out.values[1], (x - 0.5) * math.sqrt(2.0), atol=1e-14)

    def test_scalar_and_array_shapes(self):
        H = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert evaluate(H, 1.0, 0.5, 1).values.shape == (2,)
        assert evaluate(H, 1.0, np.zeros((3, 2)), 1).values.shape == (2, 3, 2)

    def test_rejects_degree_out_of_range(self):
        H = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            evaluate(H, 1.0, 0.0, 2)
        with pytest.raises(ValueError):
            evaluate(H, 1.0, 0.0, -1)

    @pytest.mark.parametrize("k", [2.5, 1.0, "1", True])
    def test_rejects_non_integral_degree(self, k):
        # a float degree used to fail inside the recurrence with a TypeError
        H = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=f"^k={k!r} must be an integer"):
            evaluate(H, 1.0, 0.3, k)

    def test_rejects_terminated_sequence(self):
        # zero subdiagonal means there is no degree-1 polynomial
        H = np.zeros((2, 2))
        with pytest.raises(ValueError, match="ends before degree"):
            evaluate(H, 1.0, 0.0, 1)

    def test_rejects_complex_subdiagonal(self):
        H = np.array([[0.0, 0.0], [1.0j, 0.0]])
        with pytest.raises(ValueError):
            evaluate(H, 1.0, 0.0, 1)

    def test_rejects_bad_norm(self):
        H = np.array([[0.0, 0.0], [1.0, 0.0]])
        for w_norm in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                evaluate(H, w_norm, 0.0, 1)

    def test_rejects_bad_section_input(self):
        H = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="square"):
            evaluate(np.zeros((2, 3)), 1.0, 0.0, 1)
        for w_norm in (0.0, np.nan, -1.0, np.inf):
            with pytest.raises(ValueError, match="weight norm"):
                evaluate(H, w_norm, 0.0, 1)
        H[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            evaluate(H, 1.0, 0.0, 1)

    @pytest.mark.parametrize("x", [np.nan, np.inf, [0.0, -np.inf], [0.5, complex(0.0, np.nan)]])
    def test_rejects_non_finite_points(self, x):
        H = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="points must be finite"):
            evaluate(H, 1.0, x, 2)

    @pytest.mark.parametrize("entry, bad", [((0, 1), np.nan), ((1, 1), np.inf), ((0, 0), complex(np.nan, 1.0))])
    def test_rejects_non_finite_section(self, entry, bad):
        H = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
        H[entry] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            evaluate(H, 1.0, 0.5, 2)

    def test_ignores_entries_outside_the_section(self):
        # p_0, p_1 need only H[:2, :2]
        H = np.array([[0.0, 0.0, np.nan], [1.0, 0.0, 0.0], [0.0, 1.0, np.inf]])
        assert_allclose(evaluate(H, 1.0, [0.5, 2.0], 1).values, [[1.0, 1.0], [0.5, 2.0]])

    def test_real_input_runs_in_float64(self):
        # the dtype of H and x decides: a float64 H runs in float64, a
        # complex-typed H in complex128 even when its entries are real
        H = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert evaluate(H, 1.0, [0.0, 1.0], 1).values.dtype == np.float64
        assert evaluate(H, 1.0, [0.0, 1.0j], 1).derivs.dtype == np.complex128
        assert evaluate(H.astype(complex), 1.0, [0.0, 1.0], 1).values.dtype == np.complex128

    def test_trace_event_per_call(self):
        H = np.array([[0.5, 0.5], [0.5, 0.5]])
        events = []
        evaluate(H, 1.0, np.zeros((3, 2)), 1, trace=events.append)
        evaluate(H, 1.0, 1.0j, 0, trace=events.append)
        assert [{key: e[key] for key in ("event", "k", "points", "real")} for e in events] == [
            {"event": "evaluate", "k": 1, "points": 6, "real": True},
            {"event": "evaluate", "k": 0, "points": 1, "real": False},
        ]
        assert all(e["seconds"] >= 0.0 for e in events)


def evaluate_reference(H, w_norm, x, k):
    """p_0..p_k and derivatives by the plain recurrence: complex128, one
    degree at a time, each summing over every lower degree."""
    H = np.asarray(H, dtype=complex)
    x = np.asarray(x, dtype=complex)
    values = np.empty((k + 1,) + x.shape, dtype=complex)
    derivs = np.zeros((k + 1,) + x.shape, dtype=complex)
    values[0] = 1.0 / w_norm
    for j in range(1, k + 1):
        h = H[j, j - 1].real
        proj = np.tensordot(H[:j, j - 1], values[:j], axes=(0, 0))
        dproj = np.tensordot(H[:j, j - 1], derivs[:j], axes=(0, 0))
        values[j] = (x * values[j - 1] - proj) / h
        derivs[j] = (values[j - 1] + x * derivs[j - 1] - dproj) / h
    return values, derivs


@pytest.fixture(scope="module")
def sobolev_legendre_section():
    """H[:202, :202] of Legendre m=201, gamma=0.01 by Arnoldi, and ||w||."""
    Z, w = build_same_measure(golub_welsch(legendre_jacobi(201)), [1.0, 0.01])
    return solve_hessenberg(Z, w, 202, method="arnoldi"), w.norm()


class TestEvaluateAgainstReference:
    """The blocked recurrence against :func:`evaluate_reference` on both
    sides of the block edges at degrees 32 and 64.  The complex section
    is e^{it} D^H H D with D = diag(e^{ijt}), the H of the Legendre
    product turned by e^{it}; its points are turned alike.  Relative to
    the largest modulus, the worst measured differences are 8.2e-15 in
    values and 2.7e-13 in derivatives; the bounds leave a factor of ten."""

    POINTS = {
        "scalar": 0.3,
        "1-D": np.linspace(-1.0, 1.0, 101),
        "2-D": np.linspace(-1.1, 1.1, 60).reshape(6, 10),
    }

    @pytest.mark.parametrize("points", POINTS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_per_degree_recurrence(self, sobolev_legendre_section, kind, points):
        H, w_norm = sobolev_legendre_section
        x = np.asarray(self.POINTS[points])
        dtype = np.float64
        if kind == "complex":
            turn = np.exp(0.7j)
            D = turn ** np.arange(H.shape[0])
            H = turn * D.conj()[:, None] * H * D
            x = turn * x
            dtype = np.complex128
        for k in (0, 1, 31, 32, 33, 64, 201):
            out = evaluate(H, w_norm, x, k)
            values, derivs = evaluate_reference(H, w_norm, x, k)
            assert out.values.dtype == out.derivs.dtype == dtype
            assert out.values.shape == out.derivs.shape == (k + 1,) + x.shape
            assert np.max(np.abs(out.values - values)) <= 1e-13 * np.max(np.abs(values))
            assert np.max(np.abs(out.derivs - derivs)) <= 3e-12 * np.max(np.abs(derivs))


def byte_equal(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


POINT_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


class TestPointIndependence:
    """A least-squares fit's coefficients are bitwise the same whether or
    not errors are measured on a grid.  Point counts run through 1..70."""

    @POINT_SETTINGS
    @given(kind=st.sampled_from(["real", "complex"]), nodes=st.integers(1, 70),
           grid_points=st.integers(1, 70), n=st.sampled_from([0, 5, 33]),
           seed=st.integers(0, 2**32 - 1))
    def test_fit_does_not_depend_on_the_errors_asked_for(
        self, sobolev_legendre_section, kind, nodes, grid_points, n, seed
    ):
        H, w_norm = sobolev_legendre_section
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-1.0, 1.0, nodes))
        weights = rng.uniform(0.5, 1.5, nodes)
        samples = rng.standard_normal((2, nodes))
        if kind == "complex":
            samples = samples * np.exp(0.7j)

        def fit(**exact):
            return hermite_least_squares(
                H, w_norm, x, weights, *samples, 0.01, n, grid_points=grid_points, **exact
            ).coefficients

        plain = fit()
        assert byte_equal(fit(f_exact=np.cos), plain)
        assert byte_equal(fit(fprime_exact=np.sin), plain)
        assert byte_equal(fit(f_exact=np.cos, fprime_exact=np.sin), plain)


class TestCoefficients:
    @pytest.mark.parametrize("seed", range(4))
    def test_degree_growth_and_positive_leading_coefficient(self, seed):
        Z, w = gentle_jordan(np.random.default_rng(seed))
        H, _ = update_solve(Z, w)
        polys = coefficients(H, w.norm(), Z.m - 1)
        for k, p in enumerate(polys):
            assert p.degree() == k
            lead = p.coef[-1]
            assert lead.real > 0
            assert abs(lead.imag) <= 1e-12 * lead.real

    def test_matches_recurrence_evaluation(self):
        Z, w = gentle_jordan(np.random.default_rng(17))
        H, _ = update_solve(Z, w)
        k = min(Z.m - 1, 6)
        polys = coefficients(H, w.norm(), k)
        x = np.linspace(-1.0, 1.0, 9)
        out = evaluate(H, w.norm(), x, k)
        for j, p in enumerate(polys):
            assert_allclose(p(x), out.values[j], atol=1e-10)


class TestOrthonormality:
    @pytest.mark.parametrize("seed", range(5))
    def test_direct_product_is_identity(self, seed):
        Z, w = gentle_jordan(np.random.default_rng(seed))
        H, _ = update_solve(Z, w)
        spec = spec_of(Z, w)
        polys = coefficients(H, w.norm(), Z.m - 1)
        for i, pi in enumerate(polys):
            for j, pj in enumerate(polys):
                got = inner_product_direct(pi, pj, spec)
                assert abs(got - (1.0 if i == j else 0.0)) <= 1e-10


class TestHermiteLeastSquares:
    def setup_method(self):
        self.rule = golub_welsch(legendre_jacobi(25))
        self.gamma = 0.5
        Z, w = build_same_measure(self.rule, [1.0, self.gamma])
        self.w_norm = w.norm()
        self.H = solve_hessenberg(Z, w, 9)

    def _fit(self, f_values, fprime_values, n, **kw):
        return hermite_least_squares(
            self.H,
            self.w_norm,
            self.rule.nodes,
            self.rule.weights,
            f_values,
            fprime_values,
            self.gamma,
            n,
            **kw,
        )

    def test_reproduces_basis_member(self):
        basis = evaluate(self.H, self.w_norm, self.rule.nodes, 3)
        fit = self._fit(
            basis.values[3],
            basis.derivs[3],
            6,
            f_exact=lambda x: evaluate(self.H, self.w_norm, x, 3).values[3],
        )
        expected = np.zeros(7)
        expected[3] = 1.0
        assert_allclose(fit.coefficients, expected, atol=1e-10)
        assert fit.value_error <= 1e-10
        assert fit.deriv_error is None

    def test_constant_function(self):
        ones = np.ones(self.rule.n)
        fit = self._fit(ones, np.zeros(self.rule.n), 5)
        assert fit.coefficients[0] == pytest.approx(self.w_norm, rel=1e-13)
        assert np.max(np.abs(fit.coefficients[1:])) <= 1e-10

    def test_real_fit_stays_real(self):
        ones = np.ones(self.rule.n)
        assert self._fit(ones, 0 * ones, 3).coefficients.dtype == np.float64
        assert self._fit(ones, 0j * ones, 3).coefficients.dtype == np.complex128

    def test_trace_reaches_every_evaluation(self):
        events = []
        ones = np.ones(self.rule.n)
        self._fit(ones, 0 * ones, 3, f_exact=np.ones_like, grid_points=11, trace=events.append)
        # the nodes, then the 4 interpolation points of degree 3, whatever
        # the grid and dim(H) = 9
        assert [(e["event"], e["k"], e["points"], e["real"]) for e in events] == [
            ("evaluate", 3, self.rule.n, True), ("evaluate", 3, 4, True),
        ]

    def test_each_given_exact_function_is_measured(self):
        f = np.exp(-(self.rule.nodes - 0.2) ** 2)
        fp = -2.0 * (self.rule.nodes - 0.2) * f

        def exact(x):
            return np.exp(-(x - 0.2) ** 2)

        def exact_prime(x):
            return -2.0 * (x - 0.2) * exact(x)

        both = self._fit(f, fp, 6, f_exact=exact, fprime_exact=exact_prime)
        value_only = self._fit(f, fp, 6, f_exact=exact)
        deriv_only = self._fit(f, fp, 6, fprime_exact=exact_prime)
        assert both.value_error > 0.0 and both.deriv_error > 0.0
        assert (value_only.value_error, value_only.deriv_error) == (both.value_error, None)
        assert (deriv_only.value_error, deriv_only.deriv_error) == (None, both.deriv_error)

    @pytest.mark.parametrize("grid_points", [0, -1])
    def test_rejects_empty_grid(self, grid_points):
        ones = np.ones(self.rule.n)
        with pytest.raises(ValueError, match=f"grid_points={grid_points} must be at least 1"):
            self._fit(ones, 0 * ones, 3, f_exact=np.ones_like, grid_points=grid_points)

    @pytest.mark.parametrize("grid_points", [10.5, 11.0])
    def test_rejects_non_integral_grid(self, grid_points):
        ones = np.ones(self.rule.n)
        with pytest.raises(ValueError, match=f"^grid_points={grid_points} must be an integer"):
            self._fit(ones, 0 * ones, 3, f_exact=np.ones_like, grid_points=grid_points)

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_rejects_non_integral_degree(self, n):
        ones = np.ones(self.rule.n)
        with pytest.raises(ValueError, match=f"^n={n} must be an integer"):
            self._fit(ones, 0 * ones, n)

    @pytest.mark.parametrize("argument, bad", [
        ("f_exact", np.nan), ("fprime_exact", np.inf), ("f_exact", complex(0.0, np.nan)),
    ])
    def test_rejects_non_finite_exact_values(self, argument, bad):
        # these used to be reported as an error of nan or inf
        ones = np.ones(self.rule.n)
        with pytest.raises(ValueError, match=f"^{argument} must be finite on the grid"):
            self._fit(ones, 0 * ones, 3, **{argument: lambda x: np.where(x > 0.5, bad, 0.0)})

    @pytest.mark.parametrize("argument", ["f_exact", "fprime_exact"])
    @pytest.mark.parametrize("exact", [lambda x: x[:-1], lambda x: np.ones((2, x.size)),
                                       lambda x: np.ones(3)], ids=["short", "2-d", "other"])
    def test_rejects_exact_values_off_the_grid_shape(self, argument, exact):
        ones = np.ones(self.rule.n)
        with pytest.raises(ValueError, match=f"^{argument} returned shape .* the 11 grid points"):
            self._fit(ones, 0 * ones, 3, grid_points=11, **{argument: exact})

    def test_scalar_exact_value_is_a_constant_function(self):
        f = np.exp(-(self.rule.nodes - 0.2) ** 2)
        scalar = self._fit(f, 0 * f, 6, f_exact=lambda x: 1.0, fprime_exact=lambda x: 0.0)
        array = self._fit(f, 0 * f, 6, f_exact=np.ones_like, fprime_exact=np.zeros_like)
        assert (scalar.value_error, scalar.deriv_error) == (array.value_error, array.deriv_error)

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_interpolation_points_are_chebyshev_points_of_the_second_kind(self, monkeypatch, n):
        # after the evaluation at the nodes, the one at the interpolation
        # points takes the s + 1 points -cos(pi i / s), i = 0..s,
        # s = max(n, 1), in ascending order, so degree 0 still
        # interpolates from the two ends
        calls = []

        def recording_evaluate(H, w_norm, x, k, trace=None):
            calls.append(np.array(x))
            return evaluate(H, w_norm, x, k, trace=trace)

        monkeypatch.setattr(sobolev.sop, "evaluate", recording_evaluate)
        ones = np.ones(self.rule.n)
        self._fit(ones, 0 * ones, n, f_exact=np.ones_like, grid_points=5)
        nodes, points = calls
        s = max(n, 1)
        assert np.array_equal(nodes, self.rule.nodes)
        assert (points[0], points[-1]) == (-1.0, 1.0)
        assert np.all(np.diff(points) > 0)
        assert_allclose(points, -np.cos(np.pi * np.arange(s + 1) / s), rtol=0, atol=1e-15)

    def test_grid_point_on_an_interpolation_point_takes_its_value(self):
        # degree 6 takes the 7 interpolation points, 0 among them, and 0 is
        # the middle of the grid [-1, 0, 1]; the fit of this even bump is
        # largest there, so its value error against 0 is |S_6(0)|, with
        # S_6(0) summed degree by degree as the fit sums it
        f = np.exp(-10.0 * self.rule.nodes ** 2)
        fp = -20.0 * self.rule.nodes * f
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = self._fit(f, fp, 6, f_exact=np.zeros_like, fprime_exact=np.zeros_like,
                            grid_points=3)
        at_zero = 0.0
        for c, p in zip(fit.coefficients, evaluate(self.H, self.w_norm, [0.0], 6).values[:, 0]):
            at_zero += c * p
        assert fit.value_error == abs(at_zero)
        grid = np.array([-1.0, 0.0, 1.0])
        derivs = evaluate(self.H, self.w_norm, grid, 6).derivs
        assert fit.deriv_error == pytest.approx(np.max(np.abs(fit.coefficients @ derivs)), rel=1e-13)

    @pytest.mark.parametrize("argument, bad", [
        ("node_weights", np.nan), ("node_weights", np.inf), ("f_values", np.nan),
        ("f_values", -np.inf), ("f_values", complex(1.0, np.nan)), ("fprime_values", np.nan),
        ("fprime_values", complex(np.inf, 0.0)),
    ])
    def test_rejects_non_finite_samples(self, argument, bad):
        # a NaN sample gave NaN coefficients and errors, an infinite weight a
        # numpy RuntimeWarning; one bad entry must stop the fit instead
        arrays = {"node_weights": self.rule.weights, "f_values": np.ones(self.rule.n),
                  "fprime_values": np.zeros(self.rule.n)}
        arrays[argument] = arrays[argument].astype(type(bad))
        arrays[argument][4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{argument} must be finite"):
                hermite_least_squares(
                    self.H, self.w_norm, self.rule.nodes, arrays["node_weights"],
                    arrays["f_values"], arrays["fprime_values"], self.gamma, 3, f_exact=np.ones_like,
                )

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            self._fit(np.ones(self.rule.n), np.zeros(3), 2)
        # equal shapes that are not one non-empty row of nodes
        for shape in ((1, 5), (0,)):
            with pytest.raises(ValueError, match="nodes must be a non-empty 1-d array"):
                hermite_least_squares(self.H, self.w_norm, np.zeros(shape), np.ones(shape),
                                      np.ones(shape), np.ones(shape), self.gamma, 2)

    def test_rejects_non_positive_node_weights(self):
        # negated weights used to give a fit of a product that is not
        # positive definite
        one_zero = self.rule.weights.copy()
        one_zero[3] = 0.0
        ones = np.ones(self.rule.n)
        for node_weights in (-self.rule.weights, one_zero):
            with pytest.raises(ValueError, match="node_weights must be positive"):
                hermite_least_squares(self.H, self.w_norm, self.rule.nodes, node_weights,
                                      ones, ones, self.gamma, 2)

    def test_rejects_negative_gamma(self):
        # NaN would pass a plain sign test and give the gamma = 0 fit
        ones = np.ones(self.rule.n)
        for gamma in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                hermite_least_squares(
                    self.H, self.w_norm, self.rule.nodes, self.rule.weights,
                    ones, ones, gamma, 2,
                )

    def test_value_fit_matches_normal_equations(self):
        # gamma = 0 is a plain weighted polynomial fit, solvable by the
        # monomial normal equations at low degree
        rule = golub_welsch(legendre_jacobi(40))
        f = np.exp(-100.0 * (rule.nodes - 0.2) ** 2)
        n = 10
        Z0, w0 = build_same_measure(rule, [1.0])
        H0 = solve_hessenberg(Z0, w0, n + 1)
        fit = hermite_least_squares(
            H0, w0.norm(), rule.nodes, rule.weights, f, np.zeros_like(f), 0.0, n
        )
        V = np.vander(rule.nodes, n + 1, increasing=True)
        G = V.T @ (rule.weights[:, None] * V)
        mono = np.linalg.solve(G, V.T @ (rule.weights * f))
        grid = np.linspace(-1.0, 1.0, 501)
        ours = np.tensordot(
            fit.coefficients, evaluate(H0, w0.norm(), grid, n).values, axes=(0, 0)
        )
        assert np.max(np.abs(ours - P.polyval(grid, mono))) <= 1e-8

    def test_parseval_for_full_basis(self):
        # a polynomial inside the span is reproduced exactly, so the
        # coefficient energy equals its discrete Sobolev norm
        rule = golub_welsch(legendre_jacobi(8))
        gamma = 0.3
        Z, w = build_same_measure(rule, [1.0, gamma])
        H, _ = update_solve(Z, w)
        rng = np.random.default_rng(23)
        mono = rng.standard_normal(Z.m)  # degree 15 for 8 nodes
        f = P.polyval(rule.nodes, mono)
        fp = P.polyval(rule.nodes, P.polyder(mono))
        fit = hermite_least_squares(
            H, w.norm(), rule.nodes, rule.weights, f, fp, gamma, Z.m - 1
        )
        energy = float(np.sum(np.abs(fit.coefficients) ** 2))
        direct = float(np.dot(rule.weights, np.abs(f) ** 2 + gamma * np.abs(fp) ** 2))
        assert energy == pytest.approx(direct, rel=1e-9)


@pytest.fixture(scope="module")
def sobolev_legendre_40():
    """Legendre m=40, gamma=0.01: the rule, gamma, H[:70, :70] by Arnoldi and ||w||."""
    rule = golub_welsch(legendre_jacobi(40))
    Z, w = build_same_measure(rule, [1.0, 0.01])
    return rule, 0.01, solve_hessenberg(Z, w, 70, method="arnoldi"), w.norm()


def least_squares_case(kind, H):
    """H and the exact function and derivative of one kind of fit: a real
    bump, a complex one, or a complex one with H turned by e^{0.02i} as in
    :class:`TestEvaluateAgainstReference`, where the basis is complex on
    the real grid."""
    part = np.real if kind == "real" else np.asarray

    def f(x):
        return part(np.exp(3j * x - 10.0 * (x - 0.2) ** 2))

    def fprime(x):
        return part((3j - 20.0 * (x - 0.2)) * np.exp(3j * x - 10.0 * (x - 0.2) ** 2))

    if kind == "complex section":
        t = np.exp(0.02j)
        D = t ** np.arange(H.shape[0])
        H = t * D.conj()[:, None] * H * D
    return H, f, fprime


class TestLeastSquaresErrorsAgainstReference:
    """The errors :func:`hermite_least_squares` reports, against max-norm
    errors of its own coefficients built on :func:`evaluate_reference`
    with a matrix-vector product over the degrees.  The Sobolev-Legendre
    product on 40 nodes (dimension 80) puts degrees on both sides of the
    block edges at 32 and 64.  The complex cases fit a complex function,
    on the real section and on that section turned by e^{0.02i}.
    Relative to the largest sum sum_i |c_i p_i(x)| on the grid, the worst
    measured differences are 1.9e-15 in values and 3.4e-15 in
    derivatives; the bound, relative to the larger of that sum and the
    largest |exact|, leaves a factor of about thirty.

    The fit of degree n reaches the grid by barycentric interpolation from
    max(n, 1) + 1 Chebyshev points, so the property test takes sections
    of 1..70 rows, degrees 0..69 below each (2 to 70 points) and grids of
    1..70 points, below, near and above the point count, against
    :func:`evaluate` on the grid."""

    KINDS = ["real", "complex samples", "complex section"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_reported_errors_match_reference(self, sobolev_legendre_40, kind):
        rule, gamma, H, w_norm = sobolev_legendre_40
        H, f, fprime = least_squares_case(kind, H)
        grid = np.linspace(-1.0, 1.0, 301)
        for n in (1, 31, 32, 33, 64, 69):
            fit = hermite_least_squares(
                H, w_norm, rule.nodes, rule.weights, f(rule.nodes), fprime(rule.nodes),
                gamma, n, f, fprime, grid.size,
            )
            assert_reported_errors(fit, *evaluate_reference(H, w_norm, grid, n), f, fprime, grid)

    def test_an_error_off_by_1e_10_fails(self, sobolev_legendre_40):
        # the bound scales with the fit and the exact function (|f'| up to
        # 3.3 here), not with the error, so a wrong digit at 1e-10 shows
        rule, gamma, H, w_norm = sobolev_legendre_40
        H, f, fprime = least_squares_case("real", H)
        grid = np.linspace(-1.0, 1.0, 301)
        fit = hermite_least_squares(H, w_norm, rule.nodes, rule.weights, f(rule.nodes),
                                    fprime(rule.nodes), gamma, 33, f, fprime, grid.size)
        basis = evaluate_reference(H, w_norm, grid, 33)
        assert_reported_errors(fit, *basis, f, fprime, grid)
        for field in ("value_error", "deriv_error"):
            off = dataclasses.replace(fit, **{field: getattr(fit, field) + 1e-10})
            with pytest.raises(AssertionError):
                assert_reported_errors(off, *basis, f, fprime, grid)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(kind=st.sampled_from(KINDS),
           dim_n=st.integers(1, 70).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))),
           grid_points=st.integers(1, 70))
    def test_errors_match_direct_evaluation(self, sobolev_legendre_40, kind, dim_n, grid_points):
        rule, gamma, H, w_norm = sobolev_legendre_40
        dim, n = dim_n
        H, f, fprime = least_squares_case(kind, H[:dim, :dim])
        fit = hermite_least_squares(
            H, w_norm, rule.nodes, rule.weights, f(rule.nodes), fprime(rule.nodes),
            gamma, n, f, fprime, grid_points,
        )
        grid = np.linspace(-1.0, 1.0, grid_points)
        basis = evaluate(H, w_norm, grid, n)
        assert_reported_errors(fit, basis.values, basis.derivs, f, fprime, grid)


class TestDegreePrefixes:
    """A lower-degree fit or evaluation is bitwise the prefix of the
    top-degree one: each coefficient is a reduction over its own row, and
    every block of the basis recurrence multiplies a coupling matrix of the
    same number of rows.  Legendre m=15 fits the basis in one block of the
    recurrence; m=40 with the derivative term (dimension 80) spans three."""

    @pytest.mark.parametrize("method", ["arnoldi", "update-rot"])
    @pytest.mark.parametrize("gamma", [0.0, 0.01], ids=["plain", "sobolev"])
    @pytest.mark.parametrize("m", [15, 40])
    def test_every_degree_is_a_prefix_of_the_top_degree(self, m, gamma, method):
        rule = golub_welsch(legendre_jacobi(m))
        Z, w = build_same_measure(rule, [1.0, gamma] if gamma else [1.0])
        H = solve_hessenberg(Z, w, Z.m, method=method)
        f = np.exp(-100.0 * (rule.nodes - 0.2) ** 2)
        fp = -200.0 * (rule.nodes - 0.2) * f
        grid = np.linspace(-1.0, 1.0, 401)
        top = Z.m - 1

        def fit(d):
            return hermite_least_squares(
                H, w.norm(), rule.nodes, rule.weights, f, fp, gamma, d
            ).coefficients

        full_fit = fit(top)
        full_basis = evaluate(H, w.norm(), grid, top)
        for d in range(top + 1):
            assert np.array_equal(fit(d), full_fit[: d + 1])
            basis = evaluate(H, w.norm(), grid, d)
            assert np.array_equal(basis.values, full_basis.values[: d + 1])
            assert np.array_equal(basis.derivs, full_basis.derivs[: d + 1])


class TestPentadiagonalRecurrence:
    def setup_method(self):
        rule = golub_welsch(laguerre_jacobi(6, 0.0))
        Z, self.w = build_discrete_laguerre_sobolev(rule, -1.0, 1.0, 1.0)
        self.Zs = Z.shift(-1.0)

    def test_bandwidth(self):
        B = pentadiagonal_recurrence(self.Zs, self.w, 5)
        scale = np.linalg.norm(B)
        for i in range(5):
            for j in range(5):
                if j - i > 2:
                    assert abs(B[i, j]) <= 1e-9 * scale
                if i - j > 2:
                    # structurally exact: H has exact zeros below the
                    # subdiagonal, so H^2 vanishes below the second
                    assert abs(B[i, j]) <= 1e-15 * scale

    def test_hermitian(self):
        B = pentadiagonal_recurrence(self.Zs, self.w, 5)
        assert np.linalg.norm(B - B.conj().T) <= 1e-10 * np.linalg.norm(B)

    def test_cross_method_agreement(self):
        B_rot = pentadiagonal_recurrence(self.Zs, self.w, 5, solver="update-rot")
        B_arn = pentadiagonal_recurrence(self.Zs, self.w, 5, solver="arnoldi")
        B_hh = pentadiagonal_recurrence(self.Zs, self.w, 5, solver="update-hh")
        scale = np.linalg.norm(B_arn)
        assert np.linalg.norm(B_rot - B_arn) <= 1e-12 * scale
        assert np.linalg.norm(B_hh - B_arn) <= 1e-12 * scale

    def test_single_entry(self):
        B = pentadiagonal_recurrence(self.Zs, self.w, 1)
        assert B.shape == (1, 1)

    def test_rejects_non_integral_dimension(self):
        with pytest.raises(ValueError, match="^m=2.5 must be an integer"):
            pentadiagonal_recurrence(self.Zs, self.w, 2.5)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            pentadiagonal_recurrence(self.Zs, self.w, 0)
        with pytest.raises(ValueError):
            pentadiagonal_recurrence(self.Zs, self.w, self.Zs.m)


class TestRootConsistency:
    def test_eigenvalues_match_sign_changes(self):
        rule = golub_welsch(legendre_jacobi(12))
        Z, w = build_same_measure(rule, [1.0, 0.3])
        H = solve_hessenberg(Z, w, 11)
        w_norm = w.norm()
        for k in range(2, 11):
            roots = hessenberg_eigenvalues(H[:k, :k])
            assert np.max(np.abs(roots.imag)) <= 1e-8
            roots = np.sort(roots.real)

            grid = np.linspace(-1.05, 1.05, 4001)
            vals = evaluate(H, w_norm, grid, k).values[k].real
            sign_flip = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
            assert sign_flip.size == k
            lo, hi = grid[sign_flip], grid[sign_flip + 1]
            flo = vals[sign_flip]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fmid = evaluate(H, w_norm, mid, k).values[k].real
                take_left = np.sign(fmid) == np.sign(flo)
                lo = np.where(take_left, mid, lo)
                flo = np.where(take_left, fmid, flo)
                hi = np.where(take_left, hi, mid)
            assert np.max(np.abs(0.5 * (lo + hi) - roots)) <= 1e-8
