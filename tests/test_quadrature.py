"""Tests for Gauss-type quadrature rule generation."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sobolev.quadrature
from sobolev import (
    JacobiCoefficients,
    NumericalFailure,
    QuadratureRule,
    gauss_radau_right,
    golub_welsch,
    laguerre_jacobi,
    legendre_jacobi,
)


class TestJacobiCoefficients:
    def test_matrix_layout(self):
        jac = JacobiCoefficients([1.0, 3.0], [2.0], 1.0)
        assert_allclose(jac.matrix(), [[1.0, 2.0], [2.0, 3.0]])
        assert jac.n == 2

    def test_single_point(self):
        jac = JacobiCoefficients([0.5], [], 1.0)
        assert_allclose(jac.matrix(), [[0.5]])

    @pytest.mark.parametrize(
        "diag, offdiag, moment0",
        [
            ([0.0, 0.0], [0.0], 2.0),      # zero coupling
            ([0.0, 0.0], [-1.0], 2.0),     # negative coupling
            ([0.0, 0.0], [1.0, 1.0], 2.0), # length mismatch
            ([0.0], [], 0.0),              # zero mass
            ([0.0], [], -1.0),             # negative mass
            ([np.nan], [], 1.0),           # NaN diagonal
            ([0.0, np.inf], [1.0], 2.0),   # infinite diagonal
            ([0.0, 0.0], [np.inf], 2.0),   # infinite coupling
            ([0.0], [], np.inf),           # infinite mass
            ([0.0], [], np.nan),           # NaN mass
            ([], [], 1.0),                 # no coefficients
        ],
    )
    def test_invalid_inputs(self, diag, offdiag, moment0):
        with pytest.raises(ValueError):
            JacobiCoefficients(diag, offdiag, moment0)

    @pytest.mark.parametrize("diag, offdiag", [([[0.0, 0.0]], [1.0]), ([0.0, 0.0], [[1.0]])])
    def test_rejects_2d_coefficients(self, diag, offdiag):
        with pytest.raises(ValueError, match="recurrence coefficients must be 1-d sequences"):
            JacobiCoefficients(diag, offdiag, 2.0)


class TestQuadratureRule:
    def test_integrate(self):
        rule = QuadratureRule([0.0, 1.0], [1.5, 0.5])
        assert rule.integrate([2.0, 4.0]) == pytest.approx(5.0)
        assert rule.n == 2

    @pytest.mark.parametrize(
        "nodes, weights",
        [
            ([1.0, 0.0], [1.0, 1.0]),   # decreasing nodes
            ([0.0, 0.0], [1.0, 1.0]),   # repeated nodes
            ([0.0, 1.0], [1.0, -1.0]),  # negative weight
            ([0.0, 1.0], [1.0, 0.0]),   # zero weight
            ([0.0, 1.0], [1.0]),        # shape mismatch
        ],
    )
    def test_invalid_inputs(self, nodes, weights):
        with pytest.raises(ValueError):
            QuadratureRule(nodes, weights)

    @pytest.mark.parametrize(
        "nodes, weights",
        [([0.0, np.nan], [1.0, 1.0]), ([-np.inf, 0.0], [1.0, 1.0]), ([0.0, 1.0], [np.inf, 1.0])],
    )
    def test_rejects_non_finite(self, nodes, weights):
        with pytest.raises(ValueError, match="finite"):
            QuadratureRule(nodes, weights)


class TestLegendreJacobi:
    def test_n1(self):
        jac = legendre_jacobi(1)
        assert_allclose(jac.diag, [0.0])
        assert jac.moment0 == 2.0

    def test_n2_offdiag(self):
        assert_allclose(legendre_jacobi(2).offdiag, [0.5773502691896258])

    def test_n3_offdiag(self):
        assert_allclose(
            legendre_jacobi(3).offdiag,
            [0.5773502691896258, 0.5163977794943222],
        )

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError):
            legendre_jacobi(0)

    @pytest.mark.parametrize("n", [3.5, 3.0, np.float64(3.0), "3", None], ids=repr)
    def test_rejects_non_integral_points(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n={n!r} must be an integer")):
            legendre_jacobi(n)

    def test_numpy_integer_points(self):
        assert legendre_jacobi(np.int64(3)).n == 3


class TestLaguerreJacobi:
    def test_n1_alpha0(self):
        jac = laguerre_jacobi(1, 0.0)
        assert_allclose(jac.diag, [1.0])
        assert jac.moment0 == pytest.approx(1.0)

    def test_n2_alpha0(self):
        jac = laguerre_jacobi(2, 0.0)
        assert_allclose(jac.diag, [1.0, 3.0])
        assert_allclose(jac.offdiag, [1.0])

    def test_half_integer_alpha(self):
        jac = laguerre_jacobi(1, -0.5)
        assert_allclose(jac.diag, [0.5])
        assert jac.moment0 == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    @pytest.mark.parametrize(
        "alpha",
        [-1.0, -2.0, np.nan, np.inf, 171.0, 1e308],  # Gamma(alpha + 1) overflows at the last two
    )
    def test_rejects_alpha_at_or_below_minus_one(self, alpha):
        with pytest.raises(ValueError):
            laguerre_jacobi(3, alpha)

    @pytest.mark.parametrize("alpha", [True, False, np.True_, "1", 1j, None])
    def test_rejects_an_alpha_that_is_not_a_real_number(self, alpha):
        # a bool used to build alpha = 1 (or 0), and a string to fail a comparison
        with pytest.raises(ValueError, match="alpha must be finite and exceed -1"):
            laguerre_jacobi(5, alpha)

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError, match="need at least one point, got n=0"):
            laguerre_jacobi(0)

    @pytest.mark.parametrize("n", [10.5, 10.0, np.float64(10.0)], ids=repr)
    def test_rejects_non_integral_points(self, n):
        # np.arange(10.5) has 11 entries: 10.5 used to give an 11-point rule
        with pytest.raises(ValueError, match=re.escape(f"n={n!r} must be an integer")):
            laguerre_jacobi(n)


class TestGolubWelsch:
    def test_legendre_midpoint(self):
        rule = golub_welsch(legendre_jacobi(1))
        assert_allclose(rule.nodes, [0.0], atol=1e-15)
        assert_allclose(rule.weights, [2.0])

    def test_legendre_two_points(self):
        rule = golub_welsch(legendre_jacobi(2))
        r = 0.5773502691896257
        assert_allclose(rule.nodes, [-r, r], atol=1e-15)
        assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-14)

    def test_laguerre_one_point(self):
        rule = golub_welsch(laguerre_jacobi(1, 0.0))
        assert_allclose(rule.nodes, [1.0])
        assert_allclose(rule.weights, [1.0])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 19, 64, 150])
    def test_weight_sum_is_total_mass(self, n):
        for jac in (legendre_jacobi(n), laguerre_jacobi(n, 0.3)):
            rule = golub_welsch(jac)
            assert np.sum(rule.weights) == pytest.approx(jac.moment0, rel=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_ordering_and_positivity(self, seed):
        # the QuadratureRule constructor re-validates both properties
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 201))
        rule = golub_welsch(legendre_jacobi(n))
        assert rule.n == n
        if n > 1:
            assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)


class TestGaussRadauRight:
    def test_single_point(self):
        rule = gauss_radau_right(0)
        assert_allclose(rule.nodes, [1.0])
        assert_allclose(rule.weights, [2.0])

    def test_two_points(self):
        rule = gauss_radau_right(1)
        assert_allclose(rule.nodes, [-1.0 / 3.0, 1.0], rtol=1e-14)
        assert_allclose(rule.weights, [1.5, 0.5], rtol=1e-14)

    def test_exactness_degree_four(self):
        rule = gauss_radau_right(2)
        quartic = rule.integrate(rule.nodes**4)
        assert quartic == pytest.approx(2.0 / 5.0, abs=1e-13)

    def test_left_endpoint_variant(self):
        rule = gauss_radau_right(3, endpoint=-1.0)
        assert rule.nodes[0] == -1.0
        assert rule.n == 4

    def test_pinned_node_is_exact(self):
        assert gauss_radau_right(7).nodes[-1] == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gauss_radau_right(-1)
        with pytest.raises(ValueError):
            gauss_radau_right(3, endpoint=0.5)

    @pytest.mark.parametrize("n_free", [3.5, 3.0], ids=repr)
    def test_rejects_non_integral_points(self, n_free):
        with pytest.raises(ValueError, match=re.escape(f"n_free={n_free!r} must be an integer")):
            gauss_radau_right(n_free)

    def test_unpinned_endpoint_raises(self, monkeypatch):
        # a rule whose nearest node misses the endpoint by more than 1e-10
        def shifted(jac):
            rule = golub_welsch(jac)
            return QuadratureRule(rule.nodes - 1e-6, rule.weights)

        monkeypatch.setattr(sobolev.quadrature, "golub_welsch", shifted)
        with pytest.raises(NumericalFailure, match="failed to pin") as exc:
            gauss_radau_right(3)
        assert exc.value.details["endpoint"] == 1.0
        assert exc.value.details["nearest"] == pytest.approx(1.0 - 1e-6, abs=1e-12)


def legendre_moment(d):
    return 0.0 if d % 2 else 2.0 / (d + 1)


class TestExactness:
    """Spot checks of the exactness degree; the full n-sweep runs in the
    acceptance suite."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 40, 100])
    def test_legendre(self, n):
        rule = golub_welsch(legendre_jacobi(n))
        for d in range(2 * n):
            err = abs(rule.integrate(rule.nodes**d) - legendre_moment(d))
            assert err <= 1e-12 * max(abs(legendre_moment(d)), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 60])
    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_laguerre(self, n, alpha):
        # the analytic moments overflow well before d = 2n-1, so each
        # monomial is rescaled to make the expected value moment0
        rule = golub_welsch(laguerre_jacobi(n, alpha))
        moment0 = math.exp(math.lgamma(alpha + 1.0))
        for d in range(2 * n):
            if d == 0:
                got = rule.integrate(np.ones(rule.n))
            else:
                s = math.exp(
                    (math.lgamma(d + alpha + 1.0) - math.lgamma(alpha + 1.0)) / d
                )
                got = rule.integrate((rule.nodes / s) ** d)
            assert abs(got - moment0) <= 1e-12 * moment0

    @pytest.mark.parametrize("n_free", [0, 1, 2, 6, 25])
    def test_radau(self, n_free):
        rule = gauss_radau_right(n_free)
        for d in range(2 * n_free + 1):
            err = abs(rule.integrate(rule.nodes**d) - legendre_moment(d))
            assert err <= 1e-12 * max(abs(legendre_moment(d)), 1.0)
