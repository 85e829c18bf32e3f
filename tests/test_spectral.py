"""Tests for the spectral-data types and builders, and for the direct
oracles of ``oracles.py`` against the matrix form."""

import json
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose
from oracles import (
    ProductTerm,
    SobolevProductSpec,
    inner_product_direct,
    jordan_poly_column,
    spec_of,
)

from sobolev import (
    JordanBlockSpec,
    JordanOperator,
    QuadratureRule,
    WeightVector,
    build_discrete_laguerre_sobolev,
    build_radau_endpoint,
    build_same_measure,
    gauss_radau_right,
    golub_welsch,
    jordan_matvec,
    laguerre_jacobi,
    legendre_jacobi,
    spectral_from_json,
    spectral_to_json,
)
from sobolev.experiments import random_spectral_data
from sobolev.spectral import _function_times_weight


def random_jordan(rng, max_m=12, max_block=4):
    """Small random valid (Z, w) with well-separated nodes."""
    m_target = int(rng.integers(2, max_m + 1))
    blocks, betas, dim = [], [], 0
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
        betas.append(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()))
        dim += size
    return JordanOperator(tuple(blocks)), WeightVector(np.asarray(betas))


_RULE = golub_welsch(laguerre_jacobi(5, -0.5))


def _json_operator(zs, alphas):
    """Operator read from JSON with the given [re, im] eigenvalues and
    per-block lists of [re, im] scalings, and unit weights."""
    obj = {"blocks": [{"z": z, "alphas": a} for z, a in zip(zs, alphas)],
           "betas": [[1.0, 0.0]] * len(zs)}
    return spectral_from_json(obj)[0]


def _band_built():
    """Operators from a builder, shift or JSON, each with the blocks the old
    per-node construction gave it."""
    legendre = golub_welsch(legendre_jacobi(7))
    radau = gauss_radau_right(6)
    gammas = np.array([1.0, 0.5, 0.1])
    alphas = np.arange(1.0, 3.0) * np.sqrt(gammas[1:] / gammas[:-1])
    Zc, wc = random_jordan(np.random.default_rng(5))
    real = build_same_measure(legendre, [1.0, 0.01])[0]
    real_specs = tuple(JordanBlockSpec(z, np.sqrt([0.01])) for z in legendre.nodes)
    json_complex = spectral_from_json(json.loads(json.dumps(spectral_to_json(Zc, wc))))[0]
    json_real = spectral_from_json(spectral_to_json(real, WeightVector(np.ones(7))))[0]
    point = JordanBlockSpec(-1.0, [math.sqrt(3.0) / math.sqrt(2.0)])
    endpoint = JordanBlockSpec(1.0, [math.sqrt(0.5) / math.sqrt(radau.weights[-1])])
    cases = {
        "same-measure": (build_same_measure(legendre, gammas)[0],
                         tuple(JordanBlockSpec(z, alphas) for z in legendre.nodes)),
        "same-measure-diagonal": (build_same_measure(legendre, [2.0])[0],
                                  tuple(JordanBlockSpec(z, []) for z in legendre.nodes)),
        "laguerre-sobolev": (build_discrete_laguerre_sobolev(_RULE, -1.0, 2.0, 3.0)[0],
                             (point, *(JordanBlockSpec(z, []) for z in _RULE.nodes))),
        "radau": (build_radau_endpoint(radau, 0.5)[0],
                  (endpoint, *(JordanBlockSpec(z, []) for z in radau.nodes[:-1]))),
        "shift-complex": (Zc.shift(0.3 - 0.2j),
                          tuple(JordanBlockSpec(b.z - (0.3 - 0.2j), b.superdiag) for b in Zc.blocks)),
        "shift-real": (real.shift(-1.0),
                       tuple(JordanBlockSpec(b.z - (-1.0), b.superdiag) for b in real_specs)),
        "json-complex": (json_complex, Zc.blocks),
        "json-real": (json_real, real_specs),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


def horner(Zd, p, v):
    """p(Z) v on a dense matrix, highest coefficient first."""
    out = np.zeros_like(v)
    for c in p.coef[::-1]:
        out = Zd @ out + c * v
    return out


class TestJordanBlockSpec:
    def test_dense_reverses_scaling_order(self):
        # alpha_1 is adjacent to the LAST diagonal entry
        block = JordanBlockSpec(2.0, [3.0, 5.0])
        expected = [[2.0, 5.0, 0.0], [0.0, 2.0, 3.0], [0.0, 0.0, 2.0]]
        assert_allclose(block.dense(), expected)
        assert block.size == 3

    def test_scalar_block(self):
        assert_allclose(JordanBlockSpec(1.5, []).dense(), [[1.5]])

    def test_rejects_zero_scaling(self):
        with pytest.raises(ValueError):
            JordanBlockSpec(0.0, [1.0, 0.0])

    @pytest.mark.parametrize(
        "z, superdiag",
        [(np.nan, [1.0]), (complex(1.0, np.inf), []), (0.0, [1.0, np.inf]), (0.0, [np.nan])],
    )
    def test_rejects_non_finite(self, z, superdiag):
        with pytest.raises(ValueError, match="finite"):
            JordanBlockSpec(z, superdiag)


class TestJordanOperator:
    def test_dense_assembly_and_offsets(self):
        Z = JordanOperator(
            (JordanBlockSpec(0.0, [1.0]), JordanBlockSpec(2.0, []))
        )
        assert Z.m == 3
        assert Z.offsets() == [0, 2]
        assert_allclose(Z.dense(), [[0, 1, 0], [0, 0, 0], [0, 0, 2]])

    def test_rejects_duplicate_eigenvalues(self):
        with pytest.raises(ValueError):
            JordanOperator((JordanBlockSpec(1.0, []), JordanBlockSpec(1.0, [])))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JordanOperator(())

    @pytest.mark.parametrize("seed", range(3))
    def test_frobenius_norm_matches_dense(self, seed):
        Z, _ = random_jordan(np.random.default_rng(seed))
        assert Z.frobenius_norm() == pytest.approx(
            np.linalg.norm(Z.dense()), rel=1e-14
        )

    @pytest.mark.parametrize("m", [20, 201])
    def test_frobenius_norm_does_not_overflow(self, m):
        # the squares of the entries overflow from gamma ~1e306 on, while
        # every entry and the norm itself are finite
        Z, _ = build_same_measure(golub_welsch(legendre_jacobi(m)), [1.0, 1e308])
        entries = [abs(x) for x in (*Z._diag, *Z._sup)]
        norm = Z.frobenius_norm()
        assert math.isfinite(norm)
        assert norm == pytest.approx(math.hypot(*entries), rel=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_bands_match_dense(self, seed):
        # the bands and the helpers derived from them against the blockwise
        # dense reference, for complex data and for real Legendre data
        for Z, _ in (
            random_jordan(np.random.default_rng(seed)),
            build_same_measure(golub_welsch(legendre_jacobi(5 + seed)), [1.0, 0.5, 0.1]),
        ):
            D = Z.dense()
            assert np.array_equal(Z._diag, np.diag(D))
            assert np.array_equal(Z._sup, np.diag(D, 1))
            assert Z.offsets() == np.flatnonzero(np.append(True, np.diag(D, 1) == 0)).tolist()
            assert Z.frobenius_norm() == pytest.approx(np.linalg.norm(D), rel=1e-14)

    def test_real_data_are_stored_as_float64(self):
        Z, w = build_same_measure(golub_welsch(legendre_jacobi(6)), [1.0, 0.1])
        assert Z._diag.dtype == Z._sup.dtype == w.betas.dtype == np.float64
        assert w.dense(Z).dtype == np.float64
        x = np.linspace(-1.0, 1.0, Z.m)
        assert jordan_matvec(Z, x).dtype == np.float64
        assert jordan_matvec(Z, 1j * x).dtype == np.complex128

    def test_one_imaginary_part_makes_the_bands_complex(self):
        # a single complex scaling or eigenvalue decides for the whole operator
        for blocks in (
            (JordanBlockSpec(0.0, [1.0j]), JordanBlockSpec(2.0, [])),
            (JordanBlockSpec(0.0, [1.0]), JordanBlockSpec(2.0 + 1.0j, [])),
        ):
            Z = JordanOperator(blocks)
            assert Z._diag.dtype == Z._sup.dtype == np.complex128
            assert jordan_matvec(Z, np.ones(Z.m)).dtype == np.complex128
        assert WeightVector([1.0, 2.0]).betas.dtype == np.float64
        assert WeightVector([1.0, 2.0j]).betas.dtype == np.complex128
        assert WeightVector([1.0, 2.0 + 0.0j]).betas.dtype == np.float64

    def test_shift(self):
        Z, _ = random_jordan(np.random.default_rng(7))
        shifted = Z.shift(1.0 - 2.0j)
        assert_allclose(
            shifted.dense(), Z.dense() - (1.0 - 2.0j) * np.eye(Z.m), atol=1e-15
        )

    @pytest.mark.parametrize("built, specs", _band_built())
    def test_band_built_operator_equals_block_built(self, built, specs):
        # builders, shift and JSON hand arrays to the band pass; the operator
        # built from explicit blocks (the old per-node construction) is the
        # reference for the bands, their dtype, the block ends and the blocks
        ref = JordanOperator(specs)
        for band, ref_band in ((built._diag, ref._diag), (built._sup, ref._sup),
                               (built._ends, ref._ends)):
            assert band.dtype == ref_band.dtype
            assert np.array_equal(band, ref_band)
        assert built.offsets() == ref.offsets()
        assert len(built.blocks) == len(specs)
        for b, spec in zip(built.blocks, specs):
            assert b.z == spec.z
            assert np.array_equal(b.superdiag, spec.superdiag)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: build_discrete_laguerre_sobolev(_RULE, np.nan, 1.0, 1.0), "finite"),
            (lambda: build_discrete_laguerre_sobolev(_RULE, -np.inf, 1.0, 1.0), "finite"),
            (lambda: build_same_measure(_RULE, [1e300, 1e-300]), "nonzero"),
            # the ratio 1e600 overflows to an infinite scaling, without a warning
            (lambda: build_same_measure(_RULE, [1e-300, 1e300]), "scalings must be finite"),
            (lambda: build_same_measure(_RULE, [1.0, np.nan]), "gamma factors must be finite"),
            (lambda: build_same_measure(_RULE, [1.0, np.inf]), "gamma factors must be finite"),
            (lambda: _json_operator([[np.nan, 0.0]], [[]]), "finite"),
            (lambda: _json_operator([[0.0, 0.0]], [[[1.0, 0.0], [np.inf, 0.0]]]), "finite"),
            (lambda: _json_operator([[0.0, 0.0], [1.0, 0.0]], [[[0.0, 0.0]], []]), "nonzero"),
            (lambda: _json_operator([[1.0, 0.5], [1.0, 0.5]], [[], [[2.0, 0.0]]]), "distinct"),
            (lambda: _json_operator([], []), "at least one"),
            (lambda: build_same_measure(QuadratureRule([], []), [1.0]), "at least one"),
            (lambda: _json_operator([[0.0, 0.0]], [[]]).shift(np.nan), "finite"),
            # 1e-17 - 1 rounds to -1: the shifted eigenvalues coincide
            (lambda: _json_operator([[0.0, 0.0], [1e-17, 0.0]], [[], []]).shift(1.0), "distinct"),
            (lambda: build_discrete_laguerre_sobolev(_RULE, _RULE.nodes[2], 1.0, 1.0), "collides"),
            (lambda: build_same_measure(_RULE, [1.0, 0.0]), "positive"),
            (lambda: build_discrete_laguerre_sobolev(_RULE, -1.0, 0.0, 1.0), "positive"),
            (lambda: build_radau_endpoint(gauss_radau_right(4), -1.0), "positive"),
            (lambda: JordanBlockSpec(0.0, [[1.0], [2.0]]), "superdiag must be a 1-d sequence"),
            (lambda: JordanOperator([0.0]), "blocks must be JordanBlockSpec instances"),
            (lambda: WeightVector([]), "betas must form a non-empty 1-d sequence"),
            (lambda: WeightVector([[1.0], [2.0]]), "betas must form a non-empty 1-d sequence"),
        ],
    )
    def test_builders_reject_invalid_data(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()


class TestWeightVector:
    def test_dense_places_entries_at_block_tails(self):
        Z = JordanOperator(
            (JordanBlockSpec(0.0, [1.0]), JordanBlockSpec(2.0, []))
        )
        w = WeightVector([3.0, 4.0j])
        assert_allclose(w.dense(Z), [0.0, 3.0, 4.0j])
        assert w.norm() == pytest.approx(5.0)

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            WeightVector([1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightVector([1.0, bad])

    def test_rejects_count_mismatch(self):
        Z = JordanOperator((JordanBlockSpec(0.0, []),))
        with pytest.raises(ValueError):
            WeightVector([1.0, 1.0]).dense(Z)


class TestBuildSameMeasure:
    def test_point_mass_with_derivative(self):
        rule = QuadratureRule([0.0], [2.0])
        Z, w = build_same_measure(rule, [1.0, 0.25])
        assert len(Z.blocks) == 1
        assert Z.blocks[0].z == 0.0
        assert_allclose(Z.blocks[0].superdiag, [0.5])
        assert_allclose(w.betas, [math.sqrt(2.0)])

    def test_no_derivative_is_diagonal(self):
        rule = golub_welsch(legendre_jacobi(5))
        Z, w = build_same_measure(rule, [1.0])
        assert all(b.size == 1 for b in Z.blocks)
        assert_allclose([b.z for b in Z.blocks], rule.nodes)
        assert_allclose(w.betas, np.sqrt(rule.weights))

    def test_second_order_scalings(self):
        # alpha_r = r sqrt(gamma_r / gamma_{r-1})
        rule = QuadratureRule([0.5], [1.0])
        Z, _ = build_same_measure(rule, [1.0, 4.0, 9.0])
        assert_allclose(Z.blocks[0].superdiag, [2.0, 3.0])

    def test_table_configuration_dimensions(self):
        rule = golub_welsch(laguerre_jacobi(10, -0.5))
        Z, w = build_same_measure(rule, [1.0, 1.0])
        assert Z.m == 20
        assert w.betas.size == 10

    @pytest.mark.parametrize("gammas", [[], [0.0, 1.0], [1.0, -2.0]])
    def test_rejects_bad_gammas(self, gammas):
        rule = QuadratureRule([0.0], [2.0])
        with pytest.raises(ValueError):
            build_same_measure(rule, gammas)


class TestBuildDiscreteLaguerreSobolev:
    def test_hand_example(self):
        rule = QuadratureRule([1.0], [1.0])
        Z, w = build_discrete_laguerre_sobolev(rule, -1.0, 1.0, 1.0)
        assert_allclose(
            Z.dense(), [[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        assert_allclose(w.dense(Z), [0.0, 1.0, 1.0])

    def test_point_mass_ratio(self):
        rule = QuadratureRule([1.0], [1.0])
        Z, _ = build_discrete_laguerre_sobolev(rule, -1.0, 4.0, 1.0)
        assert_allclose(Z.blocks[0].superdiag, [0.5])

    def test_rejects_colliding_point(self):
        rule = QuadratureRule([0.5, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            build_discrete_laguerre_sobolev(rule, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_discrete_laguerre_sobolev(rule, -1.0, 0.0, 1.0)


class TestBuildRadauEndpoint:
    def test_two_point_rule(self):
        rule = QuadratureRule([-1.0 / 3.0, 1.0], [1.5, 0.5])
        Z, w = build_radau_endpoint(rule, 1.0, endpoint=1.0)
        assert Z.blocks[0].z == 1.0
        assert_allclose(Z.blocks[0].superdiag, [math.sqrt(2.0)])
        assert_allclose(w.betas, [math.sqrt(0.5), math.sqrt(1.5)])

    def test_small_gamma_limit(self):
        rule = gauss_radau_right(4)
        Z, _ = build_radau_endpoint(rule, 1e-12)
        assert abs(Z.blocks[0].superdiag[0]) < 1e-5

    def test_left_endpoint(self):
        rule = gauss_radau_right(3, endpoint=-1.0)
        Z, _ = build_radau_endpoint(rule, 2.0, endpoint=-1.0)
        assert Z.blocks[0].z == -1.0

    def test_rejects_missing_endpoint(self):
        rule = golub_welsch(legendre_jacobi(4))
        with pytest.raises(ValueError):
            build_radau_endpoint(rule, 1.0, endpoint=1.0)


class TestSpecOf:
    def test_unit_block(self):
        Z = JordanOperator((JordanBlockSpec(0.0, [1.0]),))
        spec = spec_of(Z, WeightVector([1.0]))
        assert_allclose(spec.terms[0].weights, [1.0, 1.0])

    def test_factorial_damping(self):
        Z = JordanOperator((JordanBlockSpec(0.0, [1.0, 1.0]),))
        spec = spec_of(Z, WeightVector([1.0]))
        assert_allclose(spec.terms[0].weights, [1.0, 1.0, 0.25])

    def test_same_measure_round_trip(self):
        rule = golub_welsch(legendre_jacobi(6))
        gammas = np.array([1.0, 0.3, 0.07])
        Z, w = build_same_measure(rule, gammas)
        spec = spec_of(Z, w)
        for term, weight in zip(spec.terms, rule.weights):
            assert_allclose(term.weights, gammas * weight, rtol=1e-13)


class TestSequentialDominance:
    def test_gap_in_orders_rejected(self):
        with pytest.raises(ValueError):
            ProductTerm(0.0, [1.0, 0.0, 1.0])

    def test_highest_order_must_be_positive(self):
        with pytest.raises(ValueError):
            ProductTerm(0.0, [1.0, 0.0])
        with pytest.raises(ValueError):
            ProductTerm(0.0, [1.0, -0.5])

    def test_duplicate_nodes_rejected(self):
        t = ProductTerm(0.0, [1.0])
        with pytest.raises(ValueError):
            SobolevProductSpec((t, t))

    @pytest.mark.parametrize("seed", range(3))
    def test_builders_produce_valid_specs(self, seed):
        # spec_of re-runs the dominance validation on construction
        Z, w = random_jordan(np.random.default_rng(seed))
        spec = spec_of(Z, w)
        assert all(t.weights[0] > 0 for t in spec.terms)


class TestInnerProductDirect:
    def test_hand_example(self):
        spec = SobolevProductSpec((ProductTerm(0.0, [1.0, 1.0]),))
        z = Polynomial([0.0, 1.0])
        assert inner_product_direct(z, z, spec) == pytest.approx(1.0)

    def test_constants_give_weight_norm(self):
        Z, w = random_jordan(np.random.default_rng(11))
        one = Polynomial([1.0])
        got = inner_product_direct(one, one, spec_of(Z, w))
        assert got == pytest.approx(w.norm() ** 2, rel=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_matrix_form_low_degree(self, seed):
        rng = np.random.default_rng(seed)
        Z, w = random_jordan(rng, max_m=8)
        Zd, wd = Z.dense(), w.dense(Z)
        spec = spec_of(Z, w)
        for _ in range(5):
            deg = int(rng.integers(0, 6))
            p = Polynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            q = Polynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            x = horner(Zd, p, wd)
            y = horner(Zd, q, wd)
            direct = inner_product_direct(p, q, spec)
            assert abs(np.vdot(y, x) - direct) <= 1e-12 * max(
                np.linalg.norm(x) * np.linalg.norm(y), 1.0
            )


def _matvec_operators():
    """Random operators, then one 1x1 block, one 4x4 block, nine 1x1 blocks."""
    rng = np.random.default_rng(2024)
    ops = [random_spectral_data(rng)[0] for _ in range(6)]
    ops.append(JordanOperator((JordanBlockSpec(0.3 - 1.1j, []),)))
    ops.append(JordanOperator((JordanBlockSpec(-0.7 + 0.2j, [1.5, -0.4j, 2.0 + 1.0j]),)))
    ops.append(JordanOperator(tuple(JordanBlockSpec(z, []) for z in np.linspace(-1, 1, 9))))
    return ops


class TestJordanMatvec:
    def test_scalar_block(self):
        Z = JordanOperator((JordanBlockSpec(2.0, []),))
        assert_allclose(jordan_matvec(Z, [3.0]), [6.0])

    def test_shift_action(self):
        Z = JordanOperator((JordanBlockSpec(0.0, [1.0]),))
        assert_allclose(jordan_matvec(Z, [0.0, 1.0]), [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        Z, _ = random_jordan(rng)
        x = rng.standard_normal(Z.m) + 1j * rng.standard_normal(Z.m)
        assert_allclose(jordan_matvec(Z, x), Z.dense() @ x, atol=1e-14)

    def test_rejects_wrong_length(self):
        Z = JordanOperator((JordanBlockSpec(0.0, [1.0]),))
        with pytest.raises(ValueError):
            jordan_matvec(Z, [1.0])

    @pytest.mark.parametrize("Z", _matvec_operators())
    def test_matches_dense_product(self, Z):
        rng = np.random.default_rng(Z.m)
        x = rng.standard_normal(Z.m) + 1j * rng.standard_normal(Z.m)
        ref = Z.dense() @ x
        got = jordan_matvec(Z, x)
        assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)

    @pytest.mark.parametrize("Z", _matvec_operators())
    def test_rejects_wrong_length_for_any_operator(self, Z):
        for length in (Z.m - 1, Z.m + 1):
            with pytest.raises(ValueError):
                jordan_matvec(Z, np.ones(length))


class TestFunctionTimesWeight:
    @pytest.mark.parametrize("case", ["same-measure", "plain", "laguerre-sobolev", "complex"])
    def test_matches_the_polynomial_of_the_dense_matrix(self, case):
        # for a polynomial f, f(Z) w is Horner's scheme on the dense Z
        rule = golub_welsch(legendre_jacobi(6))
        Z, w = {
            "same-measure": lambda: build_same_measure(rule, [1.0, 0.3]),
            "plain": lambda: build_same_measure(rule, [2.0]),
            "laguerre-sobolev": lambda: build_discrete_laguerre_sobolev(_RULE, -1.0, 2.0, 3.0),
            "complex": lambda: random_jordan(np.random.default_rng(3), max_m=10, max_block=2),
        }[case]()
        f = Polynomial([0.5, -1.0, 0.25j if case == "complex" else 0.25, 2.0])
        expected = horner(Z.dense(), f, w.dense(Z).astype(complex))
        got = _function_times_weight(Z, w, f, f.deriv())
        assert got.dtype == (complex if case == "complex" else float)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_rejects_blocks_above_size_two(self):
        Z, w = build_same_measure(golub_welsch(legendre_jacobi(3)), [1.0, 0.5, 0.1])
        with pytest.raises(ValueError, match="size 1 and 2"):
            _function_times_weight(Z, w, np.exp, np.exp)


class TestJordanPolyColumn:
    def test_constant(self):
        block = JordanBlockSpec(0.7, [1.0, 2.0])
        assert_allclose(jordan_poly_column(block, Polynomial([1.0])), [0, 0, 1])

    def test_linear(self):
        block = JordanBlockSpec(0.0, [1.0])
        assert_allclose(jordan_poly_column(block, Polynomial([0.0, 1.0])), [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_horner(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 7))
        block = JordanBlockSpec(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            rng.uniform(0.5, 1.5, size - 1)
            * np.exp(2j * np.pi * rng.uniform(0, 1, size - 1)),
        )
        deg = int(rng.integers(0, 7))
        p = Polynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        e_last = np.zeros(size, dtype=complex)
        e_last[-1] = 1.0
        expected = horner(block.dense(), p, e_last)
        assert_allclose(jordan_poly_column(block, p), expected, atol=1e-13)


class TestTheoremEquivalence:
    """The Euclidean product of q(Z)w and p(Z)w equals the direct
    Sobolev product; a fuller randomized sweep runs in the acceptance
    suite."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        Z, w = random_jordan(rng, max_m=12)
        Zd, wd = Z.dense(), w.dense(Z)
        spec = spec_of(Z, w)
        deg = int(rng.integers(0, Z.m))
        p = Polynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        q = Polynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        x = horner(Zd, p, wd)
        y = horner(Zd, q, wd)
        direct = inner_product_direct(p, q, spec)
        scale = max(np.linalg.norm(x) * np.linalg.norm(y), 1e-30)
        assert abs(np.vdot(y, x) - direct) / scale <= 1e-11


class TestJsonRoundTrip:
    def test_schema(self):
        Z, w = random_jordan(np.random.default_rng(0))
        obj = spectral_to_json(Z, w)
        # everything must survive json serialization as [re, im] pairs
        obj = json.loads(json.dumps(obj))
        assert set(obj) == {"blocks", "betas"}
        for entry in obj["blocks"]:
            assert set(entry) == {"z", "alphas"}
            assert len(entry["z"]) == 2
            for a in entry["alphas"]:
                assert len(a) == 2
        assert len(obj["betas"]) == len(Z.blocks)

    @pytest.mark.parametrize(
        "edit, match",
        [
            # one beta too many used to pass until the solve
            (lambda obj: obj["betas"].append([1.0, 0.0]), "weight count 5 does not match block count 4"),
            (lambda obj: obj["betas"].pop(), "weight count 3 does not match block count 4"),
            (lambda obj: obj.pop("betas"), 'keys "blocks" and "betas"'),
            (lambda obj: obj["blocks"][1].pop("alphas"), 'keys "z" and "alphas"'),
            (lambda obj: obj["blocks"][1].update(alphas=5), 'keys "z" and "alphas", a list'),
            (lambda obj: obj.update(blocks=5), '"blocks" and "betas" must be lists'),
            (lambda obj: obj.update(betas={"0": [1.0, 0.0]}), '"blocks" and "betas" must be lists'),
            (lambda obj: obj["blocks"][0].update(z=[1.0, 2.0, 3.0]), r"\[re, im\] pair"),
            (lambda obj: obj["blocks"][2]["alphas"].append(["1", "0"]), r"\[re, im\] pair"),
            (lambda obj: obj["betas"].__setitem__(0, 1.0), r"\[re, im\] pair"),
        ],
        ids=["extra-beta", "missing-beta", "no-betas", "no-alphas", "scalar-alphas", "scalar-blocks",
             "dict-betas", "z-triple", "string-alpha", "scalar-beta"],
    )
    def test_rejects_malformed_data(self, edit, match):
        blocks = (JordanBlockSpec(0.0, [1.0]), JordanBlockSpec(1.0, []),
                  JordanBlockSpec(2.0, [0.5, 0.5]), JordanBlockSpec(3.0j, []))
        obj = json.loads(json.dumps(spectral_to_json(JordanOperator(blocks), WeightVector(np.ones(4)))))
        edit(obj)
        with pytest.raises(ValueError, match=match):
            spectral_from_json(obj)

    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip(self, seed):
        Z, w = random_jordan(np.random.default_rng(seed))
        Z2, w2 = spectral_from_json(spectral_to_json(Z, w))
        assert_allclose(Z2.dense(), Z.dense())
        assert_allclose(w2.betas, w.betas)
