"""Metamorphic property tests for the three inverse-problem solvers.

Instances come from ``random_spectral_data`` with a drawn seed.  The
relations hold exactly in exact arithmetic:

* H(cZ + tI) = c H(Z) + tI for real c > 0 and complex t, with the same Q;
* H does not change when w is scaled by s e^{i theta}, s > 0;
* the updating solvers agree with Arnoldi;
* H does not change when the blocks of Z are permuted together with w
  (a permutation similarity), on random instances and, in leading
  sections too, on graded Gauss-Laguerre weights.

The norm Arnoldi takes of its vectors is also checked to be bit for bit
``np.linalg.norm``.

Hypothesis runs derandomized and without an example database, so each
run draws the same examples (``conftest.py`` keeps its other storage out
of the checkout).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolev import (
    JordanBlockSpec,
    JordanOperator,
    WeightVector,
    build_same_measure,
    golub_welsch,
    laguerre_jacobi,
    solve_hessenberg,
)
from sobolev.experiments import random_spectral_data
from sobolev.hiep import _norm

METHODS = ["arnoldi", "update-hh", "update-rot"]
TOL = 1e-11

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=25
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
magnitudes = st.floats(min_value=0.1, max_value=10.0)
angles = st.floats(min_value=0.0, max_value=2 * np.pi)
parts = st.floats(min_value=-3.0, max_value=3.0)


def instance(seed):
    return random_spectral_data(np.random.default_rng(seed), max_m=40)


def relative_error(H, expected):
    return np.linalg.norm(H - expected) / np.linalg.norm(expected)


@pytest.mark.parametrize("method", METHODS)
@PROPERTY_SETTINGS
@given(seed=seeds, c=magnitudes, t_re=parts, t_im=parts)
def test_affine_map_of_operator(method, seed, c, t_re, t_im):
    Z, w = instance(seed)
    t = complex(t_re, t_im)
    mapped = JordanOperator(
        tuple(JordanBlockSpec(c * b.z + t, c * b.superdiag) for b in Z.blocks)
    )
    H = solve_hessenberg(Z, w, Z.m, method=method)
    Hm = solve_hessenberg(mapped, w, Z.m, method=method)
    assert relative_error(Hm, c * H + t * np.eye(Z.m)) <= TOL


@pytest.mark.parametrize("method", METHODS)
@PROPERTY_SETTINGS
@given(seed=seeds, s=magnitudes, theta=angles)
def test_weight_scaling_leaves_H_unchanged(method, seed, s, theta):
    Z, w = instance(seed)
    scaled = WeightVector(s * np.exp(1j * theta) * w.betas)
    H = solve_hessenberg(Z, w, Z.m, method=method)
    Hs = solve_hessenberg(Z, scaled, Z.m, method=method)
    assert relative_error(Hs, H) <= TOL


@pytest.mark.parametrize("method", ["update-hh", "update-rot"])
@PROPERTY_SETTINGS
@given(seed=seeds)
def test_updating_solvers_agree_with_arnoldi(method, seed):
    Z, w = instance(seed)
    H_arn = solve_hessenberg(Z, w, Z.m, method="arnoldi")
    assert relative_error(solve_hessenberg(Z, w, Z.m, method=method), H_arn) <= TOL


@pytest.mark.parametrize("method", METHODS)
@PROPERTY_SETTINGS
@given(seed=seeds)
def test_block_order_on_random_instances(method, seed):
    rng = np.random.default_rng(seed)
    Z, w = random_spectral_data(rng, max_m=40)
    order = rng.permutation(len(Z.blocks))
    permuted = JordanOperator(tuple(Z.blocks[i] for i in order))
    H = solve_hessenberg(Z, w, Z.m, method=method)
    Hp = solve_hessenberg(permuted, WeightVector(w.betas[order]), Z.m, method=method)
    assert relative_error(Hp, H) <= TOL


# graded Gauss-Laguerre weights, gamma=1, blocks of size 2: alpha=-1/2 with
# n_quad=40 (|beta| from 2e-31 to 0.7), alpha=0 and alpha=1 with n_quad=30
GRADED = [
    build_same_measure(golub_welsch(laguerre_jacobi(n_quad, alpha)), [1.0, 1.0])
    for n_quad, alpha in ((40, -0.5), (30, 0.0), (30, 1.0))
]


SECTION_SOLVERS = ["arnoldi", "update-rot"]


def sections(Z):
    return (10, Z.m // 2, Z.m)


@pytest.fixture(scope="module")
def graded_H():
    """H of every graded input in its given block order, by (method, input, k)."""
    return {
        (method, i, k): solve_hessenberg(Z, w, k, method=method)
        for method in SECTION_SOLVERS
        for i, (Z, w) in enumerate(GRADED)
        for k in sections(Z)
    }


# update-hh is left out: with graded weights its reflector kernel loses the
# tiny weights in some block orders (off by up to 0.16 on alpha=-1/2, 1e-5 on
# alpha=0 and 1e-2 on alpha=1 over 20 block orders), an open defect
@pytest.mark.parametrize("method", SECTION_SOLVERS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_block_order_leaves_H_unchanged(method, data, graded_H):
    # every section of every input, the full matrix (k = m) included
    for i, (Z, w) in enumerate(GRADED):
        order = data.draw(st.permutations(range(len(Z.blocks))))
        permuted = JordanOperator(tuple(Z.blocks[j] for j in order))
        wp = WeightVector(w.betas[list(order)])
        for k in sections(Z):
            Hp = solve_hessenberg(permuted, wp, k, method=method)
            assert relative_error(Hp, graded_H[method, i, k]) <= 1e-13


unit_floats = st.floats(min_value=-1.0, max_value=1.0)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=60),
    scale=st.sampled_from([1.0, 1e150, 1e-150]),
    is_complex=st.booleans(),
)
def test_arnoldi_norm_is_bitwise_numpy_norm(data, n, scale, is_complex):
    v = scale * np.asarray(data.draw(st.lists(unit_floats, min_size=n, max_size=n)))
    if is_complex:
        v = v + 1j * scale * np.asarray(data.draw(st.lists(unit_floats, min_size=n, max_size=n)))
    for x in (v, np.zeros_like(v)):
        assert _norm(x).hex() == float(np.linalg.norm(x)).hex()
