"""Metamorphic property tests for the three inverse-problem solvers.

Instances come from ``random_spectral_data`` with a drawn seed.  The
relations hold exactly in exact arithmetic:

* H(cZ + tI) = c H(Z) + tI for real c > 0 and complex t, with the same Q;
* H does not change when w is scaled by s e^{i theta}, s > 0;
* the updating solvers agree with Arnoldi.

Hypothesis runs derandomized and without an example database, so each
run draws the same examples (``conftest.py`` keeps its other storage out
of the checkout).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolev import JordanBlockSpec, JordanOperator, WeightVector, solve_hessenberg
from sobolev.experiments import random_spectral_data

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
