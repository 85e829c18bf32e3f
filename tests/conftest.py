"""Shared pytest helpers and hooks.

The acceptance tests record one summary line per criterion; the terminal
summary hook prints them all at the end of the run so the pass/fail
status of every criterion is visible in one place.
"""

import tempfile

import numpy as np
import pytest

from sobolev import (
    JordanBlockSpec,
    JordanOperator,
    WeightVector,
    build_same_measure,
    golub_welsch,
    legendre_jacobi,
)

ACCEPTANCE_LINES = []
_hypothesis_home = None


def log_criterion(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def pytest_configure(config):
    """Point Hypothesis's storage at a temporary directory.

    Even without an example database, Hypothesis caches the constants of
    the local source files at collection, which would otherwise leave a
    ``.hypothesis/`` directory in the checkout.
    """
    global _hypothesis_home
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    _hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home.name)


def pytest_unconfigure(config):
    """Remove Hypothesis's temporary storage at the end of the run."""
    if _hypothesis_home is not None:
        _hypothesis_home.cleanup()


def gentle_jordan(rng, max_m=12):
    """Random (Z, w) kept well conditioned: nodes in a small box, far
    apart, with scalings of moderate size.

    The oracles of ``oracles.py`` that round-trip through monomial
    coefficients (column correspondence, direct-product orthonormality)
    lose digits fast when nodes cluster or scalings shrink, so they need
    tamer inputs than the solvers themselves.
    """
    m_target = int(rng.integers(2, max_m + 1))
    blocks, betas, dim = [], [], 0
    while dim < m_target:
        size = int(rng.integers(1, min(3, m_target - dim) + 1))
        while True:
            z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.8, 0.8))
            if all(abs(z - b.z) > 0.5 for b in blocks):
                break
        alphas = rng.uniform(0.9, 1.4, size - 1) * np.exp(
            2j * np.pi * rng.uniform(0.0, 1.0, size - 1)
        )
        blocks.append(JordanBlockSpec(z, alphas))
        betas.append(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()))
        dim += size
    return JordanOperator(tuple(blocks)), WeightVector(np.asarray(betas))


def hessenberg_reference(Z, w):
    """H of real spectral data (Z, w) by Householder reduction in long double.

    The bordered matrix [[0, 0], [w, Z]] is reduced to Hessenberg form by
    reflectors on the indices 1, 2, ...; the first one maps w to a
    multiple of e_1, so the trailing block is Q^T Z Q with Q e_1 = w/||w||
    up to sign (Golub & Van Loan, Matrix Computations, section 7.4).  The
    subdiagonal is then made non-negative by a diagonal of signs.

    The reflectors are only normwise stable, so this is a reference for
    well-scaled data such as the Legendre products, where it agrees with
    Arnoldi to 3e-15.  On graded data it is not: on Laguerre n_quad=10,
    alpha=-1/2 with gamma >= 1e100 it is off by O(1) in every column from
    the second on, while the solvers are accurate column by column.
    Graded inputs need an exact (multiprecision) oracle.
    """
    Zd, wd = Z.dense(), w.dense(Z)
    if Zd.imag.any() or wd.imag.any():
        raise ValueError("the long-double reference takes real spectral data only")
    n = Z.m
    B = np.zeros((n + 1, n + 1), dtype=np.longdouble)
    B[1:, 0] = wd.real
    B[1:, 1:] = Zd.real
    for k in range(n - 1):
        u = B[k + 1 :, k].copy()
        u[0] += np.copysign(np.sqrt(u @ u), u[0])
        scale = 2 / (u @ u)
        B[k + 1 :, k:] -= np.outer(u, scale * (u @ B[k + 1 :, k:]))
        B[:, k + 1 :] -= np.outer(B[:, k + 1 :] @ u, scale * u)
    H = np.triu(B[1:, 1:], -1)
    signs = np.cumprod(np.concatenate(([1], np.sign(np.diagonal(H, -1)))))
    return signs[:, None] * H * signs


@pytest.fixture(scope="session")
def legendre_references():
    """Long-double H of the two products of the least-squares experiment:
    Gauss-Legendre m=201 alone (dimension 201) and with the derivative
    term gamma=0.01 (dimension 402, the benchmark's solve input)."""
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("np.longdouble is no wider than float64 here, so it cannot "
                    "serve as a reference for float64 solvers")
    rule = golub_welsch(legendre_jacobi(201))
    return {
        "plain": hessenberg_reference(*build_same_measure(rule, [1.0])),
        "sobolev": hessenberg_reference(*build_same_measure(rule, [1.0, 0.01])),
    }


def assert_reported_errors(fit, values, derivs, f, fprime, grid):
    """The fit's reported errors are those of its coefficients on the given
    basis, within 1e-13 of the size at which |fit - exact| is rounded: the
    larger of the largest sum sum_i |c_i p_i(x)| and the largest |exact|
    on the grid."""
    c = fit.coefficients
    for reported, rows, exact in (
        (fit.value_error, values, f(grid)),
        (fit.deriv_error, derivs, fprime(grid)),
    ):
        scale = max(np.max(np.abs(c[:, None] * rows).sum(axis=0)), np.max(np.abs(exact)))
        expected = np.max(np.abs(c @ rows - exact))
        assert abs(reported - expected) <= 1e-13 * scale
