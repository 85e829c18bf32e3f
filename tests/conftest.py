"""Shared pytest helpers and hooks.

The acceptance tests record one summary line per criterion; the terminal
summary hook prints them all at the end of the run so the pass/fail
status of every criterion is visible in one place.
"""

import tempfile

import numpy as np

from sobolev import JordanBlockSpec, JordanOperator, WeightVector

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


def gentle_jordan(rng, max_m=12):
    """Random (Z, w) kept well conditioned: nodes in a small box, far
    apart, with scalings of moderate size.

    Oracles that round-trip through monomial coefficients (column
    correspondence, direct-product orthonormality) lose digits fast when
    nodes cluster or scalings shrink, so they need tamer inputs than the
    solvers themselves.
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
