"""The public surface of the package: what ``sobolev`` exports, and what
importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sobolev
from sobolev import eigen, sop, spectral

# direct oracles that only the tests use; they live in tests/oracles.py
ORACLES = [
    "PolyCoeffs",
    "ProductTerm",
    "SobolevProductSpec",
    "spec_of",
    "inner_product_direct",
    "jordan_poly_column",
    "coefficients",
]


def test_every_exported_name_resolves():
    for name in sobolev.__all__:
        assert getattr(sobolev, name) is not None, name


@pytest.mark.parametrize("module", [sobolev, spectral, sop], ids=lambda m: m.__name__)
def test_oracles_are_not_in_the_package(module):
    assert [name for name in ORACLES if hasattr(module, name)] == []
    assert not set(ORACLES) & set(module.__all__)


@pytest.mark.parametrize("module", [sobolev, eigen], ids=lambda m: m.__name__)
def test_spectrum_wrapper_is_gone(module):
    # hessenberg_eigenvalues returns the sorted eigenvalues as an ndarray
    assert not hasattr(module, "Spectrum")
    assert "Spectrum" not in module.__all__


def test_import_leaves_numpy_polynomial_unloaded():
    src = str(Path(sobolev.__file__).parents[1])
    code = "import sys, sobolev; print('numpy.polynomial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_package_names_are_the_layers_names():
    # each public name is listed once, in its own layer's __all__; the
    # package re-exports those lists in pipeline order, the same objects
    src = str(Path(sobolev.__file__).parents[1])
    code = """
import sobolev
from sobolev import eigen, errors, hiep, quadrature, sop, spectral
layers = (quadrature, spectral, hiep, eigen, sop)
expected = ["NumericalFailure", *(name for layer in layers for name in layer.__all__), "__version__"]
assert sobolev.__all__ == expected, sobolev.__all__
assert sobolev.NumericalFailure is errors.NumericalFailure
for layer in layers:
    for name in layer.__all__:
        assert getattr(sobolev, name) is getattr(layer, name), name
print("ok")
"""
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
