import importlib.util
from pathlib import Path

import numpy as np
import pytest

from invprox import Domain, DynamicsMap, QuadratureSpace, parse

# The 2-d benchmark system used throughout: linear in x1, trig/quadratic
# coupling into x2, on the unit box.
DYNAMICS_SOURCES = ["0.9*x1", "0.4*(sin(x2)+x1^2)+0.01*x2^2"]
DICTIONARIES = {
    "S1": ["1", "x1", "x1^2"],
    "S2": ["1", "x1", "x2", "x1^2"],
    "S3": ["1", "x1", "x2", "x1^2", "x2^2"],
}


@pytest.fixture(scope="session")
def box():
    return Domain(((-1.0, 1.0), (-1.0, 1.0)))


@pytest.fixture(scope="session")
def quad(box):
    return QuadratureSpace(box, 20)


@pytest.fixture(scope="session")
def dynamics():
    return DynamicsMap.from_strings(DYNAMICS_SOURCES, 2)


@pytest.fixture(scope="session")
def dictionaries():
    return {
        name: tuple(parse(s, 2) for s in sources)
        for name, sources in DICTIONARIES.items()
    }


def gauss_legendre_2d(f, order, bounds=((-1.0, 1.0), (-1.0, 1.0))):
    """Independent scalar quadrature oracle: plain double sum over a tensor rule."""
    t, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for i in range(order):
        (a1, b1), (a2, b2) = bounds
        x = 0.5 * (b1 - a1) * t[i] + 0.5 * (a1 + b1)
        wi = 0.5 * (b1 - a1) * w[i]
        for j in range(order):
            y = 0.5 * (b2 - a2) * t[j] + 0.5 * (a2 + b2)
            wj = 0.5 * (b2 - a2) * w[j]
            total += wi * wj * f(x, y)
    return total


def bench_module(name):
    """``bench/<name>.py`` loaded by path (``bench/`` is not a package)."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_workloads():
    return bench_module("workloads")


def sweep_atoms(basis, degree):
    """The dict-sweep benchmark's dictionary (``bench/workloads.py``):
    monomials or Legendre products of total degree <= ``degree``."""
    return tuple(parse(s, 2) for s in _bench_workloads().sweep_dictionary(basis, degree))


def snapshot_atoms():
    """The snapshots benchmark's 15 atoms (``bench/workloads.py``)."""
    return tuple(parse(s, 2) for s in _bench_workloads().SNAPSHOT_ATOMS)
