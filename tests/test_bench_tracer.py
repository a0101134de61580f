"""The benchmark's tracer (``bench/tracer.py``) wraps library functions by
name; each of its targets must still exist, or ``--trace 1`` breaks."""

import importlib

import pytest

from conftest import bench_module

TRACER = bench_module("tracer")


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _ in TRACER.TARGETS],
                         ids=[f"{m}.{p}" for m, p, _ in TRACER.TARGETS])
def test_target_resolves(module, path):
    home = importlib.import_module(f"invprox.{module}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:  # a method is wrapped on the class that defines it
        assert callable(vars(getattr(home, owner_name)).get(attr))
    else:
        assert callable(getattr(home, attr, None))

