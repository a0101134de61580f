"""Self-tests of the benchmark's own machinery.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py
"""

from pathlib import Path

import numpy as np
import pytest

import invprox.cli
import invprox.geometry
import invprox.koopman
import run
import workloads
from tracer import LAYERS, Tracer, layer_metrics, self_times
from worker import run_op

ROOT = Path(__file__).resolve().parent.parent


def test_traced_dict_sweep_op_records_geometry_and_expr(tmp_path):
    op = workloads.generate("dict-sweep", 0, tmp_path, ROOT)[0]
    original = invprox.koopman.orthonormalize
    with Tracer() as tracer:
        # koopman imported the function by value; its own name must be traced
        assert invprox.koopman.orthonormalize is not original
        tracer.current_op = 0
        code, _, _ = run_op(invprox.cli.main, op)
    assert invprox.koopman.orthonormalize is original
    assert invprox.geometry.orthonormalize is original
    assert code == 0
    metrics = layer_metrics(tracer.arrays(), tracer.names, n_passes=1)
    for name in ("geometry.orthonormalize", "geometry.isomorphism", "geometry.angles"):
        assert metrics[f"{name}_s"] > 0
        assert metrics[f"{name}_calls"] > 0
    assert metrics["expr.eval_calls"] > 0
    assert metrics["space.gram_blocks_calls"] == 2  # the analysis and the check
    assert metrics["koopman.quad_check_s"] > 0


def test_self_time_of_synthetic_span_tree():
    # main [0, 8] > analysis [1, 7] > {orthonormalize [2, 3], eval [4, 6.5]}
    names = Tracer().names
    spans = {
        "name": np.array([names.index(n) for n in (
            "cli.main", "koopman.InvarianceAnalysis.__init__",
            "geometry.orthonormalize", "expr.Expr.__call__")]),
        "parent": np.array([-1, 0, 1, 1]),
        "start": np.array([0.0, 1.0, 2.0, 4.0]),
        "end": np.array([8.0, 7.0, 3.0, 6.5]),
        "size": np.array([0, 0, 0, 5]),
        "width": np.zeros(4, dtype=int),
        "refined": np.zeros(4, dtype=bool),
    }
    assert self_times(spans["start"], spans["end"], spans["parent"]).tolist() == [2.0, 2.5, 1.0, 2.5]
    metrics = layer_metrics(spans, names, n_passes=2)
    assert metrics["koopman.analysis_s"] == 1.25
    assert metrics["geometry.orthonormalize_s"] == 0.5
    assert metrics["expr.eval_s"] == 1.25
    assert metrics["expr.eval_calls"] == 0.5
    assert metrics["expr.rows_per_call"] == 5.0
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert layers == 4.0  # the root's duration per pass


def test_op_stats_from_per_op_upper_quartiles_and_tail_quantile():
    # two ops per pass; op A takes k, op B takes 100 + k on pass k
    passes = [[float(k), 100.0 + k] for k in range(1, 16)]
    stats = run.op_stats(passes)
    upper = run.harrell_davis(np.arange(1.0, 16.0), 0.75)
    assert 11.0 < upper < 13.0  # op A's upper quartile
    assert stats["wall_s"] == pytest.approx(upper + (100.0 + upper))
    assert stats["op_p50_s"] == pytest.approx((upper + (100.0 + upper)) / 2)
    assert stats["op_tail_percentile"] == pytest.approx(100.0 * 20 / 30)
    assert 100.0 < stats["op_tail_s"] < 108.0  # inside op B's latencies
    with pytest.raises(run.BenchError):  # enough ops, too few passes
        run.op_stats([[1.0] * 6] * 4)


def test_harrell_davis_quantiles():
    values = np.arange(1.0, 102.0)
    assert run.harrell_davis(values, 0.5) == pytest.approx(51.0, abs=1e-6)
    assert abs(run.harrell_davis(np.full(30, 0.25), 0.9) - 0.25) < 1e-12
    assert run.harrell_davis(values, 0.8) < run.harrell_davis(values, 0.9)
