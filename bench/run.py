"""Run one workload of the invprox benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``paper-cli``, ``dict-sweep`` and ``snapshots`` (see
``workloads.py``). The seed makes the inputs; the program receives only
the generated config and CSV files, written under ``.bench_work/`` and
removed afterwards.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median
import time of ``invprox.cli`` over several fresh interpreters
(``probe.py``); the other metrics come from one fresh worker process
(``worker.py``) that runs an untimed warm-up pass and then timed passes for
``S`` seconds. ``--trace 1`` reports the per-layer metrics: an untraced
worker (``S/4`` seconds), a traced worker (``S/2`` seconds) and a traced
worker with ``OPENBLAS_NUM_THREADS=1`` (``S/4`` seconds) run one after
another, so that a traced run lasts about as long as an untraced one; the
layers come from the traced worker at the inherited thread setting, the
single-threaded one is recorded beside it without being reported as a
metric.

Every op is checked (``worker.check``). The full record of a run -- the
environment, raw latencies, failures, the single-threaded run and the span
accounting -- is written to ``.bench_out/``; spans of traced runs go beside
it as ``.npz``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

PROBES = 6           # timed imports for setup_s, after one that compiles bytecode
MIN_OPS = 20         # so that op_tail_s exists and sits at or above the median
MIN_PASSES = 5       # so that each op's upper quartile has samples on both sides
OP_QUANTILE = 0.75   # the per-op latency of a run: its upper quartile over passes
TAIL_BEYOND = 10     # op_tail_s: the latency with exactly this many ops beyond it
GAP_FLOOR = 1e-12    # basis_gap below this reads as agreement (never 0)
TIME_LIMIT_S = 170   # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env(**overrides):
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(overrides)
    return env


def _python(args, env, deadline):
    """Run ``python3 args`` in the checkout; return its standard output."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish within the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def _check_program(location):
    if not Path(location).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported invprox from {location}, not from {ROOT / 'src'}")


def measure_setup(count, deadline):
    """Import times of invprox.cli in ``count`` fresh interpreters."""
    times = []
    for _ in range(count):
        seconds, location = _python([BENCH / "probe.py"], _child_env(), deadline).splitlines()
        _check_program(location)
        times.append(float(seconds))
    return times


def run_worker(work, tag, job, deadline, **env):
    job_path, result_path = work / f"job-{tag}.json", work / f"result-{tag}.json"
    job_path.write_text(json.dumps(job))
    _python([BENCH / "worker.py", job_path, result_path], _child_env(**env), deadline)
    result = json.loads(result_path.read_text())
    _check_program(result["program"])
    return result


def harrell_davis(values, p):
    """Harrell-Davis estimate of quantile ``p`` of ``values``.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics. A
    single order statistic jumps when the quantile sits where two op kinds
    meet (dict-sweep's slowest ops run once per pass); the weighted mean
    does not.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.shape[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 100_001)
    with np.errstate(divide="ignore"):  # a, b > 1 here: the density is 0 at both ends
        log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    edges = np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1])
    return float(np.diff(edges) @ x)


def op_stats(passes):
    """Latency metrics of one run from its passes' op latencies.

    Each op of the workload's list gets its upper-quartile latency over the
    passes; ``wall_s`` is their sum (one pass) and ``op_p50_s`` their
    median. ``op_tail_s`` is the latency at the percentile with exactly
    ``TAIL_BEYOND`` of the run's ops beyond it.

    The upper quartile, not the median: on a shared host every op of a run
    slows and speeds up together, by 10-20% over seconds to minutes. The
    slower, sustained speed recurs from run to run; how much of a run the
    faster bursts cover does not, and the median sits where the two mix.
    Over ten 30 s runs of ``paper-cli`` the spread of ``wall_s`` (IQR over
    median) was 0.16-0.19 with the median and 0.06-0.07 with the upper
    quartile, on 2 vCPUs of a Xeon (Sapphire Rapids) KVM guest.
    """
    n = sum(map(len, passes))
    if n < MIN_OPS or len(passes) < MIN_PASSES:
        raise BenchError(f"only {n} ops in {len(passes)} passes ran; the metrics "
                         f"need {MIN_OPS} ops and {MIN_PASSES} passes")
    per_op = [harrell_davis(latencies, OP_QUANTILE) for latencies in zip(*passes)]
    tail_quantile = (n - TAIL_BEYOND) / n
    return {
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": harrell_davis([x for p in passes for x in p], tail_quantile),
        "op_tail_percentile": 100.0 * tail_quantile,
        "ops_timed": n,
    }


def basis_gap(proximity):
    """Largest |I_Legendre - I_monomial| over the sweep degrees."""
    gaps = [abs(proximity[workloads.sweep_label("legendre", d)]
                - proximity[workloads.sweep_label("monomial", d)])
            for d in workloads.SWEEP_DEGREES]
    return max(max(gaps), GAP_FLOOR)


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        linalg = {lib: {key: deps[lib].get(key) for key in
                        ("name", "version", "openblas configuration")}
                  for lib in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        linalg = None
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "linalg": linalg,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def _declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _job(ops, seconds, trace_path=None, extra_ops=()):
    return {"ops": ops, "seconds": seconds,
            "min_ops": max(MIN_OPS, MIN_PASSES * len(ops)),
            "trace_path": str(trace_path) if trace_path else None,
            "extra_ops": list(extra_ops)}


def _accounting(result):
    """Layer self times plus the benchmark's own time, against the pass wall."""
    layers = result["layers"]
    wall = sum(map(sum, result["passes"])) / len(result["passes"])
    spans = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    return {"mean_pass_wall_s": wall, "layer_self_s": spans,
            "bench_self_s": layers["bench.self_s"],
            "accounted_share": (spans + layers["bench.self_s"]) / wall}


def measure(args, work, deadline):
    ops = workloads.generate(args.workload, args.seed, work, ROOT)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if not args.trace:
        # basis_gap is a property of the program; workloads other than
        # dict-sweep measure it with the sweep's ops, untimed, after timing.
        extra = [] if args.workload == "dict-sweep" else workloads.sweep_ops(work)
        # The first import compiles bytecode and is dropped; the timed
        # imports straddle the worker so that they see more of the machine's
        # load than one burst would.
        setup = measure_setup(1 + PROBES // 2, deadline)[1:]
        result = run_worker(work, "run", _job(ops, args.seconds, extra_ops=extra), deadline)
        setup += measure_setup(PROBES - PROBES // 2, deadline)
        stats = op_stats(result["passes"])
        metrics = {"setup_s": statistics.median(setup), "wall_s": stats["wall_s"],
                   "op_p50_s": stats["op_p50_s"], "op_tail_s": stats["op_tail_s"],
                   "peak_rss_mb": result["peak_rss_mb"],
                   "basis_gap": basis_gap(result["proximity"])}
        record.update(setup_probes_s=setup, op_stats=stats, runs={"default": result})
    else:
        # The per-layer metrics come from the traced worker; the other two
        # are references recorded beside it and measure half as long.
        half, quarter = args.seconds / 2, args.seconds / 4
        runs = {
            "untraced": run_worker(work, "untraced", _job(ops, quarter), deadline),
            "traced": run_worker(work, "traced",
                                 _job(ops, half, f"{stem}-spans.npz"), deadline),
            "traced_1thread": run_worker(work, "traced-1thread",
                                         _job(ops, quarter, f"{stem}-spans-1thread.npz"),
                                         deadline, OPENBLAS_NUM_THREADS="1"),
        }
        stats = {name: op_stats(r["passes"]) for name, r in runs.items()}
        overhead = stats["traced"]["wall_s"] - stats["untraced"]["wall_s"]
        metrics = dict(runs["traced"]["layers"], **{"trace.overhead_s": overhead})
        record.update(runs=runs, op_stats=stats,
                      accounting={name: _accounting(runs[name])
                                  for name in ("traced", "traced_1thread")})
    runs = record["runs"].values()
    record.update(metrics=metrics,
                  attempted=sum(r["attempted"] for r in runs),
                  failed=sum(r["failed"] for r in runs),
                  failures=[f for r in runs for f in r["failures"]])
    return record, stem


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    try:
        end_to_end, per_layer = _declared_metrics()
        record, stem = measure(args, work, deadline)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = per_layer if args.trace else end_to_end
    if set(record["metrics"]) != set(units):
        print(f"benchmark failed: metrics {sorted(record['metrics'])} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    path = stem.with_suffix(".json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, value in record["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
