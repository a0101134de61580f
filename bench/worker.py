"""Benchmark worker: runs one workload's ops in a fresh interpreter.

Usage: ``python3 bench/worker.py JOB.json RESULT.json``, with ``src`` on
``PYTHONPATH``. ``bench/run.py`` writes the job and reads the result.

The worker drives ``invprox.cli.main`` in process from a single closed-loop
client: each op is one CLI command, and the next starts when the previous
returns. It runs one untimed warm-up pass, whose outputs become the
reference, then timed passes until the job's seconds have elapsed and at
least ``min_ops`` ops have run. Every op is checked (see ``check``); a
failing op is counted and reported, never retried. With a trace path in the
job, the timed passes run under ``tracer.Tracer`` and the spans are saved.
Ops in ``extra_ops`` run once after the measurement and are checked, but
not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics, root_time

ORACLE_SLACK = 1e-8
WITNESS_TOL = 1e-8
# Acceptance tolerances of table1 (tests/test_acceptance.py, criterion 1).
TABLE1_CHECKS = {
    "S1": lambda v: v <= 1e-8,
    "S2": lambda v: abs(v - 0.048) <= 0.002,
    "S3": lambda v: abs(v - 0.823) <= 0.005,
}


def run_op(main, op):
    """Run one CLI command; return (exit code, latency in s, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(list(op["argv"]))
        except Exception:  # an op that crashes is a failed op, not a dead run
            code = None
            traceback.print_exc()
        latency = perf_counter() - start
    return code, latency, err.getvalue()


def _semantic_problems(command, outputs, stderr):
    if command == "proximity":
        report = json.loads(outputs["proximity.json"])
        witness = report["diagnostics"]["witness_relative_error"]
        if abs(witness - report["invariance_proximity"]) > WITNESS_TOL:
            return [f"witness error {witness!r} is not the closed form "
                    f"{report['invariance_proximity']!r}"]
    elif command == "oracle":
        result = json.loads(outputs["oracle.json"])
        if result["oracle_max"] > result["closed_form"] + ORACLE_SLACK:
            return [f"oracle {result['oracle_max']!r} exceeds the closed form "
                    f"{result['closed_form']!r}"]
    elif command == "residuals":
        if "exceed the bound" in stderr:
            return ["residuals exceed the bound"]
    elif command == "table1":
        rows = outputs["table1.csv"].decode().splitlines()[1:]
        values = {name: float(value) for name, value in (r.split(",") for r in rows)}
        bad = [name for name, ok in TABLE1_CHECKS.items() if not ok(values[name])]
        if bad:
            return [f"table1 {name} = {values[name]!r} outside tolerance" for name in bad]
    return []


def check(op, code, stderr, reference):
    """Return (outputs, problems) of one finished op.

    An op passes when it exits with 0, its outputs meet the command's own
    acceptance condition, and they are byte-identical to ``reference`` (the
    same op's outputs on the first pass), unless that is None.
    """
    if code != 0:
        return None, [f"exit code {code}: {stderr.strip()[-300:]}"]
    try:
        outputs = {name: Path(op["out_dir"], name).read_bytes() for name in op["outputs"]}
        problems = _semantic_problems(op["command"], outputs, stderr)
    except (OSError, ValueError, KeyError) as exc:
        return None, [f"unreadable output: {exc!r}"]
    if reference is not None and outputs != reference:
        problems.append("output differs from the first pass")
    return outputs, problems


class Client:
    """Closed-loop client: runs ops one after another and checks each."""

    def __init__(self, main):
        self.main = main
        self.references = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def execute(self, op, pass_index):
        code, latency, stderr = run_op(self.main, op)
        reference = self.references.get(op["label"])
        outputs, problems = check(op, code, stderr, reference)
        if reference is None and outputs is not None:
            self.references[op["label"]] = outputs
        self.attempted += 1
        self.failed += bool(problems)
        for problem in problems:
            self.failures.append({"op": op["label"], "pass": pass_index, "problem": problem})
        return latency

    def proximities(self):
        """invariance_proximity of every proximity op, from its first run."""
        return {label: json.loads(out["proximity.json"])["invariance_proximity"]
                for label, out in self.references.items() if "proximity.json" in out}


def main(job_path, result_path):
    import invprox.cli as cli

    job = json.loads(Path(job_path).read_text())
    ops = job["ops"]
    client = Client(cli.main)

    start = perf_counter()
    for op in ops:
        client.execute(op, pass_index=-1)
    warmup_s = perf_counter() - start

    tracer = None
    if job["trace_path"]:
        tracer = Tracer().install()
    op_log = []
    passes = []
    start = perf_counter()
    while perf_counter() - start < job["seconds"] or len(op_log) < job["min_ops"]:
        latencies = []
        for op in ops:
            if tracer is not None:
                tracer.current_op = len(op_log)
            op_log.append(op["label"])
            latencies.append(client.execute(op, pass_index=len(passes)))
        passes.append(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"warmup_s": warmup_s, "op_labels": [op["label"] for op in ops],
              "passes": passes, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.arrays()
        total = sum(map(sum, passes))
        layers = layer_metrics(spans, tracer.names, len(passes))
        layers["bench.self_s"] = (total - root_time(spans)) / len(passes)
        result["layers"] = layers
        result["n_spans"] = len(tracer)
        tracer.save(job["trace_path"], op_log, warmup_s=warmup_s)

    for op in job["extra_ops"]:
        client.execute(op, pass_index=-1)
    result.update(program=cli.__file__, attempted=client.attempted,
                  failed=client.failed, failures=client.failures,
                  proximity=client.proximities())
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
