"""Workload definitions and input generation for the invprox benchmark.

A workload is a fixed list of CLI commands (ops); one pass runs the list
once, in order. ``generate`` writes every input a pass needs (config JSON
files and, for ``snapshots``, the snapshot CSV) under a work directory and
returns the ops as plain dicts that a worker process can load. The program
under test only ever sees these generated files.

Workloads:

* ``paper-cli`` — ``proximity``, ``oracle``, ``predict`` and ``residuals``
  on each of ``configs/s1.json`` … ``s3.json``, plus ``table1``: the
  paper's Sec. 7 system through the documented CLI. The seed sets the
  oracle and trajectory-sampling seeds of the generated configs.
* ``dict-sweep`` — ``proximity`` at quadrature order 40, with the default
  quadrature check, on the monomial basis x1^i*x2^j and the Legendre
  product basis P_i(x1)*P_j(x2), both at total degree 6, 8 and 10. The
  inputs do not depend on the seed: the degree 8 and 10 rows are where the
  Gram path loses rank, and their values are pinned (``basis_gap``).
* ``snapshots`` — ``proximity`` on an empirical config with
  ``SNAPSHOT_PAIRS`` pairs of the Sec. 7 map drawn uniformly from the box
  with the seed, and 15 polynomial/trig atoms. The only workload that
  exercises CSV ingest.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np

WORKLOADS = ("paper-cli", "dict-sweep", "snapshots")

SEC7_DYNAMICS = ["0.9*x1", "0.4*(sin(x2)+x1^2)+0.01*x2^2"]
UNIT_BOX = [[-1.0, 1.0], [-1.0, 1.0]]

SWEEP_DEGREES = (6, 8, 10)
SWEEP_ORDER = 40
SWEEP_BASES = ("monomial", "legendre")

# 1e5 pairs keep one op near 1 s, so a 30 s run holds the >= 20 ops that
# op_tail_s needs; ingest and N-length reductions still dominate the op.
SNAPSHOT_PAIRS = 100_000
SNAPSHOT_ATOMS = (
    "1", "x1", "x2", "x1^2", "x1*x2", "x2^2", "x1^3", "x1^2*x2", "x1*x2^2",
    "x2^3", "sin(x1)", "sin(x2)", "cos(x1)", "cos(x2)", "x1*sin(x2)",
)

# Files each command writes into its --out directory.
OUTPUTS = {
    "proximity": ("proximity.json",),
    "oracle": ("oracle.json",),
    "predict": ("predict.csv", "predict.json"),
    "residuals": ("residuals.csv",),
    "table1": ("table1.csv",),
}


def _op(label, command, out_dir, config=None):
    argv = [command]
    if config is not None:
        argv += ["--config", str(config)]
    argv += ["--out", str(out_dir)]
    return {"label": label, "command": command, "argv": argv,
            "out_dir": str(out_dir), "outputs": list(OUTPUTS[command])}


def _write_config(path, config):
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def _paper_cli(seed, work, repo_root):
    rng = np.random.default_rng(seed)
    ops = []
    for k in (1, 2, 3):
        config = json.loads((repo_root / "configs" / f"s{k}.json").read_text())
        sample_seed = int(rng.integers(2**31))
        config.setdefault("oracle", {})["seed"] = sample_seed
        config.setdefault("experiment", {})["sampling_seed"] = sample_seed
        path = _write_config(work / f"s{k}.json", config)
        for command in ("proximity", "oracle", "predict", "residuals"):
            label = f"{command}:s{k}"
            ops.append(_op(label, command, work / "out" / label.replace(":", "-"), path))
    ops.append(_op("table1", "table1", work / "out" / "table1"))
    return ops


def _monomial(i, j):
    factors = [f"{v}^{p}" if p > 1 else v for v, p in (("x1", i), ("x2", j)) if p]
    return "*".join(factors) or "1"


def _legendre_coeffs(k):
    """Exact coefficients of P_k, ascending powers (Bonnet's recurrence)."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    if k == 0:
        return prev
    for n in range(2, k + 1):
        shifted = [Fraction(0)] + [(2 * n - 1) * c for c in cur]
        padded = prev + [Fraction(0)] * (len(shifted) - len(prev))
        prev, cur = cur, [(a - (n - 1) * b) / n for a, b in zip(shifted, padded)]
    return cur


def _legendre(k, var):
    """P_k(var) as integer coefficients over a common denominator, e.g.
    ``(35*x1^4 - 30*x1^2 + 3)/8``; descending powers."""
    coeffs = _legendre_coeffs(k)
    den = lcm(*(c.denominator for c in coeffs))
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        num = int(coeffs[power] * den)
        if num == 0:
            continue
        mono = "" if power == 0 else (var if power == 1 else f"{var}^{power}")
        if not mono:
            body = str(abs(num))
        else:
            body = mono if abs(num) == 1 else f"{abs(num)}*{mono}"
        if terms:
            terms.append(("- " if num < 0 else "+ ") + body)
        else:
            terms.append(("-" if num < 0 else "") + body)
    text = " ".join(terms)
    return f"({text})/{den}" if den != 1 else text


def _legendre_product(i, j):
    factors = [_legendre(p, v) for v, p in (("x1", i), ("x2", j)) if p]
    return "*".join(factors) or "1"


def sweep_dictionary(basis, degree):
    """Atoms of total degree <= ``degree``, ordered by x1 power then x2 power.

    The order is part of the pinned ``basis_gap`` value: the Gram path is
    ill-conditioned enough at degree 10 that reordering the atoms moves the
    result in the ninth digit.
    """
    atom = _monomial if basis == "monomial" else _legendre_product
    return [atom(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]


def sweep_label(basis, degree):
    return f"sweep:{basis}:{degree}"


def _dict_sweep(work):
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    for degree in SWEEP_DEGREES:
        for basis in SWEEP_BASES:
            config = {
                "state_dim": 2,
                "domain": UNIT_BOX,
                "backend": {"type": "quadrature", "order": SWEEP_ORDER},
                "dynamics": SEC7_DYNAMICS,
                "dictionary": sweep_dictionary(basis, degree),
            }
            label = sweep_label(basis, degree)
            name = label.replace(":", "-")
            path = _write_config(work / f"{name}.json", config)
            ops.append(_op(label, "proximity", work / "out" / name, path))
    return ops


def sec7_map(x):
    """The Sec. 7 dynamics, written out in numpy for generating snapshots."""
    return np.column_stack([
        0.9 * x[:, 0],
        0.4 * (np.sin(x[:, 1]) + x[:, 0] ** 2) + 0.01 * x[:, 1] ** 2,
    ])


def _snapshots(seed, work):
    rng = np.random.default_rng(seed)
    lo, hi = np.array(UNIT_BOX).T
    x = rng.uniform(lo, hi, size=(SNAPSHOT_PAIRS, 2))
    csv_path = work / "snapshots.csv"
    with open(csv_path, "w") as handle:
        handle.write("x1,x2,y1,y2\n")
        np.savetxt(handle, np.hstack([x, sec7_map(x)]), fmt="%.17g", delimiter=",")
    config = {
        "state_dim": 2,
        "domain": UNIT_BOX,
        "backend": {"type": "empirical", "snapshot_path": str(csv_path)},
        "dictionary": list(SNAPSHOT_ATOMS),
    }
    path = _write_config(work / "snapshots.json", config)
    return [_op("proximity:snapshots", "proximity", work / "out" / "snapshots", path)]


def generate(workload, seed, work, repo_root):
    """Write the inputs of ``workload`` under ``work``; return one pass's ops."""
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    if workload == "paper-cli":
        return _paper_cli(seed, work, Path(repo_root))
    if workload == "dict-sweep":
        return _dict_sweep(work)
    if workload == "snapshots":
        return _snapshots(seed, work)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def sweep_ops(work):
    """The dict-sweep ops, for measuring basis_gap outside dict-sweep."""
    return _dict_sweep(Path(work) / "sweep")
