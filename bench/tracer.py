"""Span tracer that times invprox layer by layer from outside the package.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers; ``uninstall()`` puts the originals back.
A module-level function is replaced under every name that refers to it in
any ``invprox`` module, because modules import each other's functions by
value (``koopman`` calls ``orthonormalize`` through its own global, ``cli``
calls ``trajectory_error`` through its own, and so on). Methods are
replaced on the class, which every importer shares.

Each call records one span: name, start, end, parent span, op id, and two
sizes (rows evaluated by an expression; nodes and atoms of a Gram
assembly). Spans are kept in flat arrays in memory and written out once, by
``save``. ``layer_metrics`` turns them into per-layer numbers: a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import weakref
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "expr", "space", "geometry", "koopman")


def _rows(args, kwargs):
    shape = getattr(args[1] if len(args) > 1 else kwargs.get("points"), "shape", ())
    return (shape[0] if len(shape) == 2 else 1), 0


def _gram_size(args, kwargs):
    space, atoms = args[0], args[1] if len(args) > 1 else kwargs["atoms"]
    return space.nodes.shape[0], len(tuple(atoms))


# (module, attribute path, sizer). The span name is "<module>.<path>".
TARGETS = (
    ("cli", "main", None),
    ("cli", "load_config", None),
    ("cli", "build_space", None),
    ("cli", "write_json", None),
    ("cli", "write_csv", None),
    ("cli", "cmd_proximity", None),
    ("cli", "cmd_table1", None),
    ("cli", "cmd_predict", None),
    ("cli", "cmd_oracle", None),
    ("cli", "cmd_residuals", None),
    ("expr", "parse", None),
    ("expr", "Expr.__call__", _rows),
    ("expr", "DynamicsMap.__call__", _rows),
    ("space", "read_snapshots", None),
    ("space", "QuadratureSpace.__init__", None),
    ("space", "QuadratureSpace.refined", None),
    ("space", "EmpiricalSpace.__init__", None),
    ("space", "_InnerProductBackend.koopman_gram_blocks", _gram_size),
    ("space", "_InnerProductBackend.gram", None),
    ("space", "_InnerProductBackend.inner_product", None),
    ("geometry", "orthonormalize", None),
    ("geometry", "build_isomorphism", None),
    ("geometry", "principal_angles", None),
    ("koopman", "InvarianceAnalysis.__init__", None),
    ("koopman", "InvarianceAnalysis.witness", None),
    ("koopman", "InvarianceAnalysis.relative_error", None),
    ("koopman", "InvarianceAnalysis.restricted_norm", None),
    ("koopman", "InvarianceAnalysis.residuals", None),
    ("koopman", "InvarianceAnalysis.report", None),
    ("koopman", "build_model", None),
    ("koopman", "proximity_oracle", None),
    ("koopman", "trajectory_error", None),
)

GRAM_BLOCKS = "space._InnerProductBackend.koopman_gram_blocks"
REFINED = "space.QuadratureSpace.refined"


class Tracer:
    """Records spans around the calls listed in ``TARGETS``."""

    def __init__(self):
        self.names = [f"{module}.{path}" for module, path, _ in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.width = array("i")
        self.refined = array("b")  # Gram assembly on a QuadratureSpace.refined() space
        self.current_op = -1
        self._stack = []
        self._patches = []
        self._refined_spaces = weakref.WeakSet()

    def __len__(self):
        return len(self.start)

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"invprox.{m}") for m in LAYERS]
        modules.append(importlib.import_module("invprox"))
        for name_id, (module, path, sizer) in enumerate(TARGETS):
            home = importlib.import_module(f"invprox.{module}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, name_id, sizer))
            else:
                original = getattr(home, attr)
                wrapper = self._wrap(original, name_id, sizer)
                for module_obj in modules:
                    for key, value in list(vars(module_obj).items()):
                        if value is original:
                            self._patch(module_obj, key, original, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name_id, sizer):
        stack = self._stack
        is_gram = self.names[name_id] == GRAM_BLOCKS
        is_refined = self.names[name_id] == REFINED
        refined_spaces = self._refined_spaces

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            size, width = sizer(args, kwargs) if sizer else (0, 0)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.size.append(size)
            self.width.append(width)
            self.refined.append(is_gram and args[0] in refined_spaces)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
            if is_refined:
                refined_spaces.add(result)
            return result

        return traced

    # -- output ---------------------------------------------------------------

    def arrays(self):
        """Copies of the span columns as numpy arrays."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "size": np.array(self.size, dtype=np.int64),
            "width": np.array(self.width, dtype=np.int32),
            "refined": np.array(self.refined, dtype=bool),
        }

    def save(self, path, op_labels, **extra):
        """Write all spans, the span-name and op-label tables, and ``extra``."""
        np.savez_compressed(path, names=np.array(self.names),
                            op_labels=np.array(op_labels), **extra, **self.arrays())


def self_times(start, end, parent):
    """Duration of each span minus the durations of its direct children."""
    duration = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=duration.shape[0])
    return duration - children


def layer_metrics(spans, names, n_passes):
    """Per-layer metrics of one traced measurement, per pass of the workload.

    ``spans`` is ``Tracer.arrays()``. Times are self times in seconds,
    summed over the measurement and divided by ``n_passes``; counts are
    per pass too. ``expr.rows_per_call`` and ``space.gram_eff_gbps`` are
    ratios of totals. ``space.gram_eff_gbps`` is computed, not measured:
    the minimum bytes a Gram assembly must read, N*(2m+1)*8 for N nodes
    and m atoms, over the assembly's self time.
    """
    name = spans["name"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    duration = spans["end"] - spans["start"]
    index = {n: i for i, n in enumerate(names)}

    def where(*span_names):
        return np.isin(name, [index[n] for n in span_names])

    def self_s(*span_names):
        return float(own[where(*span_names)].sum()) / n_passes

    def calls(*span_names):
        return int(np.count_nonzero(where(*span_names))) / n_passes

    evals = where("expr.Expr.__call__")
    gram = where(GRAM_BLOCKS)
    gram_self = float(own[gram].sum())
    gram_bytes = float((spans["size"][gram] * (2 * spans["width"][gram] + 1) * 8).sum())
    metrics = {
        "cli.load_config_s": self_s("cli.load_config"),
        "cli.emit_s": self_s("cli.write_json", "cli.write_csv"),
        "expr.eval_calls": calls("expr.Expr.__call__"),
        "expr.eval_s": self_s("expr.Expr.__call__", "expr.DynamicsMap.__call__"),
        "expr.rows_per_call": (float(spans["size"][evals].sum()) / np.count_nonzero(evals)
                               if evals.any() else 0.0),
        "expr.parse_s": self_s("expr.parse"),
        "space.read_snapshots_s": self_s("space.read_snapshots"),
        "space.gram_blocks_s": gram_self / n_passes,
        "space.gram_blocks_calls": calls(GRAM_BLOCKS),
        "space.gram_nodes": float(spans["size"][gram].sum()) / n_passes,
        "space.gram_eff_gbps": gram_bytes / gram_self / 1e9 if gram_self > 0 else 0.0,
        "koopman.quad_check_s": float(duration[gram & spans["refined"]].sum()) / n_passes,
        "geometry.orthonormalize_s": self_s("geometry.orthonormalize"),
        "geometry.orthonormalize_calls": calls("geometry.orthonormalize"),
        "geometry.isomorphism_s": self_s("geometry.build_isomorphism"),
        "geometry.isomorphism_calls": calls("geometry.build_isomorphism"),
        "geometry.angles_s": self_s("geometry.principal_angles"),
        "geometry.angles_calls": calls("geometry.principal_angles"),
        "koopman.analysis_s": self_s("koopman.InvarianceAnalysis.__init__"),
        "koopman.witness_s": self_s("koopman.InvarianceAnalysis.witness"),
        "koopman.residuals_s": self_s("koopman.InvarianceAnalysis.residuals"),
        "koopman.oracle_s": self_s("koopman.proximity_oracle"),
        "koopman.trajectory_s": self_s("koopman.trajectory_error"),
        "koopman.trajectory_calls": calls("koopman.trajectory_error"),
    }
    for layer in LAYERS:
        in_layer = [n for n in names if n.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = self_s(*in_layer)
    return metrics


def root_time(spans):
    """Total duration of the spans that have no parent."""
    roots = spans["parent"] < 0
    return float((spans["end"][roots] - spans["start"][roots]).sum())
