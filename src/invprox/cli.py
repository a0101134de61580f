"""Command-line interface: configuration ingestion, experiment orchestration,
and result emission.

Subcommands::

    invprox proximity  --config cfg.json [--out DIR] [--quad-order Q] [--rank-tol T]
    invprox table1     [--out DIR] [--quad-order Q] [--rank-tol T]
    invprox predict    --config cfg.json [--out DIR] [--seed S] [--quad-order Q] [--rank-tol T]
    invprox oracle     --config cfg.json [--out DIR] [--seed S] [--quad-order Q] [--rank-tol T]
    invprox residuals  --config cfg.json [--out DIR] [--quad-order Q] [--rank-tol T]

Every command reaches its analysis through one function from a config;
``table1`` builds its config from the registry system, with the same defaults.

Exit codes: 0 ok; 2 configuration or parse error; 3 numerical failure;
4 internal-consistency failure (the sampling oracle exceeded the closed
form, which indicates a bug rather than a user error).

Numbers are printed as the shortest decimal that reads back as the same
double, so identical configurations and seeds give byte-identical files.

Each command runs OpenBLAS on one thread, process-wide, and restores the
caller's thread count when it returns.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .expr import DynamicsMap, ParseError, parse
from .geometry import DegenerateSpace
from .koopman import (
    DEFAULT_QUAD_TOL,
    DEFAULT_RANK_TOL,
    InconsistentSystem,
    InvarianceAnalysis,
    proximity_oracle,
    trajectory_errors,
)
from .space import (DEFAULT_QUAD_ORDER, MAX_QUAD_ORDER, Domain, EmpiricalSpace,
                    NonFiniteValue, QuadratureSpace, read_snapshots, read_weights)

__all__ = ["main", "CONFIG_SCHEMA", "SYSTEM_REGISTRY", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4
MAX_PREDICT_VALUES = 2**26  # n_trajectories * (horizon + 1): 512 MiB of percent errors


class ConfigError(ValueError):
    pass


# Built-in benchmark system: 2-d polynomial/trig map on the unit box, with
# the three dictionaries used throughout the docs and tests.
SYSTEM_REGISTRY = {
    "example_sec7": {
        "state_dim": 2,
        "domain": [[-1.0, 1.0], [-1.0, 1.0]],
        "dynamics": ["0.9*x1", "0.4*(sin(x2)+x1^2)+0.01*x2^2"],
        "subspaces": {
            "S1": ["1", "x1", "x1^2"],
            "S2": ["1", "x1", "x2", "x1^2"],
            "S3": ["1", "x1", "x2", "x1^2", "x2^2"],
        },
    }
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["state_dim", "domain", "backend", "dictionary"],
    "properties": {
        "state_dim": {"type": "integer", "minimum": 1},
        "domain": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "field": {"const": "real"},
        "backend": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": ["quadrature", "empirical"]},
                "order": {"type": "integer", "minimum": 1, "maximum": MAX_QUAD_ORDER},
                "snapshot_path": {"type": "string"},
                "weights_path": {"type": "string"},
            },
            "allOf": [
                {
                    "if": {"properties": {"type": {"const": "quadrature"}}},
                    "then": {
                        "properties": {
                            "snapshot_path": False,
                            "weights_path": False,
                        }
                    },
                },
                {
                    "if": {"properties": {"type": {"const": "empirical"}}},
                    "then": {
                        "required": ["snapshot_path"],
                        "properties": {"order": False},
                    },
                },
            ],
        },
        "dynamics": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string"},
        },
        "dictionary": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string"},
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rank_tol": {"type": "number", "exclusiveMinimum": 0},
                "quad_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "oracle": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_samples": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "experiment": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_trajectories": {"type": "integer", "minimum": 1},
                "horizon": {"type": "integer", "minimum": 0},
                "sampling_seed": {"type": "integer", "minimum": 0},
            },
        },
    },
}

_DEFAULTS = {
    "tolerances": {"rank_tol": DEFAULT_RANK_TOL, "quad_tol": DEFAULT_QUAD_TOL},
    "oracle": {"n_samples": 10000, "seed": 0},
    "experiment": {"n_trajectories": 100, "horizon": 10, "sampling_seed": 0},
}


# --- deterministic emission ---------------------------------------------------

def format_float(value):
    """The shortest decimal that reads back as the same IEEE double."""
    return repr(float(value))


def _output(path):
    """``path`` with its directory created: only a run that writes output
    leaves the ``--out`` directory behind."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return Path(path)


def write_json(path, payload):
    _output(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def write_csv(path, header, rows, comments=()):
    """``rows`` of Python scalars; ``str`` of a float is its shortest round trip."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join(map(str, row)) for row in rows)
    _output(path).write_text("\n".join(lines) + "\n")


# --- configuration -------------------------------------------------------------

def load_config(path):
    def finite(text):  # json reads NaN, Infinity and overflowing literals
        if np.isfinite(value := float(text)):
            return value
        raise ConfigError(f"{path}: non-finite number {text} is not allowed")

    def integer(text):  # int() refuses over 4300 digits; float() overflows
        if np.isfinite(float(text)):
            return int(text)
        raise ConfigError(f"{path}: integer literal of {len(text.lstrip('-'))} "
                          "digits is outside the double range")

    try:
        raw = json.loads(Path(path).read_text(), parse_float=finite,
                         parse_constant=finite, parse_int=integer)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    errors = []
    config = _validate(CONFIG_SCHEMA, raw, (), errors)
    if errors:
        # jsonschema's best_match: the shortest path, then the greatest, then
        # an error whose schema's type the value fails; the first of equals
        location, _, message = max(errors, key=lambda e: (-len(e[0]), e[0], e[1]))
        location = "/".join(map(str, location)) or "<root>"
        raise ConfigError(f"config schema violation at {location}: {message}")
    if len(config["domain"]) != config["state_dim"]:
        raise ConfigError("domain must list one interval per state dimension")
    return _with_defaults(config)


def _with_defaults(config):
    """``config`` with each section of ``_DEFAULTS`` filled in where it is silent."""
    for section, defaults in _DEFAULTS.items():
        config[section] = {**defaults, **config.get(section, {})}
    return config


_JSON_TYPES = {"object": dict, "array": list, "string": str,
               "number": (int, float), "integer": int}


def _is_type(value, kind):
    """JSON Schema's types: a bool is not a number, 1.0 is an integer."""
    if kind == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)


def _validate(schema, value, path, errors):
    """Check ``value`` against the subset of JSON Schema 2020-12 that
    ``CONFIG_SCHEMA`` uses, appending ``(path, type mismatch, message)`` to
    ``errors`` in jsonschema's order and wording. Returns ``value`` with the
    values of ``"type": "integer"`` keys as ints (JSON Schema counts 100.0
    as an integer, range() and numpy do not); the input is not modified."""
    if schema is False:  # reported, as by jsonschema, at the enclosing object
        errors.append((path[:-1], True, f"False schema does not allow {value!r}"))
        return value
    mismatch = "type" not in schema or not _is_type(value, schema["type"])

    def fail(message):
        errors.append((path, mismatch, message))

    result = value
    for keyword, arg in schema.items():
        if keyword == "type":
            if mismatch:
                fail(f"{value!r} is not of type {arg!r}")
            elif arg == "integer":
                result = int(value)
        elif keyword == "enum" and value not in arg:
            fail(f"{value!r} is not one of {arg!r}")
        elif keyword == "const" and value != arg:
            fail(f"{arg!r} was expected")
        elif keyword == "allOf":
            for sub in arg:
                _validate(sub, value, path, errors)
        elif keyword == "if":
            probe = []
            _validate(arg, value, path, probe)
            if not probe:
                _validate(schema["then"], value, path, errors)
        elif isinstance(value, dict):
            if keyword == "required":
                for key in arg:
                    if key not in value:
                        fail(f"{key!r} is a required property")
            elif keyword == "additionalProperties":
                extras = sorted(set(value) - set(schema.get("properties", ())), key=str)
                if extras:
                    names = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    fail(f"Additional properties are not allowed ({names} {verb} unexpected)")
            elif keyword == "properties":
                result = dict(value)
                for key, sub in arg.items():
                    if key in value:
                        result[key] = _validate(sub, value[key], (*path, key), errors)
        elif isinstance(value, list):
            if keyword == "items":
                result = [_validate(arg, item, (*path, i), errors)
                          for i, item in enumerate(value)]
            elif keyword == "minItems" and len(value) < arg:
                fail(f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}")
            elif keyword == "maxItems" and len(value) > arg:
                fail(f"{value!r} is too long")
        elif _is_type(value, "number"):
            if keyword == "minimum" and value < arg:
                fail(f"{value!r} is less than the minimum of {arg!r}")
            elif keyword == "maximum" and value > arg:
                fail(f"{value!r} is greater than the maximum of {arg!r}")
            elif keyword == "exclusiveMinimum" and value <= arg:
                fail(f"{value!r} is less than or equal to the minimum of {arg!r}")
    return result


def build_space(config):
    backend = config["backend"]
    try:  # a bad interval, a rule or its check rule over the node budget, or a bad file
        domain = Domain(tuple(tuple(b) for b in config["domain"]))
        if backend["type"] == "quadrature":
            space = QuadratureSpace(domain, backend.get("order", DEFAULT_QUAD_ORDER))
            space.check_rule()
            return space
        snapshots_x, snapshots_y = read_snapshots(backend["snapshot_path"])
        if snapshots_x.shape[1] != config["state_dim"]:
            raise ValueError(f"snapshots have dimension {snapshots_x.shape[1]}, "
                             f"config says {config['state_dim']}")
        weights = None
        if "weights_path" in backend:
            weights = read_weights(backend["weights_path"])
        return EmpiricalSpace(snapshots_x, snapshots_y, weights)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _analysis(config, simulate=False):
    """The analysis ``config`` describes and its dynamics (or None), which
    ``simulate`` (predict) requires and the empirical backend's analysis ignores."""
    space = build_space(config)
    n = config["state_dim"]

    def parsed(section):
        try:
            return tuple(parse(s, n) for s in config[section])
        except ParseError as exc:
            raise ConfigError(f"{section} expression: {exc}") from exc

    atoms = parsed("dictionary")
    dynamics = None
    if "dynamics" in config:
        if len(config["dynamics"]) != n:
            raise ConfigError("dynamics must list one expression per state dimension")
        dynamics = DynamicsMap(n, parsed("dynamics"))
    empirical = config["backend"]["type"] == "empirical"
    if simulate and dynamics is None:
        raise ConfigError("this command requires a dynamics section")
    if not simulate and empirical and dynamics is not None:
        raise ConfigError("dynamics is forbidden with the empirical backend unless "
                          "trajectories are being simulated (the predict command)")
    if not empirical and dynamics is None:
        raise ConfigError("the quadrature backend requires a dynamics section")
    analysis = InvarianceAnalysis(atoms, space, None if empirical else dynamics,
                                  **config["tolerances"])  # rank_tol and quad_tol
    return analysis, dynamics


# --- subcommands ----------------------------------------------------------------

def cmd_proximity(config, out_dir):
    analysis, _ = _analysis(config)
    path = out_dir / "proximity.json"
    write_json(path, analysis.report())
    print(f"invariance proximity: {format_float(analysis.proximity)}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_table1(config, out_dir):
    """Each subspace of the registry system analysed as the dictionary of ``config``."""
    rows, warnings = [], []
    for name, sources in SYSTEM_REGISTRY["example_sec7"]["subspaces"].items():
        analysis, _ = _analysis({**config, "dictionary": sources})
        rows.append((name, analysis.proximity))
        warnings.extend(f"warning: {name}: {w}" for w in analysis.warnings)
        print(f"{name}: {format_float(analysis.proximity)}")
    path = out_dir / "table1.csv"
    write_csv(path, ["subspace", "proximity"], rows, comments=warnings)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_predict(config, out_dir):
    experiment = config["experiment"]
    seed = experiment["sampling_seed"]
    horizon = experiment["horizon"]
    values = experiment["n_trajectories"] * (horizon + 1)
    if values > MAX_PREDICT_VALUES:
        raise ConfigError(f"n_trajectories * (horizon + 1) is {values}, more than the "
                          f"{MAX_PREDICT_VALUES} allowed")
    analysis, dynamics = _analysis(config, simulate=True)
    domain = Domain(tuple(tuple(b) for b in config["domain"]))
    rng = np.random.default_rng(seed)
    starts = domain.sample(rng, experiment["n_trajectories"])
    errors, kept = trajectory_errors(analysis.model, dynamics, starts, horizon)
    excluded = int(np.count_nonzero(~kept))
    if excluded:
        print(f"warning: excluded {excluded} trajectories with vanishing "
              f"dictionary norm", file=sys.stderr)
    header = ("k", "median", "q25", "q75", "min", "max")
    rows = []
    if errors.size:
        columns = (np.median(errors, axis=0), *np.percentile(errors, [25, 75], axis=0),
                   np.min(errors, axis=0), np.max(errors, axis=0))
        rows = [(k, *map(float, values)) for k, values in enumerate(zip(*columns), start=1)]
    steps = [dict(zip(header, row)) for row in rows]
    csv_path = out_dir / "predict.csv"
    write_csv(
        csv_path,
        header,
        rows,
        comments=[f"seed={seed}", f"n_trajectories={len(errors)}", f"excluded={excluded}",
                  *(f"warning: {w}" for w in analysis.warnings)],
    )
    json_path = out_dir / "predict.json"
    write_json(json_path, {
        "seed": seed,
        "n_trajectories": len(errors),
        "excluded": excluded,
        "horizon": horizon,
        "steps": steps,
        "warnings": analysis.warnings,
    })
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_oracle(config, out_dir):
    analysis, _ = _analysis(config)
    oracle_cfg = config["oracle"]
    result = proximity_oracle(analysis, n_samples=oracle_cfg["n_samples"],
                              seed=oracle_cfg["seed"])
    closed_form = analysis.proximity
    payload = {
        "closed_form": closed_form,
        "oracle_max": result.max_error,
        "gap": closed_form - result.max_error,
        "argmax_coeffs": list(map(float, result.argmax_coeffs)),
        "n_samples": result.n_samples,
        "n_excluded": result.n_excluded,
        "warnings": analysis.warnings,
    }
    path = out_dir / "oracle.json"
    write_json(path, payload)
    print(f"closed form {format_float(closed_form)}, "
          f"oracle {format_float(result.max_error)}")
    print(f"wrote {path}")
    if result.max_error > closed_form + 1e-8:
        print(
            "internal consistency failure: sampled error exceeds the closed "
            "form; this is a bug, not a configuration problem",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_residuals(config, out_dir):
    analysis, _ = _analysis(config)
    bound = analysis.restricted_norm() * analysis.proximity
    rows = []
    violations = 0
    for lam, res in analysis.residuals():
        rows.append((lam.real, lam.imag, res, bound))
        if res > bound + 1e-8:
            violations += 1
    path = out_dir / "residuals.csv"
    write_csv(path, ["lambda_re", "lambda_im", "residual", "bound"], rows,
              comments=[f"warning: {w}" for w in analysis.warnings])
    if violations:
        print(f"warning: {violations} residuals exceed the bound", file=sys.stderr)
    print(f"wrote {path}")
    return EXIT_OK


# --- argument handling -----------------------------------------------------------

@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="invprox",
        description="Invariance proximity of function subspaces under the "
                    "composition operator of a discrete-time system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config, seeded in [
        ("proximity", True, False),
        ("table1", False, False),
        ("predict", True, True),
        ("oracle", True, True),
        ("residuals", True, False),
    ]:
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=".", help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="override oracle and experiment seeds")
        p.add_argument("--quad-order", type=int, default=None,
                       help="override the quadrature order")
        p.add_argument("--rank-tol", type=float, default=None,
                       help="override the rank tolerance")
    return parser


def _apply_overrides(config, args):
    """``config`` with the command-line flags written in; every flag is checked here."""
    if args.quad_order is not None:
        if args.quad_order < 1:
            raise ConfigError("--quad-order must be positive")
        if args.quad_order > MAX_QUAD_ORDER:
            raise ConfigError(f"--quad-order must be at most {MAX_QUAD_ORDER}")
        if config["backend"]["type"] != "quadrature":
            raise ConfigError("--quad-order applies to the quadrature backend only")
        config["backend"]["order"] = args.quad_order
    if args.rank_tol is not None:
        if not 0 < args.rank_tol < np.inf:
            raise ConfigError("--rank-tol must be positive and finite")
        config["tolerances"]["rank_tol"] = args.rank_tol
    if getattr(args, "seed", None) is not None:  # oracle and predict only
        if args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        config["oracle"]["seed"] = args.seed
        config["experiment"]["sampling_seed"] = args.seed
    return config


@functools.cache
def _blas_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local(n)``, which sets the thread
    count of the whole process and returns the previous one, or None when
    numpy's BLAS is not OpenBLAS 0.3.27 or later. Found through numpy's LAPACK
    module, whose handle also searches the OpenBLAS it links."""
    try:
        setter = ctypes.CDLL(np.linalg._umath_linalg.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    setter.argtypes, setter.restype = (ctypes.c_int,), ctypes.c_int
    return setter


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # The folds are at most 2m columns wide, so LAPACK does mostly BLAS-2
    # work, where a second thread costs more than it saves; one thread also
    # makes the output independent of OPENBLAS_NUM_THREADS.
    setter = _blas_thread_setter()
    previous = setter(1) if setter else None
    try:
        if args.command == "table1":
            system = SYSTEM_REGISTRY["example_sec7"]  # as a config; its S3 holds every atom
            config = _with_defaults({
                "state_dim": system["state_dim"], "domain": system["domain"],
                "backend": {"type": "quadrature"}, "dynamics": system["dynamics"],
                "dictionary": system["subspaces"]["S3"]})
        else:
            config = load_config(args.config)
        handler = globals()[f"cmd_{args.command}"]  # at call time, so a patched one runs
        return handler(_apply_overrides(config, args), Path(args.out))
    except (ConfigError, ParseError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateSpace, NonFiniteValue, InconsistentSystem, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        if setter:
            setter(previous)


if __name__ == "__main__":
    sys.exit(main())
