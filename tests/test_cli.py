import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invprox import DynamicsMap, Expr, QuadratureSpace, Domain, write_snapshots
from invprox import cli
from invprox.cli import CONFIG_SCHEMA, ConfigError, load_config, main
from invprox.space import MAX_QUAD_ORDER

from conftest import DICTIONARIES, DYNAMICS_SOURCES, bench_module

ROOT = Path(__file__).resolve().parent.parent
CONFIGS_DIR = ROOT / "configs"


def base_config(dictionary):
    return {
        "state_dim": 2,
        "domain": [[-1.0, 1.0], [-1.0, 1.0]],
        "field": "real",
        "backend": {"type": "quadrature", "order": 20},
        "dynamics": list(DYNAMICS_SOURCES),
        "dictionary": list(dictionary),
        "tolerances": {"rank_tol": 1e-10, "quad_tol": 1e-9},
        "oracle": {"n_samples": 2000, "seed": 0},
        "experiment": {"n_trajectories": 50, "horizon": 10, "sampling_seed": 0},
    }


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def test_config_schema_is_valid():
    # load_config checks configs with an in-tree validator; jsonschema, the
    # tests' oracle for it, must accept the schema itself
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


def src_env():
    """The environment with ``src/`` first on PYTHONPATH, for subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_cli_import_leaves_out_jsonschema():
    # none of jsonschema and its dependencies may return to the import path
    code = "import sys, invprox.cli; print(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], env=src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = {name.partition(".")[0] for name in result.stdout.split()}
    assert "invprox" in loaded
    assert not loaded & {"jsonschema", "jsonschema_specifications", "attrs",
                         "referencing", "rpds"}


def empirical_config():
    config = base_config(DICTIONARIES["S3"])
    del config["dynamics"]
    config["backend"] = {"type": "empirical", "snapshot_path": "snaps.csv",
                         "weights_path": "weights.csv"}
    return config


VALID_CONFIGS = [json.loads((CONFIGS_DIR / f"s{i}.json").read_text()) for i in (1, 2, 3)]
VALID_CONFIGS.append(empirical_config())

# Replacements that change a value's type or cross a bound, an enum or a const
REPLACEMENTS = [True, False, None, "x", "real", "complex", "quadrature", "empirical",
                0, 1, -1, 2, 2.0, 2.5, 0.0, -0.0, 5e-324, -1.5, 1000, 1001, 1000.0,
                1001.0, [], [1.0], [[0.0, 1.0]], {}, {"type": "quadrature"}]


def _paths(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def mutated_configs(draw):
    """A valid config with one to three mutations."""
    box = {"root": copy.deepcopy(draw(st.sampled_from(VALID_CONFIGS)))}
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(box))[1:]
        kind = draw(st.sampled_from(["drop", "add", "replace", "resize", "backend"]))
        if kind == "drop":  # any key but the root itself
            keyed = [p for p in paths[1:] if isinstance(_at(box, p[:-1]), dict)]
            if keyed:
                path = draw(st.sampled_from(keyed))
                del _at(box, path[:-1])[path[-1]]
        elif kind == "add":
            objects = [p for p in paths if isinstance(_at(box, p), dict)]
            if objects:
                target = _at(box, draw(st.sampled_from(objects)))
                target[draw(st.sampled_from(["extra", "quadorder", "Order"]))] = 1
        elif kind == "replace":
            path = draw(st.sampled_from(paths))
            _at(box, path[:-1])[path[-1]] = copy.deepcopy(
                draw(st.sampled_from(REPLACEMENTS)))
        elif kind == "resize":
            arrays = [p for p in paths if isinstance(_at(box, p), list)]
            if arrays:
                target = _at(box, draw(st.sampled_from(arrays)))
                how = draw(st.sampled_from(["shorten", "lengthen", "empty"]))
                if how == "shorten" and target:
                    target.pop()
                elif how == "lengthen":
                    target.append(copy.deepcopy(target[-1]) if target else 0.5)
                else:
                    target.clear()
        elif isinstance(box["root"], dict) and isinstance(box["root"].get("backend"), dict):
            # order on an empirical backend, a path on a quadrature backend
            key = draw(st.sampled_from(["order", "snapshot_path", "weights_path"]))
            box["root"]["backend"][key] = 20 if key == "order" else "other.csv"
    return box["root"]


def _oracle_verdict(config):
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    error = jsonschema.exceptions.best_match(validator.iter_errors(config))
    if error is None:
        return None
    location = "/".join(str(p) for p in error.absolute_path) or "<root>"
    return f"config schema violation at {location}: {error.message}"


def _verdict(config, path):
    path.write_text(json.dumps(config))
    try:
        load_config(path)
    except ConfigError as exc:
        if str(exc).startswith("config schema violation"):
            return str(exc)
    return None


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(config=mutated_configs())
def test_validator_matches_jsonschema(tmp_path_factory, config):
    # the same verdict, location and message as jsonschema's best_match
    path = tmp_path_factory.mktemp("config") / "config.json"
    assert _verdict(config, path) == _oracle_verdict(config)


@pytest.mark.parametrize("config, message", [
    pytest.param({"backend": {"type": "quadrature", "snapshot_path": "x"}},
                 "at backend: False schema does not allow 'x'",
                 id="false-then-quadrature"),
    pytest.param({"backend": {"type": "empirical", "snapshot_path": "x", "order": 20.0}},
                 "at backend: False schema does not allow 20.0",
                 id="false-then-empirical"),
    pytest.param({"backend": {"order": 20}},
                 "at backend: 'snapshot_path' is a required property",
                 id="missing-type"),
    pytest.param({"backend": {"type": "empirical"}},
                 "at backend: 'snapshot_path' is a required property",
                 id="missing-snapshot-path"),
    pytest.param({"state_dim": 0.0},
                 "at state_dim: 0.0 is less than the minimum of 1",
                 id="minimum"),
    pytest.param({"state_dim": True},
                 "at state_dim: True is not of type 'integer'",
                 id="bool-not-integer"),
    pytest.param({"domain": [[-1.0, 1.0], [1.0]]},
                 "at domain/1: [1.0] is too short",
                 id="too-short"),
    pytest.param({"domain": [[-1.0, 1.0, 2.0]]},
                 "at domain/0: [-1.0, 1.0, 2.0] is too long",
                 id="too-long"),
    pytest.param({"dictionary": []}, "at dictionary: [] should be non-empty", id="empty"),
    pytest.param({"field": "complex"}, "at field: 'real' was expected", id="const"),
    pytest.param({"backend": {"type": "spectral"}},
                 "at backend/type: 'spectral' is not one of ['quadrature', 'empirical']",
                 id="enum"),
    pytest.param({"tolerances": {"rank_tol": -0.0}},
                 "at tolerances/rank_tol: -0.0 is less than or equal to the minimum of 0",
                 id="exclusive-minimum"),
    pytest.param({"backend": {"type": "quadrature", "order": 1001}},
                 "at backend/order: 1001 is greater than the maximum of 1000",
                 id="maximum"),
    pytest.param({"oracle": {"n_samples": 10, "seed": -1, "x": 1, "a": 2}},
                 "at oracle: Additional properties are not allowed ('a', 'x' were unexpected)",
                 id="additional-properties"),
])
def test_schema_messages(tmp_path, config, message):
    # the text jsonschema's best_match gives for each keyword
    full = base_config(DICTIONARIES["S2"])
    full.update(config)
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path, full))
    assert str(info.value) == f"config schema violation {message}"
    assert _oracle_verdict(full) == str(info.value)


class TestProximityCommand:
    def test_bundled_s2_config(self, tmp_path):
        code = run(["proximity", "--config", CONFIGS_DIR / "s2.json",
                    "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "proximity.json").read_text())
        assert payload["invariance_proximity"] == pytest.approx(0.048, abs=0.002)
        assert payload["dim_S"] == 4
        assert payload["dim_KS"] == 4
        assert payload["dim_W"] == 5
        assert len(payload["principal_angles_rad"]) == 4
        assert len(payload["witness_coeffs"]) == 4
        assert payload["diagnostics"]["quad_order"] == 20

    def test_bundled_s1_config(self, tmp_path):
        code = run(["proximity", "--config", CONFIGS_DIR / "s1.json",
                    "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "proximity.json").read_text())
        assert payload["invariance_proximity"] <= 1e-8

    def test_empty_dictionary_is_config_error(self, tmp_path):
        config = base_config(DICTIONARIES["S1"])
        config["dictionary"] = []
        code = run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path])
        assert code == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = base_config(DICTIONARIES["S1"])
        config["quadorder"] = 10
        code = run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path])
        assert code == 2
        assert ("config schema violation at <root>: Additional properties are "
                "not allowed ('quadorder' was unexpected)") in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["rank_tol", "quad_tol"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_tolerance_rejected(self, tmp_path, capsys, key, literal):
        # json reads all four as floats, and NaN passes exclusiveMinimum
        config = base_config(DICTIONARIES["S2"])
        config["tolerances"][key] = 12345.5
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace("12345.5", literal))
        assert run(["proximity", "--config", path, "--out", tmp_path]) == 2
        assert (f"configuration error: {path}: non-finite number {literal} is not "
                "allowed") in capsys.readouterr().err
        assert not (tmp_path / "proximity.json").exists()

    @pytest.mark.parametrize("key", ["rank_tol", "quad_tol", "state_dim"])
    @pytest.mark.parametrize("digits", [401, 5000])
    def test_integer_outside_double_range_rejected(self, tmp_path, capsys, key, digits):
        # 401 digits overflow float(); 5000 also exceed int()'s 4300-digit limit
        config = base_config(DICTIONARIES["S2"])
        (config if key == "state_dim" else config["tolerances"])[key] = 12345
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace("12345", "1" + "0" * (digits - 1)))
        assert run(["proximity", "--config", path, "--out", tmp_path]) == 2
        assert (f"configuration error: {path}: integer literal of {digits} digits "
                "is outside the double range") in capsys.readouterr().err
        assert not (tmp_path / "proximity.json").exists()

    @pytest.mark.parametrize("key", ["state_dim", "order"])
    def test_integer_keys_stay_integers(self, tmp_path, capsys, key):
        config = base_config(DICTIONARIES["S2"])
        loaded = load_config(write_config(tmp_path, config))
        assert type(loaded["state_dim"]) is int and type(loaded["backend"]["order"]) is int
        (config if key == "state_dim" else config["backend"])[key] = 2.5
        assert run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path]) == 2
        assert f"config schema violation at {'backend/' * (key == 'order')}{key}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["proximity", "oracle", "predict", "residuals"])
    def test_integer_valued_float_literals_run(self, tmp_path, command):
        # JSON Schema counts 100.0 as an integer; predict and oracle crashed
        # on such counts with TypeError (exit 1)
        config = base_config(DICTIONARIES["S2"])
        integers = write_config(tmp_path, config)
        text = json.dumps(config)
        for key in ("state_dim", "order", "n_samples", "seed", "n_trajectories",
                    "horizon", "sampling_seed"):
            text, count = re.subn(rf'("{key}": )(\d+)', r"\1\2.0", text)
            assert count == 1
        floats = tmp_path / "floats.json"
        floats.write_text(text)
        for path, out in ((integers, tmp_path / "int"), (floats, tmp_path / "float")):
            assert run([command, "--config", path, "--out", out]) == 0
        names = sorted(p.name for p in (tmp_path / "int").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "float").iterdir()) and names
        for name in names:
            assert (tmp_path / "int" / name).read_bytes() == \
                (tmp_path / "float" / name).read_bytes()

    @pytest.mark.parametrize("command", ["proximity", "table1"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.001"])
    def test_rank_tol_flag_must_be_positive_and_finite(self, tmp_path, capsys,
                                                       command, value):
        config = ["--config", CONFIGS_DIR / "s2.json"] if command != "table1" else []
        assert run([command, *config, "--out", tmp_path, "--rank-tol", value]) == 2
        assert "--rank-tol must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["proximity", "residuals", "table1"])
    def test_seed_is_refused_where_no_seed_is_read(self, tmp_path, capsys, command):
        # only oracle and predict draw random numbers
        config = ["--config", CONFIGS_DIR / "s2.json"] if command != "table1" else []
        with pytest.raises(SystemExit) as info:
            run([command, *config, "--out", tmp_path, "--seed", 1])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("case", ["config", "proximity", "table1"])
    def test_quad_order_above_the_maximum_is_config_error(self, tmp_path, capsys,
                                                          monkeypatch, case):
        # leggauss(20000) would ask for about 3 GiB: fail if it is reached
        leggauss = np.polynomial.legendre.leggauss

        def bounded_leggauss(order):
            assert order <= MAX_QUAD_ORDER, f"leggauss({order}) was called"
            return leggauss(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", bounded_leggauss)
        config = base_config(DICTIONARIES["S2"])
        if case == "config":
            config["backend"]["order"] = MAX_QUAD_ORDER + 1
            args = ["proximity", "--config", write_config(tmp_path, config)]
        else:
            args = [case, "--quad-order", 20000]
            if case == "proximity":
                args[1:1] = ["--config", write_config(tmp_path, config)]
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run([*args, "--out", out]) == 2
        assert time.perf_counter() - start < 2.0
        assert str(MAX_QUAD_ORDER) in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("case", ["missing config", "quad order", "schema",
                                      "expression"])
    def test_config_error_creates_no_out_dir(self, tmp_path, capsys, case):
        config = base_config(DICTIONARIES["S2"])
        if case == "schema":
            config["state_dim"] = 0
        elif case == "expression":
            config["dictionary"] = ["x1 +"]
        path = write_config(tmp_path, config)
        args = ["proximity", "--config", path]
        if case == "missing config":
            args[2] = tmp_path / "nope.json"
        elif case == "quad order":
            args.extend(["--quad-order", 20000])
        out = tmp_path / "out" / "nested"
        assert run([*args, "--out", out]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["config", "flag", "check rule"])
    def test_node_budget_is_config_error(self, tmp_path, capsys, case):
        # 20^8 = 2.56e10 nodes would be hours of evaluation; order 1 in 27
        # dimensions is one node, but its check rule, order 2, has 2^27
        config = base_config(["1", "x1"])
        dim = {"config": 8, "flag": 4, "check rule": 27}[case]
        config.update(state_dim=dim, domain=[[-1.0, 1.0]] * dim, dynamics=["0.5*x1"] * dim)
        del config["backend"]["order"]  # the default, 20
        if case == "check rule":
            config["backend"]["order"] = 1
        args = ["proximity", "--config", write_config(tmp_path, config)]
        if case == "flag":
            args += ["--quad-order", 91]
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run([*args, "--out", out]) == 2
        assert time.perf_counter() - start < 1.0
        nodes, fit = {"config": (20**8, 9), "flag": (91**4, 90), "check rule": (2**27, 1)}[case]
        err = capsys.readouterr().err
        assert f"{nodes} nodes" in err and f"the largest order that fits is {fit}" in err
        assert not out.exists()

    def test_vanishing_coarse_rule_warns(self, tmp_path):
        # order 2 is checked at order 1, one node at the origin, where every
        # atom vanishes: the coarser rule spans nothing, which is a warning
        config = base_config(["x1", "x2"])
        config["backend"]["order"] = 2
        with pytest.warns(UserWarning, match=r"dim S 2 -> 0, dim K\(S\) 2 -> 0 at order 1$"):
            assert run(["proximity", "--config", write_config(tmp_path, config),
                        "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "proximity.json").read_text())
        [warning] = report["diagnostics"]["warnings"]
        assert warning.startswith("quadrature order 2 not converged: proximity changes by nan")

    def test_bad_expression_rejected(self, tmp_path):
        config = base_config(DICTIONARIES["S1"])
        config["dictionary"] = ["x1 +"]
        code = run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path])
        assert code == 2

    def test_missing_config_file(self, tmp_path):
        code = run(["proximity", "--config", tmp_path / "nope.json",
                    "--out", tmp_path])
        assert code == 2

    def test_degenerate_dictionary_is_numerical_failure(self, tmp_path):
        config = base_config(["0*x1"])
        code = run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path])
        assert code == 3

    @pytest.mark.parametrize("dictionary, block", [
        (["0*x1"], "dictionary block S"),  # S = {0}
        (["x1"], r"image block K\(S\)"),   # S is fine, only K(S) = {0}
    ])
    def test_degenerate_space_names_the_empty_block(self, tmp_path, capsys, dictionary, block):
        config = {"state_dim": 1, "domain": [[-1.0, 1.0]],
                  "backend": {"type": "quadrature", "order": 20},
                  "dynamics": ["0*x1"], "dictionary": dictionary}
        code = run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path])
        assert code == 3
        assert re.search("DegenerateSpace: no singular value above the rank tolerance "
                         f"in the {block}$", capsys.readouterr().err.strip())

    def test_empirical_with_dynamics_rejected(self, tmp_path, dynamics):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(50, 2))
        snaps = tmp_path / "snaps.csv"
        write_snapshots(snaps, X, dynamics(X))
        config = base_config(DICTIONARIES["S2"])
        config["backend"] = {"type": "empirical", "snapshot_path": str(snaps)}
        code = run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path])
        assert code == 2

    def test_quad_order_override_on_empirical_rejected(self, tmp_path, dynamics):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(50, 2))
        snaps = tmp_path / "snaps.csv"
        write_snapshots(snaps, X, dynamics(X))
        config = base_config(DICTIONARIES["S2"])
        del config["dynamics"]
        config["backend"] = {"type": "empirical", "snapshot_path": str(snaps)}
        code = run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path, "--quad-order", 10])
        assert code == 2

    @pytest.mark.parametrize("text, message, line", [
        ("weight\n0.5\n", "weights file must start with header 'w'", ""),
        ("w\n0.5\nheavy\n", "could not convert string to float: 'heavy'", ":3"),
    ])
    def test_bad_weights_file_is_config_error(self, tmp_path, capsys, dynamics,
                                              text, message, line):
        X = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
        snaps, weights = tmp_path / "snaps.csv", tmp_path / "weights.csv"
        write_snapshots(snaps, X, dynamics(X))
        weights.write_text(text)
        config = base_config(DICTIONARIES["S2"])
        del config["dynamics"]
        config["backend"] = {"type": "empirical", "snapshot_path": str(snaps),
                             "weights_path": str(weights)}
        assert run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path / "out"]) == 2
        assert f"configuration error: {weights}{line}: {message}" in capsys.readouterr().err

    def test_snapshot_dimension_must_match_the_config(self, tmp_path, capsys):
        X = np.random.default_rng(0).uniform(-1, 1, size=(20, 3))
        snaps = tmp_path / "snaps.csv"
        write_snapshots(snaps, X, 0.5 * X)
        config = base_config(DICTIONARIES["S2"])
        del config["dynamics"]
        config["backend"] = {"type": "empirical", "snapshot_path": str(snaps)}
        assert run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path / "out"]) == 2
        assert ("configuration error: snapshots have dimension 3, config says 2"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("case", ["truncated json", "quad order 0", "short dynamics",
                                      "bad dynamics", "reversed interval", "nan snapshot",
                                      "odd header"])
    def test_documented_config_errors(self, tmp_path, capsys, case):
        config = base_config(DICTIONARIES["S2"])
        flags = ["--quad-order", 0] if case == "quad order 0" else []
        snaps = tmp_path / "snaps.csv"
        if case == "short dynamics":
            config["dynamics"] = ["0.9*x1"]
        elif case == "bad dynamics":
            config["dynamics"] = ["0.9*x1", "x2 $ 2"]
        elif case == "reversed interval":
            config["domain"] = [[1.0, -1.0], [-1.0, 1.0]]
        elif case in ("nan snapshot", "odd header"):
            snaps.write_text("x1,x2,y1,y2\n0.1,0.2,0.3,0.4\n0.5,nan,0.6,0.7\n"
                             if case == "nan snapshot" else "x1,x2,y1\n0.1,0.2,0.3\n")
            del config["dynamics"]
            config["backend"] = {"type": "empirical", "snapshot_path": str(snaps)}
        path = write_config(tmp_path, config)
        if case == "truncated json":
            Path(path).write_text('{"state_dim": 2,')
        message = {
            "truncated json": f"{path}:1:17: Expecting property name enclosed in double quotes",
            "quad order 0": "--quad-order must be positive",
            "short dynamics": "dynamics must list one expression per state dimension",
            "bad dynamics": "dynamics expression: unexpected character '$' (at position 3)",
            "reversed interval": "invalid interval [1.0, -1.0]",
            "nan snapshot": "snapshots must be finite",
            "odd header": f"{snaps}: header must list x1..xn,y1..yn",
        }[case]
        out = tmp_path / "out"
        assert run(["proximity", "--config", path, "--out", out, *flags]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_quadrature_backend_requires_dynamics(self, tmp_path, capsys):
        config = base_config(DICTIONARIES["S2"])
        del config["dynamics"]
        assert run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path / "out"]) == 2
        assert ("configuration error: the quadrature backend requires a dynamics section"
                in capsys.readouterr().err)

    def test_rank_tol_flag_reaches_the_analysis(self, tmp_path):
        assert run(["proximity", "--config", CONFIGS_DIR / "s1.json", "--out", tmp_path,
                    "--rank-tol", 1e-8]) == 0
        report = json.loads((tmp_path / "proximity.json").read_text())
        assert report["diagnostics"]["rank_tol"] == 1e-8

    @pytest.mark.parametrize("command", ["oracle", "predict"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run([command, "--config", CONFIGS_DIR / "s2.json", "--out", out,
                    "--seed", -1]) == 2
        assert "configuration error: --seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_empirical_proximity_runs(self, tmp_path, dynamics):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(400, 2))
        snaps = tmp_path / "snaps.csv"
        write_snapshots(snaps, X, dynamics(X))
        config = base_config(DICTIONARIES["S2"])
        del config["dynamics"]
        config["backend"] = {"type": "empirical", "snapshot_path": str(snaps)}
        code = run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "proximity.json").read_text())
        assert 0.0 <= payload["invariance_proximity"] <= 1.0
        assert payload["diagnostics"]["backend"] == "empirical"

    def test_weighted_nodes_reproduce_quadrature_backend(self, tmp_path, dynamics):
        # quadrature nodes as snapshots, rule weights folded in
        space = QuadratureSpace(Domain(((-1, 1), (-1, 1))), 20)
        snaps = tmp_path / "nodes.csv"
        write_snapshots(snaps, space.nodes, dynamics(space.nodes))
        weights = tmp_path / "weights.csv"
        weights.write_text(
            "w\n" + "\n".join(format(w, ".17g") for w in space.weights) + "\n"
        )
        config = base_config(DICTIONARIES["S3"])
        del config["dynamics"]
        config["backend"] = {
            "type": "empirical",
            "snapshot_path": str(snaps),
            "weights_path": str(weights),
        }
        out_emp = tmp_path / "emp"
        assert run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", out_emp]) == 0
        out_quad = tmp_path / "quad"
        assert run(["proximity", "--config", CONFIGS_DIR / "s3.json",
                    "--out", out_quad]) == 0
        emp = json.loads((out_emp / "proximity.json").read_text())
        ref = json.loads((out_quad / "proximity.json").read_text())
        assert abs(emp["invariance_proximity"] - ref["invariance_proximity"]) < 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["proximity", "--config", CONFIGS_DIR / "s2.json",
                        "--out", out]) == 0
        assert (out_a / "proximity.json").read_bytes() == \
               (out_b / "proximity.json").read_bytes()

    @pytest.mark.parametrize("basis", ["monomial", "legendre"])
    def test_degree_16_sweep_witness_solves(self, tmp_path, basis):
        # absolute lstsq residuals of 1.3e-8 and 3.6e-8 once made these exit
        # 3; they track eps |A| |x|, and the backward error stays near eps
        workloads = bench_module("workloads")
        config = {"state_dim": 2, "domain": workloads.UNIT_BOX,
                  "backend": {"type": "quadrature", "order": 40},
                  "dynamics": workloads.SEC7_DYNAMICS,
                  "dictionary": workloads.sweep_dictionary(basis, 16)}
        assert run(["proximity", "--config", write_config(tmp_path, config),
                    "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "proximity.json").read_text())
        diag = report["diagnostics"]
        assert diag["warnings"] == []
        assert abs(diag["witness_relative_error"] - report["invariance_proximity"]) <= 1e-8


    def test_outputs_agree_across_blas_thread_counts(self, tmp_path):
        # nothing fixed the sign of the top principal vector: the degree-10
        # sweep witnesses flipped sign between one and two OpenBLAS threads;
        # main runs OpenBLAS on one thread, so where it can the bytes agree
        configs = [CONFIGS_DIR / f"s{k}.json" for k in (1, 2, 3)]
        configs += [op["argv"][2] for op in bench_module("workloads").sweep_ops(tmp_path)
                    if op["label"].endswith(":10")]
        code = ("import sys; from invprox.cli import main; "
                "sys.exit(max(main(['proximity', '--config', c, '--out', o]) "
                "for c, o in zip(sys.argv[1::2], sys.argv[2::2])))")
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                                os.environ.get("PYTHONPATH")))))
            outs = [tmp_path / threads / str(i) for i in range(len(configs))]
            args = [str(a) for pair in zip(configs, outs) for a in pair]
            result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr[-2000:]
            reports.append([(out / "proximity.json").read_bytes() for out in outs])
        for one, two in zip(*reports):
            if cli._blas_thread_setter():
                assert one == two
            one, two = json.loads(one), json.loads(two)
            for key in ("dim_S", "dim_KS", "dim_W"):
                assert one[key] == two[key]
            assert one["diagnostics"]["warnings"] == two["diagnostics"]["warnings"]
            value = one["invariance_proximity"]
            assert abs(value - two["invariance_proximity"]) <= 1e-12 * value
            witness = np.array(one["witness_coeffs"])
            gap = np.max(np.abs(witness - two["witness_coeffs"]))
            assert gap <= 1e-8 * np.max(np.abs(witness))


class TestTable1Command:
    def test_values_and_csv(self, tmp_path):
        assert run(["table1", "--out", tmp_path]) == 0
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert lines[0] == "subspace,proximity"
        values = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
        assert values["S1"] <= 1e-8
        assert values["S2"] == pytest.approx(0.048, abs=0.002)
        assert values["S3"] == pytest.approx(0.823, abs=0.005)

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["table1", "--out", out]) == 0
        assert (out_a / "table1.csv").read_bytes() == \
               (out_b / "table1.csv").read_bytes()

    def test_runs_as_a_module(self, tmp_path):
        result = subprocess.run([sys.executable, "-m", "invprox.cli", "table1",
                                 "--out", str(tmp_path)], env=src_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
        assert (tmp_path / "table1.csv").read_text().startswith("subspace,proximity\nS1,")


class TestPredictCommand:
    def test_invariant_subspace_errors_vanish(self, tmp_path):
        assert run(["predict", "--config", CONFIGS_DIR / "s1.json",
                    "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "predict.json").read_text())
        assert payload["n_trajectories"] == 100
        assert payload["excluded"] == 0
        for step in payload["steps"]:
            assert step["max"] <= 1e-8

    def test_ordering_and_seed_consistency(self, tmp_path):
        out2, out3 = tmp_path / "s2", tmp_path / "s3"
        assert run(["predict", "--config", CONFIGS_DIR / "s2.json",
                    "--out", out2, "--seed", 77]) == 0
        assert run(["predict", "--config", CONFIGS_DIR / "s3.json",
                    "--out", out3, "--seed", 77]) == 0
        steps2 = json.loads((out2 / "predict.json").read_text())["steps"]
        steps3 = json.loads((out3 / "predict.json").read_text())["steps"]
        assert len(steps2) == len(steps3) == 10
        for a, b in zip(steps2, steps3):
            assert a["median"] < b["median"]

    def test_zero_horizon(self, tmp_path):
        config = base_config(DICTIONARIES["S2"])
        config["experiment"]["horizon"] = 0
        assert run(["predict", "--config", write_config(tmp_path, config),
                    "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "predict.json").read_text())
        assert payload["steps"] == []
        lines = (tmp_path / "predict.csv").read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[-1] == "k,median,q25,q75,min,max"

    def test_requires_dynamics(self, tmp_path, dynamics):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(30, 2))
        snaps = tmp_path / "snaps.csv"
        write_snapshots(snaps, X, dynamics(X))
        config = base_config(DICTIONARIES["S2"])
        del config["dynamics"]
        config["backend"] = {"type": "empirical", "snapshot_path": str(snaps)}
        assert run(["predict", "--config", write_config(tmp_path, config),
                    "--out", tmp_path]) == 2

    def test_empirical_model_with_simulated_truth(self, tmp_path, dynamics):
        # empirical backend for the model, dynamics kept for simulation
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(300, 2))
        snaps = tmp_path / "snaps.csv"
        write_snapshots(snaps, X, dynamics(X))
        config = base_config(DICTIONARIES["S1"])
        config["backend"] = {"type": "empirical", "snapshot_path": str(snaps)}
        assert run(["predict", "--config", write_config(tmp_path, config),
                    "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "predict.json").read_text())
        for step in payload["steps"]:
            assert step["max"] <= 1e-6  # invariant subspace, data-driven model

    def test_non_finite_along_trajectory_is_numerical_failure(self, tmp_path, capsys):
        # finite at every quadrature node, but trajectories leave the box
        # and sqrt(x1+2) turns nan from the second step on
        config = base_config(["1", "sqrt(x1+2)", "x2"])
        config["dynamics"] = ["1.5*x1", "x2"]
        assert run(["predict", "--config", write_config(tmp_path, config),
                    "--out", tmp_path]) == 3
        assert "NonFiniteValue: sqrt(x1+2.0) is non-finite (nan)" in capsys.readouterr().err

    def test_overflowing_prediction_is_numerical_failure(self, tmp_path, capsys):
        # composing with x -> x/2 widens the bump, so the model matrix is
        # 1.2649, no contraction: the prediction's norm overflows at step
        # 1523, where predict.csv once read inf and nan and the run exited 0
        config = {"state_dim": 1, "domain": [[-1.0, 1.0]],
                  "backend": {"type": "quadrature", "order": 40},
                  "dynamics": ["0.5*x1"], "dictionary": ["exp(-50*x1^2)"],
                  "experiment": {"n_trajectories": 3, "horizon": 4000, "sampling_seed": 0}}
        out = tmp_path / "out"
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # no numpy warning may precede the message
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["predict", "--config", write_config(tmp_path, config),
                        "--out", out]) == 3
        assert time.perf_counter() - start < 2.0
        # the bump is not resolved at order 40 either: its check warns first
        assert [str(w.message) for w in caught] == [
            "quadrature order 40 not converged: proximity changes by 2.398e-02, "
            "dim S 1 -> 1, dim K(S) 1 -> 1 at order 20"]
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: NonFiniteValue: percent error at step 1523 ")
        assert "NonFiniteValue: percent error at step 1523 of the trajectory from [" in err
        assert not out.exists()

    def test_zero_image_is_numerical_failure(self, tmp_path, capsys):
        # the model comes from the analysis, which refuses an empty image
        # block; a model built on its own excluded all 100 trajectories
        config = {"state_dim": 1, "domain": [[-1.0, 1.0]],
                  "backend": {"type": "quadrature", "order": 20},
                  "dynamics": ["0*x1"], "dictionary": ["x1"]}
        assert run(["predict", "--config", write_config(tmp_path, config),
                    "--out", tmp_path / "out"]) == 3
        assert capsys.readouterr().err.strip().endswith(
            "DegenerateSpace: no singular value above the rank tolerance in the image block K(S)")
        assert not (tmp_path / "out").exists()

    def test_expression_calls_are_batched(self, tmp_path, monkeypatch):
        # one call per atom or dynamics component and step for all
        # trajectories together; one trajectory at a time made 7512
        calls = []
        evaluate = Expr.__call__

        def counting(self, points):
            calls.append(len(points))
            return evaluate(self, points)

        monkeypatch.setattr(Expr, "__call__", counting)
        assert run(["predict", "--config", CONFIGS_DIR / "s3.json",
                    "--out", tmp_path]) == 0
        m, d, horizon = 5, 2, 10
        assert len(calls) <= 2 * m + d + (horizon + 1) * m + horizon * d  # 87

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["predict", "--config", CONFIGS_DIR / "s2.json",
                        "--out", out]) == 0
        assert (out_a / "predict.csv").read_bytes() == \
               (out_b / "predict.csv").read_bytes()
        assert (out_a / "predict.json").read_bytes() == \
               (out_b / "predict.json").read_bytes()

    @pytest.mark.parametrize("key, value", [("horizon", 10**15), ("n_trajectories", 10**12)])
    def test_size_budget_is_config_error(self, tmp_path, capsys, key, value):
        # horizon 10**15 asked numpy for 711 PiB of errors and exited 1
        config = json.loads((CONFIGS_DIR / "s2.json").read_text())
        config["experiment"][key] = value
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run(["predict", "--config", write_config(tmp_path, config), "--out", out]) == 2
        assert time.perf_counter() - start < 1.0
        values = config["experiment"]["n_trajectories"] * (config["experiment"]["horizon"] + 1)
        err = capsys.readouterr().err
        assert f"is {values}, more than the {cli.MAX_PREDICT_VALUES} allowed" in err
        assert not out.exists()

    def test_size_budget_admits_its_bound(self, tmp_path, monkeypatch):
        # s2 runs 100 trajectories of 10 steps: 100 * 11 values
        monkeypatch.setattr(cli, "MAX_PREDICT_VALUES", 1100)
        assert run(["predict", "--config", CONFIGS_DIR / "s2.json", "--out", tmp_path / "a"]) == 0
        monkeypatch.setattr(cli, "MAX_PREDICT_VALUES", 1099)
        assert run(["predict", "--config", CONFIGS_DIR / "s2.json", "--out", tmp_path / "b"]) == 2


class TestOracleCommand:
    def test_invariant_subspace(self, tmp_path):
        assert run(["oracle", "--config", CONFIGS_DIR / "s1.json",
                    "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["closed_form"] <= 1e-8
        assert payload["oracle_max"] <= 1e-8

    def test_gap_after_refinement(self, tmp_path):
        assert run(["oracle", "--config", CONFIGS_DIR / "s3.json",
                    "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["oracle_max"] <= payload["closed_form"] + 1e-8
        assert payload["gap"] < 0.01 * payload["closed_form"]
        assert len(payload["argmax_coeffs"]) == 5

    def test_single_sample_is_valid(self, tmp_path):
        config = base_config(DICTIONARIES["S3"])
        config["oracle"] = {"n_samples": 1, "seed": 4}
        assert run(["oracle", "--config", write_config(tmp_path, config),
                    "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["oracle_max"] <= payload["closed_form"] + 1e-8

    @pytest.mark.parametrize("scale", ["0", "1e-9", "1e-13"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nearly_vanishing_image_is_no_internal_error(self, tmp_path, scale, seed):
        # K(S) lies in S, so the closed form is rounding; x1 has an image of
        # norm scale, whose residual rounding once made the oracle exit 4
        config = json.loads((CONFIGS_DIR / "s1.json").read_text())
        config["dynamics"] = [f"{scale}*x1", "x2"]
        config["dictionary"] = ["1", "x1", "x2"]
        assert run(["oracle", "--config", write_config(tmp_path, config),
                    "--out", tmp_path, "--seed", str(seed)]) == 0
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["oracle_max"] <= payload["closed_form"] + 1e-8

    def test_oracle_above_the_closed_form_is_internal_failure(self, tmp_path, capsys,
                                                               monkeypatch):
        oracle = cli.proximity_oracle

        def inflated(analysis, **kwargs):
            result = oracle(analysis, **kwargs)
            return dataclasses.replace(result, max_error=analysis.proximity + 1e-6)

        monkeypatch.setattr(cli, "proximity_oracle", inflated)
        assert run(["oracle", "--config", CONFIGS_DIR / "s2.json", "--out", tmp_path]) == 4
        assert ("internal consistency failure: sampled error exceeds the closed form"
                in capsys.readouterr().err)
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["oracle_max"] == payload["closed_form"] + 1e-6


class TestResidualsCommand:
    def test_invariant_subspace(self, tmp_path):
        assert run(["residuals", "--config", CONFIGS_DIR / "s1.json",
                    "--out", tmp_path]) == 0
        lines = (tmp_path / "residuals.csv").read_text().splitlines()
        assert lines[0] == "lambda_re,lambda_im,residual,bound"
        assert len(lines) == 4
        for row in lines[1:]:
            assert float(row.split(",")[2]) <= 1e-8

    def test_bound_holds(self, tmp_path):
        assert run(["residuals", "--config", CONFIGS_DIR / "s3.json",
                    "--out", tmp_path]) == 0
        for row in (tmp_path / "residuals.csv").read_text().splitlines()[1:]:
            _, _, residual, bound = map(float, row.split(","))
            assert residual <= bound + 1e-8

    def test_empirical_backend(self, tmp_path, dynamics):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(400, 2))
        snaps = tmp_path / "snaps.csv"
        write_snapshots(snaps, X, dynamics(X))
        config = base_config(DICTIONARIES["S3"])
        del config["dynamics"]
        config["backend"] = {"type": "empirical", "snapshot_path": str(snaps)}
        assert run(["residuals", "--config", write_config(tmp_path, config),
                    "--out", tmp_path]) == 0
        rows = (tmp_path / "residuals.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            _, _, residual, bound = map(float, row.split(","))
            assert np.isfinite(residual)
            assert residual <= bound + 1e-8


@pytest.mark.parametrize("command", ["proximity", "oracle", "predict", "residuals"])
def test_unconverged_rule_warns_in_every_output(tmp_path, command):
    # order 2 is checked at order 1, where S3 spans less; predict built its
    # model without the check and neither warned nor recorded it
    with pytest.warns(UserWarning) as caught:
        assert run([command, "--config", CONFIGS_DIR / "s3.json", "--out", tmp_path,
                    "--quad-order", 2]) == 0
    messages = [str(w.message) for w in caught]
    assert messages and all(m.startswith("quadrature order 2 not converged: ") for m in messages)
    json_name, csv_name = {"proximity": ("proximity.json", None),
                           "oracle": ("oracle.json", None),
                           "predict": ("predict.json", "predict.csv"),
                           "residuals": (None, "residuals.csv")}[command]
    if json_name:
        payload = json.loads((tmp_path / json_name).read_text())
        recorded = (payload["diagnostics"] if command == "proximity" else payload)["warnings"]
        assert recorded == messages
        assert list(payload)[-1] == ("diagnostics" if command == "proximity" else "warnings")
    if csv_name:
        lines = (tmp_path / csv_name).read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header - len(messages):header] == [f"# warning: {m}" for m in messages]


@pytest.mark.parametrize("dynamics, dictionary", [
    *(pytest.param((f"{a}*x1", f"{a}*x2"), ("x1", "x1^2"), id=f"a={a}")
      for a in ("1e-6", "1e-8", "1e-10", "1e-13", "1e-15", "1e-20")),
    # K(S) holds only constants
    pytest.param(("x1", "3e-33"), ("x2", "0", "1e8*x2"), id="constant-image"),
])
def test_one_config_one_exit_code(tmp_path, dynamics, dictionary):
    # at the default tolerances proximity once exited 3 (ZeroImage from its
    # witness) on every config here but a = 1e-6 and 1e-13, while oracle,
    # residuals and predict, which never built the witness, exited 0
    config = base_config(dictionary)
    del config["tolerances"]
    config["dynamics"] = list(dynamics)
    path = write_config(tmp_path, config)
    for command in ("proximity", "oracle", "residuals", "predict"):
        assert run([command, "--config", path, "--out", tmp_path / command]) == 0, command
    report = json.loads((tmp_path / "proximity" / "proximity.json").read_text())
    proximity = report["invariance_proximity"]
    assert abs(report["diagnostics"]["witness_relative_error"] - proximity) <= 1e-8
    oracle = json.loads((tmp_path / "oracle" / "oracle.json").read_text())
    assert oracle["closed_form"] == proximity
    if dynamics[1] == "3e-33":
        assert proximity == 1.0
    else:  # span(x1, x1^2) is invariant under a*x, and K is invertible on it
        assert proximity <= 1e-12
        # the image block's rank no longer depends on a: 1 for a <= 1e-13 once
        assert (report["dim_S"], report["dim_KS"], report["dim_W"]) == (2, 2, 2)


def test_predict_keeps_trajectories_under_a_fast_contraction(tmp_path):
    # the evaluated dictionary shrinks by 1e-6 per step; with an absolute
    # vanishing threshold of 1e-14 all 50 trajectories were excluded
    config = base_config(("x1", "x1^2"))
    config["dynamics"] = ["1e-6*x1", "1e-6*x2"]
    assert run(["predict", "--config", write_config(tmp_path, config),
                "--out", tmp_path]) == 0
    payload = json.loads((tmp_path / "predict.json").read_text())
    assert (payload["n_trajectories"], payload["excluded"]) == (50, 0)
    assert len(payload["steps"]) == 10
    assert max(step["max"] for step in payload["steps"]) <= 1e-11


@pytest.mark.parametrize("command", ["proximity", "predict"])
def test_non_finite_value_of_the_check_names_its_rule(tmp_path, capsys, command):
    # the order-5 check rule has a node at 0, the order-10 rule has none
    config = {"state_dim": 1, "domain": [[-1.0, 1.0]],
              "backend": {"type": "quadrature", "order": 10},
              "dynamics": ["0.9*x1"], "dictionary": ["1/x1"]}
    assert run([command, "--config", write_config(tmp_path, config),
                "--out", tmp_path / "out"]) == 3
    assert capsys.readouterr().err.strip() == (
        "numerical failure: NonFiniteValue: 1.0/x1 on the order-5 check rule is "
        "non-finite (inf) at point [0.]")


needs_blas_pin = pytest.mark.skipif(cli._blas_thread_setter() is None,
                                    reason="numpy's BLAS is not OpenBLAS 0.3.27 or later")


class TestBlasThreadPin:
    def test_openblas_setter_resolves(self):
        # a numpy whose OpenBLAS renamed the symbol would quietly run every
        # command on the caller's thread count again
        if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        setter = cli._blas_thread_setter()
        assert setter is not None
        previous = setter(2)
        try:
            assert setter(1) == 2
            assert setter(2) == 1
        finally:
            setter(previous)

    @needs_blas_pin
    def test_command_runs_on_one_thread(self, tmp_path, monkeypatch):
        setter, original, counts = cli._blas_thread_setter(), cli.cmd_proximity, []

        def recording(config, out_dir):
            counts.append(setter(1))  # the setter returns the count it replaces
            return original(config, out_dir)

        monkeypatch.setattr(cli, "cmd_proximity", recording)
        previous = setter(2)
        try:
            assert run(["proximity", "--config", CONFIGS_DIR / "s2.json",
                        "--out", tmp_path]) == 0
        finally:
            setter(previous)
        assert counts == [1]

    @needs_blas_pin
    @pytest.mark.parametrize("case", ["ok", "bad config", "degenerate", "usage", "raises"])
    def test_main_restores_the_callers_thread_count(self, tmp_path, monkeypatch, case):
        def broken(config, out_dir):
            raise RuntimeError("handler failed")

        config = CONFIGS_DIR / "s2.json"
        if case == "bad config":
            config = tmp_path / "missing.json"
        elif case == "degenerate":
            config = write_config(tmp_path, base_config(["0*x1"]))
        elif case == "raises":
            monkeypatch.setattr(cli, "cmd_proximity", broken)
        argv = ["proximity", "--out", tmp_path]
        if case != "usage":  # argparse exits on the missing --config
            argv += ["--config", config]
        outcome = {"ok": 0, "bad config": 2, "degenerate": 3,
                   "usage": SystemExit, "raises": RuntimeError}[case]
        setter = cli._blas_thread_setter()
        previous = setter(2)
        try:
            if isinstance(outcome, int):
                assert run(argv) == outcome
            else:
                with pytest.raises(outcome):
                    run(argv)
            restored = setter(previous)
        finally:
            setter(previous)
        assert restored == 2
