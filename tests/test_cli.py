import copy
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invprox import DynamicsMap, Expr, QuadratureSpace, Domain, write_snapshots
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


def test_cli_import_leaves_out_jsonschema():
    # none of jsonschema and its dependencies may return to the import path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import sys, invprox.cli; print(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], env=env,
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

    @pytest.mark.parametrize("case", ["config", "flag"])
    def test_node_budget_is_config_error(self, tmp_path, capsys, case):
        # 20^8 = 2.56e10 nodes would be hours of evaluation
        config = base_config(["1", "x1"])
        dim = 8 if case == "config" else 4
        config.update(state_dim=dim, domain=[[-1.0, 1.0]] * dim, dynamics=["0.5*x1"] * dim)
        del config["backend"]["order"]  # the default, 20
        args = ["proximity", "--config", write_config(tmp_path, config)]
        if case == "flag":
            args += ["--quad-order", 91]
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run([*args, "--out", out]) == 2
        assert time.perf_counter() - start < 1.0
        nodes, fit = (20**8, 9) if case == "config" else (91**4, 90)
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


    def test_outputs_agree_across_blas_thread_counts(self, tmp_path):
        # nothing fixed the sign of the top principal vector: the degree-10
        # sweep witnesses flipped sign between one and two OpenBLAS threads
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
            reports.append([json.loads((out / "proximity.json").read_text()) for out in outs])
        for one, two in zip(*reports):
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
