"""The CLI's exit-code contract on seeded random configs and on configs that
once broke it.

Every config command ends in 0, 2 (configuration) or 3 (numerical failure):
never 4, which would mean the sampling oracle beat the closed form, and
never an escaping exception. A run that exits 0 writes finite numbers only.
``proximity``, ``oracle`` and ``residuals`` build the same analysis, so they
exit alike. The configs come from one fixed ``random.Random`` seed; a
generated config that breaks the contract is marked with its own strict
xfail and a ``FOUND:`` line in CHANGES.md, never reseeded away.
"""

import json
import random
import warnings

import pytest

from invprox.cli import main

COMMANDS = ("proximity", "oracle", "predict", "residuals")
CONSTANTS = ("0", "0.5", "1", "2", "3", "1e-8", "1e8", "1e150", "1e200", "1e300", "5e-324")
EXPONENTS = ("0", "1", "2", "3", "-1", "-2", "(1+1)")
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs", "tan")
N_GENERATED = 150


def random_expression(rng, state_dim, depth=2):
    """A random expression tree at most ``depth`` operators deep."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return f"x{rng.randint(1, state_dim)}"
        return rng.choice(CONSTANTS)
    kind = rng.choice(("binary", "binary", "power", "negative", "function"))
    operand = random_expression(rng, state_dim, depth - 1)
    if kind == "binary":
        right = random_expression(rng, state_dim, depth - 1)
        return f"({operand}){rng.choice('+-*/')}({right})"
    if kind == "power":
        return f"({operand})^{rng.choice(EXPONENTS)}"
    if kind == "negative":
        return f"-({operand})"
    return f"{rng.choice(FUNCTIONS)}({operand})"


def random_config(rng):
    d = rng.randint(1, 2)
    return {
        "state_dim": d,
        "domain": [[rng.choice((-2.0, -1.0, 0.0)), rng.choice((0.5, 1.0, 3.0))]
                   for _ in range(d)],
        "backend": {"type": "quadrature", "order": rng.choice((1, 2, 3, 5, 8, 12, 20))},
        "dynamics": [random_expression(rng, d) for _ in range(d)],
        "dictionary": [random_expression(rng, d) for _ in range(rng.randint(1, 7))],
        "oracle": {"n_samples": 200},
        "experiment": {"horizon": rng.randint(0, 5)},
    }


_rng = random.Random(30)
GENERATED = [random_config(_rng) for _ in range(N_GENERATED)]


def _refuse(constant):
    raise AssertionError(f"non-finite number {constant} in a JSON output")


def run_commands(config, tmp_path, runtime_warnings="ignore"):
    """The exit code of each command on ``config``, with the contract checked;
    ``runtime_warnings="error"`` also fails a run on which numpy warns."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    codes = {}
    for command in COMMANDS:
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a run's warnings are part of its output
            warnings.simplefilter(runtime_warnings, RuntimeWarning)
            codes[command] = main([command, "--config", str(path), "--out", str(out)])
        assert codes[command] in (0, 2, 3), (command, codes[command])
        if codes[command] == 0:
            for output in out.iterdir():
                text = output.read_text()
                if output.suffix == ".json":
                    json.loads(text, parse_constant=_refuse)
                    continue
                for row in text.splitlines():
                    if not row.startswith("#"):
                        assert not {"inf", "-inf", "nan"} & set(row.split(",")), row
    assert codes["proximity"] == codes["oracle"] == codes["residuals"], codes
    if codes["oracle"] == 0:
        oracle = json.loads((tmp_path / "oracle" / "oracle.json").read_text())
        assert oracle["oracle_max"] <= oracle["closed_form"] + 1e-8
    return codes


@pytest.mark.parametrize("index", range(N_GENERATED))
def test_generated_config_keeps_the_contract(index, tmp_path):
    run_commands(GENERATED[index], tmp_path)


# An atom whose values are subnormal, or rounding at that scale, spanned a
# direction: proximity wrote an inf witness coefficient (exit 1), oracle and
# residuals stopped on LAPACK errors or printed the closed form 1.0.
SUBNORMAL = {
    "A": {"state_dim": 2, "domain": [[0.0, 3.0], [-2.0, 1.0]],
          "backend": {"type": "quadrature", "order": 8},
          "dynamics": ["0", "-x2"], "dictionary": ["-5e-324"]},
    "B": {"state_dim": 2, "domain": [[-2.0, 1.0], [0.0, 0.5]],
          "backend": {"type": "quadrature", "order": 3},
          "dynamics": ["x2+x2*x2", "0"], "dictionary": ["abs(x2)", "5e-324", "-x2"]},
    "F": {"state_dim": 1, "domain": [[-1.0, 1.0]],
          "backend": {"type": "quadrature", "order": 1},
          "dynamics": ["(3)^3"], "dictionary": ["abs(x1)+1e-8*1e-300"]},
}

# The operator sends these dictionaries to values near 1e200, whose squares
# overflowed: oracle raised from an empty argmax, residuals wrote inf and
# predict a nan error at step 1. K^2 overflows itself, so predict runs one step.
LARGE_IMAGES = {
    "C": {"state_dim": 2, "domain": [[-1.0, 3.0], [0.0, 1.0]],
          "backend": {"type": "quadrature", "order": 20},
          "dynamics": ["1e-300+1e-150^-1", "1e200-2-x2"],
          "dictionary": ["x2", "-1", "tan(3)-1e200+x1"], "experiment": {"horizon": 1}},
    "D": {"state_dim": 2, "domain": [[0.0, 1.0], [-2.0, 3.0]],
          "backend": {"type": "quadrature", "order": 8},
          "dynamics": ["x1+x1-1", "1e200+1"],
          "dictionary": ["x1", "(1e-150+x1)^1", "sin(0.5)-abs(x2)", "-x1/0.5"],
          "experiment": {"horizon": 1}},
}


@pytest.mark.parametrize("name", sorted(SUBNORMAL))
def test_subnormal_atoms_are_degenerate(name, tmp_path, capsys):
    assert run_commands(SUBNORMAL[name], tmp_path, "error") == dict.fromkeys(COMMANDS, 3)
    assert capsys.readouterr().err.count("numerical failure: DegenerateSpace") == 4


@pytest.mark.parametrize("name", sorted(LARGE_IMAGES))
def test_large_images_keep_finite_lengths(name, tmp_path):
    # and without a numpy warning: the witness's backward error squared them too
    assert run_commands(LARGE_IMAGES[name], tmp_path, "error") == dict.fromkeys(COMMANDS, 0)


def test_large_images_span_what_moderate_ones_do(tmp_path):
    # K sends sin(0.5)-abs(x2) to the constant -1e200; its column's squared
    # length overflowed, so K(S) lost the constants (dim 1, proximity 0.781)
    reports = []
    for constant in ("1e200+1", "1"):
        config = {**LARGE_IMAGES["D"], "dynamics": ["x1+x1-1", constant]}
        run_commands(config, tmp_path / constant, "error")
        reports.append(json.loads((tmp_path / constant / "proximity" / "proximity.json")
                                  .read_text()))
    large, moderate = reports
    assert (large["dim_S"], large["dim_KS"], large["dim_W"]) == (2, 2, 3)
    assert abs(large["invariance_proximity"] - moderate["invariance_proximity"]) <= 1e-15


def test_tower_of_powers_runs(tmp_path):
    # the 200-level tower once ran out of recursion while compiling (exit 2)
    config = {"state_dim": 1, "domain": [[-1.0, 1.0]],
              "backend": {"type": "quadrature", "order": 20},
              "dynamics": ["0.5*x1"], "dictionary": ["1", "x1" + "^1" * 200]}
    assert run_commands(config, tmp_path, "error") == dict.fromkeys(COMMANDS, 0)


@pytest.mark.parametrize("scale", ["1e155", "1e-155", "1e300", "1e-300"])
def test_rescaled_atom_keeps_its_direction(scale, tmp_path):
    # span(x1, x1^2, c*x2) read 3e-16 with dims 2/2/2 for c >= 1e155 or c <= 1e-170
    config = {"state_dim": 2, "domain": [[-1.0, 1.0], [-1.0, 1.0]],
              "backend": {"type": "quadrature", "order": 20},
              "dynamics": ["0.9*x1", "0.4*(sin(x2)+x1^2)+0.01*x2^2"],
              "dictionary": ["x1", "x1^2", f"{scale}*x2"], "oracle": {"n_samples": 200}}
    assert run_commands(config, tmp_path, "error") == dict.fromkeys(COMMANDS, 0)
    report = json.loads((tmp_path / "proximity" / "proximity.json").read_text())
    assert (report["dim_S"], report["dim_KS"], report["dim_W"]) == (3, 3, 4)
    assert abs(report["invariance_proximity"] - 0.04897911356504775) <= 1e-15


@pytest.mark.xfail(strict=True, reason="the oracle samples an image map whose rounding is "
                                       "eps times its condition number (CHANGES.md, FOUND: "
                                       "config E)")
def test_nearly_parallel_atoms_keep_the_oracle_below_the_closed_form(tmp_path):
    config = {"state_dim": 2, "domain": [[-1.0, 0.5], [-2.0, 0.5]],
              "backend": {"type": "quadrature", "order": 8},
              "dynamics": ["exp(1e-8)+1e-300", "-x2"],
              "dictionary": ["1e8^-1", "1e8-x1^4", "1e200+1e8-1"], "oracle": {"seed": 1}}
    run_commands(config, tmp_path)
