import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invprox import (
    ArityError,
    Domain,
    DynamicsMap,
    ParseError,
    QuadratureSpace,
    UnknownIdentifier,
    compose_with_map,
    parse,
)
from invprox import expr
from invprox.expr import BUILTINS, BinOp, Call, Const, Expr, Neg, Var, evaluate

from conftest import DYNAMICS_SOURCES, sweep_atoms


def test_product_example():
    assert parse("0.9*x1", 2).eval((1.0, 0.5)) == 0.9


def test_benchmark_component_at_origin_x2():
    # sin(0) = 0, so the value is forced to 0.4 * 1^2
    e = parse("0.4*(sin(x2)+x1^2)+0.01*x2^2", 2)
    assert e.eval((1.0, 0.0)) == pytest.approx(0.4, abs=0.0)


def test_out_of_range_variable():
    with pytest.raises(UnknownIdentifier):
        parse("x3", 2)


def test_unknown_name_and_x0():
    with pytest.raises(UnknownIdentifier):
        parse("y1", 2)
    with pytest.raises(UnknownIdentifier):
        parse("x0", 2)


def test_eval_examples():
    assert parse("x1^2", 2).eval((-1.0, 7.0)) == 1.0
    assert parse("sin(x2)", 2).eval((0.0, 0.0)) == 0.0
    assert parse("1/x1", 2).eval((0.0, 0.0)) == math.inf


def test_nonfinite_propagates():
    assert math.isnan(parse("log(x1)", 1).eval((-2.0,)))
    assert parse("exp(x1)", 1).eval((1000.0,)) == math.inf


def test_precedence():
    assert parse("2+3*4", 1).eval((0.0,)) == 14.0
    assert parse("2^3^2", 1).eval((0.0,)) == 512.0
    assert parse("-2^2", 1).eval((0.0,)) == -4.0
    assert parse("(2+3)*4", 1).eval((0.0,)) == 20.0
    assert parse("2-3-4", 1).eval((0.0,)) == -5.0
    assert parse("16/4/2", 1).eval((0.0,)) == 2.0


def test_integer_exponent_guard():
    with pytest.raises(ParseError):
        parse("x1^0.5", 1)
    with pytest.raises(ParseError):
        parse("x1^x1", 1)
    # negative and computed integer exponents are allowed
    assert parse("2^-2", 1).eval((0.0,)) == 0.25
    assert parse("x1^(2*3)", 1).eval((2.0,)) == 64.0
    # a hand-built power the parser would refuse fails at compile
    for exponent in (Const(0.5), Var(1)):
        with pytest.raises(ValueError, match="not a constant integer"):
            expr.compile([Expr(BinOp("^", Var(1), exponent), 1)])


def test_negative_base_integer_power_is_real():
    assert parse("(-2)^3", 1).eval((0.0,)) == -8.0
    assert parse("x1^3", 1).eval((-2.0,)) == -8.0


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse("1+", 1)
    assert info.value.position == 2
    with pytest.raises(ParseError):
        parse("(1+2", 1)
    with pytest.raises(ParseError):
        parse("1 2", 1)
    with pytest.raises(ParseError):
        parse("2**3", 1)


def test_arity_errors():
    with pytest.raises(ArityError):
        parse("sin(x1,x1)", 1)
    with pytest.raises(ParseError):
        parse("sin()", 1)
    with pytest.raises(ParseError):
        parse("sin", 1)  # builtin requires a call


def test_roundtrip_catalog():
    sources = [
        "0.9*x1",
        "0.4*(sin(x2)+x1^2)+0.01*x2^2",
        "1-2-3",
        "1-(2-3)",
        "2^3^2",
        "(2^3)^2",
        "-x1^2",
        "(-x1)^2",
        "x1/x2/x1",
        "x1/(x2/x1)",
        "sqrt(abs(x1))+exp(-x2)",
        "1e-3*x1+2.5",
        "+".join(["x1"] * expr.MAX_DEPTH),  # printing recurses once per level
    ]
    for source in sources:
        e = parse(source, 2)
        again = parse(str(e), 2)
        assert again.root == e.root, source


def _random_node(rng, depth, variables=True):
    if depth == 0:
        kind = rng.integers(0, 2) if variables else 0
        if kind == 0:
            return Const(float(rng.choice([0.0, 1.0, 2.0, 0.5, 0.25, 3.0, 1e-3])))
        return Var(int(rng.integers(1, 3)))
    kind = rng.integers(0, 4)
    if kind == 0:
        return Neg(_random_node(rng, depth - 1, variables))
    if kind == 1:
        return Call(str(rng.choice(["sin", "cos", "exp", "abs"])),
                    _random_node(rng, depth - 1, variables))
    if kind == 2:
        return BinOp("^", _random_node(rng, depth - 1, variables),
                     Const(float(rng.integers(0, 4))))
    op = str(rng.choice(["+", "-", "*", "/"]))
    return BinOp(op, _random_node(rng, depth - 1, variables),
                 _random_node(rng, depth - 1, variables))


def test_roundtrip_random_asts():
    from invprox.expr import Expr

    rng = np.random.default_rng(7)
    for _ in range(300):
        e = Expr(_random_node(rng, 3), 2)
        assert parse(str(e), 2).root == e.root, str(e)


def test_composition_examples():
    T = DynamicsMap.from_strings(DYNAMICS_SOURCES, 2)
    g = compose_with_map(parse("x1", 2), T)
    assert g.eval((1.0, 0.0)) == 0.9
    one = compose_with_map(parse("1", 2), T)
    assert one.eval((0.3, -0.7)) == 1.0
    g2 = compose_with_map(parse("x2", 2), T)
    assert g2.eval((1.0, 0.0)) == pytest.approx(0.4, abs=0.0)


def test_composition_matches_componentwise_evaluation_exactly():
    T = DynamicsMap.from_strings(DYNAMICS_SOURCES, 2)
    e = parse("x1^2-0.3*sin(x2)+x2/((1+x1^2))", 2)
    g = compose_with_map(e, T)
    rng = np.random.default_rng(123)
    points = rng.uniform(-1, 1, size=(1000, 2))
    mapped = np.column_stack([component(points) for component in T.components])
    assert np.array_equal(g(points), e(mapped))


def test_compose_dimension_mismatch():
    T = DynamicsMap.from_strings(["0.5*x1"], 1)
    with pytest.raises(ValueError):
        compose_with_map(parse("x1+x2", 2), T)


def test_dynamics_map_validation():
    with pytest.raises(ValueError):
        DynamicsMap.from_strings(["x1"], 2)
    T = DynamicsMap.from_strings(DYNAMICS_SOURCES, 2)
    out = T(np.array([[1.0, 0.0], [0.5, 0.25]]))
    assert out.shape == (2, 2)
    assert out[0, 0] == 0.9


def test_expr_immutable():
    e = parse("x1", 1)
    with pytest.raises(AttributeError):
        e.state_dim = 5


def test_batched_and_single_agree():
    e = parse("0.4*(sin(x2)+x1^2)+0.01*x2^2", 2)
    rng = np.random.default_rng(5)
    points = rng.uniform(-1, 1, size=(50, 2))
    batched = e(points)
    singles = np.array([e.eval(p) for p in points])
    assert np.array_equal(batched, singles)


# --- the program evaluator against the node-by-node one it replaced ----------

def _reference_power(base, k):
    """``base^k`` by the documented rule: for an integer ``|k| >= 2``,
    ``x^k = x^ceil(k/2) * x^floor(k/2)`` and ``x^-k = 1 / x^k``; other
    exponents through ``np.power`` (reference)."""
    if not (float(k).is_integer() and abs(k) >= 2):
        return np.power(base, k)
    if k < 0:
        return np.divide(1.0, _reference_power(base, -k))
    halves = [base if h == 1 else _reference_power(base, h) for h in ((k + 1) // 2, k // 2)]
    return np.multiply(*halves)


def _reference_const(node):
    """Constant folding as the node-by-node evaluator did it (reference)."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return None
    if isinstance(node, Neg):
        v = _reference_const(node.operand)
        return None if v is None else -v
    if isinstance(node, Call):
        v = _reference_const(node.arg)
        if v is None:
            return None
        with np.errstate(all="ignore"):
            return float(BUILTINS[node.name](v))
    a, b = _reference_const(node.left), _reference_const(node.right)
    if a is None or b is None:
        return None
    with np.errstate(all="ignore"):
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return float(np.divide(a, b))
        return float(_reference_power(a, b))


def _reference_eval(node, columns, n_points):
    """The recursive evaluator: every node, every time (reference)."""
    if isinstance(node, Const):
        return np.full(n_points, float(node.value))
    if isinstance(node, Var):
        return columns[node.index - 1]
    if isinstance(node, Neg):
        return -_reference_eval(node.operand, columns, n_points)
    if isinstance(node, Call):
        return BUILTINS[node.name](_reference_eval(node.arg, columns, n_points))
    left = _reference_eval(node.left, columns, n_points)
    if node.op == "^":
        return _reference_power(left, _reference_const(node.right))
    right = _reference_eval(node.right, columns, n_points)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return np.divide(left, right)


def _reference_values(exprs, points):
    columns = [points[:, k] for k in range(points.shape[1])]
    with np.errstate(all="ignore"):
        return np.array([_reference_eval(e.root, columns, points.shape[0])
                         for e in exprs]).reshape(len(exprs), points.shape[0])


def _assert_bitwise_equal(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_exprs=st.integers(1, 8))
def test_evaluate_matches_node_by_node_evaluation(seed, n_exprs):
    # expressions combine a few shared subtrees, some of them constant-only;
    # 0, +-1e200 and 700 make divisions by zero, overflows and nan
    rng = np.random.default_rng(seed)
    pool = [_random_node(rng, int(rng.integers(0, 4)), variables=bool(rng.integers(0, 3)))
            for _ in range(4)]
    exprs = []
    for _ in range(n_exprs):
        a, b = (pool[i] for i in rng.integers(0, len(pool), size=2))
        op = str(rng.choice(["+", "-", "*", "/"]))
        exprs.append(Expr([a, Neg(b), BinOp(op, a, b)][rng.integers(0, 3)], 2))
    points = np.vstack([rng.uniform(-3, 3, size=(13, 2)),
                        [[0.0, 0.0], [1e200, -1e200], [700.0, -0.0], [-2.0, 0.5]]])
    _assert_bitwise_equal(evaluate(exprs, points), _reference_values(exprs, points))


def test_evaluate_shapes_and_errors():
    points = np.array([[1.0, 2.0], [3.0, 4.0]])
    e = parse("x1", 2)
    out = e(points)
    assert np.array_equal(out, [1.0, 3.0]) and not np.shares_memory(out, points)
    assert evaluate([e, parse("2", 2), e], points).tolist() == [[1, 3], [2, 2], [1, 3]]
    assert evaluate([], points).shape == (0, 2)
    with pytest.raises(ValueError, match="expected points of dimension 3"):
        evaluate([e, parse("x3", 3)], points)
    signed_zeros = [Expr(BinOp("/", Const(1.0), Const(z)), 1) for z in (0.0, -0.0)]
    assert evaluate(signed_zeros, [[0.0]])[:, 0].tolist() == [np.inf, -np.inf]


@pytest.mark.parametrize("basis, limit", [("legendre", 258), ("monomial", 66)])
def test_shared_subtrees_run_once_per_node_set(monkeypatch, basis, limit):
    # degree 10, 66 atoms: evaluated node by node, the Legendre products
    # took 1366 node evaluations per node set and the monomials 246
    calls = []
    for name, ufunc in list(expr._UFUNCS.items()):
        monkeypatch.setitem(expr._UFUNCS, name,
                            lambda *args, f=ufunc: calls.append(f) or f(*args))
    atoms = sweep_atoms(basis, 10)
    points = QuadratureSpace(Domain(((-1.0, 1.0), (-1.0, 1.0))), 40).nodes
    values = evaluate(atoms, points)
    assert len(calls) <= limit
    _assert_bitwise_equal(values, _reference_values(atoms, points))


def test_compiled_program_is_reused_and_writes_into_views():
    atoms = sweep_atoms("legendre", 6) + (parse("x1", 2), parse("2", 2))
    program = expr.compile(atoms)
    assert program.n_out == len(atoms)
    with pytest.raises(AttributeError):
        program.n_out = 1
    rng = np.random.default_rng(8)
    for n in (1, 37, 500):
        points = rng.uniform(-1, 1, size=(n, 2))
        _assert_bitwise_equal(program(points), _reference_values(atoms, points))
        # columns 1..m of a point-major buffer, written through its transpose
        buf = np.full((n, len(atoms) + 2), np.nan)
        out = buf[:, 1:-1].T
        assert program(points, out) is out
        _assert_bitwise_equal(buf[:, 1:-1].T, _reference_values(atoms, points))
        assert np.isnan(buf[:, 0]).all() and np.isnan(buf[:, -1]).all()
    with pytest.raises(ValueError, match="expected points of dimension 2"):
        program(np.zeros((3, 3)))


def test_objects_hold_their_program(monkeypatch):
    compiles = []
    compile_program = expr._compile
    monkeypatch.setattr(expr, "_compile",
                        lambda roots: compiles.append(len(roots)) or compile_program(roots))
    e = parse("x1*x2", 2)
    dynamics = DynamicsMap.from_strings(DYNAMICS_SOURCES, 2)
    points = np.random.default_rng(9).uniform(-1, 1, size=(4, 2))
    compiles.clear()  # parsing may fold constant exponents
    for _ in range(3):
        e(points), e.eval(points[0]), dynamics(points), dynamics(points[0])
    assert compiles == [1, 2]
    assert np.array_equal(e(points), evaluate([e], points)[0])


# --- integer powers as products ---------------------------------------------

@pytest.mark.parametrize("k", [*range(2, 13), 31, 64, -2, -5, -1, 0, 1])
def test_integer_powers_are_products_within_the_error_bound(k):
    # |k| - 1 correctly rounded products (and one division for k < 0; x^0
    # is the constant 1): the relative error stays below |k| * 2^-53
    # wherever every power is normal
    import mpmath

    rng = np.random.default_rng(abs(k))
    bases = rng.choice([-1.0, 1.0], 500) * 2.0 ** rng.uniform(-15, 15, 500)
    got = evaluate([parse(f"x1^{k}", 1)], bases[:, None])[0]
    with mpmath.workprec(256):
        errors = [abs((mpmath.mpf(g) - mpmath.mpf(x) ** k) / mpmath.mpf(x) ** k)
                  for g, x in zip(got, bases)]
    assert max(errors) <= abs(k) * 2.0**-53
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    with np.errstate(divide="ignore"):
        want = np.power(specials, float(k))
    _assert_bitwise_equal(evaluate([parse(f"x1^{k}", 1)], specials[:, None])[0], want)


def test_negative_power_of_an_overflowing_base_is_zero():
    # the one intended difference from pow: 1e155^2 overflows, so 1/inf
    # gives 0 where pow(1e155, -2) gives the subnormal 1e-310
    assert parse("x1^-2", 1).eval((1e155,)) == 0.0
    assert 0.0 < np.power(1e155, -2.0) < np.finfo(float).tiny


def test_sweep_dictionaries_never_call_power(monkeypatch):
    # x1*x1 and x1^2 are one step; the sweeps' powers are all products
    assert len(expr.compile([parse("x1*x1", 1), parse("x1^2", 1)]).steps) == 2
    points = QuadratureSpace(Domain(((-1.0, 1.0), (-1.0, 1.0))), 40).nodes
    calls = []
    monkeypatch.setitem(expr._UFUNCS, "^", lambda *args: calls.append(args))
    monkeypatch.setattr(np, "power", lambda *args: calls.append(args))
    for basis in ("monomial", "legendre"):
        evaluate(sweep_atoms(basis, 10), points)
    evaluate([parse(s, 2) for s in ("x1^-1", "x1^0", "x1^1")], points)
    assert calls == []


# --- nesting -------------------------------------------------------------------

def test_towers_compile_once_per_level(monkeypatch):
    # the parser resolves each exponent where it reads it, so a tower is a
    # two-level tree: one compile per level checks an exponent and one more
    # evaluates the tree. When compiling checked every exponent again, the
    # count grew with the square of the height (45 at 10 levels) and 199
    # levels ran out of recursion
    calls = []
    compile_program = expr._compile
    monkeypatch.setattr(expr, "_compile",
                        lambda roots: calls.append(1) or compile_program(roots))
    for depth in (5, 10, 20, 40, 199, 400):
        calls.clear()
        e = parse("x1" + "^1" * depth, 1)
        assert e.eval((0.5,)) == 0.5
        assert len(calls) <= depth + 1, depth
        assert e.root == BinOp("^", Var(1), Const(1.0))


def test_compiling_never_evaluates_an_exponent(monkeypatch):
    atoms = [*sweep_atoms("legendre", 10), *(parse(s, 2) for s in ("x1^(1+1)", "2^3^2", "x2^-2"))]
    points = np.random.default_rng(10).uniform(-1, 1, size=(7, 2))
    want = evaluate(atoms, points)

    def refuse(node):
        raise AssertionError(f"exponent {node} evaluated again")

    monkeypatch.setattr(expr, "_const_value", refuse)
    _assert_bitwise_equal(evaluate(atoms, points), want)


@pytest.mark.parametrize("source, printed, value", [
    ("x1^(1+1)", "x1^2.0", 9.0),
    ("2^3^2", "2.0^9.0", 512.0),
    ("x1^-2", "x1^-2.0", 1 / 9),
    ("x1^(2*3-7)", "x1^-1.0", 1 / 3),
    ("(x1^2)^(3-3)", "(x1^2.0)^0.0", 1.0),
])
def test_exponents_print_as_their_values(source, printed, value):
    e = parse(source, 1)
    assert str(e) == printed
    assert parse(printed, 1).root == e.root
    assert e.eval((3.0,)) == value


@pytest.mark.parametrize("source, message", [
    ("+".join(["x1"] * 2000), "expression is 2000 levels deep, more than the 200 allowed"),
    ("+".join(["x1"] * (expr.MAX_DEPTH + 1)),
     "expression is 201 levels deep, more than the 200 allowed"),
    ("-" * 2000 + "x1", "expression nests too deeply to parse"),
    ("(" * 400 + "x1" + ")" * 400, "expression nests too deeply to parse"),
    ("x1" + "^1" * 2000, "expression nests too deeply to parse"),
])
def test_too_deep_expressions_are_parse_errors(source, message):
    # they raised RecursionError from the parser or from the compile
    with pytest.raises(ParseError) as info:
        parse(source, 1)
    assert info.value.message == message
