"""Scalar math expressions over state variables x1..xn.

Expressions define dynamics components and dictionary functions. They are
parsed once into an immutable AST and evaluated pointwise with IEEE double
semantics: non-finite intermediate results (division by zero, log of a
negative number, overflow) propagate to the caller instead of raising. A
list of expressions is compiled once into one program (``compile``) and
then evaluated at any number of point sets.

Grammar (also documented in the README):

    expr    = term { ("+" | "-") term }
    term    = unary { ("*" | "/") unary }
    unary   = "-" unary | power
    power   = primary [ "^" unary ]      right-associative
    primary = NUMBER | VARIABLE | FUNCTION "(" expr ")" | "(" expr ")"

Variables are fixed names ``x1 ... xn`` where ``n`` is the declared state
dimension. The exponent of ``^`` must be a constant subexpression with an
integer value, which keeps every expression real-valued on domains that
contain negative coordinates; the parser stores that value as the exponent
(``2^(1+1)`` prints as ``2.0^2.0``). ``x^k`` is evaluated without
``np.power``: ``x^0`` is the constant 1, ``x^1`` is ``x``, ``x^k =
x^ceil(k/2) * x^floor(k/2)`` for ``k >= 2`` and ``x^-k = 1 / x^k``. Each
product and division is correctly rounded, so the result is the same on
every machine, with relative error at most ``|k| * 2^-53`` while the powers
stay normal.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

__all__ = [
    "ParseError",
    "UnknownIdentifier",
    "ArityError",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Expr",
    "DynamicsMap",
    "Composition",
    "parse",
    "Program",
    "compile",
    "evaluate",
    "compose_with_map",
    "BUILTINS",
]


class ParseError(ValueError):
    """Malformed expression source. Carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class UnknownIdentifier(ParseError):
    """Identifier is neither x1..xn nor a builtin function."""


class ArityError(ParseError):
    """Builtin function called with the wrong number of arguments."""


BUILTINS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")

# Levels of an expression tree (a sum of n terms has n): compiling and printing
# recurse once per level, which this keeps well inside Python's recursion limit.
MAX_DEPTH = 200


# --- AST nodes (immutable) ---------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Node"


Node = Union[Const, Var, Neg, BinOp, Call]

# Precedence levels used by both the parser and the printer.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _node_prec(node):
    if isinstance(node, (Const, Var, Call)):
        return _PREC["atom"]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC[node.op]


def _to_source(node):
    if isinstance(node, Const):
        return repr(node.value) if isinstance(node.value, float) else str(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Call):
        return f"{node.name}({_to_source(node.arg)})"
    if isinstance(node, Neg):
        inner = _to_source(node.operand)
        if _node_prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    # binary operator: parenthesize children whose precedence would rebind
    lp, rp = _node_prec(node.left), _node_prec(node.right)
    p = _PREC[node.op]
    left = _to_source(node.left)
    right = _to_source(node.right)
    if node.op == "^":
        # right-associative: left child needs parens at equal precedence
        if lp <= p:
            left = f"({left})"
        if rp < p:
            right = f"({right})"
    else:
        if lp < p:
            left = f"({left})"
        if rp <= p:
            right = f"({right})"
    return f"{left}{node.op}{right}"


def _const_value(node):
    """Value of a variable-free subtree, or None if it references a variable."""
    if isinstance(node, Const):  # the usual exponent; skips a program run
        return node.value
    program = compile((Expr(node, 1),))  # its own exponents are Consts already
    if any(step[0] == "x" for step in program.steps):
        return None
    return float(program(np.empty((1, 1)))[0, 0])


_UFUNCS = {"neg": np.negative, **BUILTINS, "+": np.add, "-": np.subtract,
           "*": np.multiply, "/": np.divide}


def _compile(roots):
    """The distinct subtrees of ``roots`` as a program, children first, and
    the step of each root.

    Step k is ``("c", value, sign)``, ``("x", column, None)`` or ``(ufunc,
    child step, child step or None)``. Child steps are numbered bottom-up, so
    each node is hashed once as a small tuple, not with all its descendants.
    ``x^k`` becomes the constant 1, ``x`` or its products (see the module
    docstring), so every power is a subtree like any other.
    """
    program, steps = [], {}

    def step_of(key):
        step = steps.get(key)
        if step is None:
            step = steps[key] = len(program)
            program.append(key)
        return step

    def power(base, k):
        # the exponents that x^k needs, built in ascending order: no
        # recursion on k, whose halvings can outnumber the recursion limit
        needed, level = set(), {k} - {1}  # x^1 is the base itself
        while level:
            needed |= level
            level = {h for n in level for h in ((n + 1) // 2, n // 2) if h > 1}
        powers = {1: base}
        for n in sorted(needed):
            powers[n] = step_of((_UFUNCS["*"], powers[(n + 1) // 2], powers[n // 2]))
        return powers[k]

    def visit(node):
        if isinstance(node, BinOp) and node.op == "^":
            k = node.right.value if isinstance(node.right, Const) else math.nan
            if not float(k).is_integer():  # the parser stores each exponent's value
                raise ValueError(f"exponent of {_to_source(node)} is not a constant integer")
            step = power(visit(node.left), int(abs(k))) if k else visit(Const(1.0))
            return step if k >= 0 else step_of((_UFUNCS["/"], visit(Const(1.0)), step))
        if isinstance(node, BinOp):
            key = (_UFUNCS[node.op], visit(node.left), visit(node.right))
        elif isinstance(node, Const):
            value = float(node.value)  # 0.0 == -0.0, yet 1/x tells them apart
            key = ("c", value, math.copysign(1.0, value))
        elif isinstance(node, Var):
            key = ("x", node.index - 1, None)
        elif isinstance(node, Neg):
            key = (_UFUNCS["neg"], visit(node.operand), None)
        else:
            key = (_UFUNCS[node.name], visit(node.arg), None)
        return step_of(key)

    roots = [visit(root) for root in roots]
    del visit  # its closure refers to itself: a cycle only gc would free
    return program, roots


@dataclass(frozen=True, eq=False)
class Program:
    """A list of expressions compiled once by :func:`compile`.

    ``program(points, out=None)`` writes the value of expression i at point
    k to ``out[i, k]`` and returns ``out`` (a new ``(len(exprs), n)`` array
    if none is given; any writable array of that shape works, e.g. the
    transposed view of columns of a column-major buffer). Step k of
    ``steps`` is ``(op, a, b, release, rows, keep)``: the ``_compile`` step,
    the steps whose last use it is, the output rows it fills, and whether a
    later step reads it.
    """

    steps: tuple
    state_dims: tuple
    n_out: int

    def __call__(self, points, out=None):
        pts = np.asarray(points, dtype=float)
        for dim in self.state_dims:
            if pts.ndim != 2 or pts.shape[1] != dim:
                raise ValueError(
                    f"expected points of dimension {dim}, got shape {pts.shape}"
                )
        if out is None:
            out = np.empty((self.n_out, pts.shape[0]))
        values = [None] * len(self.steps)
        with np.errstate(all="ignore"):
            for step, (op, a, b, release, rows, keep) in enumerate(self.steps):
                if op == "c":
                    value = a
                elif op == "x":
                    value = pts[:, a]
                else:
                    value = op(values[a]) if b is None else op(values[a], values[b])
                    for child in release:
                        values[child] = None
                for row in rows:
                    out[row] = value
                if keep:
                    values[step] = value
        return out


def compile(exprs):
    """The expressions as one :class:`Program`.

    Each distinct subtree is evaluated once per call, with the same ufunc on
    the same operands as a node-by-node evaluation, so the values are
    identical. An integer power ``x^k``, ``|k| >= 2``, is its products (see
    the module docstring), so ``x1*x1`` and ``x1^2`` are one subtree and
    ``x^2 ... x^10`` cost one multiply each. Constant subtrees stay scalars.
    Each value is released after its last use, so a call holds the ``(n,
    d)`` points, the output and the live subtree values: ``n * (d + live) *
    8`` bytes besides the output.
    """
    exprs = tuple(exprs)
    program, roots = _compile([e.root for e in exprs])
    last_use, rows = {}, {}
    for step, (op, a, b) in enumerate(program):
        if not isinstance(op, str):
            last_use[a] = last_use[b] = step
    last_use.pop(None, None)  # the missing operand of a one-operand step
    release = {}
    for child, step in last_use.items():
        release.setdefault(step, []).append(child)
    for row, step in enumerate(roots):
        rows.setdefault(step, []).append(row)
    steps = tuple((op, a, b, tuple(release.get(step, ())), tuple(rows.get(step, ())),
                   step in last_use)
                  for step, (op, a, b) in enumerate(program))
    return Program(steps, tuple(dict.fromkeys(e.state_dim for e in exprs)), len(exprs))


def evaluate(exprs, points):
    """Values of each expression at each of the ``(n, d)`` points, shape
    ``(len(exprs), n)``: ``compile(exprs)(points)``."""
    return compile(exprs)(points)


# --- Public expression objects -----------------------------------------------

@dataclass(frozen=True)
class Expr:
    """A parsed expression over ``state_dim`` variables.

    Immutable after construction; safe to evaluate concurrently. Calling the
    object with an ``(m, n)`` array of points returns the ``m`` values as a
    new array; a single point of shape ``(n,)`` returns a scalar.
    """

    root: Node
    state_dim: int

    @cached_property
    def _program(self):
        return compile((self,))

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        values = self._program(pts.reshape(1, -1) if pts.ndim == 1 else pts)[0]
        return float(values[0]) if pts.ndim == 1 else values

    def eval(self, point):
        """Evaluate at one point (length-n sequence); returns a float."""
        return self(np.asarray(point, dtype=float))

    def __str__(self):
        return _to_source(self.root)


@dataclass(frozen=True)
class DynamicsMap:
    """A map T from the state space to itself, one expression per component."""

    state_dim: int
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.state_dim:
            raise ValueError(
                f"dynamics needs {self.state_dim} components, got {len(self.components)}"
            )
        for c in self.components:
            if c.state_dim != self.state_dim:
                raise ValueError("component state dimension mismatch")

    @classmethod
    def from_strings(cls, sources, state_dim):
        return cls(state_dim, tuple(parse(s, state_dim) for s in sources))

    @cached_property
    def _program(self):
        return compile(self.components)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        out = self._program(pts.reshape(1, -1) if pts.ndim == 1 else pts).T
        return out[0] if pts.ndim == 1 else out

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True)
class Composition:
    """The composition f ∘ T: evaluates ``outer`` at mapped points."""

    outer: object  # any evaluable: (m, n) points -> (m,) values
    inner: DynamicsMap

    def __call__(self, points):
        return self.outer(self.inner(np.atleast_2d(np.asarray(points, dtype=float))))

    def eval(self, point):
        return float(self(np.asarray(point, dtype=float).reshape(1, -1))[0])

    def __str__(self):
        return f"({self.outer}) o T"


def compose_with_map(e, dynamics):
    """Return an evaluable g with g(x) = e(T(x)).

    This realizes the action of the composition operator on a single
    observable. The result is a closure over (e, T); no symbolic composition
    is performed.
    """
    sd = getattr(e, "state_dim", None)
    if sd is not None and sd != dynamics.state_dim:
        raise ValueError(
            f"expression has state_dim {sd}, dynamics has {dynamics.state_dim}"
        )
    return Composition(e, dynamics)


# --- Tokenizer and recursive-descent parser ----------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens, state_dim):
        self.tokens = tokens
        self.i = 0
        self.state_dim = state_dim

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def at_op(self, *ops):
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def parse_expr(self):
        node = self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance()[1]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.at_op("*", "/"):
            op = self.advance()[1]
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.at_op("-"):
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_primary()
        if self.at_op("^"):
            _, _, pos = self.advance()
            exponent = self.parse_unary()
            value = _const_value(exponent)
            if value is None:
                raise ParseError("exponent must be a constant expression", pos)
            if not float(value).is_integer():  # nor is inf or nan
                raise ParseError(f"exponent must have an integer value, got {value!r}", pos)
            return BinOp("^", base, Const(value))  # resolved once, here: compiling reads it
        return base

    def parse_primary(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            return self.parse_ident(text, pos)
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)

    def parse_ident(self, name, pos):
        if name in BUILTINS:
            self.expect_op("(")
            args = [self.parse_expr()]
            while self.at_op(","):
                self.advance()
                args.append(self.parse_expr())
            self.expect_op(")")
            if len(args) != 1:
                raise ArityError(f"{name} takes 1 argument, got {len(args)}", pos)
            return Call(name, args[0])
        m = _VAR_RE.match(name)
        if m:
            index = int(m.group(1))
            if index > self.state_dim:
                raise UnknownIdentifier(
                    f"variable {name} exceeds state dimension {self.state_dim}", pos
                )
            return Var(index)
        raise UnknownIdentifier(f"unknown identifier {name!r}", pos)


def parse(source, state_dim):
    """Parse ``source`` into an :class:`Expr` over ``state_dim`` variables.

    Raises :class:`ParseError` (or the :class:`UnknownIdentifier` /
    :class:`ArityError` subclasses) with the offending source position, also
    for a tree more than ``MAX_DEPTH`` levels deep.
    """
    if state_dim < 1:
        raise ValueError("state_dim must be positive")
    tokens = _tokenize(source)
    parser = _Parser(tokens, state_dim)
    try:
        root = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nests too deeply to parse", parser.peek()[2]) from None
    kind, text, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", pos)
    # each node has a token of its own, so only a long source can be too deep
    depth, level = 0, [root] if len(tokens) > MAX_DEPTH else []
    while level:  # level by level: the tree may be too deep to recurse on
        depth += 1
        level = [child for node in level for child in vars(node).values()
                 if isinstance(child, (Const, Var, Neg, BinOp, Call))]
    if depth > MAX_DEPTH:
        raise ParseError(f"expression is {depth} levels deep, more than the "
                         f"{MAX_DEPTH} allowed", 0)
    return Expr(root, state_dim)
