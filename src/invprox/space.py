"""Inner-product backends over the function space.

Two backends realize ``<f, g>`` for evaluable functions:

* :class:`QuadratureSpace` — the L2 inner product on a box domain,
  discretized by a tensor-product Gauss-Legendre rule. The measure is
  unnormalized Lebesgue (weights sum to the domain volume). Downstream
  quantities are ratios of norms, so the normalization cancels.
* :class:`EmpiricalSpace` — the L2 inner product with respect to a discrete
  measure on snapshot pairs ``(x_i, y_i)`` with ``y_i = T(x_i)``. Weights
  default to ``1/N``; explicit weights allow e.g. folding a quadrature rule
  into the snapshot set, which makes the two backends agree exactly.

Both backends compile a dictionary once into one program, which evaluates
each distinct subtree once per node set. ``koopman_factor`` streams the
nodes: block by block it evaluates the dictionary and its images, scales
them by ``sqrt(w)`` and folds them into a QR factor, so its memory does not
grow with the node count. The reference functions
``gram``, ``inner_product`` and ``koopman_gram_blocks`` evaluate all nodes
into an atom-major array (one contiguous row per atom) and sum each Gram entry
``w * (v_i * v_j)`` along its row, so repeated runs are bit-stable. An
empirical backend never needs the dynamics map: the image of a dictionary
function under composition with T is obtained by evaluating the function at
the successor snapshots.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .expr import Expr, compile as compile_exprs

__all__ = [
    "NonFiniteValue",
    "Domain",
    "GramMatrix",
    "QuadratureSpace",
    "EmpiricalSpace",
    "read_snapshots",
    "write_snapshots",
]

DEFAULT_QUAD_ORDER = 20
# leggauss(order) works on a dense order x order matrix: 7.7 MiB and 0.3 s at
# 1000, growing as order**2 (3 GiB at 20000).
MAX_QUAD_ORDER = 1000
# Values of sqrt(w) * [Psi, K Psi] per block of the streamed QR factor: a
# block holds rows = max(2m, _QR_BLOCK_VALUES // 2m) nodes. The fold needs
# about (2m + rows) * 2m * 8 bytes for its buffer, the same again for
# LAPACK's copy of it, and rows * (d + live subtrees) * 8 bytes to evaluate
# a block; none of it grows with the node count. On 2 vCPUs, one analysis
# of each of the six order-40 sweep dictionaries (m = 28..66, 1600 nodes)
# takes 211 ms at 2**14 values (a program run and a QR per 124 nodes),
# 151 ms at 2**16 and 144 ms at 2**18; but 2**18 holds the 1600 nodes in one
# block, which raises the dict-sweep benchmark's peak RSS from 40.6 MiB to
# 43.3-43.6 MiB.
_QR_BLOCK_VALUES = 2**16
# A tensor rule of more nodes is refused: evaluating and folding them takes
# about 0.45 us per node on 2 vCPUs, so 2**26 nodes take about 30 s.
MAX_QUAD_NODES = 2**26


class NonFiniteValue(ArithmeticError):
    """A function evaluated to inf/nan at a quadrature node or snapshot."""

    def __init__(self, label, point, value):
        super().__init__(f"{label} is non-finite ({value}) at point {np.asarray(point)}")
        self.label = label
        self.point = np.asarray(point)
        self.value = value


@dataclass(frozen=True)
class Domain:
    """A box domain: one closed, finite interval per state coordinate."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.bounds) == 0:
            raise ValueError("domain needs at least one interval")
        clean = []
        for a, b in self.bounds:
            a, b = float(a), float(b)
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise ValueError(f"invalid interval [{a}, {b}]")
            clean.append((a, b))
        object.__setattr__(self, "bounds", tuple(clean))

    @property
    def state_dim(self):
        return len(self.bounds)

    @property
    def volume(self):
        return float(np.prod([b - a for a, b in self.bounds]))

    def sample(self, rng, size):
        """Uniform samples, shape (size, state_dim)."""
        lo = np.array([a for a, _ in self.bounds])
        hi = np.array([b for _, b in self.bounds])
        return rng.uniform(lo, hi, size=(size, self.state_dim))

    def contains(self, points, atol=0.0):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.array([a for a, _ in self.bounds]) - atol
        hi = np.array([b for _, b in self.bounds]) + atol
        return np.all((pts >= lo) & (pts <= hi), axis=1)


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise inner products of an ordered list of functions."""

    entries: np.ndarray
    atom_labels: tuple[str, ...]

    def __post_init__(self):
        G = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", G)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {G.shape}")
        if len(self.atom_labels) != G.shape[0]:
            raise ValueError("one label per atom required")
        scale = np.max(np.abs(G)) or 1.0
        if np.max(np.abs(G - G.T)) > 1e-12 * scale:
            raise ValueError("Gram matrix is not symmetric")

    @property
    def shape(self):
        return self.entries.shape

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def _atom_label(atom, i):
    try:
        return str(atom)
    except Exception:
        return f"atom{i}"


def _image_label(atom, i):
    return f"({_atom_label(atom, i)}) o T"


class _AtomProgram:
    """An atom list compiled once: the Expr atoms run as one program
    (``expr.compile``); any other evaluable is called on its own."""

    def __init__(self, atoms):
        self.atoms = tuple(atoms)
        self.exprs = [i for i, atom in enumerate(self.atoms) if isinstance(atom, Expr)]
        self.program = compile_exprs([self.atoms[i] for i in self.exprs])

    def fill(self, points, out, label=_atom_label, point_major=False):
        """Write the values at the ``(n, d)`` points into ``out``, a writable
        ``(n_atoms, n)`` array or view. A NonFiniteValue names ``label(atom,
        i)`` and the first atom and point with an inf/nan value, in atom-major
        order (first state, then atom, if ``point_major``)."""
        if len(self.exprs) == len(self.atoms):
            self.program(points, out)
        else:
            out[self.exprs] = self.program(points)
            for i, atom in enumerate(self.atoms):
                if isinstance(atom, Expr):
                    continue
                row = np.asarray(atom(points), dtype=float).reshape(-1)
                if row.shape[0] != points.shape[0]:
                    raise ValueError(f"{label(atom, i)} returned {row.shape[0]} values "
                                     f"for {points.shape[0]} points")
                out[i] = row
        if not np.isfinite(out).all():
            layout = out.T if point_major else out
            first = np.argwhere(~np.isfinite(layout))[0]
            j, i = first if point_major else first[::-1]
            raise NonFiniteValue(label(self.atoms[i], i), points[j], layout[tuple(first)])
        return out

    def values(self, points, label=_atom_label, point_major=False):
        """Values at the points, shape (n_atoms, n_points), or the
        C-contiguous (n_points, n_atoms) if ``point_major``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        shape = (len(self.atoms), points.shape[0])
        if point_major:
            return self.fill(points, np.empty(shape[::-1]).T, label, True).T
        return self.fill(points, np.empty(shape), label)


def _weighted_gram(values, weights, other=None):
    """G[i, j] = sum_k w_k * v_ik * u_jk over atom-major rows of values (v)
    and other (u, default v). Each entry is w * (v_i * u_j) pairwise-summed
    along a contiguous row, as np.sum does for one pair, so G is exactly
    symmetric when u is v and equals inner_product() bit for bit."""
    other = values if other is None else other
    G = np.array([(v * other * weights).sum(axis=1) for v in values])
    return G.reshape(values.shape[0], other.shape[0])


class _InnerProductBackend:
    """Shared Gram/inner-product machinery; subclasses provide nodes/weights
    and ``_blocks``."""

    nodes: np.ndarray    # (n_points, state_dim) evaluation points
    weights: np.ndarray  # (n_points,) positive weights

    def inner_product(self, f, g):
        """<f, g> = sum_k w_k f(p_k) g(p_k); raises NonFiniteValue on inf/nan."""
        values = _AtomProgram((f, g)).values(self.nodes)
        return float(_weighted_gram(values[:1], self.weights, values[1:])[0, 0])

    def norm(self, f):
        return float(np.sqrt(max(self.inner_product(f, f), 0.0)))

    def gram(self, atoms):
        """Gram matrix of the atom list; atoms are evaluated once per node."""
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("atom list must be nonempty")
        values = _AtomProgram(atoms).values(self.nodes)
        labels = tuple(_atom_label(a, i) for i, a in enumerate(atoms))
        return GramMatrix(_weighted_gram(values, self.weights), labels)

    def _blocks(self, rows, dynamics):
        """``(nodes, weights, image points)`` of consecutive blocks of at most
        ``rows`` nodes, in node order."""
        raise NotImplementedError

    def koopman_gram_blocks(self, atoms, dynamics=None):
        """Gram blocks of the concatenated list [Psi, K Psi].

        Returns ``(g_dict, g_cross, g_image)`` as plain arrays, where
        ``g_dict[i, j] = <Psi_i, Psi_j>``, ``g_cross[i, j] = <Psi_i, K Psi_j>``
        and ``g_image[i, j] = <K Psi_i, K Psi_j>``. Together they are the
        full Gram of the generators of S + K(S).
        """
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("atom list must be nonempty")
        (nodes, w, images), = self._blocks(self.weights.shape[0], dynamics)
        program = _AtomProgram(atoms)
        values, image_values = program.values(nodes), program.values(images, _image_label)
        return (_weighted_gram(values, w), _weighted_gram(values, w, image_values),
                _weighted_gram(image_values, w))

    def koopman_factor(self, atoms, dynamics=None):
        """Triangular R of sqrt(w) * [Psi, K Psi] = QR, so that ``R.T @ R`` is
        the Gram of [Psi, K Psi] and column j of R holds isometric coordinates
        of generator j.

        The nodes stream through in blocks of ``rows = max(2m,
        _QR_BLOCK_VALUES // 2m)``. Each block of Psi and K Psi is evaluated
        straight into the point-major rows below R in one ``(2m + rows, 2m)``
        buffer, scaled by ``sqrt(w)`` in place, and folded into R by one
        LAPACK QR (the tall-skinny QR of Demmel et al., 2012). Memory is about
        ``(2m + rows) * 2m * 8`` bytes for the buffer, the same again for
        LAPACK's copy, and ``rows * (d + live subtrees) * 8`` bytes for the
        evaluation, whatever the node count. The dictionary is compiled once
        per call, or not at all if ``atoms`` is an ``_AtomProgram`` already. A
        NonFiniteValue reports the first block with an inf/nan, in it Psi
        before K Psi, and then the first atom and its first point.
        """
        program = atoms if isinstance(atoms, _AtomProgram) else _AtomProgram(atoms)
        m = len(program.atoms)
        if not m:
            raise ValueError("atom list must be nonempty")
        rows = max(2 * m, _QR_BLOCK_VALUES // (2 * m))
        buf = np.empty((2 * m + rows, 2 * m))
        top = 0  # rows of R at the top of buf: min(2m, nodes folded so far)
        for nodes, weights, images in self._blocks(rows, dynamics):
            end = top + weights.shape[0]
            block = buf[top:end]
            program.fill(nodes, block[:, :m].T)
            program.fill(images, block[:, m:].T, _image_label)
            block *= np.sqrt(weights)[:, None]
            R = np.linalg.qr(buf[:end], mode="r")
            top = R.shape[0]
            buf[:top] = R
        return R


@lru_cache(maxsize=32)
def _gauss_legendre(order):
    """Read-only nodes and weights of the 1-d Gauss-Legendre rule on [-1, 1],
    computed once per order."""
    rule = np.polynomial.legendre.leggauss(order)
    for array in rule:
        array.flags.writeable = False
    return rule


class QuadratureSpace(_InnerProductBackend):
    """Gauss-Legendre tensor-product discretization of L2 on a box.

    ``order`` points per dimension integrate polynomials up to degree
    ``2*order - 1`` exactly in each variable; the default order resolves the
    smooth functions used here far below 1e-12.
    """

    def __init__(self, domain: Domain, order: int = DEFAULT_QUAD_ORDER):
        if order < 1:
            raise ValueError("quadrature order must be positive")
        if order > MAX_QUAD_ORDER:
            raise ValueError(f"quadrature order {order} exceeds the maximum {MAX_QUAD_ORDER}")
        self.domain = domain
        self.order = int(order)
        self.n_nodes = self.order ** domain.state_dim
        if self.n_nodes > MAX_QUAD_NODES:
            fit = round(MAX_QUAD_NODES ** (1 / domain.state_dim))
            fit -= fit ** domain.state_dim > MAX_QUAD_NODES
            raise ValueError(f"quadrature order {self.order} in {domain.state_dim} dimensions has "
                             f"{self.n_nodes} nodes, more than the {MAX_QUAD_NODES} allowed; "
                             f"the largest order that fits is {fit}")
        ref_nodes, ref_weights = _gauss_legendre(self.order)
        halves = [0.5 * (b - a) for a, b in domain.bounds]
        self._axes = [h * ref_nodes + 0.5 * (a + b)
                      for h, (a, b) in zip(halves, domain.bounds)]
        self._axis_weights = [h * ref_weights for h in halves]

    def _rule(self, lo, hi):
        """Nodes and weights of the tensor nodes lo..hi-1, last axis fastest."""
        index = np.unravel_index(np.arange(lo, hi), (self.order,) * self.domain.state_dim)
        nodes = np.column_stack([axis[i] for axis, i in zip(self._axes, index)])
        weights = self._axis_weights[0][index[0]]
        for axis_weights, i in zip(self._axis_weights[1:], index[1:]):
            weights = weights * axis_weights[i]
        return nodes, weights

    @cached_property
    def nodes(self):
        """All nodes, shape (n_nodes, state_dim), built on first use."""
        return self._rule(0, self.n_nodes)[0]

    @cached_property
    def weights(self):
        """All weights, shape (n_nodes,), built on first use."""
        return self._rule(0, self.n_nodes)[1]

    def refined(self, factor=2):
        """Same domain at ``factor`` times the order, rounded up."""
        return QuadratureSpace(self.domain, int(np.ceil(factor * self.order)))

    def _blocks(self, rows, dynamics):
        if dynamics is None:
            raise ValueError("quadrature backend needs the dynamics map to form K Psi")
        for lo in range(0, self.n_nodes, rows):
            nodes, weights = self._rule(lo, min(lo + rows, self.n_nodes))
            yield nodes, weights, dynamics(nodes)

    def __repr__(self):
        return f"QuadratureSpace(domain={self.domain.bounds}, order={self.order})"


class EmpiricalSpace(_InnerProductBackend):
    """L2 with respect to a discrete measure on snapshot pairs.

    ``snapshots_x`` holds states, ``snapshots_y`` the successor states
    ``y_i = T(x_i)``. The inner product is ``sum_i w_i f(x_i) g(x_i)`` with
    ``w_i = 1/N`` unless explicit weights are given. Images under composition
    with T are computed by evaluating at ``snapshots_y``, so no dynamics map
    is required (or accepted).
    """

    def __init__(self, snapshots_x, snapshots_y, weights=None):
        X = np.atleast_2d(np.asarray(snapshots_x, dtype=float))
        Y = np.atleast_2d(np.asarray(snapshots_y, dtype=float))
        if X.shape != Y.shape or X.shape[0] < 1:
            raise ValueError("snapshot arrays must be nonempty with matching shapes")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("snapshots must be finite")
        self.snapshots_x = X
        self.snapshots_y = Y
        if weights is None:
            w = np.full(X.shape[0], 1.0 / X.shape[0])
        else:
            w = np.asarray(weights, dtype=float).reshape(-1)
            if w.shape[0] != X.shape[0]:
                raise ValueError("one weight per snapshot required")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("weights must be finite and positive")
        self.weights = w
        self.nodes = X

    @property
    def n_snapshots(self):
        return self.snapshots_x.shape[0]

    def _blocks(self, rows, dynamics):
        if dynamics is not None:
            raise ValueError(
                "empirical backend computes K Psi from successor snapshots; "
                "do not pass a dynamics map"
            )
        for lo in range(0, self.n_snapshots, rows):
            cut = slice(lo, lo + rows)
            yield self.snapshots_x[cut], self.weights[cut], self.snapshots_y[cut]

    def __repr__(self):
        return (f"EmpiricalSpace(n={self.n_snapshots}, "
                f"state_dim={self.snapshots_x.shape[1]})")


# --- Snapshot CSV format ------------------------------------------------------

def _snapshot_header(state_dim):
    return [f"x{k}" for k in range(1, state_dim + 1)] + [
        f"y{k}" for k in range(1, state_dim + 1)
    ]


def read_snapshots(path):
    """Read snapshot pairs from CSV with header ``x1,..,xn,y1,..,yn``.

    The rows are parsed by one ``np.loadtxt`` call. If it refuses them, or
    finds no rows or the wrong width, they are read again row by row, so
    rows with the wrong number of fields or non-numeric entries are rejected
    with the offending line number. Returns C-contiguous X and Y.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty snapshot file") from None
        header = [h.strip() for h in header]
        if len(header) % 2 != 0 or not header:
            raise ValueError(f"{path}: header must list x1..xn,y1..yn")
        n = len(header) // 2
        if header != _snapshot_header(n):
            raise ValueError(
                f"{path}: bad header {header!r}, expected {_snapshot_header(n)!r}"
            )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                data = np.loadtxt(handle, delimiter=",", comments=None,
                                  quotechar='"', ndmin=2)
        except ValueError:
            data = np.empty((0, 0))
        if data.shape[0] == 0 or data.shape[1] != 2 * n:
            handle.seek(0)
            reader = csv.reader(handle)
            next(reader)
            data = _read_rows(path, reader, n)
    return np.ascontiguousarray(data[:, :n]), np.ascontiguousarray(data[:, n:])


def _read_rows(path, reader, n):
    """Snapshot rows parsed one at a time, naming the first bad line."""
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2 * n:
            raise ValueError(
                f"{path}:{lineno}: expected {2 * n} fields, got {len(row)}"
            )
        try:
            rows.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no snapshot rows")
    return np.array(rows)


def write_snapshots(path, snapshots_x, snapshots_y):
    """Write snapshot pairs in the CSV format accepted by read_snapshots."""
    X = np.atleast_2d(np.asarray(snapshots_x, dtype=float))
    Y = np.atleast_2d(np.asarray(snapshots_y, dtype=float))
    if X.shape != Y.shape:
        raise ValueError("snapshot arrays must have matching shapes")
    n = X.shape[1]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_snapshot_header(n))
        for xrow, yrow in zip(X, Y):
            writer.writerow([format(v, ".17g") for v in xrow]
                            + [format(v, ".17g") for v in yrow])
