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

Both backends evaluate a dictionary as one program, each distinct subtree
once per node set, into an atom-major array (one contiguous row per atom).
``koopman_factor`` folds those of the dictionary and its images, scaled by
``sqrt(w)``, into a QR factor;
``gram``, ``inner_product`` and ``koopman_gram_blocks`` sum each Gram entry
``w * (v_i * v_j)`` along its row, in a reused product buffer of at most
2**16 elements (one row if there are more nodes), so repeated runs are
bit-stable. An empirical backend never needs the dynamics map: the image of
a dictionary function under composition with T is obtained by evaluating the
function at the successor snapshots.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .expr import Expr, evaluate

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
# Values of sqrt(w) * [Psi, K Psi] folded into the QR factor per step: one
# qr call over all nodes copies its input twice (+45% peak memory, 1e5 nodes).
_QR_BLOCK_VALUES = 2**14


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


def _evaluate_atoms(atoms, points, label=_atom_label, point_major=False):
    """Values of the atoms at the points, shape (n_atoms, n_points), or the
    C-contiguous (n_points, n_atoms) if ``point_major``.

    The Expr atoms run as one program (``expr.evaluate``); any other
    evaluable is called on its own. A NonFiniteValue names ``label(atom, i)``
    and the first atom and point with an inf/nan value, in layout order.
    """
    points = np.asarray(points, dtype=float)
    exprs = [i for i, atom in enumerate(atoms) if isinstance(atom, Expr)]
    if len(exprs) == len(atoms):
        values = evaluate(atoms, points)
    else:
        values = np.empty((len(atoms), points.shape[0]))
        values[exprs] = evaluate([atoms[i] for i in exprs], points)
        for i, atom in enumerate(atoms):
            if isinstance(atom, Expr):
                continue
            row = np.asarray(atom(points), dtype=float).reshape(-1)
            if row.shape[0] != points.shape[0]:
                raise ValueError(f"{label(atom, i)} returned {row.shape[0]} values "
                                 f"for {points.shape[0]} points")
            values[i] = row
    if point_major:
        values = np.ascontiguousarray(values.T)
    if not np.isfinite(values).all():
        first = np.argwhere(~np.isfinite(values))[0]
        j, i = first if point_major else first[::-1]
        raise NonFiniteValue(label(atoms[i], i), points[j], values[tuple(first)])
    return values


def _weighted_gram(values, weights, other=None):
    """G[i, j] = sum_k w_k * v_ik * u_jk over atom-major rows of values (v)
    and other (u, default v, in which case j >= i is formed and mirrored).

    Each entry is w * (v_i * u_j) pairwise-summed along a contiguous row, as
    np.sum does for one pair, so it equals inner_product() bit for bit. Rows
    of u go in blocks of at most 2**16 products (one row, if it is longer).
    """
    symmetric = other is None
    if symmetric:
        other = values
    m, n, n_points = values.shape[0], other.shape[0], values.shape[1]
    step = max(1, 2**16 // n_points)
    buf = np.empty((min(step, n), n_points))
    G = np.empty((m, n))
    for i in range(m):
        for lo in range(i if symmetric else 0, n, step):
            hi = min(lo + step, n)
            block = buf[: hi - lo]
            np.multiply(values[i], other[lo:hi], out=block)
            block *= weights
            G[i, lo:hi] = block.sum(axis=1)
    if symmetric:
        lower = np.tril_indices(m, -1)
        G[lower] = G.T[lower]
    return G


class _InnerProductBackend:
    """Shared Gram/inner-product machinery; subclasses provide nodes/weights."""

    nodes: np.ndarray    # (n_points, state_dim) evaluation points
    weights: np.ndarray  # (n_points,) positive weights

    def inner_product(self, f, g):
        """<f, g> = sum_k w_k f(p_k) g(p_k); raises NonFiniteValue on inf/nan."""
        values = _evaluate_atoms((f, g), self.nodes)
        return float(_weighted_gram(values[:1], self.weights, values[1:])[0, 0])

    def norm(self, f):
        return float(np.sqrt(max(self.inner_product(f, f), 0.0)))

    def gram(self, atoms, labels=None):
        """Gram matrix of the atom list; atoms are evaluated once per node."""
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("atom list must be nonempty")
        if labels is None:
            labels = [_atom_label(a, i) for i, a in enumerate(atoms)]
        values = _evaluate_atoms(atoms, self.nodes, lambda atom, i: labels[i])
        return GramMatrix(_weighted_gram(values, self.weights), tuple(labels))

    def _image_points(self, dynamics):
        raise NotImplementedError

    def _koopman_values(self, atoms, dynamics):
        """Atom-major evaluations of Psi and K Psi at the nodes."""
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("atom list must be nonempty")
        return (_evaluate_atoms(atoms, self.nodes),
                _evaluate_atoms(atoms, self._image_points(dynamics),
                                lambda atom, i: f"({_atom_label(atom, i)}) o T"))

    def koopman_gram_blocks(self, atoms, dynamics=None):
        """Gram blocks of the concatenated list [Psi, K Psi].

        Returns ``(g_dict, g_cross, g_image)`` as plain arrays, where
        ``g_dict[i, j] = <Psi_i, Psi_j>``, ``g_cross[i, j] = <Psi_i, K Psi_j>``
        and ``g_image[i, j] = <K Psi_i, K Psi_j>``. Together they are the
        full Gram of the generators of S + K(S).
        """
        values, image_values = self._koopman_values(atoms, dynamics)
        w = self.weights
        return (_weighted_gram(values, w), _weighted_gram(values, w, image_values),
                _weighted_gram(image_values, w))

    def koopman_factor(self, atoms, dynamics=None):
        """Triangular R of sqrt(w) * [Psi, K Psi] = QR, so that ``R.T @ R`` is
        the Gram of [Psi, K Psi] and column j of R holds isometric coordinates
        of generator j. Nodes are folded in blocks of at most
        ``_QR_BLOCK_VALUES`` values and at least 2m rows."""
        values, image_values = self._koopman_values(atoms, dynamics)
        m, n_points = values.shape
        rows = max(2 * m, _QR_BLOCK_VALUES // (2 * m))
        root_w = np.sqrt(self.weights)
        R = np.empty((0, 2 * m))
        for lo in range(0, n_points, rows):
            cut = slice(lo, lo + rows)
            block = np.concatenate((values[:, cut], image_values[:, cut])).T
            block *= root_w[cut, None]
            R = np.linalg.qr(np.vstack([R, block]), mode="r")
        return R


class QuadratureSpace(_InnerProductBackend):
    """Gauss-Legendre tensor-product discretization of L2 on a box.

    ``order`` points per dimension integrate polynomials up to degree
    ``2*order - 1`` exactly in each variable; the default order resolves the
    smooth functions used here far below 1e-12.
    """

    def __init__(self, domain: Domain, order: int = DEFAULT_QUAD_ORDER):
        if order < 1:
            raise ValueError("quadrature order must be positive")
        self.domain = domain
        self.order = int(order)
        axes = []
        axis_weights = []
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(self.order)
        for a, b in domain.bounds:
            half = 0.5 * (b - a)
            axes.append(half * ref_nodes + 0.5 * (a + b))
            axis_weights.append(half * ref_weights)
        grids = np.meshgrid(*axes, indexing="ij")
        self.nodes = np.column_stack([g.ravel() for g in grids])
        w = axis_weights[0]
        for extra in axis_weights[1:]:
            w = np.multiply.outer(w, extra)
        self.weights = w.ravel()

    def refined(self, factor=2):
        """Same domain at ``factor`` times the order, rounded up."""
        return QuadratureSpace(self.domain, int(np.ceil(factor * self.order)))

    def _image_points(self, dynamics):
        if dynamics is None:
            raise ValueError("quadrature backend needs the dynamics map to form K Psi")
        return dynamics(self.nodes)

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

    @classmethod
    def from_csv(cls, path, weights=None):
        X, Y = read_snapshots(path)
        return cls(X, Y, weights)

    def _image_points(self, dynamics):
        if dynamics is not None:
            raise ValueError(
                "empirical backend computes K Psi from successor snapshots; "
                "do not pass a dynamics map"
            )
        return self.snapshots_y

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
