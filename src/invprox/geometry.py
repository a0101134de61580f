"""Finite-dimensional subspace geometry in Gram coordinates.

Everything here operates on coefficient vectors relative to an ordered list
of generator functions, with their pairwise inner products collected in a
Gram matrix ``G[i, j] = <g_i, g_j>``. The layer is field-generic: real
symmetric and complex Hermitian Grams are both accepted. The inner-product
convention is linear in the first argument and conjugate-linear in the
second (matching ``<f, g> = integral of f * conj(g)``), so for coefficient
vectors a, b the function-space inner product is ``b^H conj(G) a``; over the
reals this is the familiar ``a^T G b``. Internally the conjugate form is used
so that the real formulas stated below hold verbatim.

Three operations build on this:

* :func:`orthonormalize` — coefficients of an orthonormal basis via a
  symmetric eigendecomposition of the Gram matrix. Rank decisions are made on
  eigenvalues, so they do not depend on generator order.
* :func:`build_isomorphism` — the inner-product-preserving linear map from
  span(generators) onto a standard coordinate space of matching dimension.
  The coordinate of a function is its vector of inner products with the
  orthonormal basis; in matrix form ``embed = B^T G`` over the reals.
* :func:`principal_angles` — angles and principal vectors between two
  subspaces given by orthonormal coordinate bases, cosine SVD with a
  sine-based recomputation of the well-aligned directions so that small
  angles do not drown in round-off. The independent brute-force oracle,
  which solves the defining max-correlation recursion directly, lives in
  ``tests/bruteforce.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DegenerateSpace",
    "NotPSD",
    "SubspaceBasis",
    "Isomorphism",
    "PrincipalDecomposition",
    "Verdict",
    "orthonormalize",
    "build_isomorphism",
    "principal_angles",
]

DEFAULT_RANK_TOL = 1e-10
_NOT_PSD_TOL = 1e-8


class DegenerateSpace(ValueError):
    """All generators are numerically zero; there is no subspace to work with."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the negative tolerance; not a Gram matrix."""


def _entries(gram):
    entries = getattr(gram, "entries", gram)
    return np.asarray(entries)


def _coefficient_form(G):
    """The matrix H with b^H H a = <f_a, f_b>; equals G itself over the reals."""
    return G.conj() if np.iscomplexobj(G) else G


def _psd_eigh(G, rank_tol):
    """Eigendecomposition of the coefficient form, descending, rank-truncated."""
    H = _coefficient_form(G)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"Gram matrix must be square, got shape {H.shape}")
    eigenvalues, vectors = np.linalg.eigh(H)
    largest = eigenvalues[-1]
    if eigenvalues[0] < -_NOT_PSD_TOL * max(largest, 0.0):
        raise NotPSD(
            f"minimum eigenvalue {eigenvalues[0]:.3e} below tolerance "
            f"{-_NOT_PSD_TOL * max(largest, 0.0):.3e}"
        )
    if largest <= 0.0:
        raise DegenerateSpace("all generators are numerically zero")
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = (vectors * _lead_factors(vectors))[:, order]
    rank = int(np.count_nonzero(eigenvalues > rank_tol * largest))
    if rank == 0:
        raise DegenerateSpace("no eigenvalue above the rank tolerance")
    return eigenvalues[:rank], vectors[:, :rank]


def _unit_factors(values):
    """Unit factors that make each value real and nonnegative (1 at zero)."""
    if np.iscomplexobj(values):
        magnitude = np.abs(values)
        return np.where(magnitude > 0, np.conj(values) / np.where(magnitude > 0, magnitude, 1.0), 1.0)
    return np.where(values < 0, -1.0, 1.0)


def _lead_factors(vectors):
    """Unit factor per column that makes its largest-magnitude entry real and
    positive: the sign rule of every basis and reported vector."""
    leads = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return _unit_factors(leads)


def orthonormalize(gram, rank_tol=DEFAULT_RANK_TOL):
    """Coefficients of an orthonormal basis for the span of the generators.

    Returns ``(B, rank)`` where B has shape ``(m, rank)`` and satisfies
    ``B^T G B = I`` over the reals (conjugate form over C). Column j holds
    the generator coefficients of the j-th basis function; columns are
    ordered by descending Gram eigenvalue. The rank counts eigenvalues above
    ``rank_tol`` times the largest one.

    Raises :class:`NotPSD` for an indefinite input and
    :class:`DegenerateSpace` when every generator is numerically zero.
    """
    G = _entries(gram)
    eigenvalues, vectors = _psd_eigh(G, rank_tol)
    return vectors / np.sqrt(eigenvalues), len(eigenvalues)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace of a coordinate space."""

    coeffs: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.coeffs)
        if Q.ndim != 2:
            raise ValueError("basis must be a 2-d array of column vectors")
        object.__setattr__(self, "coeffs", Q)
        gram = Q.conj().T @ Q
        if np.max(np.abs(gram - np.eye(Q.shape[1]))) > 1e-10:
            raise ValueError("basis columns are not orthonormal")

    @property
    def ambient_dim(self):
        return self.coeffs.shape[0]

    @property
    def rank(self):
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class Isomorphism:
    """Inner-product-preserving map from span(generators) to coordinates.

    ``embed_matrix`` maps a generator-coefficient vector c (the function
    ``sum_i c_i g_i``) to its coordinate vector; the standard inner product
    of two images equals the function-space inner product of the preimages
    up to the dropped (numerically null) directions.
    """

    embed_matrix: np.ndarray

    @property
    def dim(self):
        """Dimension of the coordinate space, i.e. the numerical rank of W."""
        return self.embed_matrix.shape[0]

    def embed(self, coeffs):
        """Coordinates of one coefficient vector or of a matrix of columns."""
        return self.embed_matrix @ np.asarray(coeffs)


def build_isomorphism(gram, rank_tol=DEFAULT_RANK_TOL):
    """Isomorphism from the span of the generators onto standard coordinates.

    The coordinate of a function is the vector of its inner products with the
    orthonormal basis from :func:`orthonormalize`; in matrix form the real
    case reads ``embed = B^T G``.
    """
    G = _entries(gram)
    eigenvalues, vectors = _psd_eigh(G, rank_tol)
    return Isomorphism(np.sqrt(eigenvalues)[:, None] * vectors.conj().T)


@dataclass(frozen=True)
class PrincipalDecomposition:
    """Principal angles and paired principal vectors between two subspaces.

    ``angles`` is ascending in [0, pi/2], one per dimension of the smaller
    subspace. Columns ``u_vectors[:, i]`` and ``v_vectors[:, i]`` are the
    ambient-coordinate principal vectors attaining ``cos(angles[i])``, with
    phases fixed so that ``<u_i, v_i>`` is real and nonnegative. ``swapped``
    records whether the inputs were exchanged to keep dim(U) >= dim(V).
    """

    angles: np.ndarray
    u_vectors: np.ndarray
    v_vectors: np.ndarray
    dim_u: int
    dim_v: int
    swapped: bool = False


def _basis_columns(basis):
    if isinstance(basis, SubspaceBasis):
        return basis.coeffs
    return np.asarray(basis)


def principal_angles(qu, qv):
    """Principal angles and vectors between two orthonormally-based subspaces.

    The cosines are the singular values of the cross matrix of the bases;
    for directions with cos^2 > 1/2 the angle is recomputed from the sine
    (singular values of the residual of one basis against the other), which
    keeps small angles accurate. Accepts :class:`SubspaceBasis` objects or
    plain arrays with orthonormal columns in the same ambient space.
    """
    U = _basis_columns(qu)
    V = _basis_columns(qv)
    if U.shape[0] != V.shape[0]:
        raise ValueError(
            f"ambient dimensions differ: {U.shape[0]} vs {V.shape[0]}"
        )
    if U.shape[1] == 0 or V.shape[1] == 0:
        raise ValueError("subspaces must have positive dimension")
    swapped = U.shape[1] < V.shape[1]
    if swapped:
        U, V = V, U
    cross = U.conj().T @ V
    left, cosines, right_h = np.linalg.svd(cross, full_matrices=False)
    cosines = np.clip(cosines, 0.0, 1.0)
    angles = np.arccos(cosines)  # ascending: singular values come descending
    aligned = cosines**2 > 0.5
    if np.any(aligned):
        residual = V - U @ cross
        sines = np.sort(np.linalg.svd(residual, compute_uv=False))
        angles[aligned] = np.arcsin(np.clip(sines[aligned], 0.0, 1.0))
    u_vectors = U @ left
    v_vectors = V @ right_h.conj().T
    u_vectors = _fix_phases(u_vectors, v_vectors)
    return PrincipalDecomposition(
        angles=angles,
        u_vectors=u_vectors,
        v_vectors=v_vectors,
        dim_u=U.shape[1],
        dim_v=V.shape[1],
        swapped=swapped,
    )


def _fix_phases(u_vectors, v_vectors):
    """Scale each u_i by a unit factor so <u_i, v_i> is real nonnegative."""
    return u_vectors * _unit_factors(np.sum(v_vectors.conj() * u_vectors, axis=0))


class Verdict(NamedTuple):
    """What ``_spans`` reads off a factor; it depends on the spans alone."""

    dim_s: int
    dim_ks: int
    proximity: float
    dim_w: int


def _span_basis(coords, rank_tol):
    """``(q, basis)`` with ``q = coords @ basis`` orthonormal, spanning the
    columns of ``coords``: one column per singular value above ``rank_tol``
    times the largest (none may clear it) of the block with each nonzero
    column scaled to unit norm, so no column's scale sets the rank; by
    descending singular value, each signed by ``_lead_factors`` of its
    ``basis`` column."""
    norms = np.linalg.norm(coords, axis=0)
    scale = np.where(norms > 0, norms, 1.0)
    u, sigma, vt = np.linalg.svd(coords / scale, full_matrices=False)
    rank = int(np.count_nonzero(sigma > rank_tol * sigma[0]))
    basis = vt[:rank].T / sigma[:rank] / scale[:, None]
    signs = _lead_factors(basis)
    return u[:, :rank] * signs, basis * signs


def _spans(factor, rank_tol, quad_tol):
    """``((q, basis), (q_image, image_basis), decomposition, verdict)`` of a
    factor whose two column blocks are the coordinates of the atoms and of
    their images: ``_span_basis`` of each block, their principal decomposition
    (None if a block spans nothing) and :class:`Verdict`. The proximity is the
    top sine from S to K(S), 1.0 if dim K(S) > dim S (K(S) then holds a
    direction orthogonal to S), nan if a block spans nothing; dim W is dim S +
    dim K(S) less the sines below ``quad_tol`` (zero angles span S ∩ K(S))."""
    m = factor.shape[1] // 2
    spans = [_span_basis(factor[:, :m], rank_tol), _span_basis(factor[:, m:], rank_tol)]
    (q, _), (q_image, _) = spans
    dim_s, dim_ks = q.shape[1], q_image.shape[1]
    if not (dim_s and dim_ks):
        return (*spans, None, Verdict(dim_s, dim_ks, np.nan, dim_s + dim_ks))
    decomposition = principal_angles(q, q_image)
    angles = decomposition.angles
    proximity = 1.0 if decomposition.swapped else float(np.sin(angles[-1]))
    dim_w = dim_s + dim_ks - int(np.sum(np.sin(angles) < quad_tol))
    return (*spans, decomposition, Verdict(dim_s, dim_ks, proximity, dim_w))
