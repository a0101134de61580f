"""The composition-operator pipeline: projected models, invariance proximity,
witness functions, sampling oracle, eigenpair residuals, and trajectory
prediction error.

Matrix convention used throughout (row convention): with an orthonormal
dictionary ``Psi`` the model matrix has entries ``K[i, j] = <K Psi_i, Psi_j>``,
so for a function ``f = v^T Psi`` the projected image is ``(K^T v)^T Psi``,
and the evaluated basis vector advances as ``Psi(T x) ~= K Psi(x)``.
Eigenfunctions of the projected operator therefore come from *left*
eigenvectors of K.

All geometric quantities live in coordinates on W = S + K(S): column j of
the QR factor R of the weighted evaluations sqrt(w) * [Psi, K Psi] holds
isometric coordinates of generator j. Orthonormal bases of S and K(S) come
from SVDs of the two column blocks of R, so no Gram matrix is formed and the
condition number is not squared. The worst-case relative projection error
of the model over S equals the sine of the largest principal angle between
those bases (Bjorck & Golub), and a maximizing witness function is any
preimage of the top principal vector on the image side.

A quadrature analysis always checks its rule: it recomputes dim S, dim K(S)
and the proximity from the factor of the coarser rule of order ceil(q/2),
and warns if a dimension differs or the proximity moves by ``quad_tol``.
All three depend on the spans alone, so two bases of one span get the same
verdict.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (DegenerateSpace, PrincipalDecomposition, SubspaceBasis, _unit_factors,
                       principal_angles)
from .space import QuadratureSpace, _AtomProgram

__all__ = [
    "InconsistentSystem",
    "ZeroImage",
    "ZeroNorm",
    "FunctionVec",
    "KoopmanModel",
    "ProximityReport",
    "OracleResult",
    "InvarianceAnalysis",
    "build_model",
    "invariance_proximity",
    "proximity_oracle",
    "trajectory_error",
    "trajectory_errors",
]

DEFAULT_RANK_TOL = 1e-12  # relative to the largest singular value
DEFAULT_QUAD_TOL = 1e-9
_ZERO_IMAGE_TOL = 1e-14
_ORACLE_REFINE_STEPS = 200
_ORACLE_BLOCK_ROWS = 4096


class InconsistentSystem(ArithmeticError):
    """The witness solve left a residual; signals numerical breakdown."""


class ZeroImage(ValueError):
    """The function is annihilated by the operator; relative error undefined."""


class ZeroNorm(ValueError):
    """Evaluated dictionary vector vanished along a trajectory."""


@dataclass(frozen=True)
class FunctionVec:
    """A function written as a coefficient vector over an ordered atom list."""

    coeffs: np.ndarray
    atoms: tuple

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(-1)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(self.atoms) != c.shape[0]:
            raise ValueError("one coefficient per atom required")

    @cached_property
    def _program(self):
        return _AtomProgram(self.atoms)

    def __call__(self, points):
        return self._program.values(points, point_major=True) @ self.coeffs

    def eval(self, point):
        return float(self(np.asarray(point, dtype=float).reshape(1, -1))[0])

    def __str__(self):
        terms = [f"{c!r}*({a})" for c, a in zip(self.coeffs, self.atoms) if c != 0.0]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class KoopmanModel:
    """Projected model of the composition operator on span(atoms).

    ``basis`` holds the coefficients of the orthonormalized dictionary
    (column j = coefficients of the j-th orthonormal basis function over the
    raw atoms); ``k_approx`` is the model matrix in that basis, row
    convention as described in the module docstring.
    """

    atoms: tuple
    k_approx: np.ndarray
    basis: np.ndarray

    @property
    def dim(self):
        return self.k_approx.shape[0]

    @cached_property
    def _program(self):
        return _AtomProgram(self.atoms)

    def eval_basis(self, points):
        """Orthonormal basis functions evaluated at points, shape (m, dim)."""
        return self._program.values(points, point_major=True) @ self.basis

    def predict_coeffs(self, coeffs, steps=1):
        """Coefficients of the predicted image after ``steps`` applications.

        Exact coefficient arithmetic, hence linear: predicting a combination
        equals the combination of predictions.
        """
        v = np.asarray(coeffs, dtype=float).reshape(-1)
        for _ in range(steps):
            v = self.k_approx.T @ v
        return v

    def basis_function(self, j):
        return FunctionVec(self.basis[:, j], self.atoms)


@dataclass(frozen=True)
class ProximityReport:
    """Result of the invariance-proximity computation for one subspace."""

    proximity: float
    angles: np.ndarray
    dim_s: int
    dim_ks: int
    dim_w: int
    witness_coeffs: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "invariance_proximity": self.proximity,
            "principal_angles_rad": list(map(float, self.angles)),
            "dim_S": self.dim_s,
            "dim_KS": self.dim_ks,
            "dim_W": self.dim_w,
            "witness_coeffs": list(map(float, self.witness_coeffs)),
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class OracleResult:
    """Best lower bound on the worst-case relative error found by sampling."""

    max_error: float
    argmax_coeffs: np.ndarray
    n_samples: int
    n_excluded: int


class InvarianceAnalysis:
    """Coordinates of S and K(S) inside W = S + K(S), plus derived results.

    Construction runs the whole geometric pipeline: factor the weighted
    evaluations into R (``space.koopman_factor``), take orthonormal bases of
    S and K(S) from SVDs of its two column blocks, ranks counting singular
    values above ``rank_tol`` times the largest, and compute the principal
    decomposition. Everything else (witness, relative errors,
    eigenpair residuals, restricted operator norm) is linear algebra on the
    stored coordinate matrices. Instances are immutable in practice; methods
    have no side effects beyond caching.
    """

    def __init__(
        self,
        atoms,
        space,
        dynamics=None,
        rank_tol=DEFAULT_RANK_TOL,
        quad_tol=DEFAULT_QUAD_TOL,
    ):
        self.atoms = tuple(atoms)
        if not self.atoms:
            raise ValueError("dictionary must be nonempty")
        self.space = space
        self.dynamics = dynamics
        self.rank_tol = float(rank_tol)
        self.quad_tol = float(quad_tol)
        self._warnings: list[str] = []

        program = _AtomProgram(self.atoms)  # compiled once, for the check too
        factor = space.koopman_factor(program, dynamics)
        m = len(self.atoms)
        self.dim_w = _rank(np.linalg.svd(factor, compute_uv=False), self.rank_tol)

        # coordinates of each raw atom, and of its operator image
        self.dict_coords = factor[:, :m]
        self.image_map = factor[:, m:]
        q, self.dictionary_basis, self.dim_s = _span_basis(self.dict_coords, self.rank_tol)
        q_image, _, self.dim_ks = _span_basis(self.image_map, self.rank_tol)
        self.q_s = SubspaceBasis(q)
        self.q_ks = SubspaceBasis(q_image)

        # coordinates of the operator image of each orthonormal basis function
        self.basis_image_map = self.image_map @ self.dictionary_basis
        self.k_approx = self.basis_image_map.T @ q

        self.decomposition: PrincipalDecomposition = principal_angles(
            self.q_s, self.q_ks
        )
        if self.decomposition.swapped:
            # dim K(S) <= dim S always holds exactly; a numerical rank
            # decision that says otherwise leaves the witness side ambiguous
            raise InconsistentSystem(
                "numerical rank of the image exceeds the rank of the "
                "subspace; tighten rank_tol or rescale the dictionary"
            )
        self.angles = self.decomposition.angles
        self.proximity = float(np.sin(self.angles[-1]))

        if isinstance(space, QuadratureSpace):
            self._check_quadrature(program)

        self._witness_coeffs = None
        self._witness_diag = {}

    # -- diagnostics ----------------------------------------------------------

    def _check_quadrature(self, program):
        """Recompute dim S, dim K(S) and the proximity at order ceil(q/2)
        (order 1: at 2); warn if a dimension differs or the proximity moves by
        ``quad_tol`` or more. If the coarser rule agrees, the base rule has
        converged."""
        check = self.space.refined(0.5 if self.space.order > 1 else 2)
        factor = check.koopman_factor(program, self.dynamics)
        (u, sigma, _), (u_image, sigma_image, _) = (
            np.linalg.svd(block, full_matrices=False) for block in np.hsplit(factor, 2))
        dim_s, dim_ks = _rank(sigma, self.rank_tol), _rank(sigma_image, self.rank_tol)
        q, q_image = u[:, :dim_s], u_image[:, :dim_ks]
        proximity = np.nan  # the top sine between the spans, if neither is empty
        if dim_s and dim_ks:
            proximity = np.linalg.norm(q_image - q @ (q.T @ q_image), 2)
        drift = abs(proximity - self.proximity)
        if (dim_s, dim_ks) != (self.dim_s, self.dim_ks) or drift >= self.quad_tol:
            message = (
                f"quadrature order {self.space.order} not converged: proximity changes "
                f"by {drift:.3e}, dim S {self.dim_s} -> {dim_s}, dim K(S) "
                f"{self.dim_ks} -> {dim_ks} at order {check.order}"
            )
            warnings.warn(message, stacklevel=3)
            self._warnings.append(message)

    def diagnostics(self):
        diag = {
            "rank_tol": self.rank_tol,
            "quad_tol": self.quad_tol,
            "warnings": list(self._warnings),
        }
        if isinstance(self.space, QuadratureSpace):
            diag["backend"] = "quadrature"
            diag["quad_order"] = self.space.order
        else:
            diag["backend"] = "empirical"
            diag["n_snapshots"] = int(self.space.n_snapshots)
        diag.update(self._witness_diag)
        return diag

    # -- derived quantities -----------------------------------------------------

    def function_coords(self, coeffs):
        """Coordinates of the function with the given raw-atom coefficients."""
        return self.dict_coords @ np.asarray(coeffs, dtype=float).reshape(-1)

    def image_coords(self, coeffs):
        """Coordinates of the operator image of the same function."""
        return self.image_map @ np.asarray(coeffs, dtype=float).reshape(-1)

    def relative_error(self, f):
        """Relative projection error of the image of ``f`` onto the subspace.

        ``f`` is a :class:`FunctionVec` over the dictionary atoms or a bare
        coefficient vector. Raises :class:`ZeroImage` when the operator
        annihilates ``f``.
        """
        coeffs = f.coeffs if isinstance(f, FunctionVec) else np.asarray(f, dtype=float)
        image = self.image_coords(coeffs)
        image_norm = np.linalg.norm(image)
        f_norm = np.linalg.norm(self.function_coords(coeffs))
        if image_norm <= _ZERO_IMAGE_TOL * max(f_norm, 1e-300):
            raise ZeroImage("operator image has numerically zero norm")
        q = self.q_s.coeffs
        projection = q @ (q.T @ image)
        return float(np.linalg.norm(image - projection) / image_norm)

    def witness(self):
        """A function in S attaining the worst-case relative error.

        Solves for dictionary coefficients whose operator image is the top
        principal vector on the image side; the minimum-norm least-squares
        solution fixes the non-uniqueness when the operator is not injective
        on S, and the sign makes its largest-magnitude coefficient positive.
        The preimage always exists, so a residual beyond 1e-8 signals
        numerical breakdown and raises :class:`InconsistentSystem`.
        """
        if self._witness_coeffs is None:
            top = self.decomposition.v_vectors[:, -1]
            coeffs, _, _, _ = np.linalg.lstsq(self.image_map, top, rcond=None)
            solve_residual = float(np.linalg.norm(self.image_map @ coeffs - top))
            if solve_residual > 1e-8:
                raise InconsistentSystem(
                    f"witness solve residual {solve_residual:.3e} exceeds 1e-8"
                )
            error = self.relative_error(coeffs)
            self._witness_diag = {
                "witness_solve_residual": solve_residual,
                "witness_relative_error": error,
            }
            if abs(error - self.proximity) > 1e-8:
                message = (
                    f"witness relative error {error:.12e} deviates from the "
                    f"closed form {self.proximity:.12e}"
                )
                warnings.warn(message, stacklevel=2)
                self._warnings.append(message)
            self._witness_coeffs = _signed(coeffs)
        return FunctionVec(self._witness_coeffs, self.atoms)

    def restricted_norm(self):
        """Largest amplification of the operator over the subspace S.

        Computed as the top singular value of the coordinate matrix sending
        orthonormal-basis coefficients to image coordinates.
        """
        return float(np.linalg.svd(self.basis_image_map, compute_uv=False)[0])

    def residuals(self):
        """Residuals of every eigenpair of the projected operator.

        Eigenfunctions come from left eigenvectors of the model matrix.
        Complex-conjugate pairs act on a two-dimensional real invariant
        subspace and share one residual; each pair is reported once, via the
        eigenvalue with nonnegative imaginary part. Rows are sorted by
        (real, imag) for reproducibility.
        """
        eigenvalues, vectors = np.linalg.eig(self.k_approx.T)
        out = []
        for i in range(eigenvalues.shape[0]):
            lam = complex(eigenvalues[i])
            if abs(lam.imag) <= 1e-12:
                lam = complex(lam.real, 0.0)
            elif lam.imag < 0:
                continue  # conjugate partner is reported instead
            v = vectors[:, i]
            v = v / np.linalg.norm(v)
            image = self.basis_image_map @ v
            function = self.q_s.coeffs @ v
            model_image = lam * function
            denom = np.linalg.norm(function)
            out.append((lam, float(np.linalg.norm(image - model_image) / denom)))
        out.sort(key=lambda pair: (pair[0].real, pair[0].imag))
        return out

    def report(self):
        wit = self.witness()
        return ProximityReport(
            proximity=self.proximity,
            angles=self.angles.copy(),
            dim_s=self.dim_s,
            dim_ks=self.dim_ks,
            dim_w=self.dim_w,
            witness_coeffs=wit.coeffs.copy(),
            diagnostics=self.diagnostics(),
        )


def _rank(sigma, rank_tol):
    """Number of singular values (descending) above rank_tol times the largest."""
    return int(np.count_nonzero(sigma > rank_tol * sigma[0]))


def _signed(v):
    """``v`` times the sign that makes its largest-magnitude entry positive."""
    return v * _unit_factors(v[np.argmax(np.abs(v))])


def _span_basis(coords, rank_tol):
    """``(q, basis, rank)`` with ``q = coords @ basis`` orthonormal, spanning
    the columns of ``coords``. Columns go by descending singular value, each
    signed so that the largest-magnitude entry of its ``basis`` column is
    positive (the ``geometry.orthonormalize`` convention). Raises
    :class:`DegenerateSpace` if no column is above the rank tolerance."""
    u, sigma, vt = np.linalg.svd(coords, full_matrices=False)
    rank = _rank(sigma, rank_tol)
    if rank == 0:
        raise DegenerateSpace("no singular value above the rank tolerance")
    v = vt[:rank].T
    signs = _unit_factors(v[np.argmax(np.abs(v), axis=0), np.arange(rank)])
    return u[:, :rank] * signs, v * signs / sigma[:rank], rank


def build_model(atoms, space, dynamics=None, rank_tol=DEFAULT_RANK_TOL):
    """Projected-operator model on span(atoms).

    Orthonormalizes the dictionary and fills the model matrix with inner
    products of operator images against the orthonormal basis. Works with a
    quadrature backend plus dynamics map, or an empirical backend alone.
    """
    atoms = tuple(atoms)
    if not atoms:
        raise ValueError("dictionary must be nonempty")
    factor = space.koopman_factor(atoms, dynamics)
    m = len(atoms)
    q, basis, _ = _span_basis(factor[:, :m], rank_tol)
    return KoopmanModel(atoms=atoms, k_approx=(factor[:, m:] @ basis).T @ q, basis=basis)


def invariance_proximity(
    atoms,
    space,
    dynamics=None,
    rank_tol=DEFAULT_RANK_TOL,
    quad_tol=DEFAULT_QUAD_TOL,
):
    """Worst-case relative projection error of the model on span(atoms).

    Returns a :class:`ProximityReport` with the value (the sine of the
    largest principal angle between the subspace and its operator image),
    all principal angles, subspace dimensions, the witness coefficients, and
    diagnostics.
    """
    analysis = InvarianceAnalysis(
        atoms,
        space,
        dynamics,
        rank_tol=rank_tol,
        quad_tol=quad_tol,
    )
    return analysis.report()


def proximity_oracle(analysis, n_samples=10000, seed=0):
    """Validate the closed form of an :class:`InvarianceAnalysis` from below
    by seeded sphere sampling.

    Draws ``n_samples`` coefficient vectors uniformly from the unit sphere of
    the orthonormalized subspace, evaluates the relative projection error of
    each image, and refines the best (first) sample by a Rayleigh-Ritz ascent
    (at most ``_ORACLE_REFINE_STEPS`` candidates); ``argmax_coeffs`` is signed
    so that its largest-magnitude entry is positive. The samples are drawn and
    scored in blocks of ``_ORACLE_BLOCK_ROWS`` rows, the same draws as one
    call, so memory does not grow with ``n_samples``. An image shorter than
    1e-7 times the largest image of a unit vector counts as vanishing
    (``n_excluded``): below that, the rounding of the residual map, about
    eps times the image map's norm, would dominate the ratio. No sample can
    exceed the closed-form value beyond rounding (S1 reports 5.7e-16 against
    5.4e-16); the CLI treats an excess above 1e-8 as an internal error.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    a_k = analysis.basis_image_map
    q = analysis.q_s.coeffs
    # one product gives each image and its residual off S: the residual map
    # is the image map less its projection onto S
    maps = np.vstack([a_k, a_k - q @ (q.T @ a_k)]).T
    dim_w = a_k.shape[0]
    vanishing = 1e-7 * np.linalg.norm(a_k, 2)

    def errors_of(rows):
        """Relative errors of unit coefficient rows; -1 where the image vanishes."""
        squares = rows @ maps
        squares *= squares
        norms = np.sqrt(squares[:, :dim_w].sum(axis=1))
        valid = norms > vanishing
        residual = np.sqrt(squares[:, dim_w:].sum(axis=1))
        return np.where(valid, residual / np.where(valid, norms, 1.0), -1.0)

    rng = np.random.default_rng(seed)
    best, best_error, n_excluded = None, -np.inf, 0
    for lo in range(0, n_samples, _ORACLE_BLOCK_ROWS):
        samples = rng.standard_normal((min(_ORACLE_BLOCK_ROWS, n_samples - lo), a_k.shape[1]))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        errors = errors_of(samples)
        n_excluded += int(np.count_nonzero(errors < 0))
        index = int(np.argmax(errors))  # row 0, at zero error, if every image vanishes
        if errors[index] > best_error:
            best, best_error = samples[index].copy(), errors[index]
    best, best_error = _refine(errors_of, best, max(best_error, 0.0), _ORACLE_REFINE_STEPS, maps)
    return OracleResult(
        max_error=float(best_error),
        argmax_coeffs=_signed(analysis.dictionary_basis @ best),
        n_samples=n_samples,
        n_excluded=n_excluded,
    )


def _refine(errors_of, point, value, max_steps, maps):
    """Rayleigh-Ritz ascent on the unit sphere, the locally optimal step of
    LOBPCG. The error of a unit row c is |c M_r| / |c M_i|, with M_i and M_r
    the image and residual halves of ``maps``, so its maximum over a small
    subspace is the top eigenvector of the pencil of the two forms. Each step
    takes it over the span of c, the ascent direction and the previous point,
    and keeps it only if ``errors_of`` scores it more than 4 eps higher; the
    ascent stops at the first candidate that is not, or when an image in the
    span vanishes. The gain is absolute: errors lie in [0, 1], and on an
    invariant subspace, whose errors are rounding, no relative gain stops it."""
    image, residual = np.hsplit(maps, 2)
    previous = []
    for _ in range(max_steps):
        ascent = residual @ (point @ residual) - value**2 * (image @ (point @ image))
        span = np.linalg.qr(np.column_stack([point, ascent, *previous]))[0]
        images = span.T @ image
        try:
            lower = np.linalg.cholesky(images @ images.T)
        except np.linalg.LinAlgError:
            break
        whitened = np.linalg.solve(lower, span.T @ residual)
        top = np.linalg.eigh(whitened @ whitened.T)[1][:, -1]
        candidate = span @ np.linalg.solve(lower.T, top)
        candidate /= np.linalg.norm(candidate)
        error = errors_of(candidate[None])[0]
        if not error > value + 4 * np.finfo(float).eps:
            break
        previous, point, value = [point], candidate, float(error)
    return point, value


def _simulate(model, dynamics, starts, horizon):
    """Percent errors ``(n_starts, horizon)`` and, per start, the step at
    which its evaluated dictionary vanished (0: never); from that step on
    the trajectory is left out of the batch and not evaluated again."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    state = np.atleast_2d(np.asarray(starts, dtype=float))
    errors = np.zeros((state.shape[0], horizon))
    vanished = np.zeros(state.shape[0], dtype=int)
    live = np.arange(state.shape[0])
    prediction = model.eval_basis(state)
    for k in range(1, horizon + 1):
        state = np.atleast_2d(dynamics(state))
        prediction = prediction @ model.k_approx.T
        truth = model.eval_basis(state)
        truth_norm = np.linalg.norm(truth, axis=1)
        gone = truth_norm < 1e-14
        vanished[live[gone]] = k
        live, state, prediction, truth, truth_norm = (
            a[~gone] for a in (live, state, prediction, truth, truth_norm))
        errors[live, k - 1] = 100.0 * np.linalg.norm(truth - prediction, axis=1) / truth_norm
    return errors, vanished


def trajectory_errors(model, dynamics, starts, horizon):
    """Percent prediction errors (as in :func:`trajectory_error`) from each
    of ``starts``, simulated as one ``(n, d)`` state array per step.

    Returns ``(errors, kept)``: one row of errors per kept start, in start
    order; a start whose evaluated dictionary vanishes is not kept.
    """
    errors, vanished = _simulate(model, dynamics, starts, horizon)
    return errors[vanished == 0], vanished == 0


def trajectory_error(model, dynamics, x0, horizon):
    """Percent prediction errors along one trajectory, steps 1..horizon.

    The truth is the orthonormalized dictionary evaluated on the simulated
    trajectory; the prediction advances the initial evaluation with the model
    matrix. Errors are Euclidean norms of evaluated vectors, in percent. The
    error at step 0 is identically zero and not reported.
    """
    errors, vanished = _simulate(model, dynamics, np.reshape(x0, (1, -1)), horizon)
    if vanished[0]:
        raise ZeroNorm(f"evaluated dictionary vanished at step {vanished[0]}")
    return errors[0]
