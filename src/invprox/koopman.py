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
isometric coordinates of generator j. ``geometry._spans`` turns R into
orthonormal bases of S and K(S), from SVDs of its column blocks with unit
columns, their principal angles and verdict (dim S, dim K(S), the proximity,
dim W), so no Gram matrix is formed and the condition number is not squared.
The worst-case relative projection error of the model over S equals the sine
of the largest principal angle between those bases (Bjorck & Golub), and a
maximizing witness function is any preimage of the top principal vector on
the image side; its relative error is read off that unit vector.

Every analysis hands its verdict to the backend's ``check``, which compares
it with one of its own (a quadrature rule: with the verdict of the coarser
rule of order ceil(q/2)); the analysis warns with the message it returns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import DegenerateSpace, _lead_factors, _spans
from .space import NonFiniteValue, _AtomProgram

__all__ = [
    "InconsistentSystem",
    "ZeroImage",
    "ZeroNorm",
    "FunctionVec",
    "KoopmanModel",
    "OracleResult",
    "InvarianceAnalysis",
    "build_model",
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
    """The witness does not map onto its target; signals numerical breakdown."""


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
        return self.coeffs @ self._program.values(points)

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
        return self._program.values(points).T @ self.basis


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
    S and K(S) from SVDs of its two column blocks, each column scaled to unit
    norm, ranks counting singular values above ``rank_tol`` times the
    largest, compute the principal decomposition and the verdict
    (``geometry._spans``), let the backend check the verdict, and build the
    witness. ``q_s`` is the orthonormal
    basis of S in these coordinates. dim W is dim S + dim K(S) less the
    angles whose sine is below ``quad_tol``, the sine to which the run
    certifies the proximity. ``warnings`` lists the check's warning, then
    the witness's. The rest (relative errors, eigenpair residuals,
    restricted operator norm, the model) is linear algebra on the stored
    coordinate matrices.
    Instances are immutable in practice; methods have no side effects
    beyond caching.
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
        self.space = space
        self.rank_tol = float(rank_tol)
        self.quad_tol = float(quad_tol)

        program = _AtomProgram(self.atoms)  # compiled once, for the check too
        factor = space.koopman_factor(program, dynamics)
        # coordinates of each raw atom, and of its operator image
        m = len(self.atoms)
        self.dict_coords, self.image_map = factor[:, :m], factor[:, m:]
        ((self.q_s, self.dictionary_basis), (q_image, image_basis), self.decomposition,
         self.verdict) = _spans(factor, self.rank_tol, self.quad_tol)
        if self.decomposition is None:
            block = "image block K(S)" if self.dictionary_basis.shape[1] else "dictionary block S"
            raise DegenerateSpace(f"no singular value above the rank tolerance in the {block}")
        if self.decomposition.swapped:
            # dim K(S) <= dim S always holds exactly; a numerical rank
            # decision that says otherwise leaves the witness side ambiguous
            raise InconsistentSystem(
                "numerical rank of the image exceeds the rank of the "
                "subspace; tighten rank_tol or rescale the dictionary"
            )
        self.dim_s, self.dim_ks, self.proximity, self.dim_w = self.verdict
        self.angles = self.decomposition.angles

        # coordinates of the operator image of each orthonormal basis function
        self.basis_image_map = self.image_map @ self.dictionary_basis
        self.k_approx = self.basis_image_map.T @ self.q_s

        message = space.check(program, dynamics, self.verdict, self.rank_tol, self.quad_tol)
        self.warnings = [] if message is None else [message]
        # The witness maps onto the unit vector ``top`` (see witness()), so
        # its relative error is the distance of ``top`` from S.
        top = self.decomposition.v_vectors[:, -1]
        coeffs = image_basis @ (q_image.T @ top)
        solve_residual = float(np.linalg.norm(self.image_map @ coeffs - top))
        backward_error = solve_residual / (
            np.linalg.norm(self.image_map) * np.linalg.norm(coeffs) + np.linalg.norm(top))
        error = float(np.linalg.norm(top - self.q_s @ (self.q_s.T @ top)))
        if backward_error <= 1e-8 and abs(error - self.proximity) > 1e-8:
            self.warnings.append(f"witness relative error {error:.12e} deviates from the "
                                 f"closed form {self.proximity:.12e}")
        for message in self.warnings:  # before the guard, so a failing run shows them
            warnings.warn(message, stacklevel=2)
        if backward_error > 1e-8:
            raise InconsistentSystem(
                f"witness solve backward error {backward_error:.3e} exceeds 1e-8 "
                f"(residual {solve_residual:.3e})"
            )
        self._preimage_errors = {"witness_solve_residual": solve_residual,
                                 "witness_relative_error": error}
        self._preimage = coeffs * _lead_factors(coeffs[:, None])

    # -- diagnostics ----------------------------------------------------------

    def diagnostics(self):
        return {"rank_tol": self.rank_tol, "quad_tol": self.quad_tol,
                "warnings": list(self.warnings), **self.space.diagnostics(),
                **self._preimage_errors}

    @cached_property
    def model(self):
        """The projected-operator model on the orthonormal dictionary basis."""
        return KoopmanModel(self.atoms, self.k_approx, self.dictionary_basis)

    # -- derived quantities -----------------------------------------------------

    def image_coords(self, coeffs):
        """Coordinates of the operator image of the same function."""
        return self.image_map @ np.asarray(coeffs, dtype=float).reshape(-1)

    def relative_error(self, f):
        """Relative projection error of the image of ``f`` onto the subspace.

        ``f`` is a :class:`FunctionVec` over the dictionary atoms or a bare
        coefficient vector. Raises :class:`ZeroImage` when ``|Kf|`` is at
        most 1e-14 times ``|f|``: the ratio is then rounding. The pipeline
        never calls it; the witness's error is read off its unit image.
        """
        coeffs = f.coeffs if isinstance(f, FunctionVec) else np.asarray(f, dtype=float)
        image = self.image_coords(coeffs)
        image_norm = np.linalg.norm(image)
        f_norm = np.linalg.norm(self.dict_coords @ coeffs.reshape(-1))
        if image_norm <= _ZERO_IMAGE_TOL * max(f_norm, 1e-300):
            raise ZeroImage("operator image has numerically zero norm")
        projection = self.q_s @ (self.q_s.T @ image)
        return float(np.linalg.norm(image - projection) / image_norm)

    def witness(self):
        """A function in S attaining the worst-case relative error.

        Its coefficients map onto the top principal vector on the image side:
        with ``q_image = image_map @ image_basis`` the orthonormal basis of
        K(S), they are ``image_basis @ (q_image.T @ top)``. The image block is
        column-equilibrated before its SVD, so this is the preimage of
        minimum norm in the column-scaled coefficients ``D c``, with ``D`` the
        norms of the atoms' images (1 for an image of norm 0); that fixes the
        non-uniqueness when the operator is not injective on S. The sign
        makes the largest-magnitude coefficient positive. The constructor
        builds it: the preimage always exists, so a normwise backward error
        ``|Ax - b| / (|A|_F |x| + |b|)`` beyond 1e-8 signals numerical
        breakdown and raises :class:`InconsistentSystem`.
        """
        return FunctionVec(self._preimage.copy(), self.atoms)

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
        real = np.abs(eigenvalues.imag) <= 1e-12
        keep = real | (eigenvalues.imag > 0)  # a conjugate partner is reported instead
        lams = np.where(real, eigenvalues.real, eigenvalues)[keep].astype(complex)
        v = vectors[:, keep] / np.linalg.norm(vectors[:, keep], axis=0)
        functions = self.q_s @ v
        residuals = (np.linalg.norm(self.basis_image_map @ v - functions * lams, axis=0)
                     / np.linalg.norm(functions, axis=0))
        return sorted(zip(lams.tolist(), residuals.tolist()),
                      key=lambda pair: (pair[0].real, pair[0].imag))

    def report(self):
        """The ``proximity.json`` payload: value, angles, dims, witness and
        diagnostics."""
        return {
            "invariance_proximity": self.proximity,
            "principal_angles_rad": self.angles.tolist(),
            "dim_S": self.dim_s,
            "dim_KS": self.dim_ks,
            "dim_W": self.dim_w,
            "witness_coeffs": self._preimage.tolist(),
            "diagnostics": self.diagnostics(),
        }


def build_model(atoms, space, dynamics=None, rank_tol=DEFAULT_RANK_TOL):
    """The ``model`` of :class:`InvarianceAnalysis`: a quadrature backend
    needs the dynamics map, an empirical backend none."""
    return InvarianceAnalysis(atoms, space, dynamics, rank_tol=rank_tol).model


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
    q = analysis.q_s
    # one product gives each image and its residual off S: the residual map
    # is the image map less its projection onto S
    maps = np.vstack([a_k, a_k - q @ (q.T @ a_k)]).T
    n_coords = a_k.shape[0]  # rows of R: coordinates in W
    vanishing = 1e-7 * np.linalg.norm(a_k, 2)

    def errors_of(rows):
        """Relative errors of unit coefficient rows; -1 where the image vanishes."""
        squares = rows @ maps
        squares *= squares
        norms = np.sqrt(squares[:, :n_coords].sum(axis=1))
        valid = norms > vanishing
        residual = np.sqrt(squares[:, n_coords:].sum(axis=1))
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
    argmax_coeffs = analysis.dictionary_basis @ best
    return OracleResult(
        max_error=float(best_error),
        argmax_coeffs=argmax_coeffs * _lead_factors(argmax_coeffs[:, None]),
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
    which its evaluated dictionary vanished, its norm below the smallest
    normal double (0: never); from that step on the trajectory is left out
    of the batch and not evaluated again. A non-finite percent error (an
    overflowing prediction) raises NonFiniteValue naming the step and the
    start."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    state = starts = np.atleast_2d(np.asarray(starts, dtype=float))
    errors = np.zeros((state.shape[0], horizon))
    vanished = np.zeros(state.shape[0], dtype=int)
    live = np.arange(state.shape[0])
    prediction = model.eval_basis(state)
    for k in range(1, horizon + 1):
        state = np.atleast_2d(dynamics(state))
        prediction = prediction @ model.k_approx.T
        truth = model.eval_basis(state)
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            truth_norm = np.linalg.norm(truth, axis=1)
            gone = truth_norm < np.finfo(float).tiny  # a nan norm reaches the check below
            if gone.any():  # filtering costs a copy of each array per step
                vanished[live[gone]] = k
                live, state, prediction, truth, truth_norm = (
                    a[~gone] for a in (live, state, prediction, truth, truth_norm))
            step = errors[live, k - 1] = (100.0 * np.linalg.norm(truth - prediction, axis=1)
                                          / truth_norm)
        if not np.isfinite(step).all():
            i = np.argmin(np.isfinite(step))
            raise NonFiniteValue(f"percent error at step {k} of the trajectory from "
                                 f"{starts[live[i]]}", state[i], step[i])
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
