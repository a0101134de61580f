"""Brute-force principal angles: an independent oracle for
:func:`invprox.principal_angles` at test scale.

:func:`principal_angles_bruteforce` solves the defining max-correlation
recursion directly, by alternating one-sided maximization from a grid of
starts, and shares no code with the cosine/sine SVD it checks.
"""

import numpy as np


class BudgetExceeded(RuntimeError):
    """The brute-force angle search ran out of iterations before converging."""


def _basis_columns(basis):
    return np.asarray(getattr(basis, "coeffs", basis))


def _sphere_grid(dim, resolution, rng, extra_random):
    """Directions covering the unit sphere in R^dim (antipodes are redundant)."""
    if dim == 1:
        points = np.array([[1.0]])
    elif dim == 2:
        t = np.linspace(0.0, np.pi, resolution, endpoint=False)
        points = np.column_stack([np.cos(t), np.sin(t)])
    elif dim == 3:
        t = np.linspace(0.0, np.pi, resolution)
        p = np.linspace(0.0, np.pi, resolution, endpoint=False)
        T, P = np.meshgrid(t, p, indexing="ij")
        points = np.column_stack(
            [
                (np.sin(T) * np.cos(P)).ravel(),
                (np.sin(T) * np.sin(P)).ravel(),
                np.cos(T).ravel(),
            ]
        )
    else:
        # test-scale oracle: beyond 3 dimensions use random directions only
        points = np.zeros((0, dim))
    if extra_random:
        randoms = rng.standard_normal((extra_random, dim))
        randoms /= np.linalg.norm(randoms, axis=1, keepdims=True)
        points = np.vstack([points, randoms]) if points.size else randoms
    return points


def principal_angles_bruteforce(
    qu,
    qv,
    grid_resolution=24,
    n_random_starts=40,
    max_iter=20000,
    tol=1e-13,
    seed=0,
):
    """Solve the defining max-correlation recursion for the angles directly.

    For each index the absolute correlation ``|<u, v>|`` is maximized over
    unit vectors orthogonal to the previously found ones, by alternating
    exact one-sided maximization restarted from a grid of unit directions
    plus seeded random starts. The angle of the maximizing pair is read off
    with atan2 of its sine (ambient residual norm) and cosine, which stays
    accurate for small angles where arccos of the correlation alone would
    lose half the digits. Intended as an independent oracle for
    :func:`principal_angles` on small problems (subspace dimensions <= 3).

    Returns the ascending angles. Raises :class:`BudgetExceeded` if no
    restart converges within ``max_iter`` alternations.
    """
    U = _basis_columns(qu)
    V = _basis_columns(qv)
    if np.iscomplexobj(U) or np.iscomplexobj(V):
        raise ValueError("brute-force oracle supports the real field only")
    if U.shape[1] < V.shape[1]:
        U, V = V, U
    m1, m2 = U.shape[1], V.shape[1]
    cross = U.T @ V
    rng = np.random.default_rng(seed)
    found_a = np.zeros((m1, 0))
    found_b = np.zeros((m2, 0))
    angles = []
    for _ in range(m2):

        def project_a(vec):
            return vec - found_a @ (found_a.T @ vec)

        def project_b(vec):
            return vec - found_b @ (found_b.T @ vec)

        starts = _screen_starts(
            cross, project_a, project_b,
            _sphere_grid(m1, grid_resolution, rng, n_random_starts),
        )
        best_value = 0.0
        best_pair = None
        converged_any = False
        for start in starts:
            a = start
            b = None
            value = 0.0
            previous = np.inf
            converged = False
            for _ in range(max_iter):
                b = project_b(cross.T @ a)
                norm_b = np.linalg.norm(b)
                if norm_b < 1e-15:
                    value, converged = 0.0, True
                    break
                b = b / norm_b
                a_new = project_a(cross @ b)
                norm_an = np.linalg.norm(a_new)
                if norm_an < 1e-15:
                    value, converged = 0.0, True
                    break
                a_new = a_new / norm_an
                previous = value
                value = float(a_new @ cross @ b)
                # stall on the iterate, not the value: the value converges
                # quadratically in the vector error and would stop too early
                drift = min(np.max(np.abs(a_new - a)), np.max(np.abs(a_new + a)))
                a = a_new
                if drift <= tol:
                    converged = True
                    break
            else:
                # iteration cap: accept a stalled value; the iterate then only
                # wanders inside a near-degenerate block of directions whose
                # angles are equal to within the value stall
                converged = abs(abs(value) - abs(previous)) <= 1e-12 * max(
                    1.0, abs(value)
                )
            if converged:
                converged_any = True
                if abs(value) > abs(best_value):
                    best_value = value
                    best_pair = (a.copy(), b.copy()) if value != 0.0 else None
        if not converged_any:
            raise BudgetExceeded(
                f"no restart converged within {max_iter} alternations"
            )
        if best_pair is None:
            # remaining feasible directions are fully orthogonal; all later
            # angles are pi/2 as well, but deflation needs explicit vectors
            angles.append(np.pi / 2)
            a = _first_feasible(project_a, m1)
            b = _first_feasible(project_b, m2)
        else:
            a, b = best_pair
            u_ambient = U @ a
            v_ambient = V @ b
            cosine = float(u_ambient @ v_ambient)
            sine = float(np.linalg.norm(v_ambient - cosine * u_ambient))
            angles.append(float(np.arctan2(sine, abs(cosine))))
        found_a = np.column_stack([found_a, a])
        found_b = np.column_stack([found_b, b])
    return np.array(angles)


def _screen_starts(cross, project_a, project_b, candidates, keep=6):
    """Feasible unit starts ranked by the objective after 1.5 alternations."""
    A = project_a(candidates.T)
    norms = np.linalg.norm(A, axis=0)
    A = A[:, norms > 1e-10] / norms[norms > 1e-10]
    if A.shape[1] == 0:
        return []
    B = project_b(cross.T @ A)
    b_norms = np.linalg.norm(B, axis=0)
    safe = np.where(b_norms > 1e-15, b_norms, 1.0)
    scores = np.linalg.norm(project_a(cross @ (B / safe)), axis=0)
    scores = np.where(b_norms > 1e-15, scores, 0.0)
    order = np.argsort(-scores, kind="stable")[:keep]
    return [A[:, j] for j in order]


def _first_feasible(projector, dim):
    for k in range(dim):
        candidate = projector(np.eye(dim)[:, k])
        norm = np.linalg.norm(candidate)
        if norm > 1e-10:
            return candidate / norm
    raise BudgetExceeded("deflated feasible set is empty")
