"""Subspace geometry: orthonormalization, coordinate embedding, angles.

Principal angles measure how two subspaces sit relative to each other; their
cosines solve a recursive max-correlation problem. The closed-form pipeline
computes them by SVD.
"""

import numpy as np

from invprox import build_isomorphism, orthonormalize, principal_angles

# Orthonormalize generators given only their Gram matrix. Column j of B holds
# the generator coefficients of the j-th orthonormal basis function.
G = np.array([[4.0, 0.0], [0.0, 4.0 / 3.0]])  # Gram of (1, x1) on the box
B, rank = orthonormalize(G)
print("orthonormalizing coefficients:\n", B)
print("B^T G B:\n", B.T @ G @ B)

# Near-dependent generators lose rank instead of blowing up.
B_dup, rank_dup = orthonormalize(np.ones((2, 2)))
print("duplicated generator -> rank", rank_dup)

# The isomorphism embeds span(generators) into R^rank, preserving inner
# products: function-space geometry becomes plain coordinate geometry.
rng = np.random.default_rng(1)
basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
spd = basis @ np.diag([2.0, 1.0, 0.5, 0.2, 0.1]) @ basis.T
iso = build_isomorphism(spd)
a, b = rng.standard_normal((2, 5))
print("a^T G b                  =", a @ spd @ b)
print("<embed(a), embed(b)>     =", iso.embed(a) @ iso.embed(b))

# Principal angles between coordinate subspaces: a planted single angle.
theta = 0.3
qu = np.array([[1.0], [0.0], [0.0]])
qv = np.array([[np.cos(theta)], [np.sin(theta)], [0.0]])
dec = principal_angles(qu, qv)
print("planted angle 0.3 ->", dec.angles[0])

# Tiny angles survive: the cosine alone would round to zero, the sine-based
# recomputation keeps nine digits.
tiny = 1e-9
qv_tiny = np.array([[np.cos(tiny)], [np.sin(tiny)], [0.0]])
print("planted angle 1e-9 ->", principal_angles(qu, qv_tiny).angles[0])

# Principal vectors come in matched pairs: <u_i, v_j> = delta_ij cos(theta_i).
qu = np.linalg.qr(rng.standard_normal((5, 2)))[0]
qv = np.linalg.qr(rng.standard_normal((5, 3)))[0]
dec = principal_angles(qu, qv)
print("angles:", dec.angles)
print("pairing matrix U^T V (diagonal = cosines):\n",
      np.round(dec.u_vectors.T @ dec.v_vectors, 12))
