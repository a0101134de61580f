"""Invariance proximity: the worst-case relative error of a projected model.

For a subspace S and the composition operator K of a discrete-time system,
the projected model replaces K f by its orthogonal projection back onto S.
The invariance proximity of S is the supremum over f in S of

    ||K f - P_S K f|| / ||K f||,

and it equals the sine of the largest principal angle between S and K(S).
This script computes it for three dictionaries on the benchmark system,
checks the closed form against direct sampling, and exhibits a maximizing
witness function.
"""

import numpy as np

from invprox import (
    Domain,
    DynamicsMap,
    InvarianceAnalysis,
    QuadratureSpace,
    parse,
    proximity_oracle,
)

box = Domain(((-1.0, 1.0), (-1.0, 1.0)))
space = QuadratureSpace(box, order=20)
T = DynamicsMap.from_strings(["0.9*x1", "0.4*(sin(x2)+x1^2)+0.01*x2^2"], 2)

dictionaries = {
    "S1": ("1", "x1", "x1^2"),
    "S2": ("1", "x1", "x2", "x1^2"),
    "S3": ("1", "x1", "x2", "x1^2", "x2^2"),
}

print(f"{'subspace':>8} {'proximity':>22} {'dim S':>6} {'dim KS':>7} {'dim W':>6}")
analyses = {}
for name, sources in dictionaries.items():
    atoms = tuple(parse(s, 2) for s in sources)
    analysis = InvarianceAnalysis(atoms, space, T)
    analyses[name] = analysis
    print(f"{name:>8} {analysis.proximity:>22.16f} "
          f"{analysis.dim_s:>6} {analysis.dim_ks:>7} {analysis.dim_w:>6}")

print()
print("S1 is spanned by monomials of x1 alone and x1 evolves linearly, so S1")
print("is invariant and its proximity sits at round-off level. S2 adds x2 and")
print("stays accurate to ~4.8%; S3 additionally contains x2^2, whose image")
print("leaves the span badly: worst-case error ~82%, despite S2 being a")
print("subset of S3. Bigger dictionaries are not automatically better.")

# The closed form is a tight upper bound: seeded sphere sampling plus a local
# refinement reaches it from below.
analysis = analyses["S3"]
oracle = proximity_oracle(analysis, n_samples=10000, seed=0)
print()
print("S3 closed form:     ", analysis.proximity)
print("S3 sampled maximum: ", oracle.max_error)
print("gap after refinement:", analysis.proximity - oracle.max_error)

# The supremum is attained: the witness is a concrete function in S3.
wit = analysis.witness()
print()
print("witness coefficients over (1, x1, x2, x1^2, x2^2):")
print(np.round(wit.coeffs, 6))
print("relative error of the witness:", analysis.relative_error(wit))

# Per-eigenpair residuals of the projected model are bounded by the
# restricted operator norm times the proximity.
bound = analysis.restricted_norm() * analysis.proximity
print()
print(f"residual bound ||K||_S * proximity = {bound:.6f}")
for lam, res in analysis.residuals():
    print(f"  eigenvalue {lam.real:+.4f}{lam.imag:+.4f}j   residual {res:.6f}")
