"""invprox: invariance proximity of function subspaces under the Koopman
(composition) operator of a discrete-time nonlinear system.

The package computes the worst-case relative error of projection-based
finite-dimensional operator models as the sine of the largest principal
angle between a subspace and its operator image, working in isometric
coordinates taken from a QR factor of the weighted dictionary evaluations.
The weights and nodes come from a Gauss-Legendre quadrature backend or
from an empirical snapshot measure.
"""

from .expr import (
    ArityError,
    Composition,
    DynamicsMap,
    Expr,
    ParseError,
    UnknownIdentifier,
    compose_with_map,
    parse,
)
from .geometry import (
    DegenerateSpace,
    Isomorphism,
    NotPSD,
    PrincipalDecomposition,
    SubspaceBasis,
    build_isomorphism,
    orthonormalize,
    principal_angles,
)
from .koopman import (
    FunctionVec,
    InconsistentSystem,
    InvarianceAnalysis,
    KoopmanModel,
    OracleResult,
    ProximityReport,
    ZeroImage,
    ZeroNorm,
    build_model,
    invariance_proximity,
    proximity_oracle,
    trajectory_error,
    trajectory_errors,
)
from .space import (
    Domain,
    EmpiricalSpace,
    GramMatrix,
    NonFiniteValue,
    QuadratureSpace,
    read_snapshots,
    write_snapshots,
)

__version__ = "0.1.0"

__all__ = [
    "parse",
    "compose_with_map",
    "Expr",
    "DynamicsMap",
    "Composition",
    "ParseError",
    "UnknownIdentifier",
    "ArityError",
    "Domain",
    "QuadratureSpace",
    "EmpiricalSpace",
    "GramMatrix",
    "NonFiniteValue",
    "read_snapshots",
    "write_snapshots",
    "orthonormalize",
    "build_isomorphism",
    "principal_angles",
    "SubspaceBasis",
    "Isomorphism",
    "PrincipalDecomposition",
    "DegenerateSpace",
    "NotPSD",
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
    "InconsistentSystem",
    "ZeroImage",
    "ZeroNorm",
    "__version__",
]
