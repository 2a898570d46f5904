"""Relative equilibria of one strong and N weak point vortices.

Numerical search and stability classification on the circle, exact
algebraic certification of critical-point counts through polynomial
systems, and continuation of configurations to positive coupling.
"""

from vortexre.dynamics import (
    ContinuationTrace,
    HelioConfig,
    PlanarConfig,
    continue_family,
    full_system_stability,
    newton_solve,
    polygon_family,
    re_residual,
    vortex_field,
)
from vortexre.errors import CollisionError, ConvergenceError, NotACriticalPointError
from vortexre.groebner import GroebnerBasis, Ideal, buchberger, elimination_ideal
from vortexre.halfangle import (
    HalfAngleSystem,
    back_transform,
    build_equal_weight_system,
    build_symmetry_case_system,
    half_angle_transform,
)
from vortexre.hermite import (
    InfiniteVarietyError,
    RootCount,
    count_real_roots,
    hermite_matrix,
    quotient_basis,
    signature_and_rank,
)
from vortexre.polynomials import MonomialOrder, MultiPoly, PolynomialRing
from vortexre.potential import (
    AngularConfig,
    CirculationWeights,
    StabilityReport,
    classify,
    potential_gradient,
    potential_hessian,
    potential_value,
    weighted_hessian,
)
from vortexre.rationals import Rational, rational
from vortexre.search import (
    CriticalPointSet,
    find_all_critical_points,
    group_into_families,
    symmetry_check,
)

__version__ = "0.1.0"


def backend_info():
    """Names of the exact-arithmetic implementations (there is one of each)."""
    return {"kernels": "pure", "rationals": "fractions"}


__all__ = [
    "AngularConfig",
    "CirculationWeights",
    "CollisionError",
    "ContinuationTrace",
    "ConvergenceError",
    "CriticalPointSet",
    "GroebnerBasis",
    "HalfAngleSystem",
    "HelioConfig",
    "Ideal",
    "InfiniteVarietyError",
    "MonomialOrder",
    "MultiPoly",
    "NotACriticalPointError",
    "PlanarConfig",
    "PolynomialRing",
    "Rational",
    "RootCount",
    "StabilityReport",
    "back_transform",
    "backend_info",
    "buchberger",
    "build_equal_weight_system",
    "build_symmetry_case_system",
    "classify",
    "continue_family",
    "count_real_roots",
    "elimination_ideal",
    "find_all_critical_points",
    "full_system_stability",
    "group_into_families",
    "half_angle_transform",
    "hermite_matrix",
    "newton_solve",
    "polygon_family",
    "potential_gradient",
    "potential_hessian",
    "potential_value",
    "quotient_basis",
    "rational",
    "re_residual",
    "signature_and_rank",
    "symmetry_check",
    "vortex_field",
    "weighted_hessian",
]
