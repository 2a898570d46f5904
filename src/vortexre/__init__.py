"""Relative equilibria of one strong and N weak point vortices.

Numerical search and stability classification on the circle, exact
algebraic certification of critical-point counts through polynomial
systems, and continuation of configurations to positive coupling.
"""

import importlib

from vortexre.errors import CollisionError, ConvergenceError, NotACriticalPointError
from vortexre.groebner import GroebnerBasis, buchberger, elimination_ideal
from vortexre.halfangle import (
    HalfAngleSystem,
    back_transform,
    build_equal_weight_system,
    build_symmetry_case_system,
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

__version__ = "0.1.0"

# The numeric side loads numpy, so its names are imported on first use
# (PEP 562): `certify` and `build-system` then start without it.
_LAZY = {
    "ContinuationTrace": "dynamics",
    "HelioConfig": "dynamics",
    "continue_family": "dynamics",
    "continue_polygon": "dynamics",
    "full_system_stability": "dynamics",
    "newton_solve": "dynamics",
    "polygon_family": "dynamics",
    "re_residual": "dynamics",
    "vortex_field": "dynamics",
    "CirculationWeights": "potential",
    "StabilityReport": "potential",
    "classify": "potential",
    "potential_gradient": "potential",
    "potential_hessian": "potential",
    "potential_value": "potential",
    "weighted_hessian": "potential",
    "CriticalPointSet": "search",
    "find_all_critical_points": "search",
    "group_into_families": "search",
    "symmetry_check": "search",
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


def backend_info():
    """Names of the exact-arithmetic implementations (there is one of each)."""
    return {"kernels": "pure", "rationals": "fractions"}


__all__ = sorted([
    "CollisionError",
    "ConvergenceError",
    "GroebnerBasis",
    "HalfAngleSystem",
    "InfiniteVarietyError",
    "MonomialOrder",
    "MultiPoly",
    "NotACriticalPointError",
    "PolynomialRing",
    "RootCount",
    "back_transform",
    "backend_info",
    "buchberger",
    "build_equal_weight_system",
    "build_symmetry_case_system",
    "count_real_roots",
    "elimination_ideal",
    "hermite_matrix",
    "quotient_basis",
    "signature_and_rank",
    *_LAZY,
])
