"""Relative equilibria of one strong and N weak point vortices.

Numerical search and stability classification on the circle, exact
algebraic certification of critical-point counts through polynomial
systems, and continuation of configurations to positive coupling.
"""

import importlib

__version__ = "0.1.0"

# Every public name and the module it lives in, imported on first use
# (PEP 562): `import vortexre` loads no layer, so a process pays for numpy
# or the exact stack only when it uses a name from that side.
_LAZY = {
    "CollisionError": "errors",
    "ConvergenceError": "errors",
    "NotACriticalPointError": "errors",
    "GroebnerBasis": "groebner",
    "buchberger": "groebner",
    "elimination_ideal": "groebner",
    "HalfAngleSystem": "halfangle",
    "back_transform": "halfangle",
    "build_equal_weight_system": "halfangle",
    "build_symmetry_case_system": "halfangle",
    "InfiniteVarietyError": "hermite",
    "RootCount": "hermite",
    "count_real_roots": "hermite",
    "hermite_matrix": "hermite",
    "quotient_basis": "hermite",
    "signature_and_rank": "hermite",
    "MonomialOrder": "polynomials",
    "MultiPoly": "polynomials",
    "PolynomialRing": "polynomials",
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
    "CriticalPointSet": "search",
    "find_all_critical_points": "search",
    "group_into_families": "search",
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


__all__ = sorted([*_LAZY, "backend_info"])
