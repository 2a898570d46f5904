"""The public names of the vortexre package."""

import importlib

import pytest

import vortexre


# the public names, frozen: moving a name's import must not drop it
EXPORTED = {
    "CirculationWeights", "CollisionError", "ContinuationTrace", "ConvergenceError",
    "CriticalPointSet", "GroebnerBasis", "HalfAngleSystem", "HelioConfig",
    "InfiniteVarietyError", "MonomialOrder", "MultiPoly", "NotACriticalPointError",
    "PolynomialRing", "RootCount", "StabilityReport", "back_transform",
    "backend_info", "buchberger", "build_equal_weight_system",
    "build_symmetry_case_system", "classify", "continue_family", "continue_polygon",
    "count_real_roots", "elimination_ideal", "find_all_critical_points",
    "full_system_stability", "group_into_families", "hermite_matrix",
    "newton_solve", "polygon_family", "potential_gradient", "potential_hessian",
    "potential_value", "quotient_basis", "re_residual", "signature_and_rank",
    "vortex_field",
}


def test_every_exported_name_resolves():
    assert len(EXPORTED) == 38
    assert sorted(vortexre.__all__) == sorted(EXPORTED)
    for name in vortexre.__all__:
        assert getattr(vortexre, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from vortexre import *", namespace)
    assert set(vortexre.__all__) <= set(namespace)
    for name in vortexre.__all__:
        assert namespace[name] is getattr(vortexre, name), name


def test_lazy_names_are_their_home_module_objects():
    assert set(vortexre._LAZY) == set(vortexre.__all__) - {"backend_info"}
    for name, home in vortexre._LAZY.items():
        module = importlib.import_module(f"vortexre.{home}")
        assert getattr(vortexre, name) is getattr(module, name), name
        assert name in dir(vortexre)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vortexre.no_such_name
    assert not hasattr(vortexre, "no_such_name")
