"""The public names of the vortexre package."""

import importlib

import pytest

import vortexre


def test_every_exported_name_resolves():
    for name in vortexre.__all__:
        assert getattr(vortexre, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from vortexre import *", namespace)
    assert set(vortexre.__all__) <= set(namespace)
    for name in vortexre.__all__:
        assert namespace[name] is getattr(vortexre, name), name


def test_lazy_names_are_their_home_module_objects():
    assert vortexre._LAZY
    assert set(vortexre._LAZY) <= set(vortexre.__all__)
    for name, home in vortexre._LAZY.items():
        module = importlib.import_module(f"vortexre.{home}")
        assert getattr(vortexre, name) is getattr(module, name), name
        assert name in dir(vortexre)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vortexre.no_such_name
    assert not hasattr(vortexre, "no_such_name")
