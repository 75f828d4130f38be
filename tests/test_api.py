"""The public API: every exported name resolves, once, to the object its module defines."""

import importlib
import pkgutil

import pytest

import polarflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(polarflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"polarflow.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_all_is_unique_and_resolves():
    names = polarflow.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(polarflow, n)] == []


def test_dir_lists_every_exported_name():
    assert set(polarflow.__all__) <= set(dir(polarflow))


@pytest.mark.parametrize("name", polarflow.__all__)
def test_exported_name_is_its_modules_object(name):
    module = importlib.import_module(f"polarflow.{polarflow._MODULE_OF[name]}")
    value = getattr(polarflow, name)
    assert value is getattr(module, name) and value.__module__ == module.__name__


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        polarflow.no_such_name  # noqa: B018


def test_star_import_binds_every_name():
    namespace = {}
    exec("from polarflow import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(polarflow.__all__)
    assert len(polarflow.__all__) == 49
