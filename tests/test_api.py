"""The public API: every exported name resolves, and none is exported twice."""

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
