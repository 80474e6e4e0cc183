"""Every name a pipesim module exports exists."""

import importlib
import pkgutil

import pytest

import pipesim

MODULES = ["pipesim"] + [
    f"pipesim.{info.name}" for info in pkgutil.iter_modules(pipesim.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []
