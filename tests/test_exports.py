"""Every name a pipesim module exports exists."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_no_dataclasses():
    """``dataclasses`` pulls in ``inspect`` and ``ast``: milliseconds on every
    command.  Without ``site`` the result does not depend on what the
    environment installs."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import pipesim.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_cli_import_loads_no_fractions_or_pathlib():
    """``fractions`` (with ``decimal``) and ``pathlib`` (with ``urllib.parse``
    and ``ipaddress``) cost milliseconds on every command; only a caller that
    asks for an exact ``average`` or ``mal`` loads ``fractions``."""
    src = Path(__file__).resolve().parent.parent / "src"
    modules = ("fractions", "decimal", "pathlib")
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import pipesim.cli; "
        f"print(sorted(m for m in {modules!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
