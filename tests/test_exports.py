"""Every name a pipesim module exports exists, and no module uses another's
private names."""

import ast
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


def private_names_from_other_modules(source: str) -> list[str]:
    """``module._name`` of a module bound by ``from . import module``, and
    ``_name`` in ``from .module import _name``, in one module's source."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names]
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                found += [f"{node.module}.{n}" for n in names if n.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_scan_finds_private_names_from_other_modules():
    source = "from . import analysis\nfrom .report import _row, canonical\nanalysis._walk(v)\n"
    assert private_names_from_other_modules(source) == ["report._row", "analysis._walk"]


def test_no_module_uses_another_modules_private_names():
    package = Path(pipesim.__file__).parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := private_names_from_other_modules(path.read_text(encoding="utf-8")))
    }
    assert found == {}


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
