"""List the statements of ``src/pipesim`` that the test suite never executes,
and those that no CLI invocation of the byte pin executes.

Run from anywhere, with pytest and hypothesis installed::

    python tests/unreached.py

It runs the suite in this process under ``sys.settrace`` and
``threading.settrace``, records each line executed in ``src/pipesim``, and
prints ``file:line: source`` for each statement that never ran, then their
count.  Docstrings, ``def``, ``class``, imports and ``nonlocal`` are not
counted.  Lines that run only in child processes, such as the CLI tests'
``python -m pipesim`` runs, are not traced and are listed as unreached.
``test_gen0_collections_of_the_feedback_route`` is deselected, because the
tracer's own allocations trigger collections.

Then, in the same process, it imports ``pipesim`` afresh and traces the
invocations of ``tests/cli_digests.py``, whose output bytes
``tests/cli_digests.txt`` pins, and prints a second list in the same form:
each statement that none of them executes.  The exit code is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pipesim"
DESELECTED = "tests/test_engine.py::test_gen0_collections_of_the_feedback_route"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Nonlocal)
_DOCUMENTED = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _statements(tree: ast.Module):
    """Each counted statement with the lines it owns: not those of its nested bodies."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, _DOCUMENTED) and _is_docstring(node.body[0])}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) or id(node) in docstrings:
            continue
        lines = set(range(node.lineno, node.end_lineno + 1))
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, field, ()):
                lines -= set(range(child.lineno, child.end_lineno + 1))
        yield node.lineno, lines


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _traced(run):
    """``run()``'s result, and the lines of ``src/pipesim`` it executed, by file."""
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        return run(), executed
    finally:
        sys.settrace(None)
        threading.settrace(None)


def _report(executed: dict[str, set[int]], what: str) -> None:
    """Print each counted statement with no executed line, then their count."""
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = executed.get(str(path), set())
        for lineno, owned in sorted(_statements(ast.parse(source))):
            if not owned & ran:
                unreached.append(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print("\n".join(unreached))
    print(f"{len(unreached)} statements {what}")


def _digest_lines() -> list[str]:
    """The digest corpus's lines, over modules imported afresh, so that the
    statements that run at import count as executed."""
    for name in [name for name in sys.modules
                 if name in ("pipesim", "cli_digests") or name.startswith("pipesim.")]:
        del sys.modules[name]
    import cli_digests

    return cli_digests.digest_lines()


def main() -> int:
    code, executed = _traced(lambda: pytest.main([
        str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", "--deselect", DESELECTED]))
    _report(executed, "never executed")
    _, executed = _traced(_digest_lines)
    _report(executed, "that no invocation of tests/cli_digests.py executes")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
