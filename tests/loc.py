"""Count the lines of each module of ``src/pipesim``: all of them, and code.

Run from anywhere, with the standard library only::

    python tests/loc.py

It prints ``<module>  <lines>  <code lines>`` for each module, then the
totals.  Code lines leave out blank lines, lines that hold only a comment and
the lines of docstrings, so a change that only deletes comments or
docstrings removes no code lines.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pipesim"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token of code outside a docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> int:
    total = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        counts = (len(source.splitlines()), code_lines(source))
        total, code = total + counts[0], code + counts[1]
        print(f"{path.name:<16}{counts[0]:>6}{counts[1]:>6}")
    print(f"{'total':<16}{total:>6}{code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
