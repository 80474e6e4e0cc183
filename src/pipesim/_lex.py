"""Lexer, token cursor and positioned error shared by the text front ends.

There are two token patterns, each one regular expression of named groups:
:data:`PIPE_TOKEN` for the pipeline language, which definition files
(:mod:`fileformat`), ``--issue`` values and pipeline expressions
(:func:`dsl.parse`) share, and :mod:`policy`'s for stage functions.  A ``ws``
or ``comment`` match is skipped, an ``other`` match is an unexpected
character, and every other group name becomes a token kind.  Positions are
zero-based offsets into the text.

A :class:`Token` is a plain 3-tuple with named read access; :func:`tokenize`
builds each one with ``tuple.__new__``, making no Python-level call per token.
"""

from __future__ import annotations

import re
import sys
from operator import itemgetter
from typing import Callable

from .errors import PipelineError


class PositionedError(PipelineError):
    """An error at ``position``, a zero-based offset into the source text."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position

    def __str__(self) -> str:
        base = super().__str__()
        if self.position is None:
            return base
        return f"col {self.position + 1}: {base}"


class Token(tuple):
    """``(kind, text, position)``, unpacked or read by name."""

    __slots__ = ()
    kind = property(itemgetter(0))
    text = property(itemgetter(1))
    position = property(itemgetter(2))

    def __new__(cls, kind: str, text: str, position: int):
        return tuple.__new__(cls, (kind, text, position))


# The pipeline language.  A comment is tried after a string, so a '#' inside
# quotes stays in the string.
PIPE_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<comment>\#[^\n]*)
  | (?P<shift>>>)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<star>\*)
  | (?P<plus>\+)
  | (?P<punct>[{}=;:()])
  | (?P<other>.)
    """,
    re.VERBOSE,
)


def tokenize(
    pattern: re.Pattern, text: str, error: Callable[[str, int], Exception]
) -> list[Token]:
    """Tokens of ``text``, closed by an ``end`` token at ``len(text)``.

    The first ``other`` match raises ``error`` with an "unexpected character"
    message and its offset.
    """
    tokens = []
    new = tuple.__new__
    for match in pattern.finditer(text):
        kind = match.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "other":
            raise error(f"unexpected character {match[0]!r}", match.start())
        tokens.append(new(Token, (kind, match[0], match.start())))
    tokens.append(Token("end", "", len(text)))
    return tokens


def read_int(token: Token, error: Callable[[str, int], Exception]) -> int:
    """The value of an ``int`` token; more digits than ``int()`` reads raise
    ``error(message, position)``, a message that names the limit."""
    try:
        return int(token.text)
    except ValueError:
        message = (f"integer of {len(token.text)} digits is longer than the limit of "
                   f"{sys.get_int_max_str_digits()} digits")
        raise error(message, token.position) from None


class Cursor:
    """Reads a token list front to back; grammar errors go through ``error``.

    ``end_word`` names the ``end`` token in "expected X, got Y" messages.
    """

    def __init__(
        self,
        tokens: list[Token],
        error: Callable[[str, int], Exception],
        end_word: str = "end of input",
    ):
        self.tokens = tokens
        self.index = 0
        self.error = error
        self.end_word = end_word

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def at(self, kind: str, text: str | None = None) -> bool:
        token = self.tokens[self.index]
        return token.kind == kind and (text is None or token.text == text)

    def got(self, token: Token) -> str:
        return self.end_word if token.kind == "end" else repr(token.text)

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        token = self.peek()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = what or (text if text is not None else kind)
            raise self.error(f"expected {wanted}, got {self.got(token)}", token.position)
        return self.advance()

    def finish(self) -> None:
        """Fail unless every token before ``end`` has been read."""
        token = self.peek()
        if token.kind != "end":
            raise self.error(f"unexpected token {token.text!r}", token.position)
