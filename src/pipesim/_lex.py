"""Lexer, token cursor and positioned error shared by the text front ends.

Pipeline expressions (:mod:`dsl`), stage functions (:mod:`policy`) and
definition files (:mod:`fileformat`) each describe their tokens as one
regular expression of named groups.  A ``ws`` or ``comment`` match is
skipped, an ``other`` match is an unexpected character, and every other group
name becomes a token kind.  Positions are zero-based offsets into the text.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

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


class Token(NamedTuple):
    kind: str
    text: str
    position: int


def unexpected_character(char: str) -> str:
    return f"unexpected character {char!r}"


def tokenize(
    pattern: re.Pattern,
    text: str,
    error: Callable[[str, int], Exception],
    unexpected: Callable[[str], str] = unexpected_character,
) -> list[Token]:
    """Tokens of ``text``, closed by an ``end`` token at ``len(text)``.

    The first ``other`` match raises ``error(unexpected(char), offset)``.
    """
    tokens = []
    for match in pattern.finditer(text):
        kind = match.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "other":
            raise error(unexpected(match.group()), match.start())
        tokens.append(Token(kind, match.group(), match.start()))
    tokens.append(Token("end", "", len(text)))
    return tokens


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
