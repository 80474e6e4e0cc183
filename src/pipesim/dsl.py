"""Pipeline expression DSL.

Stages are declared once and then combined into pipeline expressions with
three operators:

    s1 >> s2    the output of s1 feeds s2 (sequencing)
    s1 * 3      s1 is reused three consecutive times (feedback, not replication)
    s2 + s3     s2 and s3 operate on the transaction in the same cycle (fork)

The same grammar is accepted textually by :func:`parse`, so ``"S1 >> S3*2"``
and ``s1 >> s3 * 2`` build identical ASTs.  Flattening an expression yields
the *route*: the ordered list of steps (sets of stages) every transaction of
that type follows.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from types import MappingProxyType
from typing import Union

from ._lex import PIPE_TOKEN, Cursor, PositionedError, Token, read_int, tokenize
from ._value import Value
from .errors import PipelineError


class DeclarationError(PipelineError):
    """A stage declaration is invalid (empty set, duplicate name, bad identifier)."""


class ExpressionError(PipelineError):
    """A pipeline expression is built in a way the grammar does not allow."""


class ParseError(PositionedError):
    """Textual pipeline expression could not be parsed.

    ``position`` is the zero-based character offset into the source text.
    """


# ---------------------------------------------------------------------------
# Stage declarations


class _Operand:
    """The builder operators, of stages and expressions alike.

    Precedence follows the host language, which matches the grammar: * and +
    bind tighter than >>.
    """

    def __rshift__(self, other: ExprLike) -> "PipeExpr":
        return seq(self, other)

    def __mul__(self, count) -> "PipeExpr":
        return repeat(self, count)

    def __add__(self, other) -> "PipeExpr":
        return fork([*_fork_members(self), *_fork_members(other)])


class StageId(_Operand, Value):
    """Identity of a declared pipeline stage.

    ``ordinal`` is the zero-based declaration index; declaration order is the
    canonical stage order everywhere in the toolkit.
    """

    name: str
    ordinal: int

    def __repr__(self) -> str:
        return f"StageId({self.name!r}, {self.ordinal})"


class StageSet:
    """An ordered declaration set of stages, indexable by name or position."""

    def __init__(self, stages: Iterable[StageId]):
        self._stages = tuple(stages)
        self._by_name = {s.name: s for s in self._stages}

    def __iter__(self) -> Iterator[StageId]:
        return iter(self._stages)

    def __len__(self) -> int:
        return len(self._stages)

    def __contains__(self, stage) -> bool:
        if isinstance(stage, StageId):
            return self._by_name.get(stage.name) == stage
        return stage in self._by_name

    def __getitem__(self, key: Union[str, int]) -> StageId:
        try:
            return self._by_name[key] if isinstance(key, str) else self._stages[key]
        except KeyError:
            raise KeyError(f"unknown stage {key!r}") from None
        except IndexError:
            raise IndexError(f"no stage at position {key}: {len(self)} declared") from None

    def get(self, name: str) -> StageId | None:
        return self._by_name.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._stages)

    def __repr__(self) -> str:
        return f"StageSet({list(self.names())})"


def declare_stages(names: Iterable[str]) -> StageSet:
    """Declare pipeline stages; ordinals are assigned in declaration order.

    Raises :class:`DeclarationError` on a string or a non-iterable in place
    of the list, an empty list, a malformed identifier, or a duplicate name.
    """
    if isinstance(names, str):
        raise DeclarationError(f"names must be a sequence of stage names, not the string {names!r}")
    if not isinstance(names, Iterable):
        raise DeclarationError(f"names must be a sequence of stage names, not {names!r}")
    names = list(names)
    if not names:
        raise DeclarationError("at least one stage must be declared")
    seen: set[str] = set()
    stages = []
    for ordinal, name in enumerate(names):
        if not isinstance(name, str) or not (name.isascii() and name.isidentifier()):
            raise DeclarationError(f"invalid stage name {name!r}")
        if name in seen:
            raise DeclarationError(f"duplicate stage name {name!r}")
        seen.add(name)
        stages.append(StageId(name, ordinal))
    return StageSet(stages)


# ---------------------------------------------------------------------------
# Expression AST
#
# Sequencing is kept n-ary and flat: the host language folds `a >> b >> c`
# left to right while the textual grammar recurses to the right, and
# normalizing at construction makes both front ends produce the same AST.


class PipeExpr(_Operand):
    """Base class of pipeline expression nodes."""


class StageRef(PipeExpr, Value):
    stage: StageId


class Seq(PipeExpr, Value):
    items: tuple[PipeExpr, ...]

    def __init__(self, items: tuple[PipeExpr, ...]):
        if len(items) < 2:
            raise ExpressionError("a sequence needs at least two items")
        if any(isinstance(item, Seq) for item in items):
            raise ExpressionError("sequences must be flattened at construction")
        super().__init__(items)


# The most steps a route may have.  Analysis grows about as the square of the
# route length: a ``pipesim analyze`` of ``S1 >> S2*4095`` takes about 0.07 s,
# and a one-input ``run`` of it about 0.1 s, start-up included (2-vCPU VM,
# CPython 3.11).
MAX_ROUTE_STEPS = 4096
_TOO_LONG = f"route is more than {MAX_ROUTE_STEPS} steps long"


def _steps(term: PipeExpr) -> int:
    """The number of route steps a term of a sequence stands for."""
    return term.count if isinstance(term, Repeat) else 1


class Repeat(PipeExpr, Value):
    stage: StageId
    count: int

    def __init__(self, stage: StageId, count: int):
        if not isinstance(stage, StageId):
            raise ExpressionError(
                "repetition with * applies to a single stage name, not to a composite expression"
            )
        if not isinstance(count, int) or isinstance(count, bool):
            raise ExpressionError("repeat count must be an integer")
        if count < 1:
            raise ExpressionError(f"repeat count must be >= 1, got {count}")
        if count > MAX_ROUTE_STEPS:
            raise ExpressionError(f"repeat count must be <= {MAX_ROUTE_STEPS}, got {count}")
        super().__init__(stage, count)


class Fork(PipeExpr, Value):
    stages: tuple[StageId, ...]

    def __init__(self, stages: tuple[StageId, ...]):
        if not all(isinstance(stage, StageId) for stage in stages):
            raise ExpressionError(
                "fork with + combines stage names only, not composite expressions"
            )
        if len(stages) < 2:
            raise ExpressionError("a fork needs at least two stages")
        seen: set[StageId] = set()
        for stage in stages:
            if stage in seen:
                raise ExpressionError(f"duplicate stage {stage.name!r} in fork")
            seen.add(stage)
        super().__init__(stages)


ExprLike = Union[StageId, PipeExpr]


def _coerce(value: ExprLike) -> PipeExpr:
    if isinstance(value, StageId):
        return StageRef(value)
    if isinstance(value, PipeExpr):
        return value
    raise ExpressionError(
        f"expected a stage or pipeline expression, got {type(value).__name__}"
    )


def _seq_items(value: ExprLike) -> tuple[PipeExpr, ...]:
    node = _coerce(value)
    return node.items if isinstance(node, Seq) else (node,)


def _fork_members(value) -> tuple:
    """The stages ``value`` adds to a fork; anything else, for :class:`Fork` to reject."""
    if isinstance(value, Fork):
        return value.stages
    if isinstance(value, StageRef):
        return (value.stage,)
    return (value,)


# ---------------------------------------------------------------------------
# Builder API


def seq(a: ExprLike, b: ExprLike) -> PipeExpr:
    """Sequence two expressions: the output of ``a`` feeds ``b``."""
    return Seq(_seq_items(a) + _seq_items(b))


def repeat(stage: StageId | StageRef, count: int) -> PipeExpr:
    """Reuse ``stage`` for ``count`` consecutive steps (feedback)."""
    node = Repeat(stage.stage if isinstance(stage, StageRef) else stage, count)
    return StageRef(node.stage) if count == 1 else node


def fork(stages: Iterable[StageId]) -> PipeExpr:
    """Use two or more distinct stages in the same cycle."""
    if not isinstance(stages, Iterable):
        raise ExpressionError(f"fork() takes an iterable of stages, got {type(stages).__name__}")
    return Fork(tuple(stages))


# ---------------------------------------------------------------------------
# Routes


def stages_repr(stages: frozenset[StageId]) -> str:
    """``repr`` of a set of stages, in ordinal order: equal sets, such as a
    route's step and its copy, can iterate in different orders."""
    return "frozenset({" + ", ".join(map(repr, sorted(stages, key=lambda s: s.ordinal))) + "})"


class Route(Value):
    """The ordered steps a transaction visits; each step is a set of stages.

    ``marks`` and ``stages`` are derived from the steps on first read; copies
    and pickles carry the steps alone."""

    steps: tuple[frozenset[StageId], ...]

    def __init__(self, steps: tuple[frozenset[StageId], ...]):
        if not steps:
            raise ExpressionError("a route must have at least one step")
        if any(not step for step in steps):
            raise ExpressionError("route steps must be non-empty")
        super().__init__(steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return (f"Route(steps=({', '.join(map(stages_repr, self.steps))}"
                f"{',' if len(self.steps) == 1 else ''}))")

    @cached_property
    def marks(self) -> Mapping[StageId, tuple[int, ...]]:
        """Each stage of the route, in ordinal order, mapped to the sorted
        steps at which it is busy: its reservation-table row.  Read-only,
        and built on first read in one pass over the steps."""
        rows: dict[StageId, list[int]] = {}
        for i, step in enumerate(self.steps):
            for stage in step:
                rows.setdefault(stage, []).append(i)
        return MappingProxyType({s: tuple(rows[s]) for s in sorted(rows, key=lambda s: s.ordinal)})

    @cached_property
    def stages(self) -> tuple[StageId, ...]:
        """Distinct stages used by the route, in ordinal order."""
        return tuple(self.marks)

    def fork_steps(self) -> tuple[int, ...]:
        return tuple(i for i, step in enumerate(self.steps) if len(step) > 1)

    def describe(self) -> str:
        parts = []
        for step in self.steps:
            names = sorted(s.name for s in step)
            parts.append(names[0] if len(names) == 1 else "{" + "+".join(names) + "}")
        return " ".join(parts)


def flatten(expr: ExprLike) -> Route:
    """Flatten an expression into its route, desugaring repetitions first.

    A route of more than :data:`MAX_ROUTE_STEPS` steps raises
    :class:`ExpressionError` before any step is built."""
    node = _coerce(expr)
    if sum(map(_steps, node.items if isinstance(node, Seq) else (node,))) > MAX_ROUTE_STEPS:
        raise ExpressionError(_TOO_LONG)
    steps: list[frozenset[StageId]] = []
    _emit_steps(node, steps)
    return Route(tuple(steps))


def _emit_steps(node: PipeExpr, steps: list[frozenset[StageId]]) -> None:
    if isinstance(node, StageRef):
        steps.append(frozenset((node.stage,)))
    elif isinstance(node, Repeat):
        steps.extend(frozenset((node.stage,)) for _ in range(node.count))
    elif isinstance(node, Fork):
        steps.append(frozenset(node.stages))
    elif isinstance(node, Seq):
        for item in node.items:
            _emit_steps(item, steps)
    else:  # a PipeExpr subclass from outside this module
        raise ExpressionError(f"unknown expression node {node!r}")


def pretty(expr: ExprLike) -> str:
    """Render an expression in the textual grammar.

    :func:`parse` of the text returns the same AST for every expression that the builders
    or :func:`parse` return, and an equal route for a hand-built ``Repeat(s, 1)``.
    """
    node = _coerce(expr)
    if isinstance(node, Seq):
        return " >> ".join(_pretty_term(item) for item in node.items)
    return _pretty_term(node)


def _pretty_term(node: PipeExpr) -> str:
    if isinstance(node, StageRef):
        return node.stage.name
    if isinstance(node, Repeat):
        return f"{node.stage.name}*{node.count}"
    if isinstance(node, Fork):
        return " + ".join(s.name for s in node.stages)
    raise ExpressionError(f"unknown expression node {node!r}")


# ---------------------------------------------------------------------------
# Textual front end
#
#   Pipe  ::= Term '>>' Pipe | Term
#   Term  ::= Stage | Stage '*' int | Stage '+' Stage (chained for n-way forks)
#   Stage ::= identifier
#
# Parentheses are deliberately rejected: grouping has no defined meaning in
# this grammar.

_KINDS = frozenset(("shift", "star", "plus", "int", "ident", "end"))


def _unexpected(char: str) -> str:
    if char in "()":
        return "parentheses are not supported in pipeline expressions"
    return f"unexpected character {char!r}"


class _Parser(Cursor):
    def __init__(self, tokens: list[Token], decls: StageSet):
        super().__init__(tokens, ParseError)
        self.decls = decls

    def parse_pipe(self) -> PipeExpr:
        terms = [self.parse_term()]
        steps = _steps(terms[0])
        while self.peek().kind == "shift":
            self.advance()
            start = self.peek().position
            terms.append(self.parse_term())
            steps += _steps(terms[-1])
            if steps > MAX_ROUTE_STEPS:  # at the term that passes the limit
                raise ParseError(_TOO_LONG, start)
        return terms[0] if len(terms) == 1 else Seq(tuple(terms))

    def parse_term(self) -> PipeExpr:
        stage = self.parse_stage()
        token = self.peek()
        if token.kind == "star":
            self.advance()
            count_token = self.expect("int", what="a repeat count")
            count = read_int(count_token, self.error)
            try:
                return repeat(stage, count)
            except ExpressionError as exc:
                raise ParseError(str(exc), count_token.position) from None
        if token.kind == "plus":
            members = [stage]
            while self.peek().kind == "plus":
                self.advance()
                members.append(self.parse_stage())
            try:
                return fork(members)
            except ExpressionError as exc:
                raise ParseError(str(exc), token.position) from None
        return StageRef(stage)

    def parse_stage(self) -> StageId:
        token = self.expect("ident", what="a stage name")
        stage = self.decls.get(token.text)
        if stage is None:
            raise ParseError(f"unknown stage {token.text!r}", token.position)
        return stage


def parse_tokens(tokens: list[Token], decls: StageSet) -> PipeExpr:
    """Parse :data:`.PIPE_TOKEN` tokens closed by ``end``, such as a definition file's.

    The first string or punctuation token is rejected as the character it
    starts with, before any grammar error.
    """
    for token in tokens:
        if token.kind not in _KINDS:
            raise ParseError(_unexpected(token.text[0]), token.position)
    parser = _Parser(tokens, decls)
    expr = parser.parse_pipe()
    parser.finish()
    return expr


def parse(text: str, decls: StageSet) -> PipeExpr:
    """Parse a textual pipeline expression against a declaration set.

    The text is read with a definition file's tokens, so ``#`` starts a
    comment, and the AST or error is the one that ``pipeline = text;`` gives.
    The AST is identical to the one the builder operators produce for the
    same expression.
    """
    return parse_tokens(tokenize(PIPE_TOKEN, text, ParseError), decls)
