"""Configuration dimensions of a pipeline stage.

A stage's behavior is assembled from orthogonal specs: the function it
computes, its timing model, the channel kind on its ports, its execution
style, plus pipeline-level join and issue policies.  All specs
are plain immutable data so a complete run configuration can be serialized,
compared, and swapped one dimension at a time.
"""

from __future__ import annotations

import enum
import re
from typing import Callable, Mapping, Sequence, Union

from ._lex import Cursor, PositionedError, tokenize
from ._value import Value
from .dsl import Route, StageId
from .errors import PipelineError

__all__ = [
    "FunctionParseError",
    "FunctionEvalError",
    "ConfigError",
    "FunctionSpec",
    "parse_function",
    "TimingSpec",
    "ChannelKind",
    "ExecKind",
    "JoinSpec",
    "StageConfig",
    "IssueSpec",
    "CheckedConfig",
    "validate_config",
]


class FunctionParseError(PositionedError):
    """A function expression could not be parsed; ``position`` is its offset."""


class FunctionEvalError(PipelineError):
    """Raised when evaluating a stage function fails (division by zero)."""


class ConfigError(PipelineError):
    """A run configuration is incomplete or inconsistent."""


# ---------------------------------------------------------------------------
# Function expressions
#
# Tiny arithmetic language over named real variables:
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := NUMBER | VAR | '-' factor | 'sqr' '(' expr ')' | '(' expr ')'

_FN_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[()+\-*/])
  | (?P<other>.)
    """,
    re.VERBOSE,
)


# The parser compiles while it parses: each grammar rule returns a closure
# over its operands' closures that evaluates a tuple of values, one per
# variable in declaration order.  The closures apply the operations in the
# tree's order (left operand first), so results are bit-identical to a tree
# walk.


def _constant(value: float):
    return lambda env: value


def _variable(index: int):
    return lambda env: env[index]


def _negate(operand):
    return lambda env: -operand(env)


def _square(operand):
    def square(env):
        value = operand(env)
        return value * value

    return square


def _binary(op: str, left, right):
    if op == "+":
        return lambda env: left(env) + right(env)
    if op == "-":
        return lambda env: left(env) - right(env)
    if op == "*":
        return lambda env: left(env) * right(env)

    def divide(env):
        numerator = left(env)
        denominator = right(env)
        if denominator == 0:
            raise FunctionEvalError("division by zero")
        return numerator / denominator

    return divide


class _FnParser(Cursor):
    def __init__(self, source: str, variables: Sequence[str]):
        super().__init__(tokenize(_FN_TOKEN, source, FunctionParseError), FunctionParseError)
        self.slots = {name: i for i, name in enumerate(variables)}

    def parse(self):
        node = self.parse_expr()
        self.finish()
        return node

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            node = _binary(self.advance().text, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            node = _binary(self.advance().text, node, self.parse_factor())
        return node

    def parse_factor(self):
        token = self.advance()
        kind, text, position = token
        if kind == "num":
            return _constant(float(text))
        if kind == "ident":
            if text == "sqr":
                self.expect("op", "(", what="'('")
                inner = self.parse_expr()
                self.expect("op", ")", what="')'")
                return _square(inner)
            if text in self.slots:
                return _variable(self.slots[text])
            raise FunctionParseError(f"unknown variable {text!r}", position)
        if kind == "op" and text == "-":
            return _negate(self.parse_factor())
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect("op", ")", what="')'")
            return inner
        raise FunctionParseError(f"expected a value, got {self.got(token)}", position)


class FunctionSpec(Value):
    """A parsed arithmetic expression over named real variables.

    Calling the spec with one value per variable, in ``variables`` order,
    evaluates it; ``compiled`` does the same for a tuple of those values.
    Specs compare by source and variables.
    """

    source: str
    variables: tuple[str, ...]
    compiled: Callable[[tuple[float, ...]], float]
    _compared = ("source", "variables")

    def __call__(self, *values: float) -> float:
        return self.compiled(values)

    def __str__(self) -> str:
        return self.source


def parse_function(source: str, variables: Sequence[str] = ("orig", "data")) -> FunctionSpec:
    """Parse a function expression; the default variable set is a stage's."""
    compiled = _FnParser(source, variables).parse()
    return FunctionSpec(source=source, variables=tuple(variables), compiled=compiled)


# A stage function is called as ``function(orig, data)``: a parsed
# FunctionSpec over the default variables, or any callable.
StageFunction = Union[FunctionSpec, Callable[[float, float], float]]


# ---------------------------------------------------------------------------
# Timing


class TimingSpec(Value):
    """Timed(delay in ns) or untimed (delta ordering only, zero ns)."""

    delay: int | None  # None means untimed

    def __init__(self, delay: int | None):
        if delay is not None:
            # A float or bool delay would leak into every busy time and report.
            if not isinstance(delay, int) or isinstance(delay, bool):
                raise ConfigError(f"stage delay must be an integer, got {delay!r}")
            if delay < 0:
                raise ConfigError(f"stage delay must be >= 0, got {delay}")
        super().__init__(delay)

    @staticmethod
    def timed(delay: int) -> "TimingSpec":
        return TimingSpec(delay=delay)

    @property
    def is_untimed(self) -> bool:
        return self.delay is None

    def __str__(self) -> str:
        return "untimed" if self.is_untimed else f"timed({self.delay})"


UNTIMED = TimingSpec(delay=None)


# ---------------------------------------------------------------------------
# Communication / execution


class ChannelKind(enum.Enum):
    """Single-slot blocking FIFO, or overwrite-on-write signal."""

    BLOCKING = "blocking"
    SIGNAL = "signal"


class ExecKind(enum.Enum):
    """Suspendable perpetual loop, or a per-arrival callback that never suspends."""

    LOOP = "loop"
    REACTIVE = "reactive"


# ---------------------------------------------------------------------------
# Join


_JOIN_VARIABLES = ("orig", "dataL", "dataR")


class JoinSpec(Value):
    """How branch copies of a forked transaction merge back into one.

    Branch order is the stage declaration order: the copy that went through
    the lower-ordinal stage is the left operand.  N-way forks merge by
    folding left to right.
    """

    kind: str  # left | right | sum | custom
    expr: FunctionSpec | None

    def __init__(self, kind: str, expr: FunctionSpec | None = None):
        if kind not in ("left", "right", "sum", "custom"):
            raise ConfigError(f"unknown join {kind!r}; use left, right, sum or custom")
        if kind == "custom" and expr is None:
            raise ConfigError("a custom join needs an expression")
        super().__init__(kind, expr)

    @staticmethod
    def left() -> "JoinSpec":
        return JoinSpec(kind="left")

    @staticmethod
    def right() -> "JoinSpec":
        return JoinSpec(kind="right")

    @staticmethod
    def sum() -> "JoinSpec":
        return JoinSpec(kind="sum")

    @staticmethod
    def custom(expression: str | FunctionSpec) -> "JoinSpec":
        if isinstance(expression, str):
            expression = parse_function(expression, _JOIN_VARIABLES)
        return JoinSpec(kind="custom", expr=expression)

    def merge(self, orig: float, data_left: float, data_right: float) -> float:
        if self.kind == "left":
            return data_left
        if self.kind == "right":
            return data_right
        if self.kind == "sum":
            return data_left + data_right
        return self.expr(orig, data_left, data_right)

    def __str__(self) -> str:
        return self.expr.source if self.kind == "custom" else self.kind


# ---------------------------------------------------------------------------
# Stage configuration


class StageConfig(Value):
    """Complete behavioral configuration of one stage."""

    stage: StageId
    function: StageFunction
    timing: TimingSpec = TimingSpec(delay=1)
    channels: ChannelKind = ChannelKind.BLOCKING
    exec: ExecKind = ExecKind.LOOP


# ---------------------------------------------------------------------------
# Issue


class IssueSpec(Value):
    """When new transactions enter the pipeline.

    greedy   issue as soon as the collision vector permits
    fixed    issue every ``interval`` ns
    eager    issue whenever the entry channel accepts a transaction
    """

    kind: str
    interval: int | None

    def __init__(self, kind: str, interval: int | None = None):
        if kind not in ("greedy", "fixed", "eager"):
            raise ConfigError(f"unknown issue policy {kind!r}; use greedy, eager or fixed:<k>")
        if kind == "fixed":
            # A float or bool interval would leak into every issue time and report.
            if interval is not None and (
                not isinstance(interval, int) or isinstance(interval, bool)
            ):
                raise ConfigError(f"fixed issue interval must be an integer, got {interval!r}")
            if interval is None or interval < 1:
                raise ConfigError(f"fixed issue interval must be >= 1, got {interval}")
        super().__init__(kind, interval)

    @staticmethod
    def greedy() -> "IssueSpec":
        return IssueSpec(kind="greedy")

    @staticmethod
    def fixed(interval: int) -> "IssueSpec":
        return IssueSpec(kind="fixed", interval=interval)

    @staticmethod
    def eager() -> "IssueSpec":
        return IssueSpec(kind="eager")

    def __str__(self) -> str:
        return f"fixed:{self.interval}" if self.kind == "fixed" else self.kind


# ---------------------------------------------------------------------------
# Whole-run validation


class CheckedConfig(Value):
    """A validated run configuration: every route stage covered, joins present."""

    route: Route
    configs: Mapping[StageId, StageConfig]
    join: JoinSpec | None
    warnings: tuple[str, ...]

    def config_of(self, stage: StageId) -> StageConfig:
        return self.configs[stage]


def validate_config(
    route: Route,
    configs: Union[Mapping[StageId, StageConfig], Sequence[StageConfig]],
    join: JoinSpec | None = None,
) -> CheckedConfig:
    """Check a set of stage configs against a route.

    Raises :class:`ConfigError` for a missing or duplicate stage config, a
    reactive stage with blocking channels or a positive delay, or a fork
    without a join spec.  Returns the checked configuration together with
    non-fatal warnings.
    """
    if not isinstance(configs, Mapping):
        table: dict[StageId, StageConfig] = {}
        for cfg in configs:
            if cfg.stage in table:
                raise ConfigError(f"duplicate configuration for stage {cfg.stage.name!r}")
            table[cfg.stage] = cfg
    else:
        table = dict(configs)

    missing = [s.name for s in route.stages if s not in table]
    if missing:
        raise ConfigError(f"missing configuration for stage(s): {', '.join(missing)}")

    for stage in route.stages:
        cfg = table[stage]
        if cfg.stage != stage:
            raise ConfigError(
                f"configuration keyed by {stage.name!r} describes {cfg.stage.name!r}"
            )
        if cfg.exec is ExecKind.REACTIVE:
            if cfg.channels is not ChannelKind.SIGNAL:
                raise ConfigError(
                    f"stage {stage.name!r}: reactive execution requires signal channels"
                )
            if not cfg.timing.is_untimed and cfg.timing.delay > 0:
                raise ConfigError(
                    f"stage {stage.name!r}: reactive execution cannot delay "
                    f"(got {cfg.timing})"
                )

    warnings: list[str] = []
    fork_steps = route.fork_steps()
    if fork_steps and join is None:
        first = fork_steps[0]
        if first + 1 < len(route.steps):
            successors = ", ".join(sorted(s.name for s in route.steps[first + 1]))
            where = f"the router feeding {successors}"
        else:
            where = "the pipeline exit"
        raise ConfigError(
            f"fork at step {first} merges at {where}: a join specification is required"
        )
    if fork_steps and fork_steps[-1] == len(route.steps) - 1:
        warnings.append(
            "final step is a fork; branch outputs merge at the pipeline exit"
        )

    return CheckedConfig(
        route=route,
        configs={s: table[s] for s in route.stages},
        join=join,
        warnings=tuple(warnings),
    )
