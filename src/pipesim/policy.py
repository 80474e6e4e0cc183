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
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Union

from ._lex import Cursor, PositionedError, tokenize
from ._value import Value
from .dsl import Route, StageId
from .errors import PipelineError


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


# The parser translates while it parses: each grammar rule returns the
# Python expression text of its part, that text's precedence and its depth in
# operations.  Values are ``env[i]``, one per variable in declaration order,
# and constants are the parameters ``k0``, ``k1``, ...  The text applies the
# operations in the tree's order, left operand first, and carries only the
# parentheses Python needs to keep that tree, so results are bit-identical to a
# tree walk.  ``sqr(x)`` evaluates ``x`` once into a local, and every divisor
# passes through ``_divisor``.

# Limits that keep every accepted expression inside the recursion of this
# parser and of Python's compiler, which also nests parentheses at most 200
# deep; the text can need two parentheses for one level of nesting.
_MAX_NESTING = 64  # levels of parentheses, sqr(...) and unary minus
_MAX_DEPTH = 1000  # operations on the longest path from the whole to a value

# Python precedence of a piece of text, lowest first.
_SUM, _PRODUCT, _NEGATION, _ATOM = range(4)


def _divisor(value):
    """``value`` as the right operand of ``/``; zero raises."""
    if value == 0:
        raise FunctionEvalError("division by zero")
    return value


@lru_cache(maxsize=256)
def _factory(text: str, constants: int):
    # One compile per expression shape: functions that differ only in their
    # constants, like ``data + 2*orig`` and ``data + 5*orig``, share it.  The
    # file name shows the shape in tracebacks and gives each shape its own
    # row in a profile.
    params = ", ".join(f"k{i}" for i in range(constants))
    source = f"def factory({params}):\n    return lambda env: {text}\n"
    namespace = {"_divisor": _divisor}
    exec(compile(source, f"<function {text}>", "exec"), namespace)
    return namespace["factory"]


class _Code:
    """A parsed function: Python expression text over ``env``, and its constants.

    Calling it evaluates the function for one tuple of values.  The text
    compiles on the first call, or on the first :meth:`evaluator`, never
    while parsing.
    """

    __slots__ = ("text", "constants", "_evaluate")

    def __init__(self, text: str, constants: tuple[float, ...]):
        self.text = text
        self.constants = constants
        self._evaluate = None

    def evaluator(self) -> Callable[[tuple[float, ...]], float]:
        if self._evaluate is None:
            self._evaluate = _factory(self.text, len(self.constants))(*self.constants)
        return self._evaluate

    def __call__(self, env: tuple[float, ...]) -> float:
        return (self._evaluate or self.evaluator())(env)

    def __reduce__(self):
        return _Code, (self.text, self.constants)


class _FnParser(Cursor):
    def __init__(self, source: str, variables: Sequence[str]):
        super().__init__(tokenize(_FN_TOKEN, source, FunctionParseError), FunctionParseError)
        self.slots = {name: i for i, name in enumerate(variables)}
        self.constants: list[float] = []
        self.squares = 0
        self.nesting = 0

    def parse(self) -> _Code:
        text, _, _ = self.parse_expr()
        self.finish()
        return _Code(text, tuple(self.constants))

    def parse_expr(self):
        return self.parse_chain("+-", self.parse_term, _SUM)

    def parse_term(self):
        return self.parse_chain("*/", self.parse_factor, _PRODUCT)

    def parse_chain(self, ops: str, parse_operand, precedence: int):
        """A left-associative chain of ``ops`` over ``parse_operand``."""
        text, own, depth = parse_operand()
        if not (self.peek().kind == "op" and self.peek().text in ops):
            return text, own, depth
        parts = [text if own >= precedence else f"({text})"]
        while self.peek().kind == "op" and self.peek().text in ops:
            _, op, position = self.advance()
            right, right_own, right_depth = parse_operand()
            depth = self.deeper(max(depth, right_depth), position)
            if op == "/":
                parts.append(f" / _divisor({right})")
            elif right_own > precedence:
                parts.append(f" {op} {right}")
            else:
                parts.append(f" {op} ({right})")
        return "".join(parts), precedence, depth

    def deeper(self, depth: int, position: int) -> int:
        if depth >= _MAX_DEPTH:
            raise FunctionParseError(
                f"expression is more than {_MAX_DEPTH} operations deep", position
            )
        return depth + 1

    def nest(self, position: int) -> None:
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise FunctionParseError(
                f"expression nests more than {_MAX_NESTING} levels deep", position
            )

    def parse_factor(self):
        token = self.advance()
        kind, text, position = token
        if kind == "num":
            self.constants.append(float(text))
            return f"k{len(self.constants) - 1}", _ATOM, 0
        if kind == "ident":
            if text == "sqr":
                self.nest(position)
                self.expect("op", "(", what="'('")
                inner, own, depth = self.parse_expr()
                self.expect("op", ")", what="')'")
                self.nesting -= 1
                name = f"s{self.squares}"
                self.squares += 1
                return f"({name} := {inner}) * {name}", _PRODUCT, self.deeper(depth, position)
            if text in self.slots:
                return f"env[{self.slots[text]}]", _ATOM, 0
            raise FunctionParseError(f"unknown variable {text!r}", position)
        if kind == "op" and text == "-":
            self.nest(position)
            operand, own, depth = self.parse_factor()
            self.nesting -= 1
            if own < _NEGATION:
                operand = f"({operand})"
            return f"-{operand}", _NEGATION, self.deeper(depth, position)
        if kind == "op" and text == "(":
            self.nest(position)
            inner = self.parse_expr()
            self.expect("op", ")", what="')'")
            self.nesting -= 1
            return inner
        raise FunctionParseError(f"expected a value, got {self.got(token)}", position)


class FunctionSpec(Value):
    """A parsed arithmetic expression over named real variables.

    Calling the spec with one value per variable, in ``variables`` order,
    evaluates it; ``compiled`` does the same for a tuple of those values.
    A parsed spec compiles to one code object on its first evaluation, or
    when a run asks for its :meth:`evaluator`.  Specs compare by source and
    variables.
    """

    source: str
    variables: tuple[str, ...]
    compiled: Callable[[tuple[float, ...]], float]
    _compared = ("source", "variables")

    def __call__(self, *values: float) -> float:
        return self.compiled(values)

    def evaluator(self) -> Callable[[tuple[float, ...]], float]:
        """``compiled``, compiled now if parsed: what a run calls for each item."""
        compiled = self.compiled
        return compiled.evaluator() if type(compiled) is _Code else compiled


# A stage function is called as ``function(orig, data)``: a FunctionSpec over
# _STAGE_VARIABLES, or any callable.  A custom join is over _JOIN_VARIABLES.
_STAGE_VARIABLES = ("orig", "data")
_JOIN_VARIABLES = ("orig", "dataL", "dataR")
StageFunction = Union[FunctionSpec, Callable[[float, float], float]]


def parse_function(source: str, variables: Sequence[str] = _STAGE_VARIABLES) -> FunctionSpec:
    """Parse a function expression; the default variable set is a stage's."""
    if isinstance(variables, str):
        raise ConfigError(f"variables must be a sequence of names, not the string {variables!r}")
    if not isinstance(variables, Iterable):
        raise ConfigError(f"variables must be a sequence of names, not {variables!r}")
    compiled = _FnParser(source, variables).parse()
    return FunctionSpec(source=source, variables=tuple(variables), compiled=compiled)


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


# As with ISSUE_KINDS, only the last kind takes an argument, an expression;
# JOIN_KINDS_TEXT lists the others for diagnostics.
JOIN_KINDS = ("left", "right", "sum", "custom")
JOIN_KINDS_TEXT = ", ".join(JOIN_KINDS[:-1])


class JoinSpec(Value):
    """How branch copies of a forked transaction merge back into one.

    Branch order is the stage declaration order: the copy that went through
    the lower-ordinal stage is the left operand.  N-way forks merge by
    folding left to right.
    """

    kind: str  # one of JOIN_KINDS
    expr: FunctionSpec | None

    def __init__(self, kind: str, expr: FunctionSpec | None = None):
        if kind not in JOIN_KINDS:
            raise ConfigError(f"unknown join {kind!r}; use {JOIN_KINDS_TEXT} or {JOIN_KINDS[-1]}")
        if kind != "custom":
            if expr is not None:
                raise ConfigError(f"a {kind} join takes no expression, got {expr!r}")
        elif expr is None:
            raise ConfigError("a custom join needs an expression")
        elif not isinstance(expr, FunctionSpec) or expr.variables != _JOIN_VARIABLES:
            raise ConfigError(f"a custom join must take (orig, dataL, dataR), got {expr!r}")
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

    def merger(self) -> Callable[[tuple[float, float, float]], float]:
        """The merge as one call on an (orig, dataL, dataR) tuple; a custom
        expression compiles here, once, and is its own compiled code."""
        if self.kind == "left":
            return itemgetter(1)
        if self.kind == "right":
            return itemgetter(2)
        if self.kind == "sum":
            return lambda values: values[1] + values[2]
        return self.expr.evaluator()

    def merge(self, orig: float, data_left: float, data_right: float) -> float:
        return self.merger()((orig, data_left, data_right))


# ---------------------------------------------------------------------------
# Stage configuration


class StageConfig(Value):
    """Complete behavioral configuration of one stage; the class attributes
    are the defaults.  Each field is checked when built (:class:`ConfigError`)."""

    stage: StageId
    function: StageFunction
    timing: TimingSpec = TimingSpec(delay=1)
    channels: ChannelKind = ChannelKind.BLOCKING
    exec: ExecKind = ExecKind.LOOP

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.stage, StageId):
            raise ConfigError(f"a stage configuration needs a StageId, got {self.stage!r}")
        where = f"stage {self.stage.name!r}"
        for field, cls in (("timing", TimingSpec), ("channels", ChannelKind), ("exec", ExecKind)):
            value = getattr(self, field)
            if not isinstance(value, cls):
                raise ConfigError(f"{where}: {field} {value!r} is not of type {cls.__name__}")
        function = self.function
        if not callable(function) or (
            isinstance(function, FunctionSpec) and function.variables != _STAGE_VARIABLES
        ):
            raise ConfigError(f"{where}: function must take (orig, data), got {function!r}")
        if self.exec is ExecKind.REACTIVE and self.channels is not ChannelKind.SIGNAL:
            raise ConfigError(f"{where}: reactive execution requires signal channels")
        if self.exec is ExecKind.REACTIVE and self.timing.delay:
            raise ConfigError(f"{where}: reactive execution cannot delay (got {self.timing})")


# ---------------------------------------------------------------------------
# Issue


# The issue kinds in the order diagnostics list them; only the last takes an
# interval, shown in ISSUE_KINDS_TEXT by its placeholder.
ISSUE_KINDS = ("greedy", "eager", "fixed")
ISSUE_KINDS_TEXT = f"{', '.join(ISSUE_KINDS[:-1])} or {ISSUE_KINDS[-1]}:<interval>"


class IssueSpec(Value):
    """When new transactions enter the pipeline.

    greedy   issue as soon as the collision vector permits
    fixed    issue every ``interval`` ns
    eager    issue whenever the entry channel accepts a transaction
    """

    kind: str
    interval: int | None

    def __init__(self, kind: str, interval: int | None = None):
        if kind not in ISSUE_KINDS:
            raise ConfigError(f"unknown issue policy {kind!r}; use {ISSUE_KINDS_TEXT}")
        if kind == "fixed":
            # A float or bool interval would leak into every issue time and report.
            if interval is not None and (
                not isinstance(interval, int) or isinstance(interval, bool)
            ):
                raise ConfigError(f"fixed issue interval must be an integer, got {interval!r}")
            if interval is None or interval < 1:
                raise ConfigError(f"fixed issue interval must be >= 1, got {interval}")
        elif interval is not None:
            raise ConfigError(f"the {kind} issue policy takes no interval, got {interval!r}")
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
    """A run configuration, checked against its route when built.

    ``configs``, a sequence or mapping of :class:`StageConfig`, is kept as a
    mapping in the route's stage order.  Raises :class:`ConfigError` for a
    single :class:`StageConfig` or a non-iterable in place of the collection,
    an entry that is not a :class:`StageConfig`, a missing or duplicate stage
    config, or a fork without a join spec.  ``warnings`` are non-fatal.
    """

    route: Route
    configs: Mapping[StageId, StageConfig]
    join: JoinSpec | None
    _compared = ("route", "configs", "join", "warnings")

    def __init__(self, route: Route, configs, join: JoinSpec | None = None):
        if isinstance(configs, StageConfig) or not isinstance(configs, Iterable):
            raise ConfigError("configs must be a sequence or mapping of StageConfigs, not "
                              + ("one" if isinstance(configs, StageConfig) else repr(configs)))
        mapped = isinstance(configs, Mapping)
        entries = list(configs.values() if mapped else configs)
        for cfg in entries:
            if not isinstance(cfg, StageConfig):
                raise ConfigError(
                    f"stage configuration is a {type(cfg).__name__}, not a StageConfig")
        table = dict(configs) if mapped else {}
        for cfg in [] if mapped else entries:  # a sequence configures each stage once
            if cfg.stage in table:
                raise ConfigError(f"duplicate configuration for stage {cfg.stage.name!r}")
            table[cfg.stage] = cfg
        missing = [s.name for s in route.stages if s not in table]
        if missing:
            raise ConfigError(f"missing configuration for stage(s): {', '.join(missing)}")
        for stage in route.stages:
            if table[stage].stage != stage:
                raise ConfigError(f"configuration keyed by {stage.name!r} "
                                  f"describes {table[stage].stage.name!r}")
        fork_steps = route.fork_steps()
        if fork_steps and join is None:
            first = fork_steps[0]
            if first + 1 < len(route.steps):
                successors = ", ".join(sorted(s.name for s in route.steps[first + 1]))
                where = f"the router feeding {successors}"
            else:
                where = "the pipeline exit"
            raise ConfigError(f"fork at step {first} merges at {where}: "
                              "a join specification is required")
        super().__init__(route, {s: table[s] for s in route.stages}, join)

    @property
    def warnings(self) -> tuple[str, ...]:
        return (("final step is a fork; branch outputs merge at the pipeline exit",)
                if len(self.route.steps[-1]) > 1 else ())

    def config_of(self, stage: StageId) -> StageConfig:
        return self.configs[stage]


validate_config = CheckedConfig  # the check, by the name of what it does


def for_route(route: Route, config: CheckedConfig) -> CheckedConfig:
    """``config`` as it is if it was built for ``route``, else its configs and
    join checked against ``route``."""
    return config if config.route == route else CheckedConfig(route, config.configs, config.join)
