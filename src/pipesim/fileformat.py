"""Pipeline definition files.

A file declares stages, at least one pipeline expression, and optional join
and issue policies::

    # three stage example
    stage S1 { fn = "data + 2*sqr(orig)"; delay = 1; }
    stage S2 { fn = "data + 4*orig";      delay = 1; }
    stage S3 { fn = "data - 7";           delay = 1; }
    pipeline = S1 >> S2 >> S3;

Stage blocks accept optional ``channel`` and ``exec`` settings, worded as
:class:`.ChannelKind` and :class:`.ExecKind`; ``delay = untimed;`` selects the
untimed model.  Multi-function pipelines repeat ``pipeline <name> = ...;``
with distinct names.  ``join`` (:data:`.JOIN_KINDS`, or a quoted expression)
merges forks and ``issue`` (:data:`.ISSUE_KINDS`) sets the default issue
policy; :func:`parse_issue` reads the same value for the command line.
Comments run from a ``#`` outside a quoted string to end of line.
"""

from __future__ import annotations

import os

from . import dsl
from .dsl import PipeExpr, Route, StageId, StageSet
from ._lex import PIPE_TOKEN as _FILE_TOKEN, Cursor, PositionedError, Token, read_int, tokenize
from ._value import Value
from .errors import PipelineError
from .policy import (
    ISSUE_KINDS,
    ISSUE_KINDS_TEXT,
    JOIN_KINDS,
    JOIN_KINDS_TEXT,
    ChannelKind,
    ConfigError,
    ExecKind,
    FunctionParseError,
    IssueSpec,
    JoinSpec,
    StageConfig,
    TimingSpec,
    UNTIMED,
    parse_function,
)


class PipelineFileError(PositionedError):
    """A definition file is malformed at ``line``, ``column`` (both from 1)."""

    def __init__(self, message: str, position: int, text: str):
        super().__init__(message, position)
        self.line = text.count("\n", 0, position) + 1
        self.column = position - text.rfind("\n", 0, position)

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.args[0]}"


class PipelineSetup(Value):
    """Everything a command needs, resolved from one definition file."""

    decls: StageSet
    configs: dict[StageId, StageConfig]
    pipelines: dict[str, PipeExpr]
    routes: dict[str, Route]
    join: JoinSpec | None
    issue: IssueSpec | None


# The settings a stage block may give, in the order diagnostics list them; a
# kind setting names a word of the policy enum that sets its StageConfig field.
_KIND_SETTINGS = {"channel": ("channels", ChannelKind), "exec": ("exec", ExecKind)}
_STAGE_SETTINGS = ("fn", "delay", *_KIND_SETTINGS)
_JOIN_WORDS = f"{JOIN_KINDS_TEXT} or a quoted expression"  # what a join setting gives

class _FileParser(Cursor):
    def __init__(self, text: str):
        self.text = text
        super().__init__(tokenize(_FILE_TOKEN, text, self.error_at), self.error_at, "end of file")

    def error_at(self, message: str, offset: int) -> PipelineFileError:
        return PipelineFileError(message, offset, self.text)

    def fail(self, message: str, offset: int):
        raise self.error_at(message, offset)

    # -- grammar --------------------------------------------------------

    def parse_file(self):
        stage_blocks = []
        pipelines = []
        join_token = None
        issue = None
        while self.peek().kind != "end":
            token = self.peek()
            if token.text == "stage":
                stage_blocks.append(self.parse_stage_block())
            elif token.text == "pipeline":
                pipelines.append(self.parse_pipeline_def())
            elif token.text == "join":
                if join_token is not None:
                    self.fail("duplicate join setting", token.position)
                join_token = self.parse_join_def()
            elif token.text == "issue":
                if issue is not None:
                    self.fail("duplicate issue setting", token.position)
                issue = self.parse_issue_def()
            else:
                self.fail(
                    f"expected 'stage', 'pipeline', 'join' or 'issue', got {token.text!r}",
                    token.position,
                )
        return stage_blocks, pipelines, join_token, issue

    def parse_stage_block(self):
        self.expect("ident", "stage")
        name_token = self.expect("ident", what="a stage name")
        self.expect("punct", "{")
        settings: dict[str, Token] = {}
        while not self.at("punct", "}"):
            key = self.expect("ident", what=f"a setting name ({', '.join(_STAGE_SETTINGS)})")
            if key.text not in _STAGE_SETTINGS:
                self.fail(f"unknown stage setting {key.text!r}", key.position)
            if key.text in settings:
                self.fail(f"duplicate setting {key.text!r}", key.position)
            self.expect("punct", "=")
            value = self.advance()
            if value.kind == "end":
                self.fail("unterminated stage block", value.position)
            self.expect("punct", ";")
            settings[key.text] = value
        self.expect("punct", "}")
        return name_token, settings

    def parse_pipeline_def(self):
        keyword = self.expect("ident", "pipeline")
        name_token = None
        if self.peek().kind == "ident":
            name_token = self.advance()
        self.expect("punct", "=")
        start = self.peek()
        if start.kind == "end":
            self.fail("missing pipeline expression", start.position)
        tokens = []
        while not self.at("punct", ";"):
            token = self.advance()
            if token.kind == "end":
                self.fail("missing ';' after pipeline expression", token.position)
            tokens.append(token)
        self.advance()
        # The expression ends where its last token does.
        end = tokens[-1].position + len(tokens[-1].text) if tokens else start.position
        tokens.append(Token("end", "", end))
        return keyword, name_token, tokens

    def parse_join_def(self):
        self.expect("ident", "join")
        self.expect("punct", "=")
        value = self.advance()
        if value.kind not in ("ident", "string"):
            self.fail(f"expected {_JOIN_WORDS}", value.position)
        self.expect("punct", ";")
        return value

    def parse_issue_def(self) -> IssueSpec:
        self.expect("ident", "issue")
        self.expect("punct", "=")
        issue = _read_issue(self)
        self.expect("punct", ";")
        return issue


def _read_issue(cursor: Cursor) -> IssueSpec:
    """The issue value at ``cursor``: a kind word, and ``:`` plus an int for fixed."""
    value = cursor.advance()
    if value.kind != "ident" or value.text not in ISSUE_KINDS:
        raise cursor.error(f"expected {ISSUE_KINDS_TEXT}", value.position)
    if value.text != "fixed":
        return IssueSpec(kind=value.text)
    cursor.expect("punct", ":")
    interval = cursor.expect("int", what="an issue interval")
    try:
        return IssueSpec.fixed(read_int(interval, cursor.error))
    except ConfigError as exc:
        raise cursor.error(str(exc), interval.position) from None


def parse_issue(text: str) -> IssueSpec:
    """The issue policy that ``text`` gives as the value of a file's ``issue = ...;``,
    comments and whitespace included; errors are positioned in ``text``."""
    cursor = Cursor(tokenize(_FILE_TOKEN, text, PositionedError), PositionedError)
    issue = _read_issue(cursor)
    cursor.finish()
    return issue


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def parse_pipeline_text(text: str) -> PipelineSetup:
    """Parse and resolve a pipeline definition from source text."""
    parser = _FileParser(text)
    stage_blocks, pipeline_defs, join_token, issue = parser.parse_file()

    if not stage_blocks:
        parser.fail("no stage declarations", 0)
    if not pipeline_defs:
        parser.fail("no pipeline expression", 0)

    names: dict[str, None] = {}  # an ordered set: declaration order gives the ordinals
    for name_token, _ in stage_blocks:
        if name_token.text in names:
            parser.fail(f"duplicate stage {name_token.text!r}", name_token.position)
        names[name_token.text] = None
    decls = dsl.declare_stages(names)

    configs: dict[StageId, StageConfig] = {}
    for name_token, settings in stage_blocks:
        stage = decls[name_token.text]
        if "fn" not in settings:
            parser.fail(f"stage {stage.name!r} is missing fn", name_token.position)
        if "delay" not in settings:
            parser.fail(f"stage {stage.name!r} is missing delay", name_token.position)

        value = settings["fn"]
        if value.kind != "string":
            parser.fail("fn must be a quoted expression", value.position)
        try:
            function = parse_function(_unquote(value.text))
        except FunctionParseError as exc:
            parser.fail(f"in fn of stage {stage.name!r}: {exc}", value.position)

        value = settings["delay"]
        if value.kind == "int":
            timing = TimingSpec.timed(read_int(value, parser.error))
        elif value.kind == "ident" and value.text == "untimed":
            timing = UNTIMED
        else:
            parser.fail("delay must be an integer or 'untimed'", value.position)

        # Only the kinds the block gives: StageConfig holds the defaults.
        kinds = {}
        for name, (field, cls) in _KIND_SETTINGS.items():
            if name in settings:
                value, words = settings[name], [kind.value for kind in cls]
                if value.kind != "ident" or value.text not in words:
                    parser.fail(f"{name} must be {' or '.join(map(repr, words))}", value.position)
                kinds[field] = cls(value.text)
        try:
            configs[stage] = StageConfig(stage, function, timing, **kinds)
        except ConfigError as exc:
            parser.fail(str(exc), name_token.position)

    pipelines: dict[str, PipeExpr] = {}
    routes: dict[str, Route] = {}
    for keyword, name_token, tokens in pipeline_defs:
        name = name_token.text if name_token is not None else "main"
        if name in pipelines:
            where = name_token or keyword
            parser.fail(f"duplicate pipeline {name!r}", where.position)
        try:
            expr = dsl.parse_tokens(tokens, decls)
        except dsl.ParseError as exc:
            parser.fail(exc.args[0], exc.position)
        pipelines[name] = expr
        routes[name] = dsl.flatten(expr)

    join = None
    if join_token is not None:
        if join_token.kind == "string":
            try:
                join = JoinSpec.custom(_unquote(join_token.text))
            except FunctionParseError as exc:
                parser.fail(f"in join expression: {exc}", join_token.position)
        elif join_token.text in JOIN_KINDS[:-1]:
            join = JoinSpec(kind=join_token.text)
        else:
            parser.fail(f"join must be {_JOIN_WORDS}", join_token.position)

    return PipelineSetup(
        decls=decls,
        configs=configs,
        pipelines=pipelines,
        routes=routes,
        join=join,
        issue=issue,
    )


def read_text(path: str | os.PathLike) -> str:
    """The text of a UTF-8 file; other bytes raise PipelineError naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise PipelineError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def load_pipeline_file(path: str | os.PathLike) -> PipelineSetup:
    return parse_pipeline_text(read_text(path))
