"""pipesim: pipeline modeling, scheduling analysis, and simulation.

Declare stages, combine them with ``>>`` (sequence), ``*`` (feedback reuse)
and ``+`` (fork), then analyze the resulting route's issue behavior or run
transactions through a deterministic discrete-event model of it::

    from pipesim import declare_stages, flatten, analyze, elaborate, run
    from pipesim import StageConfig, TimingSpec, parse_function

    s1, s2, s3 = declare_stages(["S1", "S2", "S3"])
    route = flatten(s1 >> s2 >> s3)
    print(analyze(route).mal)

    configs = [
        StageConfig(s1, parse_function("data + 2*sqr(orig)")),
        StageConfig(s2, parse_function("data + 4*orig")),
        StageConfig(s3, parse_function("data - 7")),
    ]
    result = run(elaborate(route), configs, inputs=[0, 1, 2, 3])
    print([rec.data for rec in result.trace.records])
"""

from .dsl import (
    DeclarationError,
    ExpressionError,
    Fork,
    ParseError,
    PipeExpr,
    Repeat,
    Route,
    Seq,
    StageId,
    StageRef,
    StageSet,
    declare_stages,
    flatten,
    fork,
    parse,
    pretty,
    repeat,
    seq,
)
# Imported eagerly: a first ``import pipesim.elaborate`` would otherwise bind
# the submodule over the function.
from .elaborate import (
    EXIT,
    ChannelEdge,
    ElaborationError,
    Netlist,
    RouterNode,
    RoutingTable,
    elaborate,
    routing_table,
    to_dot,
)
from .errors import PipelineError
from .fileformat import (
    PipelineFileError,
    PipelineSetup,
    load_pipeline_file,
    parse_pipeline_text,
)
from .policy import (
    UNTIMED,
    ChannelKind,
    CheckedConfig,
    ConfigError,
    ExecKind,
    FunctionEvalError,
    FunctionParseError,
    FunctionSpec,
    IssueSpec,
    JoinSpec,
    StageConfig,
    TimingSpec,
    parse_function,
    validate_config,
)

# Set-up (load, validate, elaborate) never runs the analysis or the
# simulator, so their names load their module on first use.
_LAZY_EXPORTS = {
    "analysis": ("AnalysisError", "AnalysisReport", "CollisionVector", "IssueCycle",
                 "ReservationTable", "analyze", "collision_vector", "forbidden_latencies",
                 "greedy_cycle", "minimal_average_latency", "reservation_table"),
    "engine": ("DeadlockError", "Engine", "JoinError", "RoutingFault", "SimTime"),
    "simulate": ("Occupancy", "RunResult", "StageStats", "Stats", "Trace", "TraceRecord",
                 "Transaction", "run"),
}
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}

__all__ = [
    *_LAZY_EXPORTS["analysis"],
    "DeclarationError", "ExpressionError", "Fork", "ParseError", "PipeExpr", "Repeat", "Route",
    "Seq", "StageId", "StageRef", "StageSet", "declare_stages", "flatten", "fork", "parse",
    "pretty", "repeat", "seq",
    "EXIT", "ChannelEdge", "ElaborationError", "Netlist", "RouterNode", "RoutingTable",
    "elaborate", "routing_table", "to_dot",
    *_LAZY_EXPORTS["engine"],
    "PipelineError",
    "PipelineFileError", "PipelineSetup", "load_pipeline_file", "parse_pipeline_text",
    "UNTIMED", "ChannelKind", "CheckedConfig", "ConfigError", "ExecKind", "FunctionEvalError",
    "FunctionParseError", "FunctionSpec", "IssueSpec", "JoinSpec", "StageConfig", "TimingSpec",
    "parse_function", "validate_config",
    *_LAZY_EXPORTS["simulate"],
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
