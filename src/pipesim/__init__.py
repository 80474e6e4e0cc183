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

# Every public name, by the module that defines it, in ``__all__`` order.
_EXPORTS = {
    "analysis": ("AnalysisError", "AnalysisReport", "CollisionVector", "IssueCycle",
                 "ReservationTable", "analyze", "collision_vector", "forbidden_latencies",
                 "greedy_cycle", "minimal_average_latency", "reservation_table"),
    "dsl": ("DeclarationError", "ExpressionError", "Fork", "ParseError", "PipeExpr", "Repeat",
            "Route", "Seq", "StageId", "StageRef", "StageSet", "declare_stages", "flatten",
            "fork", "parse", "pretty", "repeat", "seq"),
    "elaborate": ("EXIT", "ChannelEdge", "ElaborationError", "Netlist", "RouterNode",
                  "RoutingTable", "elaborate", "routing_table", "to_dot"),
    "engine": ("DeadlockError", "Engine", "JoinError", "RoutingFault", "SimTime"),
    "errors": ("PipelineError",),
    "fileformat": ("PipelineFileError", "PipelineSetup", "load_pipeline_file",
                   "parse_pipeline_text"),
    "policy": ("UNTIMED", "ChannelKind", "CheckedConfig", "ConfigError", "ExecKind",
               "FunctionEvalError", "FunctionParseError", "FunctionSpec", "IssueSpec", "JoinSpec",
               "StageConfig", "TimingSpec", "parse_function", "validate_config"),
    "simulate": ("Occupancy", "RunResult", "StageStats", "Stats", "Trace", "TraceRecord",
                 "Transaction", "run"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

# The set-up layer loads now; analysis, engine and simulate, which set-up
# never runs, load on first use of one of their names.  ``elaborate`` is bound
# now: a first ``import pipesim.elaborate`` would bind the submodule over it.
from . import fileformat  # noqa: E402
from .elaborate import elaborate  # noqa: E402


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from .module import name``, without loading importlib.
    value = globals()[name] = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
