"""Command-line front end.

Three subcommands work on a pipeline definition file:

    pipesim analyze   <file>    reservation table, forbidden latencies, MAL
    pipesim run       <file>    simulate inputs through the pipeline
    pipesim elaborate <file>    emit the module graph as DOT

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 parse/validation/configuration error, 2 deadlock, 3 horizon reached.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import nullcontext
from types import SimpleNamespace

from ._lex import PositionedError
from ._value import Value
from .elaborate import Netlist, elaborate, to_dot
from .errors import PipelineError
from .fileformat import PipelineSetup, load_pipeline_file, parse_issue, read_text
from .policy import ISSUE_KINDS_TEXT, CheckedConfig, IssueSpec, validate_config

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEADLOCK = 2
EXIT_HORIZON = 3
_FORMATS = ("text", "json-like")  # of analyze and run reports


def _diagnose(line: str) -> None:
    """Print a diagnostic line to stderr; with stderr closed at start-up, drop it."""
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def _stdout():
    """``sys.stdout``, where reports go; a :class:`PipelineError` if it was closed at start-up."""
    if sys.stdout is None:
        raise PipelineError("stdout is closed")
    return sys.stdout


def _select_pipeline(setup: PipelineSetup, txn_type: str | None) -> str:
    names = list(setup.pipelines)
    if txn_type is not None:
        if txn_type not in setup.pipelines:
            raise PipelineError(
                f"unknown pipeline type {txn_type!r}; available: {', '.join(names)}"
            )
        return txn_type
    if len(names) > 1:
        raise PipelineError(
            f"file defines several pipelines ({', '.join(names)}); pick one with --type"
        )
    return names[0]


def _parse_inputs(spec: str) -> list[float]:
    # os.path.exists is False for "" and for names too long to be a path.
    if os.path.exists(spec) and not spec.replace(".", "").replace(",", "").isdigit():
        text = read_text(spec)
    else:
        text = spec
    values = []
    for part in text.replace(",", " ").split():
        try:
            value = float(part)
        except ValueError:
            raise PipelineError(f"input value {part!r} is not a number") from None
        if not math.isfinite(value):
            raise PipelineError(f"input value {part!r} is not finite")
        values.append(value)
    if not values:
        raise PipelineError("no input values given")
    return values


def run_and_report(
    netlist: Netlist,
    checked: CheckedConfig,
    inputs: list[float],
    issue: IssueSpec,
    horizon_ns: int | None,
    name: str,
    fmt: str,
    trace_path: str | None = None,
) -> int:
    """Execute one run and emit its report; returns the process exit code."""
    from . import analysis, report, simulate  # here, so each command loads only what it runs
    from .engine import DeadlockError

    analysis_report = analysis.analyze(netlist.route)
    try:
        result = simulate.run(
            netlist, checked, inputs, issue=issue, horizon_ns=horizon_ns
        )
    except DeadlockError as exc:
        _diagnose(str(exc))
        return EXIT_DEADLOCK
    # The trace file opens before any report output, so an unwritable path
    # fails with nothing on stdout; a closed stdout fails before either.
    out = _stdout()
    trace_file = nullcontext() if trace_path is None else open(trace_path, "w", encoding="utf-8")
    with trace_file as csv_out:
        for warning in result.warnings:
            _diagnose(f"warning: {warning}")
        write = report.write_run_report if fmt == "json-like" else report.write_run_text
        write(name, result, analysis_report, issue, out, csv_out)
    return EXIT_HORIZON if result.stats.truncated else EXIT_OK


def _cmd_analyze(args) -> int:
    from . import analysis, report

    setup = load_pipeline_file(args.file)
    if args.fmt == "json-like":
        mapping = {
            "format_version": report.FORMAT_VERSION,
            "pipelines": {
                name: analysis.analyze(route, setup.decls).to_mapping()
                for name, route in setup.routes.items()
            },
        }
        print(report.canonical(mapping), file=_stdout())
        return EXIT_OK
    chunks = []
    for name, route in setup.routes.items():
        chunks.append(report.analysis_text(name, analysis.analyze(route, setup.decls)))
    _stdout().write("\n".join(chunks))
    return EXIT_OK


def _cmd_run(args) -> int:
    setup = load_pipeline_file(args.file)
    name = _select_pipeline(setup, args.txn_type)
    route = setup.routes[name]
    inputs = _parse_inputs(args.inputs)
    if args.issue is not None:
        try:
            issue = parse_issue(args.issue)
        except PositionedError as exc:
            raise PipelineError(f"in --issue: {exc}") from None
    else:
        issue = setup.issue or IssueSpec.greedy()
    checked = validate_config(route, setup.configs, join=setup.join)
    netlist = elaborate(route, setup.decls, checked)
    return run_and_report(
        netlist,
        checked,
        inputs,
        issue,
        args.horizon,
        name,
        args.fmt,
        trace_path=args.trace,
    )


def _cmd_elaborate(args) -> int:
    setup = load_pipeline_file(args.file)
    name = _select_pipeline(setup, args.txn_type)
    route = setup.routes[name]
    checked = validate_config(route, setup.configs, join=setup.join)
    dot = to_dot(elaborate(route, setup.decls, checked))
    if args.dot is not None:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dot)
    else:
        _stdout().write(dot)
    return EXIT_OK


class _Option(Value):  # one ``--flag value`` option, as ``add_argument`` takes it
    flag: str
    dest: str
    help: str | None = None
    default: object = None
    required: bool = False
    choices: tuple | None = None
    type: type | None = None


_FORMAT = _Option("--format", "fmt", default=_FORMATS[0], choices=_FORMATS)

# The command line: each command's function, its help, and the options after
# its positional ``file`` in ``add_argument`` order.  argparse and the fast
# path of :func:`main` both read it.
_COMMAND_LINE = {
    "analyze": (_cmd_analyze, "derive scheduling quantities", (_FORMAT,)),
    "run": (_cmd_run, "simulate transactions through the pipeline", (
        _Option("--inputs", "inputs", "comma separated orig values, or a path to a file of values",
                required=True),
        _Option("--issue", "issue", ISSUE_KINDS_TEXT),
        _Option("--horizon", "horizon", "stop after this many ns", type=int),
        _Option("--trace", "trace", "write the CSV transaction trace here"),
        _FORMAT,
        _Option("--type", "txn_type", "pipeline name to run"),
    )),
    "elaborate": (_cmd_elaborate, "emit the module graph as DOT", (
        _Option("--dot", "dot", "write DOT here instead of stdout"),
        _Option("--type", "txn_type", "pipeline name to elaborate"),
    )),
}


def _build_parser():
    """The argparse parser of :data:`_COMMAND_LINE`: it reads every command
    line the fast path leaves, and prints help, usage and errors."""
    import argparse  # here, so a well-formed command line never loads it

    class ArgumentParser(argparse.ArgumentParser):
        # argparse exits with 2 on usage errors; 2 is reserved for deadlocks here.
        def error(self, message):
            self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")

    parser = ArgumentParser(prog="pipesim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, options) in _COMMAND_LINE.items():
        command_parser = sub.add_parser(command, help=command_help)
        command_parser.add_argument("file", help="pipeline definition file")
        for o in options:
            command_parser.add_argument(o.flag, dest=o.dest, default=o.default, required=o.required,
                                        choices=o.choices, type=o.type, help=o.help)
    return parser


def _parse_fast(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for ``<command> <file> (--flag value)*``, or None.

    It reads a command line only if each flag is an exact option of the
    command given once, no value starts with ``-``, each value converts and
    is among its choices, and every required option is present; argparse
    reads every other one."""
    if len(argv) % 2 or not argv or argv[0] not in _COMMAND_LINE or argv[1].startswith("-"):
        return None
    command, file, *rest = argv
    options = {o.flag: o for o in _COMMAND_LINE[command][2]}
    args = {"command": command, "file": file}
    for flag, value in zip(rest[::2], rest[1::2]):
        option = options.pop(flag, None)  # so a repeated flag is left to argparse
        if option is None or value.startswith("-"):
            return None
        try:
            value = value if option.type is None else option.type(value)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        args[option.dest] = value
    if any(option.required for option in options.values()):
        return None
    return SimpleNamespace(**args, **{o.dest: o.default for o in options.values()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_fast(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return _COMMAND_LINE[args.command][0](args)
    except (OSError, PipelineError) as exc:
        _diagnose(f"error: {exc}")
        return EXIT_ERROR


def console_main() -> None:
    """Run ``main`` and end the process once its output is flushed.

    Every file a command writes is closed before ``main`` returns, so the
    interpreter's teardown has nothing left to do and is skipped.  A flush
    that fails goes back to ``sys.exit``, which reports it as it always has.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # a stream closed at start-up
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
