"""Report rendering: canonical structured text, human-readable text, CSV.

The structured-text format is a canonical JSON subset: object keys sorted,
reals printed with up to six significant digits, integers bare.  Identical
inputs therefore always serialize to identical bytes.  :func:`canonical`
renders small mappings: the analysis report and the run report around its
``results``.  :func:`write_run_report` streams the run report's rows and the
CSV trace together, a chunk of rows at a time, and
``canonical(run_report_mapping(...))`` and :func:`trace_to_csv` specify them.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .analysis import AnalysisReport
    from .policy import IssueSpec
    from .simulate import RunResult, Trace

__all__ = [
    "format_real",
    "canonical",
    "trace_to_csv",
    "analysis_text",
    "run_report_text",
    "run_report_mapping",
    "write_run_report",
]

FORMAT_VERSION = 1


def format_real(value: float) -> str:
    """Up to six significant digits; integral reals print bare."""
    return "%.6g" % value


def canonical(obj, indent: int = 0) -> str:
    """Serialize plain data to the canonical structured-text form."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if type(obj) is _Verbatim:
        return obj
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_real(obj)
    if isinstance(obj, Mapping):
        return _canonical_mapping(obj, indent)
    if isinstance(obj, (list, tuple)):
        return _canonical_sequence(obj, indent)
    from fractions import Fraction  # only here, off every command's start-up

    if isinstance(obj, Fraction):
        return format_real(float(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class _Verbatim(str):
    """Text already in canonical form, which :func:`canonical` emits as is."""


# The characters that ``json.dumps`` escapes with a backslash and a letter.
_SHORT_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t",
}


def _quote(text: str) -> str:
    """``json.dumps(text)``: a double-quoted literal of printable ASCII."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(map(_escape, text)) + '"'


def _escape(char: str) -> str:
    short = _SHORT_ESCAPES.get(char)
    if short is not None:
        return short
    if " " <= char <= "~":
        return char
    code = ord(char)
    if code > 0xFFFF:  # written as its UTF-16 surrogate pair
        code -= 0x10000
        return "\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF)
    return "\\u%04x" % code


def _canonical_mapping(obj: Mapping, indent: int) -> str:
    if not obj:
        return "{}"
    # Keys are printed as strings, so they sort as strings too.
    values = {str(key): value for key, value in obj.items()}
    if len(values) < len(obj):
        raise TypeError("cannot serialize a mapping with two keys of the same string form")
    inner = "  " * (indent + 1)
    parts = [
        f"{inner}{_quote(key)}: {canonical(values[key], indent + 1)}"
        for key in sorted(values)
    ]
    return "{\n" + ",\n".join(parts) + "\n" + "  " * indent + "}"


def _canonical_sequence(obj, indent: int) -> str:
    if not obj:
        return "[]"
    inner = "  " * (indent + 1)
    parts = [f"{inner}{canonical(item, indent + 1)}" for item in obj]
    return "[\n" + ",\n".join(parts) + "\n" + "  " * indent + "]"


# ---------------------------------------------------------------------------
# CSV trace


_CSV_HEADER = "id,inject_ns,exit_ns,orig,data"


def trace_to_csv(trace: Trace) -> str:
    """One row per transaction; columns exactly id,inject_ns,exit_ns,orig,data."""
    lines = [_CSV_HEADER]
    for txn_id, orig, data, inject, exit_ns, _ in trace.rows():
        inject = "" if inject is None else str(inject)
        exit_ns = "" if exit_ns is None else str(exit_ns)
        lines.append(f"{txn_id},{inject},{exit_ns},{format_real(orig)},{format_real(data)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Analysis report


def _cycle_text(cycle) -> str:
    return f"{cycle.describe()} average {format_real(cycle.float_average())}"


def _mal_text(report: AnalysisReport) -> str:
    cycle = report.mal_cycle
    return f"MAL: {format_real(cycle.float_average())}  cycle {cycle.describe()}"


def analysis_text(name: str, report: AnalysisReport) -> str:
    lines = [f"pipeline {name}: {report.route.describe()}  ({len(report.route)} steps)"]
    lines.append("reservation table:")
    for row in report.table.ascii_grid().splitlines():
        lines.append(f"  {row}")
    forbidden = " ".join(str(d) for d in report.forbidden) if report.forbidden else "(none)"
    lines.append(f"forbidden latencies: {forbidden}")
    bits = report.vector.bitstring()
    lines.append(f"collision vector: {bits if bits else '(empty)'}")
    lines.append(f"greedy cycle: {_cycle_text(report.greedy)}")
    lines.append(_mal_text(report))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run report


def run_report_mapping(
    name: str,
    result: RunResult,
    report: AnalysisReport,
    issue: IssueSpec,
) -> dict:
    results = [dict(zip(_RESULT_KEYS, row)) for row in result.trace.rows()]
    return _report_mapping(name, result, report, issue, results)


# The keys of a ``results`` row, in the order of ``Trace.rows``.
_RESULT_KEYS = ("id", "orig", "data", "inject_ns", "exit_ns", "dropped")


def _report_mapping(name: str, result: RunResult, report: AnalysisReport, issue: IssueSpec,
                    results) -> dict:
    stats = result.stats
    return {
        "format_version": FORMAT_VERSION,
        "pipeline": name,
        "issue": str(issue),
        "results": results,
        "stats": {
            "injected": stats.injected,
            "exited": stats.exited,
            "dropped": stats.dropped,
            "in_flight": stats.in_flight,
            "final_ns": stats.final_time.ns,
            "final_delta": stats.final_time.delta,
            "timed_waits": stats.timed_waits,
            "total_stalls": stats.total_stalls,
            "stalls_by_channel": dict(stats.stalls_by_channel),
            "drops_by_channel": dict(stats.drops_by_channel),
            "per_stage": {
                name: {
                    "items": st.items,
                    "busy_ns": st.busy_ns,
                    "stalls": st.stalls,
                }
                for name, st in stats.stage.items()
            },
            "throughput": stats.throughput,
            "truncated": stats.truncated,
        },
        "analysis": report.to_mapping(),
        "warnings": list(result.warnings),
    }


_CHUNK_ROWS = 256
_RESULTS_MARK = _Verbatim("\0")  # no quoted string prints a raw NUL: _quote escapes it


def write_run_report(name: str, result: RunResult, report: AnalysisReport, issue: IssueSpec,
                     out, csv_out=None) -> None:
    """Write ``canonical(run_report_mapping(...)) + "\n"`` to ``out``, a chunk of rows at a time.

    Given ``csv_out``, write :func:`trace_to_csv` of the trace there too, each
    chunk's CSV lines before its rows; each ``orig`` and ``data`` is formatted once.
    """
    mapping = _report_mapping(name, result, report, issue, _RESULTS_MARK)
    head, tail = canonical(mapping).split(_RESULTS_MARK)
    if csv_out is not None:
        csv_out.write(_CSV_HEADER + "\n")
    out.write(head)
    rows, opening = result.trace.rows(), "[\n"
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        origs = [format_real(row[1]) for row in chunk]
        datas = [format_real(row[2]) for row in chunk]
        if csv_out is not None:
            csv_out.write("".join([
                f"{txn_id},{'' if inject is None else inject},{'' if exit_ns is None else exit_ns},"
                f"{orig_text},{data_text}\n" for (txn_id, _, _, inject, exit_ns, _), orig_text,
                data_text in zip(chunk, origs, datas)]))
        out.write(opening + ",\n".join([
            f'    {{\n      "data": {data_text},\n'
            f'      "dropped": {"true" if dropped else "false"},\n'
            f'      "exit_ns": {"null" if exit_ns is None else exit_ns},\n      "id": {txn_id},\n'
            f'      "inject_ns": {"null" if inject_ns is None else inject_ns},\n'
            f'      "orig": {orig_text}\n    }}'
            if type(orig) is float and type(data) is float else "    " + canonical(
                dict(zip(_RESULT_KEYS, (txn_id, orig, data, inject_ns, exit_ns, dropped))), 2)
            for (txn_id, orig, data, inject_ns, exit_ns, dropped), orig_text, data_text
            in zip(chunk, origs, datas)
        ]))
        opening = ",\n"
    out.write(("[]" if opening == "[\n" else "\n  ]") + tail + "\n")


def run_report_text(
    name: str,
    result: RunResult,
    report: AnalysisReport,
    issue: IssueSpec,
) -> str:
    stats = result.stats
    lines = [f"pipeline {name}: {report.route.describe()}"]
    lines.append(f"issue policy: {issue}")
    lines.append("transactions:")
    lines.append("  id  inject_ns  exit_ns  orig  data")
    for txn_id, orig, data, inject, exit_ns, dropped in result.trace.rows():
        inject = "-" if inject is None else str(inject)
        exit_ns = "-" if exit_ns is None else str(exit_ns)
        flag = " (dropped)" if dropped else ""
        lines.append(
            f"  {txn_id:>2}  {inject:>9}  {exit_ns:>7}  "
            f"{format_real(orig)}  {format_real(data)}{flag}"
        )
    lines.append("stats:")
    lines.append(
        f"  injected={stats.injected} exited={stats.exited} "
        f"dropped={stats.dropped} in_flight={stats.in_flight}"
    )
    lines.append(f"  final time: {stats.final_time.ns} ns (+{stats.final_time.delta} delta)")
    lines.append(f"  timed waits: {stats.timed_waits}")
    lines.append(f"  total stalls: {stats.total_stalls}")
    for stage_name, st in stats.stage.items():
        lines.append(
            f"  {stage_name}: items={st.items} busy={st.busy_ns}ns stalls={st.stalls}"
        )
    if stats.truncated:
        lines.append("  NOTE: horizon reached, trace is partial")
    forbidden = " ".join(str(d) for d in report.forbidden) if report.forbidden else "(none)"
    lines.append("analysis:")
    lines.append(f"  forbidden latencies: {forbidden}")
    lines.append(f"  greedy cycle: {_cycle_text(report.greedy)}")
    lines.append(f"  {_mal_text(report)}")
    return "\n".join(lines) + "\n"
