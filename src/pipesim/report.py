"""Report rendering: canonical structured text, human-readable text, CSV.

The structured-text format is a canonical JSON subset: object keys sorted,
reals printed with up to six significant digits, integers bare.  Identical
inputs therefore always serialize to identical bytes.  :func:`canonical`
renders small mappings: the analysis report and the run report around its
``results``.  :func:`write_run_report` and :func:`write_run_text` stream a
run's json-like or text report and its CSV trace, 256 rows at a time, as
``canonical(run_report_mapping(...))``, :func:`run_report_text` and
:func:`trace_to_csv` specify them.
"""

from __future__ import annotations

from io import StringIO
from itertools import islice
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .analysis import AnalysisReport
    from .policy import IssueSpec
    from .simulate import RunResult, Trace

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
_CHUNK_ROWS = 256


def trace_to_csv(trace: Trace) -> str:
    """One row per transaction; columns exactly id,inject_ns,exit_ns,orig,data."""
    out = StringIO()
    for _ in _chunks(trace, out):
        pass
    return out.getvalue()


def _chunks(trace: Trace, csv_out=None):
    """Yield ``trace.rows()`` 256 at a time, each chunk zipped with its orig and data
    texts: a zip makes no tuple per row, so no gen-0 collection.  Given ``csv_out``,
    write the CSV header there first, and each chunk's CSV lines before the chunk."""
    if csv_out is not None:
        csv_out.write(_CSV_HEADER + "\n")
    rows = trace.rows()
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        origs = [format_real(row[1]) for row in chunk]
        datas = [format_real(row[2]) for row in chunk]
        if csv_out is not None:
            csv_out.write("".join([
                f"{txn_id},{'' if inject is None else inject},{'' if exit_ns is None else exit_ns},"
                f"{orig_text},{data_text}\n"
                for (txn_id, _, _, inject, exit_ns, _), orig_text, data_text
                in zip(chunk, origs, datas)]))
        yield zip(chunk, origs, datas)


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
    lines.append("  " + report.table.ascii_grid().replace("\n", "\n  "))
    forbidden = " ".join(str(d) for d in report.forbidden) if report.forbidden else "(none)"
    lines.append(f"forbidden latencies: {forbidden}")
    bits = report.vector.bitstring()
    lines.append(f"collision vector: {bits if bits else '(empty)'}")
    lines.append(f"greedy cycle: {_cycle_text(report.greedy)}")
    lines += (_mal_text(report), "")
    return "\n".join(lines)


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


_RESULTS_MARK = _Verbatim("\0")  # no quoted string prints a raw NUL: _quote escapes it


def write_run_report(name: str, result: RunResult, report: AnalysisReport, issue: IssueSpec,
                     out, csv_out=None) -> None:
    """Write ``canonical(run_report_mapping(...)) + "\n"`` to ``out``, a chunk of rows at a time.

    Given ``csv_out``, write :func:`trace_to_csv` of the trace there too, each
    chunk's CSV lines before its rows.
    """
    mapping = _report_mapping(name, result, report, issue, _RESULTS_MARK)
    head, tail = canonical(mapping).split(_RESULTS_MARK)
    out.write(head)
    opening = "[\n"
    for chunk in _chunks(result.trace, csv_out):
        out.write(opening + ",\n".join([
            f'    {{\n      "data": {data_text},\n'
            f'      "dropped": {"true" if dropped else "false"},\n'
            f'      "exit_ns": {"null" if exit_ns is None else exit_ns},\n      "id": {txn_id},\n'
            f'      "inject_ns": {"null" if inject_ns is None else inject_ns},\n'
            f'      "orig": {orig_text}\n    }}'
            if type(orig) is float and type(data) is float else "    " + canonical(
                dict(zip(_RESULT_KEYS, (txn_id, orig, data, inject_ns, exit_ns, dropped))), 2)
            for (txn_id, orig, data, inject_ns, exit_ns, dropped), orig_text, data_text in chunk
        ]))
        opening = ",\n"
    out.write(("[]" if opening == "[\n" else "\n  ]") + tail + "\n")


def run_report_text(name: str, result: RunResult, report: AnalysisReport, issue: IssueSpec) -> str:
    out = StringIO()
    write_run_text(name, result, report, issue, out)
    return out.getvalue()


def write_run_text(name: str, result: RunResult, report: AnalysisReport, issue: IssueSpec,
                   out, csv_out=None) -> None:
    """Write :func:`run_report_text` to ``out``, and the CSV trace to ``csv_out``, as
    :func:`write_run_report` does."""
    out.write(f"pipeline {name}: {report.route.describe()}\nissue policy: {issue}\n"
              "transactions:\n  id  inject_ns  exit_ns  orig  data\n")
    for chunk in _chunks(result.trace, csv_out):
        out.write("".join([
            f"  {txn_id:>2}  {'-' if inject is None else inject:>9}  "
            f"{'-' if exit_ns is None else exit_ns:>7}  "
            f"{orig_text}  {data_text}{' (dropped)' if dropped else ''}\n"
            for (txn_id, _, _, inject, exit_ns, dropped), orig_text, data_text in chunk
        ]))
    stats = result.stats
    lines = ["stats:"]
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
    out.write("\n".join(lines) + "\n")
