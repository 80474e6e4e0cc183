"""Report rendering: canonical structured text, human-readable text, CSV.

The structured-text format is a canonical JSON subset: object keys sorted,
reals printed with up to six significant digits, integers bare.  Identical
inputs therefore always serialize to identical bytes.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Mapping

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
    "run_report_json_and_csv",
]

FORMAT_VERSION = 1


def format_real(value: float) -> str:
    """Up to six significant digits; integral reals print bare."""
    return "%.6g" % value


@lru_cache(maxsize=256)
def _encode_key(key: str) -> str:
    # A report repeats a handful of keys thousands of times; the bound keeps
    # arbitrary library keys from growing the cache.
    return json.dumps(key)


def canonical(obj, indent: int = 0) -> str:
    """Serialize plain data to the canonical structured-text form."""
    # A report is mostly exact floats, ints, dicts and lists: test for those
    # first, and leave the rest to the isinstance chain.
    kind = type(obj)
    if kind is float:
        return format_real(obj)
    if kind is int:
        return str(obj)
    if kind is dict:
        return _canonical_mapping(obj, indent)
    if kind is list:
        return _canonical_sequence(obj, indent)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is _Verbatim:
        return obj
    if isinstance(obj, str):
        return json.dumps(obj)
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


def _canonical_mapping(obj: Mapping, indent: int) -> str:
    if not obj:
        return "{}"
    # Keys are printed as strings, so they sort as strings too.
    values = {str(key): value for key, value in obj.items()}
    if len(values) < len(obj):
        raise TypeError("cannot serialize a mapping with two keys of the same string form")
    inner = "  " * (indent + 1)
    parts = [
        f"{inner}{_encode_key(key)}: {canonical(values[key], indent + 1)}"
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
    for rec in trace.records:
        inject = "" if rec.injected_at is None else str(rec.injected_at.ns)
        exit_ns = "" if rec.exited_at is None else str(rec.exited_at.ns)
        lines.append(
            f"{rec.txn_id},{inject},{exit_ns},"
            f"{format_real(rec.orig)},{format_real(rec.data)}"
        )
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
    results = [_result_mapping(rec) for rec in result.trace.records]
    return _report_mapping(name, result, report, issue, results)


def _result_mapping(rec) -> dict:
    return {
        "id": rec.txn_id,
        "orig": rec.orig,
        "data": rec.data,
        "inject_ns": None if rec.injected_at is None else rec.injected_at.ns,
        "exit_ns": None if rec.exited_at is None else rec.exited_at.ns,
        "dropped": rec.dropped,
    }


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


def run_report_json_and_csv(
    name: str,
    result: RunResult,
    report: AnalysisReport,
    issue: IssueSpec,
    csv: bool = True,
) -> tuple[str, str | None]:
    """The json-like run report and the CSV trace of a run, from one pass.

    The bytes are those of ``canonical(run_report_mapping(...)) + "\n"`` and
    ``trace_to_csv(result.trace)``, which specify them.  The pass formats
    each record's ``orig`` and ``data`` once for both rows, and renders the
    ``results`` row from one template with the keys in sorted order.  A
    record whose ``orig`` or ``data`` is not exactly a float renders its
    ``results`` row through ``canonical``.  With ``csv`` false no CSV row is
    built and the trace is None.
    """
    csv_rows = [_CSV_HEADER] if csv else None
    rows = []
    for rec in result.trace.records:
        orig, data = rec.orig, rec.data
        inject = "" if rec.injected_at is None else str(rec.injected_at.ns)
        exit_ns = "" if rec.exited_at is None else str(rec.exited_at.ns)
        orig_text, data_text = format_real(orig), format_real(data)
        if csv:
            csv_rows.append(f"{rec.txn_id},{inject},{exit_ns},{orig_text},{data_text}")
        if type(orig) is float and type(data) is float:
            rows.append(
                f'    {{\n      "data": {data_text},\n'
                f'      "dropped": {"true" if rec.dropped else "false"},\n'
                f'      "exit_ns": {exit_ns or "null"},\n      "id": {rec.txn_id},\n'
                f'      "inject_ns": {inject or "null"},\n      "orig": {orig_text}\n    }}'
            )
        else:
            rows.append("    " + canonical(_result_mapping(rec), 2))
    results = _Verbatim("[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]")
    mapping = _report_mapping(name, result, report, issue, results)
    return canonical(mapping) + "\n", "\n".join(csv_rows) + "\n" if csv else None


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
    for rec in result.trace.records:
        inject = "-" if rec.injected_at is None else str(rec.injected_at.ns)
        exit_ns = "-" if rec.exited_at is None else str(rec.exited_at.ns)
        flag = " (dropped)" if rec.dropped else ""
        lines.append(
            f"  {rec.txn_id:>2}  {inject:>9}  {exit_ns:>7}  "
            f"{format_real(rec.orig)}  {format_real(rec.data)}{flag}"
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
