"""The in-process traced run: each layer's public functions, one after another.

A pass loads the workload file and drives every layer on it in the order the
CLI does, with a span around each call into a layer.  Spans (name, start,
end, parent, operation id) are kept in memory and written out at the end.
Passes alternate between tracing off and on; the median difference between
a traced pass and the untraced one before it is the tracing overhead.  Every pass is checked against the model and
the golden digests, and its deterministic counts must equal the recorded
ones.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager, nullcontext

import checks
import workloads as W

LAYERS = ("fileformat", "dsl", "policy", "analysis", "elaborate", "simulate", "report")

# Per-layer metrics: the median over traced passes of the summed span time.
SPAN_METRICS = {
    "fileformat.load_s": "fileformat.load",
    "dsl.parse_s": "dsl.parse",
    "dsl.flatten_s": "dsl.flatten",
    "policy.validate_s": "policy.validate",
    "analysis.table_s": "analysis.table",
    "analysis.forbidden_s": "analysis.forbidden",
    "analysis.vector_s": "analysis.vector",
    "analysis.greedy_s": "analysis.greedy",
    "analysis.mal_s": "analysis.mal",
    "elaborate.elaborate_s": "elaborate.elaborate",
    "elaborate.dot_s": "elaborate.dot",
    "simulate.run_s": "simulate.run",
    "report.analysis_text_s": "report.analysis_text",
    "report.canonical_s": "report.canonical",
    "report.run_text_s": "report.run_text",
    "report.csv_s": "report.csv",
}

COUNTS = (
    "fileformat.bytes", "fileformat.pipelines", "dsl.route_steps",
    "analysis.states", "analysis.edges", "analysis.bounds_met",
    "elaborate.nodes", "elaborate.edges",
    "simulate.hops", "simulate.stalls", "simulate.drops", "simulate.timed_waits",
    "simulate.final_ns", "simulate.exited",
    "report.bytes",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, operation id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()


class NullTracer:
    _null = nullcontext()

    def span(self, name: str):
        return self._null


def one_pass(workload: W.Workload, pipe_path: str, tracer) -> dict:
    """Drive every layer once; returns the pass's outputs for checking."""
    import pipesim as ps
    from pipesim import analysis, dsl, report, simulate

    span = tracer.span
    name = W.MAIN
    issue = ps.IssueSpec(kind="greedy")
    with span("pass"):
        with span("fileformat.load"):
            setup = ps.load_pipeline_file(pipe_path)
        with span("dsl.parse"):
            expr = dsl.parse(workload.expr, setup.decls)
        with span("dsl.flatten"):
            route = dsl.flatten(expr)
        with span("policy.validate"):
            checked = ps.validate_config(route, setup.configs, join=setup.join)
        with span("analysis"):
            with span("analysis.table"):
                table = analysis.reservation_table(route, setup.decls)
            with span("analysis.forbidden"):
                forbidden = analysis.forbidden_latencies(table)
            with span("analysis.vector"):
                vector = analysis.collision_vector(forbidden, table.length)
            with span("analysis.greedy"):
                greedy = analysis.greedy_cycle(vector)
            with span("analysis.mal"):
                mal = analysis.minimal_average_latency(vector)
        with span("elaborate.elaborate"):
            netlist = ps.elaborate(route, setup.decls)
        with span("elaborate.dot"):
            dot = ps.to_dot(netlist)
        with span("simulate.run"):
            result = simulate.run(netlist, checked, workload.inputs, issue=issue)
        analysed = analysis.AnalysisReport(
            route=route, table=table, forbidden=tuple(sorted(forbidden)),
            vector=vector, greedy=greedy, mal_cycle=mal,
        )
        with span("report.analysis_text"):
            analysis_text = report.analysis_text(name, analysed)
        with span("report.canonical"):
            analysis_json = report.canonical({
                "format_version": report.FORMAT_VERSION,
                "pipelines": {name: analysed.to_mapping()},
            }) + "\n"
            run_json = report.canonical(report.run_report_mapping(name, result, analysed, issue)) + "\n"
        with span("report.run_text"):
            run_text = report.run_report_text(name, result, analysed, issue)
        with span("report.csv"):
            csv_text = report.trace_to_csv(result.trace)
    return {
        "setup": setup, "route": route, "table": table, "vector": vector,
        "greedy": greedy, "netlist": netlist, "result": result,
        "renders": {
            "analysis_text": analysis_text,
            "analysis_json": analysis_json,
            "dot": dot,
            "run_json": run_json,
            "run_text": run_text,
            "csv": csv_text,
        },
    }


def counts_of(out: dict, pipe_bytes: int) -> dict[str, int]:
    """The deterministic counts of one pass."""
    vector, stats, netlist = out["vector"], out["result"].stats, out["netlist"]
    states, edges = W.state_graph(vector.forbidden, vector.length)
    return {
        "fileformat.bytes": pipe_bytes,
        "fileformat.pipelines": len(out["setup"].pipelines),
        "dsl.route_steps": len(out["route"]),
        "analysis.states": states,
        "analysis.edges": edges,
        "analysis.bounds_met": int(out["table"].max_row_marks() == out["greedy"].average),
        "elaborate.nodes": len(netlist.stages) + len(netlist.routers),
        "elaborate.edges": len(netlist.edges),
        "simulate.hops": sum(st.items for st in stats.stage.values()),
        "simulate.stalls": stats.total_stalls,
        "simulate.drops": stats.dropped,
        "simulate.timed_waits": stats.timed_waits,
        "simulate.final_ns": stats.final_time.ns,
        "simulate.exited": stats.exited,
        "report.bytes": sum(len(text.encode("utf-8")) for text in out["renders"].values()),
    }


def check_pass(workload: W.Workload, out: dict, expected: list[float]) -> tuple[list[str], dict]:
    """Model checks on one pass's outputs; also returns each MAL as printed."""
    doc = json.loads(out["renders"]["analysis_json"])
    errors, mals = checks.check_analysis_mapping(workload, doc["pipelines"])
    stats = out["result"].stats
    errors += checks.check_conservation({
        "injected": stats.injected, "exited": stats.exited,
        "dropped": stats.dropped, "in_flight": stats.in_flight,
    })
    if [rec.data for rec in out["result"].trace.records] != expected:
        errors.append("simulated data differs from the model's fold")
    return errors, mals


def check_golden(out: dict, counts: dict, mals: dict, golden: dict) -> list[str]:
    errors = []
    if checks.mal_digest(mals) != golden["mal"]:
        errors.append("MAL values differ from the recorded ones")
    for key, text in out["renders"].items():
        if checks.sha256(text) != golden["renders"][key]:
            errors.append(f"{key} rendering differs from the recorded digest")
    for key, value in counts.items():
        if value != golden["counts"][key]:
            errors.append(f"count {key} is {value}, recorded {golden['counts'][key]}")
    return errors


def span_sums(spans: list[list]) -> tuple[dict, dict]:
    """Per operation, the summed time of each span name and each layer's self
    time: its spans' duration minus the part their child spans cover."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_name: dict[str, dict[int, float]] = {}
    by_layer: dict[str, dict[int, float]] = {}
    for (name, start, end, _, op), children in zip(spans, child_time):
        per_op = by_name.setdefault(name, {})
        per_op[op] = per_op.get(op, 0.0) + end - start
        per_op = by_layer.setdefault(name.split(".")[0], {})
        per_op[op] = per_op.get(op, 0.0) + end - start - children
    return by_name, by_layer


def traced_run(workload: W.Workload, pipe_path: str, golden: dict, seconds: float,
               spans_path) -> tuple[dict, int, int, dict]:
    """Alternate untraced and traced passes for ``seconds``; returns
    (per-layer metrics, attempted, failed, details)."""
    pipe_bytes = os.path.getsize(pipe_path)
    expected = checks.expected_data(workload)
    tracer = Tracer()
    totals: dict[str, list[float]] = {"untraced": [], "traced": []}
    failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    while True:
        for mode, tr in (("untraced", NullTracer()), ("traced", tracer)):
            op = tracer.op
            t0 = time.perf_counter()
            out = one_pass(workload, pipe_path, tr)
            totals[mode].append(time.perf_counter() - t0)
            counts = counts_of(out, pipe_bytes)
            problems, mals = check_pass(workload, out, expected)
            problems += check_golden(out, counts, mals, golden)
            if problems:
                failed += 1
                errors += [f"pass {op}: {p}" for p in problems]
            tracer.op += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 2 / tracer.op) > seconds:
            break
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": tracer.spans}, fh)

    by_name, by_layer = span_sums(tracer.spans)
    metrics = {metric: (statistics.median(by_name[name].values()), "s")
               for metric, name in SPAN_METRICS.items()}
    metrics["simulate.hops_per_s"] = (counts["simulate.hops"] / metrics["simulate.run_s"][0], "1/s")
    for key in COUNTS:
        metrics[key] = (counts[key], "ns" if key.endswith("_ns") else "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(by_layer[layer].values()), "s")
    # Each traced pass follows an untraced one; the difference within a pair
    # is less exposed to changes in host speed than a difference of medians.
    metrics["trace.overhead_s"] = (
        statistics.median(t - u for u, t in zip(totals["untraced"], totals["traced"])), "s"
    )
    details = {"errors": errors[:20], "totals_s": totals}
    return metrics, tracer.op, failed, details
