"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a PASS line
so `pytest -v -s tests/test_acceptance.py` reads as a checklist.  Expected
values tagged as derived were confirmed by the independent oracles in
oracles.py (membership scans, schedule simulation, brute-force cycle
enumeration) before being frozen here; several tests re-run the oracle
inline.
"""

import json
import random
from fractions import Fraction

import pipesim as ps
from pipesim import cli
from oracles import (
    cycle_is_permissible,
    forbidden_by_differences,
    forbidden_by_schedule,
    marks_by_scan,
    random_expr,
    replay_routing_tables,
    unit_configs,
)

QUAD = """\
stage S1 { fn = "data + 2*sqr(orig)"; delay = 1; }
stage S2 { fn = "data + 4*orig";      delay = 1; }
stage S3 { fn = "data - 7";           delay = 1; }
pipeline = S1 >> S2 >> S3;
"""

LOOPED_EXPR = "S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2"

LOOPED = """\
stage S1 { fn = "data + 1"; delay = 1; }
stage S2 { fn = "data";     delay = 1; }
stage S3 { fn = "data";     delay = 1; }
pipeline = %s;
""" % LOOPED_EXPR

FEEDBACK = """\
stage S1 { fn = "data + 1"; delay = 1; }
stage S2 { fn = "data";     delay = 1; }
pipeline = S1 >> S2 >> S1;
"""


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_quadratic_function(tmp_path, capsys):
    """The three-stage pipeline computes 2x^2 + 4x - 7 exactly."""
    path = tmp_path / "quad.pipe"
    path.write_text(QUAD, encoding="utf-8")
    code, out, _ = invoke(capsys, "run", str(path), "--inputs", "0,1,2,3",
                          "--format", "json-like")
    assert code == 0
    results = json.loads(out)["results"]
    assert [r["data"] for r in results] == [-7, -1, 9, 23]
    assert all(isinstance(r["data"], int) for r in results)  # integer-exact
    report(1, "inputs {0,1,2,3} -> {-7,-1,9,23} exactly")


def test_criterion_2_repeat_desugaring():
    """S*n flattens like n-fold explicit sequencing; Adder*10 has 10 steps."""
    decls = ps.declare_stages(["S", "Adder"])
    s = decls["S"]
    for n in range(1, 17):
        explicit = ps.StageRef(s)
        for _ in range(n - 1):
            explicit = ps.seq(explicit, s)
        assert ps.flatten(ps.repeat(s, n)) == ps.flatten(explicit)
    adder = ps.flatten(ps.repeat(decls["Adder"], 10))
    assert len(adder) == 10
    assert all(step == frozenset({decls["Adder"]}) for step in adder.steps)
    report(2, "S*n == n-fold sequence for n in 1..16; Adder*10 has 10 steps")


def test_criterion_3_complex_expression_end_to_end():
    """Route, reservation table, forbidden set, and MAL for the 8-step expression."""
    decls = ps.declare_stages(["S1", "S2", "S3"])
    route = ps.flatten(ps.parse(LOOPED_EXPR, decls))
    assert route.describe() == "S1 S2 S3 S1 S3 S3 S1 S2"

    table = ps.reservation_table(route, decls)
    marks = {s.name: list(table.marks[s]) for s in table.stages}
    assert marks == marks_by_scan(route)  # oracle: membership scan
    assert marks == {"S1": [0, 3, 6], "S2": [1, 7], "S3": [2, 4, 5]}

    forbidden = ps.forbidden_latencies(table)
    assert forbidden == forbidden_by_differences(route)  # oracle: pairwise diffs
    assert forbidden == forbidden_by_schedule(route)  # oracle: schedule sim
    assert forbidden == {1, 2, 3, 6}

    result = ps.minimal_average_latency(ps.collision_vector(forbidden, table.length))
    # oracle: every latency up to 3 is forbidden, so any permissible cycle
    # averages at least 4, and the constant cycle (4) is collision-free by
    # schedule simulation; hence MAL is exactly 4
    assert {1, 2, 3} <= forbidden
    assert cycle_is_permissible(route, (4,))
    assert table.max_row_marks() == 3
    assert result.average == 4 and result.latencies == (4,)
    report(3, "route, marks, forbidden {1,2,3,6}, MAL 4 all oracle-confirmed")


def test_criterion_4_analysis_simulation_agreement():
    """Forbidden latencies stall, permissible ones do not, greedy hits its cycle."""
    rng = random.Random(777)
    trials = 0
    while trials < 50:
        decls, expr = random_expr(rng, max_stages=6, max_terms=10)
        route = ps.flatten(expr)
        if len(route) > 12:
            continue
        trials += 1
        analysis = ps.analyze(route)
        forbidden = set(analysis.forbidden)
        length = len(route)
        configs = unit_configs(route)
        join = ps.JoinSpec.sum() if route.fork_steps() else None
        netlist = ps.elaborate(route, decls)
        for d in range(1, length):
            result = ps.run(netlist, configs, [float(i) for i in range(6)],
                            issue=ps.IssueSpec.fixed(d), join=join)
            if d in forbidden:
                assert result.stats.total_stalls >= 1, (route.describe(), d)
            if cycle_is_permissible(route, (d,)):
                assert result.stats.total_stalls == 0, (route.describe(), d)
        greedy = analysis.greedy
        n = 4 + 3 * len(greedy.latencies)
        result = ps.run(netlist, configs, [float(i) for i in range(n)],
                        issue=ps.IssueSpec.greedy(), join=join)
        inject = [r.injected_at.ns for r in result.trace.records]
        k = len(greedy.latencies)
        # steady state: after at most one warm-up transaction the issue
        # intervals repeat the greedy cycle, so the last full cycle is exact
        measured = Fraction(inject[-1] - inject[-1 - k], k)
        assert measured == greedy.average, route.describe()
    report(4, "50 random expressions: stalls match forbidden sets, greedy matches cycle")


def test_criterion_5_timing_policies():
    """Untimed ends at 0 ns with no timed waits; delays add and scale linearly."""
    decls = ps.declare_stages(["S1", "S2", "S3"])
    route = ps.flatten(ps.parse("S1 >> S2 >> S3", decls))
    netlist = ps.elaborate(route, decls)

    untimed = [ps.StageConfig(s, ps.parse_function("data + 1"), timing=ps.UNTIMED)
               for s in route.stages]
    result = ps.run(netlist, untimed, [1.0, 2.0, 3.0], issue=ps.IssueSpec.eager())
    assert result.stats.final_time.ns == 0
    assert result.stats.timed_waits == 0
    assert result.stats.exited == 3

    timed = unit_configs(route)
    lone = ps.run(netlist, timed, [1.0])
    rec = lone.trace.records[0]
    assert rec.exited_at.ns - rec.injected_at.ns == len(route)

    for scale in (2, 3, 5):
        scaled = [
            ps.StageConfig(s, ps.parse_function("data + 1"),
                           timing=ps.TimingSpec.timed(scale))
            for s in route.stages
        ]
        run_scaled = ps.run(netlist, scaled, [1.0])
        for stage in route.stages:
            base = lone.stats.stage[stage.name].busy_ns
            assert run_scaled.stats.stage[stage.name].busy_ns == scale * base
    report(5, "untimed at 0 ns with 0 timed waits; Timed(d) latency and busy time scale")


def test_criterion_6_fork_join_sum():
    """Fork copies merge by sum regardless of arrival order; one exit per input."""
    decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
    route = ps.flatten(ps.parse("S1 >> S2 + S3 >> S4", decls))
    netlist = ps.elaborate(route, decls)

    def configs(d2, d3):
        return [
            ps.StageConfig(decls["S1"], ps.parse_function("data + orig")),
            ps.StageConfig(decls["S2"], ps.parse_function("data + 1"),
                           timing=ps.TimingSpec.timed(d2)),
            ps.StageConfig(decls["S3"], ps.parse_function("data + 10"),
                           timing=ps.TimingSpec.timed(d3)),
            ps.StageConfig(decls["S4"], ps.parse_function("data")),
        ]

    inputs = [5.0, 6.0, 7.0]
    expected = [(x + 1) + (x + 10) for x in inputs]  # dataL + dataR
    left_first = ps.run(netlist, configs(1, 2), inputs, join=ps.JoinSpec.sum())
    right_first = ps.run(netlist, configs(2, 1), inputs, join=ps.JoinSpec.sum())
    for result in (left_first, right_first):
        assert [r.data for r in result.trace.records] == expected
        assert result.stats.exited == len(inputs)
        assert result.stats.injected == len(inputs)
    report(6, "sum join is arrival-order independent; exactly one exit per injection")


def test_criterion_7_elaboration_round_trip():
    """Routing tables replay to the exact route; node counts match."""
    rng = random.Random(4242)
    for _ in range(100):
        decls, expr = random_expr(rng)
        route = ps.flatten(expr)
        netlist = ps.elaborate(route, decls)
        assert replay_routing_tables(netlist) == route
        assert len(netlist.stages) == len(route.stages)
        assert len(netlist.routers) == len(route.stages) + 1
    report(7, "100 fuzzed routes replay exactly; stage and router counts hold")


def test_criterion_8_determinism(tmp_path, capsys):
    """Identical CLI invocations produce byte-identical stdout, CSV, and DOT."""
    files = {
        "quad.pipe": QUAD,
        "looped.pipe": LOOPED,
        "feedback.pipe": FEEDBACK,
    }
    paths = {}
    for name, text in files.items():
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    trace = tmp_path / "trace.csv"
    dot = tmp_path / "net.dot"
    invocations = [
        ("analyze", paths["looped.pipe"]),
        ("analyze", paths["looped.pipe"], "--format", "json-like"),
        ("run", paths["quad.pipe"], "--inputs", "0,1,2,3", "--trace", str(trace)),
        ("run", paths["looped.pipe"], "--inputs", "1,2,3,4,5", "--format", "json-like"),
        ("run", paths["feedback.pipe"], "--inputs", "1,2,3", "--issue", "fixed:2"),
        ("elaborate", paths["looped.pipe"], "--dot", str(dot)),
    ]
    for argv in invocations:
        first = invoke(capsys, *argv)
        files_first = (
            trace.read_bytes() if trace.exists() else b"",
            dot.read_bytes() if dot.exists() else b"",
        )
        second = invoke(capsys, *argv)
        files_second = (
            trace.read_bytes() if trace.exists() else b"",
            dot.read_bytes() if dot.exists() else b"",
        )
        assert first == second, argv
        assert files_first == files_second, argv
    report(8, "all CLI invocations byte-identical across repeat runs")


def test_criterion_9_deadlock_diagnostics(capsys):
    """A severed channel ends with exit code 2 naming the blocked process."""
    decls = ps.declare_stages(["S1", "S2", "S3"])
    route = ps.flatten(ps.parse("S1 >> S2 >> S3", decls))
    netlist = ps.elaborate(route, decls)
    severed = ps.Netlist(
        netlist.route, netlist.stages, netlist.routers,
        tuple(e for e in netlist.edges if not (e.src == "r_S1" and e.dst == "S2")),
    )
    checked = ps.validate_config(route, unit_configs(route))
    code = cli.run_and_report(
        severed, checked, [1.0], ps.IssueSpec.greedy(), None, "main", "text"
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "deadlock" in captured.err
    assert "r_S1.out: blocked writing" in captured.err
    report(9, "severed channel exits 2 and names the blocked process")
