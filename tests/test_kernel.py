import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipesim as ps
from oracles import random_expr, unit_configs
from pipesim import simulate
from pipesim.elaborate import RouterNode
from pipesim.engine import Engine
from pipesim.report import trace_to_csv


def declare_quad():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    configs = [
        ps.StageConfig(decls["S1"], ps.parse_function("data + 2*sqr(orig)")),
        ps.StageConfig(decls["S2"], ps.parse_function("data + 4*orig")),
        ps.StageConfig(decls["S3"], ps.parse_function("data - 7")),
    ]
    return decls, configs


def untimed_config(config):
    return ps.StageConfig(config.stage, config.function, ps.UNTIMED, config.channels, config.exec)


def run_route(decls, text, configs, inputs, **kw):
    route = ps.flatten(ps.parse(text, decls))
    return ps.run(ps.elaborate(route, decls), configs, inputs, **kw)


# -- functional behavior -------------------------------------------------------


def test_quadratic_pipeline_values():
    decls, configs = declare_quad()
    result = run_route(decls, "S1 >> S2 >> S3", configs, [0.0, 1.0, 2.0, 3.0])
    assert [r.data for r in result.trace.records] == [-7.0, -1.0, 9.0, 23.0]


def test_single_stage_square_function():
    decls = ps.declare_stages(["S1"])
    configs = [ps.StageConfig(decls["S1"], ps.parse_function("data + 2*sqr(orig)"))]
    result = run_route(decls, "S1", configs, [3.0])
    assert result.trace.records[0].data == 18.0


def test_eval_error_names_stage_and_transaction():
    decls = ps.declare_stages(["S1"])
    configs = [ps.StageConfig(decls["S1"], ps.parse_function("1 / data"))]
    with pytest.raises(ps.FunctionEvalError, match="stage S1, transaction 0"):
        run_route(decls, "S1", configs, [3.0])


# -- timing ---------------------------------------------------------------------


def test_complex_route_single_transaction_latency():
    decls, configs = declare_quad()
    result = run_route(
        decls, "S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2", configs, [5.0]
    )
    rec = result.trace.records[0]
    assert rec.exited_at - rec.injected_at == 8


def test_stage_delay_defers_output_write():
    decls = ps.declare_stages(["D"])
    configs = [
        ps.StageConfig(decls["D"], ps.parse_function("data + 1"),
                       timing=ps.TimingSpec.timed(5))
    ]
    result = run_route(decls, "D", configs, [1.0])
    occ = result.trace.occupancy[0]
    assert occ.start == 0 and occ.end == 5
    assert result.trace.records[0].exited_at == 5


def test_untimed_run_ends_at_zero_ns():
    decls, configs = declare_quad()
    untimed = [untimed_config(c) for c in configs]
    result = run_route(
        decls, "S1 >> S2 >> S3", untimed, [0.0, 1.0, 2.0], issue=ps.IssueSpec.eager()
    )
    assert result.stats.final_time.ns == 0
    assert result.stats.final_time.delta > 0
    assert result.stats.timed_waits == 0
    assert [r.data for r in result.trace.records] == [-7.0, -1.0, 9.0]


def test_lone_transaction_latency_is_sum_of_step_maxima():
    rng = random.Random(211)
    for _ in range(25):
        decls, expr = random_expr(rng, max_stages=4, max_terms=5)
        route = ps.flatten(expr)
        delays = {s: rng.randint(0, 3) for s in route.stages}
        configs = [
            ps.StageConfig(s, ps.parse_function("data"),
                           timing=ps.TimingSpec.timed(delays[s]))
            for s in route.stages
        ]
        join = ps.JoinSpec.left() if route.fork_steps() else None
        result = ps.run(ps.elaborate(route, decls), configs, [1.0], join=join)
        rec = result.trace.records[0]
        expected = sum(max(delays[s] for s in step) for step in route.steps)
        assert rec.exited_at - rec.injected_at == expected


# -- fork / join -----------------------------------------------------------------


def fork_configs(decls, d2=1, d3=1):
    return [
        ps.StageConfig(decls["S1"], ps.parse_function("data + orig")),
        ps.StageConfig(decls["S2"], ps.parse_function("data + 1"),
                       timing=ps.TimingSpec.timed(d2)),
        ps.StageConfig(decls["S3"], ps.parse_function("data + 10"),
                       timing=ps.TimingSpec.timed(d3)),
        ps.StageConfig(decls["S4"], ps.parse_function("data")),
    ]


def test_fork_copies_share_id_and_merge_once():
    decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
    result = run_route(
        decls, "S1 >> S2 + S3 >> S4", fork_configs(decls), [5.0, 6.0],
        join=ps.JoinSpec.sum(),
    )
    assert result.stats.injected == 2
    assert result.stats.exited == 2
    # (5+1) + (5+10) = 21 for the first input
    assert result.trace.records[0].data == 21.0


def test_terminal_fork_merges_at_exit():
    decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
    result = run_route(
        decls, "S1 >> S2 + S3", fork_configs(decls), [5.0],
        join=ps.JoinSpec.sum(),
    )
    assert result.stats.exited == 1
    assert result.trace.records[0].data == 21.0
    assert any("exit" in w for w in result.warnings)


def test_join_left_right_pick_branch_by_declaration_order():
    decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
    left = run_route(decls, "S1 >> S2 + S3 >> S4", fork_configs(decls), [5.0],
                     join=ps.JoinSpec.left())
    right = run_route(decls, "S1 >> S2 + S3 >> S4", fork_configs(decls), [5.0],
                      join=ps.JoinSpec.right())
    assert left.trace.records[0].data == 6.0
    assert right.trace.records[0].data == 15.0


# -- issue policies ----------------------------------------------------------------


def test_greedy_issue_on_linear_pipeline_streams_every_ns():
    decls, configs = declare_quad()
    result = run_route(decls, "S1 >> S2 >> S3", configs, [float(i) for i in range(6)])
    assert [r.injected_at for r in result.trace.records] == [0, 1, 2, 3, 4, 5]
    exits = [r.exited_at for r in result.trace.records]
    assert [b - a for a, b in zip(exits, exits[1:])] == [1, 1, 1, 1, 1]
    assert result.stats.total_stalls == 0


def test_greedy_issue_on_complex_route_spaces_by_mal():
    decls, configs = declare_quad()
    result = run_route(
        decls, "S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2",
        configs, [float(i) for i in range(8)],
    )
    inject = [r.injected_at for r in result.trace.records]
    assert [b - a for a, b in zip(inject, inject[1:])] == [4] * 7
    exits = [r.exited_at for r in result.trace.records]
    assert [b - a for a, b in zip(exits, exits[1:])] == [4] * 7
    assert result.stats.total_stalls == 0


def test_greedy_issue_never_double_books_a_stage():
    decls, configs = declare_quad()
    result = run_route(
        decls, "S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2",
        configs, [float(i) for i in range(8)],
    )
    seen = set()
    for occ in result.trace.occupancy:
        for t in range(occ.start, occ.end):
            assert (occ.stage, t) not in seen
            seen.add((occ.stage, t))


def test_eager_issue_records_structural_stalls():
    decls = ps.declare_stages(["S1", "S2"])
    configs = unit_configs(ps.flatten(ps.parse("S1 >> S2 >> S1", decls)))
    result = run_route(decls, "S1 >> S2 >> S1", configs,
                       [float(i) for i in range(6)], issue=ps.IssueSpec.eager())
    assert result.stats.stage["S1"].stalls > 0
    assert result.stats.exited == 6


def test_fixed_interval_in_forbidden_set_warns_and_stalls():
    decls = ps.declare_stages(["S1", "S2"])
    configs = unit_configs(ps.flatten(ps.parse("S1 >> S2 >> S1", decls)))
    result = run_route(decls, "S1 >> S2 >> S1", configs,
                       [float(i) for i in range(6)], issue=ps.IssueSpec.fixed(2))
    assert any("forbidden" in w for w in result.warnings)
    assert result.stats.total_stalls > 0
    assert result.stats.exited == 6


def test_fixed_interval_outside_forbidden_set_is_clean():
    decls = ps.declare_stages(["S1", "S2"])
    configs = unit_configs(ps.flatten(ps.parse("S1 >> S2 >> S1", decls)))
    result = run_route(decls, "S1 >> S2 >> S1", configs,
                       [float(i) for i in range(6)], issue=ps.IssueSpec.fixed(3))
    assert result.warnings == ()
    assert result.stats.total_stalls == 0


# -- determinism and conservation ----------------------------------------------------


def test_identical_runs_produce_identical_traces():
    decls, configs = declare_quad()
    runs = [
        run_route(decls, "S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2",
                  configs, [float(i) for i in range(10)], issue=ps.IssueSpec.eager())
        for _ in range(2)
    ]
    assert runs[0].trace == runs[1].trace
    assert runs[0].stats == runs[1].stats
    assert trace_to_csv(runs[0].trace) == trace_to_csv(runs[1].trace)


def test_conservation_across_random_runs():
    rng = random.Random(307)
    for _ in range(20):
        decls, expr = random_expr(rng, max_stages=5, max_terms=6)
        route = ps.flatten(expr)
        configs = unit_configs(route)
        join = ps.JoinSpec.sum() if route.fork_steps() else None
        issue = rng.choice(
            [ps.IssueSpec.greedy(), ps.IssueSpec.eager(), ps.IssueSpec.fixed(rng.randint(1, 3))]
        )
        result = ps.run(ps.elaborate(route, decls), configs, [1.0] * 5,
                        issue=issue, join=join)
        stats = result.stats
        assert stats.injected == stats.exited + stats.in_flight + stats.dropped
        assert stats.injected == 5 and stats.exited == 5


def test_items_processed_equals_marks_times_transactions():
    decls, configs = declare_quad()
    result = run_route(
        decls, "S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2",
        configs, [float(i) for i in range(5)],
    )
    assert result.stats.stage["S1"].items == 3 * 5
    assert result.stats.stage["S2"].items == 2 * 5
    assert result.stats.stage["S3"].items == 3 * 5


def test_signal_channels_drop_instead_of_blocking():
    decls = ps.declare_stages(["S1", "S2"])
    configs = [
        ps.StageConfig(decls["S1"], ps.parse_function("data + 1"), timing=ps.UNTIMED,
                       channels=ps.ChannelKind.SIGNAL, exec=ps.ExecKind.REACTIVE),
        ps.StageConfig(decls["S2"], ps.parse_function("data * 2"), timing=ps.UNTIMED,
                       channels=ps.ChannelKind.SIGNAL, exec=ps.ExecKind.REACTIVE),
    ]
    result = run_route(decls, "S1 >> S2", configs, [1.0, 2.0, 3.0, 4.0],
                       issue=ps.IssueSpec.eager())
    stats = result.stats
    assert stats.dropped > 0
    assert stats.total_stalls == 0
    assert stats.injected == stats.exited + stats.in_flight + stats.dropped
    assert sum(stats.drops_by_channel.values()) >= stats.dropped


def test_horizon_flags_partial_trace():
    decls, configs = declare_quad()
    result = run_route(decls, "S1 >> S2 >> S3", configs,
                       [float(i) for i in range(6)], horizon_ns=3)
    assert result.stats.truncated
    assert result.stats.exited < 6
    assert any(r.exited_at is None for r in result.trace.records)


# -- failure modes ---------------------------------------------------------------------


def test_missing_routing_entry_is_fatal():
    decls, configs = declare_quad()
    route = ps.flatten(ps.parse("S1 >> S2 >> S3", decls))
    netlist = ps.elaborate(route, decls)
    routers = list(netlist.routers)
    table = dict(routers[2].table.entries)
    del table[1]
    routers[2] = RouterNode(routers[2].name, routers[2].stage, ps.RoutingTable(entries=table))
    broken = ps.Netlist(netlist.route, netlist.stages, tuple(routers), netlist.edges)
    with pytest.raises(ps.RoutingFault, match="r_S2"):
        ps.run(broken, configs, [1.0])


def test_join_of_two_copies_from_one_branch_is_fatal():
    decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
    route = ps.flatten(ps.parse("S1 >> S2 + S3 >> S4", decls))
    netlist = ps.elaborate(route, decls)
    routers = list(netlist.routers)
    s2 = decls["S2"]
    routers[1] = RouterNode("r_S1", decls["S1"], ps.RoutingTable(entries={0: [s2, s2]}))
    broken = ps.Netlist(netlist.route, netlist.stages, tuple(routers), netlist.edges)
    with pytest.raises(ps.JoinError) as exc:
        ps.run(broken, fork_configs(decls), [1.0], join=ps.JoinSpec.sum())
    assert str(exc.value) == (
        "join for transaction 0 at step 1 received two copies from the same branch"
    )


def test_severed_channel_deadlocks_with_diagnostic():
    decls, configs = declare_quad()
    route = ps.flatten(ps.parse("S1 >> S2 >> S3", decls))
    netlist = ps.elaborate(route, decls)
    severed = sever(netlist, "r_S1", "S2")
    with pytest.raises(ps.DeadlockError) as exc:
        ps.run(severed, configs, [1.0])
    message = str(exc.value)
    assert "r_S1.out: blocked writing" in message
    assert "severed" in message
    assert "in flight" in message


def test_fork_without_join_rejected_at_run():
    decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
    route = ps.flatten(ps.parse("S1 >> S2 + S3 >> S4", decls))
    with pytest.raises(ps.ConfigError):
        ps.run(ps.elaborate(route, decls), fork_configs(decls), [1.0])


# -- pinned results ------------------------------------------------------------------

FEEDBACK = "S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2"
PIN_INPUTS = [round(0.37 * i + 0.25, 6) for i in range(12)]


def pinned_corpus():
    """Every run whose full ``repr(RunResult)`` is pinned below, by name."""
    decls, quad = declare_quad()
    cases = {}
    for text, label in (("S1 >> S2 >> S3", "quad"), (FEEDBACK, "feedback")):
        for issue in ("greedy", "eager", "fixed:1", "fixed:3"):
            spec = (ps.IssueSpec.fixed(int(issue[6:])) if issue.startswith("fixed")
                    else getattr(ps.IssueSpec, issue)())
            cases[f"{label}-{issue}"] = lambda text=text, spec=spec: run_route(
                decls, text, quad, PIN_INPUTS, issue=spec)
    cases["feedback-untimed-eager"] = lambda: run_route(
        decls, FEEDBACK, [untimed_config(c) for c in quad],
        PIN_INPUTS, issue=ps.IssueSpec.eager())
    cases["feedback-horizon"] = lambda: run_route(
        decls, FEEDBACK, quad, PIN_INPUTS, horizon_ns=17)

    fork = ps.declare_stages(["S1", "S2", "S3", "S4"])
    for join_name, join in (
        ("sum", ps.JoinSpec.sum()),
        ("custom", ps.JoinSpec.custom("dataL / (dataR + 1) - 0.5 * orig")),
    ):
        cases[f"forkjoin-{join_name}"] = lambda join=join: run_route(
            fork, "S1 >> S2 + S3 >> S4 >> S2 + S3", fork_configs(fork, d2=2),
            PIN_INPUTS, issue=ps.IssueSpec.eager(), join=join)

    sig = ps.declare_stages(["S1", "S2", "S3"])
    cases["signal-drops"] = lambda: run_route(
        sig, "S1 >> S2 >> S3",
        [
            ps.StageConfig(sig["S1"], ps.parse_function("data + orig / 3")),
            ps.StageConfig(sig["S2"], ps.parse_function("data * 1.5 - orig"),
                           timing=ps.TimingSpec.timed(3),
                           channels=ps.ChannelKind.SIGNAL),
            ps.StageConfig(sig["S3"], ps.parse_function("-data + sqr(orig)"),
                           timing=ps.UNTIMED, channels=ps.ChannelKind.SIGNAL,
                           exec=ps.ExecKind.REACTIVE),
        ],
        PIN_INPUTS, issue=ps.IssueSpec.eager())
    return cases


PINNED_DIGESTS = {
    "quad-greedy": "9e64b71d621a3a939a566c6eb6ccb23bcaf2b6dad60cc834b61fe885eb2a1a13",
    "quad-eager": "c7b7d3648cad6e2a22af465f69b6c4cc75056624b656f6205fd4bb9b1a4dcd45",
    "quad-fixed:1": "9e64b71d621a3a939a566c6eb6ccb23bcaf2b6dad60cc834b61fe885eb2a1a13",
    "quad-fixed:3": "cdb2f43ab655f801cbbd7d6dc0b5733164c19a0f66eaea9a383201f53904910d",
    "feedback-greedy": "f9c6714ecb4d5c30a6c9e6ee40d30067321c87bd1f5d9dbf3774ffa430c55fa0",
    "feedback-eager": "005f309cc6f5c178d81a0c21dc7d336b0ab267095a2faab8692481e35909cd3d",
    "feedback-fixed:1": "41dbd24a742553b65cc4e67f6b7170f1356ad082d519abd136470424bbe5dad4",
    "feedback-fixed:3": "bfca3fc990ee6bccb4939990ba02eb49a2a3d955b9c5b63060bb9ad999b22805",
    "feedback-untimed-eager": "33a6a4902ae6c562d795450a90efa4c52017d7729bf88adf416f2d3223a997fa",
    "feedback-horizon": "461c3e4720f5562c0c9a92ce3f8d2ff4ad1a8a634406ab6b30f1d56b385ba5a5",
    "forkjoin-sum": "76b4410b21131adffd9b652da0c3ce507c4840693566c75390da823e2937870d",
    "forkjoin-custom": "29185b9e7ed40ed40e9a11cc7bf1a2451ff9737a3e311694757caa0ff03881dc",
    "signal-drops": "b40f37200236ad5d7c68d837e39216c259681fb91c8ffedd9dadecbefa024349",
}

SEVERED_MESSAGE = """\
deadlock: 3 transaction(s) in flight and no runnable process
  in flight: 0, 1, 2
  processes:
    S1: blocked reading S1.in
    S2: blocked reading S2.in
    S3: blocked reading S3.in
    r_S1: blocked reading S1.out
    r_S1.out: blocked writing r_S1->S2 (severed)
    r_S2: blocked reading S2.out
    r_S2.out: blocked reading r_S2.q
    r_S3: blocked reading S3.out
    r_S3.out: blocked reading r_S3.q
  channels:
    S1.in: empty
    S1.out: empty
    S2.in: empty
    S2.out: empty
    S3.in: empty
    S3.out: empty"""


def test_run_results_pinned():
    # Every trace record, occupancy, stat and warning keeps its exact
    # bytes as long as the engine keeps its (ns, delta, seq) dispatch order.
    digests = {
        name: hashlib.sha256(repr(make()).encode()).hexdigest()
        for name, make in pinned_corpus().items()
    }
    assert digests == PINNED_DIGESTS

    decls, configs = declare_quad()
    route = ps.flatten(ps.parse("S1 >> S2 >> S3", decls))
    netlist = ps.elaborate(route, decls)
    severed = sever(netlist, "r_S1", "S2")
    with pytest.raises(ps.DeadlockError) as exc:
        ps.run(severed, configs, PIN_INPUTS[:3])
    assert str(exc.value) == SEVERED_MESSAGE


def ns_only(result):
    """A run's results as plain data with every delta left out: what a
    change that renumbers delta phases, and nothing else, keeps.  The
    occupancies are sorted, since delta phases order those of one ns."""
    trace, stats = result.trace, result.stats
    return (
        [(r.txn_id, r.orig, r.data, r.injected_at, r.exited_at, r.dropped)
         for r in trace.records],
        sorted((o.start, o.end, o.stage, o.txn_id) for o in trace.occupancy),
        (stats.injected, stats.exited, stats.dropped, stats.in_flight, stats.final_time.ns,
         stats.timed_waits, stats.total_stalls, dict(stats.stage),
         dict(stats.stalls_by_channel), dict(stats.drops_by_channel), stats.truncated),
        result.warnings,
    )


# The pinned corpus with every delta left out (see ns_only).
PINNED_NS_DIGESTS = {
    "quad-greedy": "2288ac004379d5bd7f570b71774e892ae54a5ef18f9211c3238255109710bdb6",
    "quad-eager": "dca20546b37f8aacf1fa3d338b6360ee4cf5f79a606388914d8e5c0585ee87ae",
    "quad-fixed:1": "2288ac004379d5bd7f570b71774e892ae54a5ef18f9211c3238255109710bdb6",
    "quad-fixed:3": "b9a5e632b0d63484bd2fbea9dcf641d6579ccd165d2da54989dd7f9f4c0fe90a",
    "feedback-greedy": "fecde6ac0b40d859768fdfdabeadaeab613c9f7c4c30981ad3c9acbb42430962",
    "feedback-eager": "5569e449d069350e0fffaa651eb461320296ffc13c67739c37a75e2f8b7f3da2",
    "feedback-fixed:1": "e0293b96200021bdb80864dd39f48a0f13ba8b3aa5175fcc5d94604b556728df",
    "feedback-fixed:3": "b8f09a717800bae26a3d804d142060681c1a9233d76f518ae4d5b9dbf5f374ca",
    "feedback-untimed-eager": "a14521ead6fc2efb3ec7c004dc4ea5723af997dcd42b0573d32e31c438bb8678",
    "feedback-horizon": "69bee75894d120a42459aaa390ad7e37c998fafe78ec8a8206855596fa1d05ec",
    "forkjoin-sum": "2697c2ab2ca5e08346c93a45172ce6c9843865bd6e81bb03b4eac4edb59e188d",
    "forkjoin-custom": "a55980f7f304576e061fdecc125b968d4690b08132eea42d53554c31dfe1e8ed",
    "signal-drops": "66f6de69b9b68c2d90d10e599e0d0373a6d4b8a4d750edc6e8fa033810cdd6f5",
}


def test_run_results_pinned_in_ns():
    digests = {
        name: hashlib.sha256(repr(ns_only(make())).encode()).hexdigest()
        for name, make in pinned_corpus().items()
    }
    assert digests == PINNED_NS_DIGESTS


# (Engine.resumes, Engine.timed) of each pinned run: an unchanged schedule
# resumes the same processes and pushes the same timed events in every mode.
PINNED_DISPATCH = {
    "quad-greedy": (165, 47),
    "quad-eager": (152, 36),
    "quad-fixed:1": (165, 47),
    "quad-fixed:3": (165, 47),
    "feedback-greedy": (405, 107),
    "feedback-eager": (394, 96),
    "feedback-fixed:1": (411, 107),
    "feedback-fixed:3": (423, 107),
    "feedback-untimed-eager": (407, 0),
    "feedback-horizon": (138, 37),
    "forkjoin-sum": (278, 72),
    "forkjoin-custom": (278, 72),
    "signal-drops": (94, 17),
}


def test_dispatch_counts_pinned(monkeypatch):
    engines = []

    class RecordedEngine(Engine):
        def __init__(self):
            super().__init__()
            engines.append(self)

    monkeypatch.setattr(simulate, "Engine", RecordedEngine)
    counts = {}
    for name, make in pinned_corpus().items():
        make()
        counts[name] = (engines[-1].resumes, engines[-1].timed)
    assert counts == PINNED_DISPATCH


def dispatch_corpus():
    """The pinned corpus plus two runs that block writers and run reactive stages.

    ``feedback-eager-64`` stalls often, so blocked writers are granted by
    ``(blocked_ns, txn_id, seq)``; ``reactive-untimed`` runs untimed
    ``REACTIVE`` stages on signal channels behind a timed blocking stage.
    """
    cases = pinned_corpus()
    decls, quad = declare_quad()
    inputs = [round(0.37 * i + 0.25, 6) for i in range(64)]
    cases["feedback-eager-64"] = lambda: run_route(
        decls, FEEDBACK, quad, inputs, issue=ps.IssueSpec.eager())

    def reactive(config):
        return ps.StageConfig(config.stage, config.function, ps.UNTIMED,
                              ps.ChannelKind.SIGNAL, ps.ExecKind.REACTIVE)

    cases["reactive-untimed"] = lambda: run_route(
        decls, FEEDBACK, [quad[0], reactive(quad[1]), reactive(quad[2])],
        PIN_INPUTS, issue=ps.IssueSpec.eager())
    return cases


# SHA-256 of each run's dispatch sequence, one "(process name) (ns) (delta)"
# line per resume: the engine resumes the same processes in the same order.
PINNED_DISPATCH_SEQUENCES = {
    "quad-greedy": "887e73c3d875ed1c5c3209b552ab320539b5458aba22737fffb53511e3f01663",
    "quad-eager": "d65beca983e0fb3b1e91d53015c59dfcf016bb10e2b0e1094d98621f4a2ec7d7",
    "quad-fixed:1": "887e73c3d875ed1c5c3209b552ab320539b5458aba22737fffb53511e3f01663",
    "quad-fixed:3": "bdd6464f29265c3aaf15eb0256b0266a9663249e7e1ba097ee541f6e717f1e9f",
    "feedback-greedy": "a3946ccb741e4b833a7bd24f08b1a808f5af5999a52b9979c930705c559c9e39",
    "feedback-eager": "df1ab32780c28ab56351aa43428f576a472bb5f08377104815e912e788abf1e7",
    "feedback-fixed:1": "e10468bb0f4bd4bbd4572c786526fafa7c9cb0115716a22c57ab848e6eee30e9",
    "feedback-fixed:3": "5bd1b33bf4ad1e11a2aaaa2ea8200783c8adf9cb4438d81b5c88761eff0418c3",
    "feedback-untimed-eager": "02983fd88d6facc672998b9a469fcd948c9c29af3a720f15303a9c2f578248fc",
    "feedback-horizon": "f62893b34e046af5f462a43c56e63e0ccc80f04fc930a728b65fe7e750e245be",
    "forkjoin-sum": "df1c27395aff76f5c634156dab05b88708b12a28695a46a75bce81c81bf2516d",
    "forkjoin-custom": "df1c27395aff76f5c634156dab05b88708b12a28695a46a75bce81c81bf2516d",
    "signal-drops": "282abec4e0b80caa4bfb748446af779166fd7ecf06bf181fd61c5e8c64cdfed5",
    "feedback-eager-64": "48d6e8732697acfeb6a218f83b775982ed279dc575a783cdaa2336c898c98f7b",
    "reactive-untimed": "2f0c75e1ea16eed22eab3613a808ea2b1954a440ee0a1144341e7aec409d4eda",
}


def test_dispatch_sequences_pinned(dispatch_recorder):
    digests = {}
    for name, make in dispatch_corpus().items():
        make()
        digests[name] = dispatch_recorder.digest()
    assert digests == PINNED_DISPATCH_SEQUENCES


def issue_corpus():
    """Issue runs that the pinned corpus leaves out, by name.

    The custom-join fork route under greedy and ``fixed:2`` issue, and the
    feedback route with every stage at delay 2, on inputs 1..6, under greedy
    and ``fixed:4`` issue.  Analysis counts latencies in route steps, not ns,
    so greedy issue of the slow feedback route stalls without a warning.
    """
    fork = ps.declare_stages(["S1", "S2", "S3", "S4"])
    custom = ps.JoinSpec.custom("dataL / (dataR + 1) - 0.5 * orig")
    decls, quad = declare_quad()
    slow = [ps.StageConfig(c.stage, c.function, timing=ps.TimingSpec.timed(2)) for c in quad]
    cases = {}
    for issue in (ps.IssueSpec.greedy(), ps.IssueSpec.fixed(2)):
        cases[f"forkjoin-custom-{issue.kind}"] = lambda issue=issue: run_route(
            fork, "S1 >> S2 + S3 >> S4 >> S2 + S3", fork_configs(fork, d2=2),
            PIN_INPUTS, issue=issue, join=custom)
    for issue in (ps.IssueSpec.greedy(), ps.IssueSpec.fixed(4)):
        cases[f"feedback-delay2-{issue.kind}"] = lambda issue=issue: run_route(
            decls, FEEDBACK, slow, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], issue=issue)
    return cases


# SHA-256 of each issue run's repr(RunResult), then of its dispatch sequence.
PINNED_ISSUE_RUNS = {
    "forkjoin-custom-greedy": ("19d195f599124e07873505268d6de12a7d909e6d96a987bfb661a9716c36223e",
        "f0a88abe583ac3a1afe9749de251cb70bd599b615a8e17a49907dadae144ba92"),
    "forkjoin-custom-fixed": ("cd6216b848c211d02fcd0f83670bd8eb64ac7de420cc5142cb7a9905b8ecc8cc",
        "639517ac7ee79693641a8d4c282bd386d05f6c5e2c86353b7fb5e0705fd0a469"),
    "feedback-delay2-greedy": ("2906c8c622fefa9601f8db445ef70c8ca6bd5b6385c21ff539de34fd4f26a1ea",
        "93e1f742fd196423bcc103e5995088ffaf9a0489efb62915bbf855e27b333050"),
    "feedback-delay2-fixed": ("2906c8c622fefa9601f8db445ef70c8ca6bd5b6385c21ff539de34fd4f26a1ea",
        "93e1f742fd196423bcc103e5995088ffaf9a0489efb62915bbf855e27b333050"),
}


def test_issue_runs_pinned(dispatch_recorder):
    digests = {}
    for name, make in issue_corpus().items():
        result = make()
        if name.startswith("feedback-delay2"):
            # Step latencies read as ns: 17 structural stalls and no warning.
            assert (result.stats.total_stalls, result.warnings) == (17, ())
        digests[name] = (hashlib.sha256(repr(result).encode()).hexdigest(),
                         dispatch_recorder.digest())
    assert digests == PINNED_ISSUE_RUNS


def test_stage_outputs_never_stall():
    # A stage writes its output without a blocked-write path: the router
    # drains each output one delta after the write, before the next one.
    for name, make in {**dispatch_corpus(), **issue_corpus()}.items():
        stalls = make().stats.stalls_by_channel
        assert [c for c in stalls if c.endswith(".out")] == [], name


# -- issue process states ----------------------------------------------------------------

ENTRY_SEVERED_MESSAGE = """\
deadlock: 1 transaction(s) in flight and no runnable process
  in flight: 0
  processes:
    issue: blocked writing entry->S1 (severed)
    S1: blocked reading S1.in
    S2: blocked reading S2.in
    S3: blocked reading S3.in
    r_S1: blocked reading S1.out
    r_S1.out: blocked reading r_S1.q
    r_S2: blocked reading S2.out
    r_S2.out: blocked reading r_S2.q
    r_S3: blocked reading S3.out
    r_S3.out: blocked reading r_S3.q
  channels:
    S1.in: empty
    S1.out: empty
    S2.in: empty
    S2.out: empty
    S3.in: empty
    S3.out: empty"""

SECOND_BRANCH_SEVERED_MESSAGE = """\
deadlock: 1 transaction(s) in flight and no runnable process
  in flight: 0
  processes:
    issue: blocked writing entry->S3 (severed)
    S2: blocked reading S2.in
    S3: blocked reading S3.in
    S4: blocked reading S4.in
    r_S2: blocked reading S2.out
    r_S2.out: blocked reading r_S2.q
    r_S3: blocked reading S3.out
    r_S3.out: blocked reading r_S3.q
    r_S4: blocked reading S4.out
    r_S4.out: blocked reading r_S4.q
  channels:
    S2.in: empty
    S2.out: empty
    S3.in: empty
    S3.out: empty
    S4.in: empty
    S4.out: empty"""


def sever(netlist, src, dst):
    edges = tuple(e for e in netlist.edges if (e.src, e.dst) != (src, dst))
    return ps.Netlist(netlist.route, netlist.stages, netlist.routers, edges)


@pytest.mark.parametrize("issue", ["greedy", "eager", "fixed:2"])
def test_issue_blocked_on_severed_entry_pinned(issue):
    decls, configs = declare_quad()
    netlist = ps.elaborate(ps.flatten(ps.parse("S1 >> S2 >> S3", decls)), decls)
    spec = ps.IssueSpec.fixed(2) if issue == "fixed:2" else getattr(ps.IssueSpec, issue)()
    with pytest.raises(ps.DeadlockError) as exc:
        ps.run(sever(netlist, "entry", "S1"), configs, PIN_INPUTS[:3], issue=spec)
    assert str(exc.value) == ENTRY_SEVERED_MESSAGE


def test_issue_blocked_on_second_entry_branch_pinned():
    # The copy for S2 is accepted (S2 works it and its router holds it for the
    # join); the issue process then blocks on the copy for S3.
    decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
    netlist = ps.elaborate(ps.flatten(ps.parse("S2 + S3 >> S4", decls)), decls)
    with pytest.raises(ps.DeadlockError) as exc:
        ps.run(sever(netlist, "entry", "S3"), fork_configs(decls), PIN_INPUTS[:3],
               join=ps.JoinSpec.sum())
    assert str(exc.value) == SECOND_BRANCH_SEVERED_MESSAGE


SIGNAL_SEVERED_MESSAGE = """\
deadlock: 5 transaction(s) in flight and no runnable process
  in flight: 0, 2, 5, 8, 11
  processes:
    S1: blocked reading S1.in
    S2: blocked reading S2.in
    S3: blocked reading S3.in
    r_S1: blocked reading S1.out
    r_S1.out: blocked reading r_S1.q
    r_S2: blocked reading S2.out
    r_S2.out: blocked writing r_S2->S3 (severed)
    r_S3: blocked reading S3.out
    r_S3.out: blocked reading r_S3.q
  channels:
    S1.in: empty
    S1.out: empty
    S2.in: idle, 7 dropped
    S2.out: idle
    S3.in: idle
    S3.out: idle"""


def test_signal_drops_deadlock_pinned(monkeypatch):
    # The signal-drops run of the pinned corpus with its r_S2 -> S3 edge
    # severed: the text counts S2's drops, and the in-flight list leaves out
    # the ids it dropped.
    elaborate = ps.elaborate
    monkeypatch.setattr(
        ps, "elaborate", lambda route, decls: sever(elaborate(route, decls), "r_S2", "S3")
    )
    with pytest.raises(ps.DeadlockError) as exc:
        pinned_corpus()["signal-drops"]()
    assert str(exc.value) == SIGNAL_SEVERED_MESSAGE


@pytest.mark.parametrize("issue", ["greedy", "eager", "fixed:2"])
def test_run_without_inputs_finishes_the_issue_process(monkeypatch, issue):
    engines = []

    class RecordedEngine(Engine):
        def __init__(self):
            super().__init__()
            engines.append(self)

    monkeypatch.setattr(simulate, "Engine", RecordedEngine)
    decls, configs = declare_quad()
    spec = ps.IssueSpec.fixed(2) if issue == "fixed:2" else getattr(ps.IssueSpec, issue)()
    result = run_route(decls, "S1 >> S2 >> S3", configs, [], issue=spec)
    assert result.stats.injected == 0
    assert result.trace.records == ()
    assert str(result.stats.final_time) == "0ns+0d"
    (engine,) = engines
    assert repr(engine.processes[0]) == "Process(issue, finished)"
    assert (engine.resumes, engine.timed) == (10, 0)


# -- occupancy log ---------------------------------------------------------------------


def test_stage_stats_match_the_occupancy_log():
    for name, make in pinned_corpus().items():
        result = make()
        for stage, st in result.stats.stage.items():
            spans = [o for o in result.trace.occupancy if o.stage == stage]
            assert st.items == len(spans), (name, stage)
            assert st.busy_ns == sum(o.end - o.start for o in spans), (name, stage)


def test_occupancy_is_built_on_first_read_and_cached():
    decls, configs = declare_quad()
    trace = run_route(decls, FEEDBACK, configs, PIN_INPUTS).trace
    assert "occupancy" not in trace.__dict__
    first = trace.occupancy
    assert trace.occupancy is first
    assert len(first) == len(PIN_INPUTS) * 8
    assert first[0] == ps.Occupancy("S1", 0, 0, 1)


def test_identical_runs_give_equal_traces():
    decls, configs = declare_quad()
    one = run_route(decls, FEEDBACK, configs, PIN_INPUTS).trace
    two = run_route(decls, FEEDBACK, configs, PIN_INPUTS).trace
    assert one.occupancy  # a built cache must not enter equality or hash
    assert one == two and hash(one) == hash(two)
    eager = run_route(decls, FEEDBACK, configs, PIN_INPUTS, issue=ps.IssueSpec.eager()).trace
    assert one != eager


def test_trace_equality_builds_no_view():
    decls, configs = declare_quad()
    one = run_route(decls, FEEDBACK, configs, PIN_INPUTS).trace
    two = run_route(decls, FEEDBACK, configs, PIN_INPUTS).trace
    assert one == two
    for trace in (one, two):
        assert "records" not in vars(trace) and "occupancy_log" not in vars(trace)


def test_trace_equality_of_columns_agrees_with_the_views():
    def changed(trace, record=None, entry=None):
        records, log = list(trace.records), list(trace.occupancy_log)
        if record is not None:
            records[0] = ps.TraceRecord(*record(records[0]))
        if entry is not None:
            log[0] = entry(log[0])
        return ps.Trace(records=tuple(records), occupancy_log=tuple(log))

    traces, runs = [], []
    for make in pinned_corpus().values():
        trace = make().trace
        first = trace.records[0]
        runs.append(len(traces))
        traces += [
            trace,
            ps.Trace(records=trace.records, occupancy_log=trace.occupancy_log),
            changed(trace, record=lambda r: (r.txn_id, r.orig, r.data + 1.0, r.injected_at,
                                             r.exited_at, r.dropped)),
            changed(trace, entry=lambda e: (*e[:3], e[3] + 1, *e[4:])),
        ]
        if first.injected_at is not None:
            traces.append(changed(trace, record=lambda r: (r.txn_id, r.orig, r.data,
                                                           r.injected_at + 1, r.exited_at,
                                                           r.dropped)))
    by_columns = [[a == b for b in traces] for a in traces]
    by_views = [[(a.records, a.occupancy_log) == (b.records, b.occupancy_log) for b in traces]
                for a in traces]
    assert by_columns == by_views
    # Each run equals its rebuild and differs from its changed copies.
    assert all(by_columns[i][i + 1] and not any(by_columns[i][i + 2:i + 4]) for i in runs)


# -- liveness ----------------------------------------------------------------------------

DELAYS = st.one_of(st.integers(0, 3).map(ps.TimingSpec.timed), st.just(ps.UNTIMED))


@st.composite
def stage_configs(draw, stage):
    """Any config validation accepts: a reactive stage has signal channels
    and no delay."""
    function = ps.parse_function(draw(st.sampled_from(["data + orig", "data * 0.5 - 1"])))
    if draw(st.booleans()):
        timing = draw(st.sampled_from([ps.TimingSpec.timed(0), ps.UNTIMED]))
        return ps.StageConfig(stage, function, timing, ps.ChannelKind.SIGNAL, ps.ExecKind.REACTIVE)
    channels = draw(st.sampled_from([ps.ChannelKind.BLOCKING, ps.ChannelKind.SIGNAL]))
    return ps.StageConfig(stage, function, draw(DELAYS), channels)


@st.composite
def valid_pipelines(draw):
    """(netlist, checked config, inputs, issue) of a random valid pipeline:
    a route of stage references, repeats and forks over up to five stages,
    each stage with a config of its own, a join when the route forks, any
    issue kind and 1-30 inputs."""
    decls = ps.declare_stages([f"S{i}" for i in range(draw(st.integers(1, 5)))])
    stages = list(decls)
    terms = [st.sampled_from(stages).map(ps.StageRef),
             st.builds(ps.repeat, st.sampled_from(stages), st.integers(1, 3))]
    if len(stages) > 1:
        terms.append(st.lists(st.sampled_from(stages), min_size=2, max_size=3, unique=True)
                     .map(ps.fork))
    expr = None
    for term in draw(st.lists(st.one_of(terms), min_size=1, max_size=6)):
        expr = term if expr is None else ps.seq(expr, term)
    route = ps.flatten(expr)
    join = None
    if route.fork_steps():
        join = draw(st.sampled_from([ps.JoinSpec.sum(), ps.JoinSpec.left(), ps.JoinSpec.right(),
                                     ps.JoinSpec.custom("dataL - dataR / 2")]))
    checked = ps.validate_config(route, [draw(stage_configs(s)) for s in route.stages], join=join)
    issue = draw(st.one_of(st.sampled_from([ps.IssueSpec.greedy(), ps.IssueSpec.eager()]),
                           st.integers(1, 4).map(ps.IssueSpec.fixed)))
    count = draw(st.integers(1, 30))  # drawn apart, so long input lists are as likely as short
    inputs = draw(st.lists(st.integers(-9, 9).map(float), min_size=count, max_size=count))
    return ps.elaborate(route, decls), checked, inputs, issue


@settings(max_examples=150, deadline=None)
@given(valid_pipelines())
def test_valid_pipelines_never_deadlock(pipeline):
    # A stage's output write never blocks, a router's queue is unbounded and
    # a latch empties after its stage's delay, so every run ends, and every
    # transaction exits or is dropped (a dropped fork copy drops its id).
    netlist, checked, inputs, issue = pipeline
    stats = ps.run(netlist, checked, inputs, issue=issue).stats
    assert stats.injected == len(inputs)
    assert stats.injected == stats.exited + stats.dropped + stats.in_flight
    assert stats.in_flight == 0 and not stats.truncated
    # Nor does it overwrite an unread value.
    outputs = [c for c in (*stats.stalls_by_channel, *stats.drops_by_channel) if c.endswith(".out")]
    assert outputs == []
