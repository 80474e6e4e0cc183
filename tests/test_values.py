"""Value semantics of the package's record classes.

Each class is built twice from the same field values, once by position and
once by keyword.  The pins cover the repr text, equality and hash, the
refusal of assignment, and equality across classes.
"""

import pytest

import pipesim as ps
from pipesim._value import Value
from pipesim.elaborate import ChannelEdge, RouterNode, RoutingTable
from pipesim.fileformat import PipelineSetup
from pipesim.simulate import Occupancy, StageStats, Stats, TraceRecord, Transaction

A = ps.StageId("A", 0)
B = ps.StageId("B", 1)
FN = ps.parse_function("data + 1")
JOIN_FN = ps.parse_function("dataL + dataR", ("orig", "dataL", "dataR"))
ROUTE = ps.Route((frozenset({A}), frozenset({B})))
TABLE = ps.ReservationTable(stages=(A, B), length=2, marks={A: (0,), B: (1,)})
VECTOR = ps.CollisionVector(length=2, bits=(False,))
CYCLE = ps.IssueCycle((1,))
ROUTER = RouterNode("r_A", A, RoutingTable({0: ps.EXIT}))
EDGE = ChannelEdge("r_A", "exit", None)
CONFIG = ps.StageConfig(A, FN)
RECORD = TraceRecord(0, 1.0, 2.0, 0, None, False)
TRACE = ps.Trace(records=(RECORD,), occupancy_log=(("A", 0, 0, 1),))
STAGE_STATS = StageStats(1, 1, 0)
STATS = Stats(1, 0, 0, 1, ps.SimTime(1, 0), 1, 0, {"A": STAGE_STATS}, {}, {"A.in": 2}, True)
DECLS = ps.declare_stages(["A", "B"])


def compiled(values):
    return values[0]


# (class, field values in constructor order, repr)
CASES = [
    (ps.StageId, {"name": "A", "ordinal": 0}, "StageId('A', 0)"),
    (ps.StageRef, {"stage": A}, "StageRef(stage=StageId('A', 0))"),
    (ps.Seq, {"items": (ps.StageRef(A), ps.StageRef(B))},
     "Seq(items=(StageRef(stage=StageId('A', 0)), StageRef(stage=StageId('B', 1))))"),
    (ps.Repeat, {"stage": A, "count": 2}, "Repeat(stage=StageId('A', 0), count=2)"),
    (ps.Fork, {"stages": (A, B)}, "Fork(stages=(StageId('A', 0), StageId('B', 1)))"),
    (ps.Route, {"steps": (frozenset({A}), frozenset({B}))},
     "Route(steps=(frozenset({StageId('A', 0)}), frozenset({StageId('B', 1)})))"),
    (ps.ReservationTable, {"stages": (A, B), "length": 2, "marks": {A: (0,), B: (1,)}},
     "ReservationTable(stages=(StageId('A', 0), StageId('B', 1)), length=2, "
     "marks={StageId('A', 0): (0,), StageId('B', 1): (1,)})"),
    (ps.CollisionVector, {"length": 3, "bits": (False, True)},
     "CollisionVector(length=3, bits=(False, True))"),
    (ps.IssueCycle, {"latencies": (1, 3)}, "IssueCycle(latencies=(1, 3))"),
    (ps.AnalysisReport,
     {"route": ROUTE, "table": TABLE, "forbidden": (), "vector": VECTOR,
      "greedy": CYCLE, "mal_cycle": CYCLE},
     "AnalysisReport(route=Route(steps=(frozenset({StageId('A', 0)}), "
     "frozenset({StageId('B', 1)}))), table=ReservationTable(stages=(StageId('A', 0), "
     "StageId('B', 1)), length=2, marks={StageId('A', 0): (0,), StageId('B', 1): (1,)}), "
     "forbidden=(), vector=CollisionVector(length=2, bits=(False,)), "
     "greedy=IssueCycle(latencies=(1,)), mal_cycle=IssueCycle(latencies=(1,)))"),
    (RoutingTable, {"entries": {-1: frozenset({A}), 0: ps.EXIT}},
     "RoutingTable(entries={-1: frozenset({StageId('A', 0)}), 0: EXIT})"),
    (RouterNode, {"name": "r_A", "stage": A, "table": RoutingTable({0: ps.EXIT})},
     "RouterNode(name='r_A', stage=StageId('A', 0), table=RoutingTable(entries={0: EXIT}))"),
    (ChannelEdge, {"src": "entry", "dst": "A", "kind": ps.ChannelKind.BLOCKING},
     "ChannelEdge(src='entry', dst='A', kind=<ChannelKind.BLOCKING: 'blocking'>)"),
    (ps.Netlist, {"route": ROUTE, "stages": (A,), "routers": (ROUTER,), "edges": (EDGE,)},
     "Netlist(route=Route(steps=(frozenset({StageId('A', 0)}), frozenset({StageId('B', 1)}))), "
     "stages=(StageId('A', 0),), routers=(RouterNode(name='r_A', stage=StageId('A', 0), "
     "table=RoutingTable(entries={0: EXIT})),), "
     "edges=(ChannelEdge(src='r_A', dst='exit', kind=None),))"),
    (ps.SimTime, {"ns": 3, "delta": 1}, "SimTime(ns=3, delta=1)"),
    (PipelineSetup,
     {"decls": DECLS, "configs": {A: CONFIG}, "pipelines": {"main": ps.StageRef(A)},
      "routes": {"main": ROUTE}, "join": ps.JoinSpec.sum(), "issue": None},
     "PipelineSetup(decls=StageSet(['A', 'B']), configs={StageId('A', 0): "
     "StageConfig(stage=StageId('A', 0), function=FunctionSpec(source='data + 1', "
     "variables=('orig', 'data')), timing=TimingSpec(delay=1), "
     "channels=<ChannelKind.BLOCKING: 'blocking'>, exec=<ExecKind.LOOP: 'loop'>)}, "
     "pipelines={'main': StageRef(stage=StageId('A', 0))}, routes={'main': "
     "Route(steps=(frozenset({StageId('A', 0)}), frozenset({StageId('B', 1)})))}, "
     "join=JoinSpec(kind='sum', expr=None), issue=None)"),
    (ps.FunctionSpec, {"source": "x", "variables": ("x",), "compiled": compiled},
     "FunctionSpec(source='x', variables=('x',))"),
    (ps.TimingSpec, {"delay": 2}, "TimingSpec(delay=2)"),
    (ps.JoinSpec, {"kind": "custom", "expr": JOIN_FN},
     "JoinSpec(kind='custom', expr=FunctionSpec(source='dataL + dataR', "
     "variables=('orig', 'dataL', 'dataR')))"),
    (ps.StageConfig,
     {"stage": B, "function": FN, "timing": ps.UNTIMED, "channels": ps.ChannelKind.SIGNAL,
      "exec": ps.ExecKind.REACTIVE},
     "StageConfig(stage=StageId('B', 1), function=FunctionSpec(source='data + 1', "
     "variables=('orig', 'data')), timing=TimingSpec(delay=None), "
     "channels=<ChannelKind.SIGNAL: 'signal'>, exec=<ExecKind.REACTIVE: 'reactive'>)"),
    (ps.IssueSpec, {"kind": "fixed", "interval": 2}, "IssueSpec(kind='fixed', interval=2)"),
    (ps.CheckedConfig,
     {"route": ROUTE, "configs": {A: CONFIG, B: ps.StageConfig(B, FN)}, "join": None},
     "CheckedConfig(route=Route(steps=(frozenset({StageId('A', 0)}), "
     "frozenset({StageId('B', 1)}))), configs={StageId('A', 0): StageConfig(stage="
     "StageId('A', 0), function=FunctionSpec(source='data + 1', variables=('orig', 'data')), "
     "timing=TimingSpec(delay=1), channels=<ChannelKind.BLOCKING: 'blocking'>, "
     "exec=<ExecKind.LOOP: 'loop'>), StageId('B', 1): StageConfig(stage="
     "StageId('B', 1), function=FunctionSpec(source='data + 1', variables=('orig', 'data')), "
     "timing=TimingSpec(delay=1), channels=<ChannelKind.BLOCKING: 'blocking'>, "
     "exec=<ExecKind.LOOP: 'loop'>)}, join=None, warnings=())"),
    (Transaction, {"id": 0, "orig": 1.0, "data": 2.0, "step": 1, "branch": A},
     "Transaction(id=0, orig=1.0, data=2.0, step=1, branch=StageId('A', 0))"),
    (TraceRecord,
     {"txn_id": 0, "orig": 1.0, "data": 2.0, "injected_at": 0, "exited_at": None,
      "dropped": False},
     "TraceRecord(txn_id=0, orig=1.0, data=2.0, injected_at=0, exited_at=None, dropped=False)"),
    (Occupancy, {"stage": "A", "txn_id": 0, "start": 0, "end": 1},
     "Occupancy(stage='A', txn_id=0, start=0, end=1)"),
    (ps.Trace, {"records": (RECORD,), "occupancy_log": (("A", 0, 0, 1),)},
     "Trace(records=(TraceRecord(txn_id=0, orig=1.0, data=2.0, injected_at=0, exited_at=None, "
     "dropped=False),), occupancy=(Occupancy(stage='A', txn_id=0, start=0, end=1),))"),
    (StageStats, {"items": 1, "busy_ns": 1, "stalls": 0},
     "StageStats(items=1, busy_ns=1, stalls=0)"),
    (Stats,
     {"injected": 1, "exited": 0, "dropped": 0, "in_flight": 1,
      "final_time": ps.SimTime(1, 0), "timed_waits": 1, "total_stalls": 0,
      "stage": {"A": STAGE_STATS}, "stalls_by_channel": {}, "drops_by_channel": {"A.in": 2},
      "truncated": True},
     "Stats(injected=1, exited=0, dropped=0, in_flight=1, final_time=SimTime(ns=1, delta=0), "
     "timed_waits=1, total_stalls=0, stage={'A': StageStats(items=1, busy_ns=1, stalls=0)}, "
     "stalls_by_channel={}, drops_by_channel={'A.in': 2}, truncated=True)"),
    (ps.RunResult, {"trace": TRACE, "stats": STATS, "warnings": ("w",)},
     "RunResult(trace=Trace(records=(TraceRecord(txn_id=0, orig=1.0, data=2.0, "
     "injected_at=0, exited_at=None, dropped=False),), "
     "occupancy=(Occupancy(stage='A', txn_id=0, start=0, end=1),)), "
     "stats=Stats(injected=1, exited=0, dropped=0, "
     "in_flight=1, final_time=SimTime(ns=1, delta=0), timed_waits=1, total_stalls=0, "
     "stage={'A': StageStats(items=1, busy_ns=1, stalls=0)}, stalls_by_channel={}, "
     "drops_by_channel={'A.in': 2}, truncated=True), warnings=('w',))"),
]

# Fields left out of repr, equality and hash.
UNCOMPARED = {ps.FunctionSpec: {"compiled"}}


def ids(case):
    return case[0].__name__


def test_every_record_class_is_covered():
    assert len(CASES) == 29
    assert len({cls for cls, _, _ in CASES}) == 29


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[ids(c) for c in CASES])
def test_repr(cls, fields, text):
    assert repr(cls(*fields.values())) == text
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[ids(c) for c in CASES])
def test_equality_and_hash(cls, fields, text):
    one, two = cls(*fields.values()), cls(**fields)
    if cls is Transaction:
        # Mutable and compared by identity.
        assert one == one and one != two
        assert hash(one) == object.__hash__(one)
        return
    assert one == two and not one != two
    key = tuple(v for k, v in fields.items() if k not in UNCOMPARED.get(cls, ()))
    try:
        expected = hash(key)
    except TypeError:
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two) == expected


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[ids(c) for c in CASES])
def test_assignment(cls, fields, text):
    value = cls(**fields)
    first = next(iter(fields))
    if cls is Transaction:
        value.step = 5
        assert value.step == 5
        return
    with pytest.raises(AttributeError):
        setattr(value, first, fields[first])
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert getattr(value, first) is fields[first]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[ids(c) for c in CASES])
def test_constructor_rejects_extra_arguments(cls, fields, text):
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)


def test_defaults():
    assert repr(ps.StageConfig(A, FN)) == repr(CONFIG) == (
        "StageConfig(stage=StageId('A', 0), function=FunctionSpec(source='data + 1', "
        "variables=('orig', 'data')), timing=TimingSpec(delay=1), "
        "channels=<ChannelKind.BLOCKING: 'blocking'>, exec=<ExecKind.LOOP: 'loop'>)"
    )
    assert repr(ps.JoinSpec("sum")) == "JoinSpec(kind='sum', expr=None)"
    assert repr(ps.IssueSpec("eager")) == "IssueSpec(kind='eager', interval=None)"
    assert ps.SimTime() == ps.SimTime(0, 0)
    assert repr(Transaction(3, 1.0, 0.0)) == (
        "Transaction(id=3, orig=1.0, data=0.0, step=0, branch=None)"
    )


def test_equal_fields_of_different_classes_differ():
    items = (A, B)
    assert ps.Seq(items) != ps.Fork(items)
    assert ps.Seq(items).__eq__(ps.Fork(items)) is NotImplemented
    assert ps.StageRef(A) != ps.Repeat(A, 2)
    assert ps.StageRef(A).__eq__(ps.Repeat(A, 2)) is NotImplemented
    assert ps.SimTime(1, 0) != (1, 0)
    assert A != ("A", 0)
    assert StageStats(1, 1, 0) != (1, 1, 0)


def test_function_spec_equality_ignores_compiled():
    one = ps.FunctionSpec("x", ("x",), compiled)
    two = ps.FunctionSpec("x", ("x",), lambda values: -values[0])
    assert one == two and hash(one) == hash(two)
    assert one(3.0) == 3.0 and two(3.0) == -3.0
    assert ps.FunctionSpec("y", ("x",), compiled) != one
    assert ps.parse_function("data + 1") == FN


def test_sim_time_is_ordered():
    times = [ps.SimTime(2, 0), ps.SimTime(1, 1), ps.SimTime(1, 0), ps.SimTime(0, 5)]
    assert sorted(times) == [times[3], times[2], times[1], times[0]]
    assert ps.SimTime(1, 0) < ps.SimTime(1, 1) <= ps.SimTime(1, 1)
    assert ps.SimTime(2, 0) > ps.SimTime(1, 9) >= ps.SimTime(1, 9)
    assert min(times) == ps.SimTime(0, 5) and max(times) == ps.SimTime(2, 0)
    with pytest.raises(TypeError):
        ps.SimTime(1, 0) < (1, 0)


def test_transactions_compare_by_identity():
    one = Transaction(0, 1.0, 2.0)
    two = Transaction(0, 1.0, 2.0)
    assert one == one and one != two
    assert len({one, two}) == 2
    copy = one.copy_for(A)
    assert copy != one and copy.branch is A and one.branch is None


def test_missing_field_and_foreign_comparison():
    with pytest.raises(TypeError, match="^StageId\\(\\) missing argument 'ordinal'$"):
        ps.StageId("A")
    trace = ps.Trace(records=(), occupancy_log=())
    assert trace.__eq__(5) is NotImplemented and trace != 5


class Pair(Value):
    left: int
    right: int = 0


@pytest.mark.parametrize("args, kwargs, text", [
    ((1, 2, 3), {}, "Pair() takes 2 arguments but 3 were given"),
    ((1, 2), {"right": 3}, "Pair() got an unexpected or repeated argument 'right'"),
    ((1,), {"left": 2}, "Pair() got an unexpected or repeated argument 'left'"),
    ((), {"left": 1, "other": 2}, "Pair() got an unexpected or repeated argument 'other'"),
    ((), {"left": 1, "right": 2, "other": 3},
     "Pair() got an unexpected or repeated argument 'other'"),
    ((), {"right": 2}, "Pair() missing argument 'left'"),
    ((), {}, "Pair() missing argument 'left'"),
])
def test_a_bad_call_names_its_fault(args, kwargs, text):
    with pytest.raises(TypeError) as exc:
        Pair(*args, **kwargs)
    assert str(exc.value) == text


def test_every_call_shape_binds_the_fields_in_order():
    calls = [Pair(1, 2), Pair(left=1, right=2), Pair(right=2, left=1), Pair(1, right=2)]
    assert [repr(pair) for pair in calls] == ["Pair(left=1, right=2)"] * 4
    assert Pair(1) == Pair(left=1) == Pair(1, 0)
