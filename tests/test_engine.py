"""Unit tests of the event engine and channel primitives."""

from dataclasses import dataclass

import pytest

import pipesim as ps
from pipesim import simulate
from pipesim.engine import (
    BLOCKED,
    BlockingChannel,
    Delay,
    Engine,
    Peek,
    QueueChannel,
    Read,
    SignalChannel,
    Write,
)


@dataclass
class Token:
    id: int


def test_simtime_orders_lexicographically():
    assert ps.SimTime(1, 0) > ps.SimTime(0, 9)
    assert ps.SimTime(2, 1) < ps.SimTime(2, 2)
    assert sorted([ps.SimTime(1, 1), ps.SimTime(0, 5), ps.SimTime(1, 0)]) == [
        ps.SimTime(0, 5),
        ps.SimTime(1, 0),
        ps.SimTime(1, 1),
    ]


def test_blocking_channel_rendezvous():
    engine = Engine()
    channel = BlockingChannel("c", engine)
    seen = []

    def producer():
        for i in range(3):
            yield Write(channel, Token(i))

    def consumer():
        while True:
            token = yield Read(channel)
            seen.append((token.id, engine.now))

    engine.spawn("producer", producer())
    engine.spawn("consumer", consumer())
    engine.run()
    assert [i for i, _ in seen] == [0, 1, 2]
    assert all(t.ns == 0 for _, t in seen)  # zero-time handshakes, delta ordered


def test_blocked_writers_same_ns_granted_by_transaction_id():
    engine = Engine()
    channel = BlockingChannel("c", engine)
    order = []

    def writer(token):
        def gen():
            yield Write(channel, token)
        return gen()

    def reader():
        # park the first value for a while, then drain everything
        first = yield Peek(channel)
        yield Delay(5)
        channel.consume()
        order.append(first.id)
        while True:
            token = yield Read(channel)
            order.append(token.id)

    engine.spawn("w5", writer(Token(5)))
    engine.spawn("w2", writer(Token(2)))
    engine.spawn("w9", writer(Token(9)))
    engine.spawn("reader", reader())
    engine.run()
    # w5 filled the slot; w2 and w9 suspended in the same nanosecond, so the
    # grant order follows transaction ids, not suspension order
    assert order == [5, 2, 9]


def test_blocked_writers_earlier_ns_wins_over_smaller_id():
    engine = Engine()
    channel = BlockingChannel("c", engine)
    order = []

    def early():
        yield Write(channel, Token(50))  # fills the slot at ns 0
        yield Write(channel, Token(51))  # suspends at ns 0

    def late():
        yield Delay(2)
        yield Write(channel, Token(1))  # suspends at ns 2

    def reader():
        yield Delay(5)
        while True:
            token = yield Read(channel)
            order.append(token.id)

    engine.spawn("early", early())
    engine.spawn("late", late())
    engine.spawn("reader", reader())
    engine.run()
    assert order == [50, 51, 1]  # arrival nanosecond outranks transaction id


def test_stall_hook_counts_writer_suspensions():
    stalls = []
    engine = Engine()
    channel = BlockingChannel("c", engine, on_stall=stalls.append)

    def producer():
        yield Write(channel, Token(0))
        yield Write(channel, Token(1))

    def consumer():
        yield Delay(3)
        yield Read(channel)
        yield Read(channel)

    engine.spawn("p", producer())
    engine.spawn("c", consumer())
    engine.run()
    assert stalls == ["c"]


def test_signal_channel_overwrites_and_counts_drops():
    drops = []
    engine = Engine()
    channel = SignalChannel("s", engine, on_drop=lambda name, v: drops.append(v.id))
    got = []

    def producer():
        for i in range(4):
            yield Write(channel, Token(i))  # never suspends

    def consumer():
        while True:
            token = yield Read(channel)
            got.append(token.id)

    engine.spawn("p", producer())
    engine.spawn("c", consumer())
    engine.run()
    assert drops == [0, 1, 2]
    assert got == [3]
    assert channel.drop_count == 3


def test_queue_channel_never_blocks_writers():
    engine = Engine()
    queue = QueueChannel("q", engine)
    got = []

    def producer():
        for i in range(5):
            yield Write(queue, i)

    def consumer():
        while True:
            got.append((yield Read(queue)))

    engine.spawn("p", producer())
    engine.spawn("c", consumer())
    engine.run()
    assert got == [0, 1, 2, 3, 4]


def test_runnable_processes_step_in_creation_order():
    engine = Engine()
    log = []

    def proc(tag):
        def gen():
            log.append(tag)
            yield Delay(1)
            log.append(tag)
        return gen()

    engine.spawn("b", proc("b"))
    engine.spawn("a", proc("a"))
    engine.run()
    assert log == ["b", "a", "b", "a"]


def test_delay_zero_advances_one_delta():
    engine = Engine()
    times = []

    def proc():
        times.append(engine.now)
        yield Delay(0)
        times.append(engine.now)
        yield Delay(2)
        times.append(engine.now)

    engine.spawn("p", proc())
    engine.run()
    assert times == [ps.SimTime(0, 0), ps.SimTime(0, 1), ps.SimTime(2, 0)]


def test_horizon_stops_before_later_events():
    engine = Engine()
    reached = []

    def proc():
        yield Delay(3)
        reached.append(engine.now.ns)
        yield Delay(3)
        reached.append(engine.now.ns)

    engine.spawn("p", proc())
    truncated = engine.run(horizon_ns=4)
    assert truncated
    assert reached == [3]


def test_quiesced_hook_raises_deadlock():
    engine = Engine()
    channel = BlockingChannel("c", engine)

    def stuck():
        yield Read(channel)

    engine.spawn("stuck", stuck())
    with pytest.raises(ps.DeadlockError, match="stuck"):
        engine.run(quiesced=lambda: "stuck: blocked reading c")


def test_engine_counts_resumes_and_timed_events(monkeypatch):
    engines = []

    class RecordedEngine(Engine):
        def __init__(self):
            super().__init__()
            engines.append(self)

    monkeypatch.setattr(simulate, "Engine", RecordedEngine)
    decls = ps.declare_stages(["S1", "S2", "S3"])
    configs = [
        ps.StageConfig(decls["S1"], ps.parse_function("data + 2*sqr(orig)")),
        ps.StageConfig(decls["S2"], ps.parse_function("data + 4*orig")),
        ps.StageConfig(decls["S3"], ps.parse_function("data - 7")),
    ]
    route = ps.flatten(ps.parse("S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2", decls))
    result = ps.run(ps.elaborate(route, decls), configs, [float(i) for i in range(4000)])
    assert result.stats.exited == 4000
    (engine,) = engines
    # The count of a single-heap engine that dispatched every resume in
    # (ns, delta, seq) order: the delta FIFOs keep each one.
    assert engine.resumes == 132009
    # Only timed events use the heap: 32,000 one-ns stage delays and 3,999
    # greedy issue waits (the first issue waits for ns 0 and resumes inline).
    assert engine.timed == 35999


# -- method processes --------------------------------------------------------------


def thread_worker(engine, inp, out, delay):
    def gen():
        while True:
            token = yield Peek(inp)
            yield Delay(delay)
            inp.consume()
            yield Write(out, token)

    return engine.spawn("worker", gen())


def method_worker(engine, inp, out, delay):
    peek, write = Peek(inp), Write(out, None)
    held = None

    def resume(proc):
        nonlocal held
        if proc.pending is write:
            if not out.try_write(proc, held):
                return
            proc.pending = held = None
        elif held is not None:  # the sleep is over
            inp.consume()
            if not out.try_write(proc, held):
                proc.pending = write
                return
        held = inp.try_peek(proc)
        if held is BLOCKED:
            proc.pending, held = peek, None
            return
        proc.pending = None
        engine.sleep(proc, delay)

    return engine.spawn_method("worker", resume)


def worker_run(make_worker, delay):
    """A worker between a feeder and a late drain.

    Returns each dispatch of the worker as (name, ns, delta), the
    ``describe_processes()`` lines after each, and the engine's counters.
    """
    engine = Engine()
    inp, out = BlockingChannel("in", engine), BlockingChannel("out", engine)
    dispatches, lines = [], []

    def feeder():
        for i in range(3):
            yield Write(inp, Token(i))

    def drain():
        yield Delay(10)
        while True:
            yield Read(out)

    worker = make_worker(engine, inp, out, delay)
    engine.spawn("feeder", feeder())
    engine.spawn("drain", drain())
    resume = worker.resume

    def logged(proc):
        dispatches.append((proc.name, engine.ns, engine.delta))
        resume(proc)
        lines.append(engine.describe_processes())

    worker.resume = logged
    engine.run()
    return dispatches, lines, engine.resumes, engine.timed


BLOCKED_IN = "worker: blocked reading in"
BLOCKED_OUT = "worker: blocked writing out"
FEEDING = ["feeder: blocked writing in", "drain: waiting until 10ns"]
DRAINING = ["drain: blocked reading out"]

WORKER_LOGS = {
    2: [
        (("worker", 0, 0), [BLOCKED_IN, "feeder: created", "drain: created"]),
        (("worker", 0, 1), ["worker: waiting until 2ns", *FEEDING]),
        (("worker", 2, 0), [BLOCKED_IN, *FEEDING]),
        (("worker", 2, 2), ["worker: waiting until 4ns", *FEEDING]),
        (("worker", 4, 0), [BLOCKED_OUT, *FEEDING]),
        (("worker", 10, 1), ["worker: waiting until 12ns", *DRAINING]),
        (("worker", 12, 0), [BLOCKED_IN, *DRAINING]),
    ],
    0: [
        (("worker", 0, 0), [BLOCKED_IN, "feeder: created", "drain: created"]),
        (("worker", 0, 1), ["worker: waiting until 0ns", *FEEDING]),
        (("worker", 0, 2), [BLOCKED_IN, *FEEDING]),
        (("worker", 0, 4), ["worker: waiting until 0ns", *FEEDING]),
        (("worker", 0, 5), [BLOCKED_OUT, *FEEDING]),
        (("worker", 10, 1), ["worker: waiting until 10ns", *DRAINING]),
        (("worker", 10, 2), [BLOCKED_IN, *DRAINING]),
    ],
}


@pytest.mark.parametrize("delay", [2, 0])
def test_method_process_schedules_like_a_thread(delay):
    expected = WORKER_LOGS[delay]
    counts = (14, 4 if delay else 1)
    for make_worker in (thread_worker, method_worker):
        dispatches, lines, resumes, timed = worker_run(make_worker, delay)
        assert list(zip(dispatches, lines)) == expected, make_worker.__name__
        assert (resumes, timed) == counts, make_worker.__name__
