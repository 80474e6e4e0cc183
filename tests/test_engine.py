"""Unit tests of the event engine and channel primitives."""

import gc
import sys
import tracemalloc
from dataclasses import dataclass

import pytest

import pipesim as ps
from pipesim import simulate
from pipesim.engine import (
    BLOCKED,
    BlockingChannel,
    Engine,
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


def writer(engine, name, channel, values, after=0):
    """Spawn a method process that writes ``values`` in order, then finishes.

    It first sleeps ``after`` ns when that is positive, and parks while the
    channel refuses a write.
    """
    write = Write(channel)
    values = list(values)
    slept = not after

    def resume(proc):
        nonlocal slept
        if not slept:
            slept = True
            engine.sleep(proc, after)
            return
        while values:
            if not channel.try_write(proc, values[0]):
                proc.pending = write
                return
            proc.pending = None
            del values[0]
        proc.done = True

    return engine.spawn(name, resume)


def try_read(channel, proc):
    """The next value of ``channel``, or BLOCKED: a stage's peek, then its consume."""
    value = channel.try_peek(proc)
    if value is not BLOCKED:
        channel.consume()
    return value


def reader(engine, name, channel, take, after=0):
    """Spawn a method process that reads ``channel`` forever into ``take``.

    It first sleeps ``after`` ns when that is positive.
    """
    read = Read(channel)
    slept = not after

    def resume(proc):
        nonlocal slept
        if not slept:
            slept = True
            engine.sleep(proc, after)
            return
        while True:
            value = try_read(channel, proc)
            if value is BLOCKED:
                proc.pending = read
                return
            proc.pending = None
            take(value)

    return engine.spawn(name, resume)


def sleeper(engine, name, delays, on_resume):
    """Spawn a method process that calls ``on_resume`` and sleeps each delay in turn."""
    delays = list(delays)

    def resume(proc):
        on_resume()
        if delays:
            engine.sleep(proc, delays.pop(0))
        else:
            proc.done = True

    return engine.spawn(name, resume)


def test_blocking_channel_rendezvous():
    engine = Engine()
    channel = BlockingChannel("c", engine)
    seen = []

    writer(engine, "producer", channel, [Token(i) for i in range(3)])
    reader(engine, "consumer", channel, lambda token: seen.append((token.id, engine.now)))
    engine.run()
    assert [i for i, _ in seen] == [0, 1, 2]
    assert all(t.ns == 0 for _, t in seen)  # zero-time handshakes, delta ordered


def test_blocking_channel_describe():
    engine = Engine()
    proc = engine.spawn("w", lambda proc: None)
    latch = BlockingChannel("latch", engine)
    assert latch.try_write(proc, simulate.Transaction(4, 1.0, 0.0))
    assert latch.describe() == "latch: full (txn 4)"
    assert not latch.try_write(proc, simulate.Transaction(5, 1.0, 0.0))
    assert latch.describe() == "latch: full (txn 4), 1 writer(s) blocked"
    value = BlockingChannel("value", engine)
    assert value.try_write(proc, 2.5)
    assert value.describe() == "value: full"


def test_blocked_writers_same_ns_granted_by_transaction_id():
    engine = Engine()
    channel = BlockingChannel("c", engine)
    order = []
    read = Read(channel)
    first = None

    def drain(proc):
        # park the first value for a while, then drain everything
        nonlocal first
        if first is None:
            first = channel.try_peek(proc)  # w5 has filled the slot
            assert first is not BLOCKED
            engine.sleep(proc, 5)
            return
        if not order:
            channel.consume()
            order.append(first.id)
        while (token := try_read(channel, proc)) is not BLOCKED:
            order.append(token.id)
        proc.pending = read

    writer(engine, "w5", channel, [Token(5)])
    writer(engine, "w2", channel, [Token(2)])
    writer(engine, "w9", channel, [Token(9)])
    engine.spawn("reader", drain)
    engine.run()
    # w5 filled the slot; w2 and w9 suspended in the same nanosecond, so the
    # grant order follows transaction ids, not suspension order
    assert order == [5, 2, 9]


def test_blocked_writers_earlier_ns_wins_over_smaller_id():
    engine = Engine()
    channel = BlockingChannel("c", engine)
    order = []

    # early fills the slot at ns 0 and suspends with its second token at ns 0;
    # late suspends at ns 2
    writer(engine, "early", channel, [Token(50), Token(51)])
    writer(engine, "late", channel, [Token(1)], after=2)
    reader(engine, "reader", channel, lambda token: order.append(token.id), after=5)
    engine.run()
    assert order == [50, 51, 1]  # arrival nanosecond outranks transaction id


def test_stall_hook_counts_writer_suspensions():
    engine = Engine()
    channel = BlockingChannel("c", engine)

    writer(engine, "p", channel, [Token(0), Token(1)])
    reader(engine, "c", channel, lambda token: None, after=3)
    engine.run()
    assert channel.stalls == 1


def test_signal_channel_overwrites_and_counts_drops():
    engine = Engine()
    channel = SignalChannel("s", engine)
    got = []

    writer(engine, "p", channel, [Token(i) for i in range(4)])  # never suspends
    reader(engine, "c", channel, lambda token: got.append(token.id))
    engine.run()
    assert [token.id for token in channel.dropped] == [0, 1, 2]
    assert got == [3]
    assert len(channel.dropped) == 3


def test_queue_channel_never_blocks_writers():
    # Five puts in one resume; the port writes them in order into a latch
    # whose reader takes one value per ns, parking on each refused write.
    engine = Engine()
    queue = QueueChannel("q", engine)
    latch = BlockingChannel("latch", engine)
    got = []

    def put_all(proc):
        for i in range(5):
            queue.put((Write(latch), Token(i)))
        proc.done = True

    def slow_reader(proc):
        if proc.until is not None:  # back from a sleep
            value = try_read(latch, proc)
            if value is BLOCKED:
                proc.pending = Read(latch)
                return
            got.append((value.id, engine.ns))
        engine.sleep(proc, 1)

    engine.spawn("router", put_all)
    port = engine.spawn("port", queue.drainer())
    engine.spawn("reader", slow_reader)
    engine.run()
    assert got == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    assert latch.stalls == 4
    assert port.state == "blocked reading q"


@pytest.mark.parametrize(
    "make, method",
    [
        (BlockingChannel, "try_peek"),
        (BlockingChannel, "take"),
        (SignalChannel, "try_peek"),
        (SignalChannel, "take"),
    ],
)
def test_a_channel_refuses_a_second_parked_reader(make, method):
    engine = Engine()
    channel = make("c", engine)
    first, second = engine.spawn("a", None), engine.spawn("b", None)
    read = getattr(channel, method)
    assert read(first) is BLOCKED
    assert read(first) is BLOCKED  # the parked reader may retry
    with pytest.raises(AssertionError, match="channel c has two readers"):
        read(second)


@pytest.mark.parametrize("make", [BlockingChannel, SignalChannel])
def test_take_parks_the_reader_after_a_value_too(make):
    engine = Engine()
    channel = make("c", engine)
    proc = engine.spawn("p", None)
    assert channel.take(proc) is BLOCKED
    proc.scheduled = False  # as if dispatched and parked
    assert channel.try_write(None, Token(1))
    assert proc.scheduled
    proc.scheduled = False
    assert channel.take(proc).id == 1
    with pytest.raises(AssertionError, match="channel c has two readers"):
        channel.take(engine.spawn("b", None))
    assert channel.try_write(None, Token(2))
    assert proc.scheduled  # parked by the take that returned the value


def test_a_queue_has_one_port():
    engine = Engine()
    queue = QueueChannel("c", engine)
    first = engine.spawn("a", queue.drainer())
    second = engine.spawn("b", queue.drainer())
    first.resume(first)
    first.resume(first)  # the parked port may retry
    with pytest.raises(AssertionError, match="channel c has two readers"):
        second.resume(second)


@pytest.mark.parametrize("make", [BlockingChannel, SignalChannel])
def test_a_write_refuses_to_wake_a_scheduled_reader(make):
    engine = Engine()
    channel = make("c", engine)
    proc = engine.spawn("p", None)  # runnable from its spawn
    assert channel.try_peek(proc) is BLOCKED
    with pytest.raises(AssertionError, match="p scheduled twice"):
        channel.try_write(None, Token(0))


def test_a_put_refuses_to_wake_a_scheduled_port():
    engine = Engine()
    queue = QueueChannel("c", engine)
    port = engine.spawn("p", queue.drainer())  # runnable from its spawn
    port.resume(port)  # parks on the empty queue
    with pytest.raises(AssertionError, match="p scheduled twice"):
        queue.put((Write(queue), Token(0)))


def test_a_write_wakes_the_parked_reader_one_delta_later():
    engine = Engine()
    channel = BlockingChannel("c", engine)
    got = []

    reader(engine, "c", channel, lambda token: got.append((token.id, engine.now)))
    writer(engine, "p", channel, [Token(7)])
    engine.run()
    assert got == [(7, ps.SimTime(0, 1))]


def test_runnable_processes_step_in_creation_order():
    engine = Engine()
    log = []

    sleeper(engine, "b", [1], lambda: log.append("b"))
    sleeper(engine, "a", [1], lambda: log.append("a"))
    engine.run()
    assert log == ["b", "a", "b", "a"]


def test_delay_zero_advances_one_delta():
    engine = Engine()
    times = []

    sleeper(engine, "p", [0, 2], lambda: times.append(engine.now))
    engine.run()
    assert times == [ps.SimTime(0, 0), ps.SimTime(0, 1), ps.SimTime(2, 0)]


def test_horizon_stops_before_later_events():
    engine = Engine()
    reached = []

    def resume(proc):
        if proc.until is not None:  # back from a sleep
            reached.append(engine.now.ns)
        if len(reached) < 2:
            engine.sleep(proc, 3)
        else:
            proc.done = True

    engine.spawn("p", resume)
    truncated = engine.run(horizon_ns=4)
    assert truncated
    assert reached == [3]


def same_ns_dispatches(*horizons):
    """Dispatches of timed events that land on 5 ns from 0, 2 and 3 ns.

    The engine first runs up to each of ``horizons`` in turn, then to the
    end.  Returns each resume as (name, ns, delta) and each run's result.
    """
    engine = Engine()
    log = []

    def logged(name):
        return lambda: log.append((name, engine.ns, engine.delta))

    sleeper(engine, "a", [5, 1], logged("a"))  # 0 -> 5 -> 6
    sleeper(engine, "b", [3, 2, 0], logged("b"))  # 0 -> 3 -> 5 -> 5+1d
    sleeper(engine, "c", [2, 3, 1], logged("c"))  # 0 -> 2 -> 5 -> 6
    stopped = [engine.run(horizon_ns=h) for h in horizons] + [engine.run()]
    return log, stopped


@pytest.mark.parametrize("horizons", [(4,), (3, 4), (0, 2, 5), (5,)])
def test_a_run_resumed_after_its_horizon_dispatches_as_one_run(horizons):
    whole, _ = same_ns_dispatches()
    assert whole[3:] == [
        ("c", 2, 0), ("b", 3, 0),
        ("a", 5, 0), ("c", 5, 0), ("b", 5, 0), ("b", 5, 1),
        ("a", 6, 0), ("c", 6, 0),
    ]  # 5 ns, reached from 0, 2 and 3 ns, keeps the order of the sleeps
    resumed, stopped = same_ns_dispatches(*horizons)
    assert resumed == whole
    assert stopped == [True] * len(horizons) + [False]


def test_quiesced_hook_raises_deadlock():
    engine = Engine()
    channel = BlockingChannel("c", engine)

    reader(engine, "stuck", channel, lambda value: None)
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
    # Timed events: 32,000 one-ns stage delays and 3,999 greedy issue waits
    # (the first issue waits for ns 0 and resumes inline).  They sit in one
    # list per ns, so the heap holds one entry per ns, not one per event.
    assert engine.timed == 35999


# Python and builtin calls per stage occupancy of the test below, a count
# that does not depend on the host's speed.  The router that reads its output
# once per resume, the port that drains its queue in one loop and the timed
# events kept per ns make 32.4 calls per hop (CPython 3.11); the code before
# them made 37.8.
CALLS_PER_HOP_CEILING = 33.0


def test_calls_per_hop_of_the_feedback_route():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    configs = [
        ps.StageConfig(decls["S1"], ps.parse_function("data + 2*sqr(orig)")),
        ps.StageConfig(decls["S2"], ps.parse_function("data + 4*orig")),
        ps.StageConfig(decls["S3"], ps.parse_function("data - 7")),
    ]
    route = ps.flatten(ps.parse("S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2", decls))
    netlist = ps.elaborate(route, decls)
    checked = ps.validate_config(route, configs)
    inputs = [float(i) for i in range(400)]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        result = ps.run(netlist, checked, inputs)
    finally:
        sys.setprofile(None)
    hops = len(result.trace.occupancy_log)
    assert hops == 3200
    assert calls / hops <= CALLS_PER_HOP_CEILING, calls / hops


# Gen-0 collections of the run below, after a full collection: a count that
# is deterministic for one CPython build.  A run that kept one tuple per hop
# and a SimTime pair and a TraceRecord per transaction triggered 6 (CPython
# 3.11); results kept as columns of plain values trigger none.
GEN0_COLLECTIONS_CEILING = 1


def test_gen0_collections_of_the_feedback_route():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    configs = [
        ps.StageConfig(decls["S1"], ps.parse_function("data + 2*sqr(orig)")),
        ps.StageConfig(decls["S2"], ps.parse_function("data + 4*orig")),
        ps.StageConfig(decls["S3"], ps.parse_function("data - 7")),
    ]
    route = ps.flatten(ps.parse("S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2", decls))
    netlist = ps.elaborate(route, decls)
    checked = ps.validate_config(route, configs)
    inputs = [float(i) for i in range(400)]
    settings = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
    assert settings[0], "the count needs the collector on"
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    result = ps.run(netlist, checked, inputs)
    collections = gc.get_stats()[0]["collections"] - before
    # The run leaves the collector as it found it: no gc.disable or gc.freeze.
    assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == settings
    assert result.stats.exited == 400
    assert collections <= GEN0_COLLECTIONS_CEILING, collections


# tracemalloc peak of the run below on CPython 3.11: 2.94 MB when the results
# kept each time as ns and delta (six log entries per hop), 2.40 MB with ns
# only (four per hop), 1.83 MB without the end ns (three per hop).
RUN_PEAK_CEILING = 2_300_000


def test_run_peak_memory_of_the_feedback_route():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    configs = [
        ps.StageConfig(decls["S1"], ps.parse_function("data + 2*sqr(orig)")),
        ps.StageConfig(decls["S2"], ps.parse_function("data + 4*orig")),
        ps.StageConfig(decls["S3"], ps.parse_function("data - 7")),
    ]
    route = ps.flatten(ps.parse("S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2", decls))
    netlist = ps.elaborate(route, decls)
    checked = ps.validate_config(route, configs)
    inputs = [float(i) for i in range(4000)]
    run = ps.run  # resolved first: its first access imports the simulator
    tracemalloc.start()
    try:
        result = run(netlist, checked, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stats.exited == 4000
    assert peak <= RUN_PEAK_CEILING, peak


# -- method processes --------------------------------------------------------------


def method_worker(engine, inp, out, delay):
    read, write = Read(inp), Write(out)
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
            proc.pending, held = read, None
            return
        proc.pending = None
        engine.sleep(proc, delay)

    return engine.spawn("worker", resume)


def worker_run(make_worker, delay):
    """A worker between a feeder and a late drain.

    Returns each dispatch of the worker as (name, ns, delta), the
    ``describe_processes()`` lines after each, and the engine's counters.
    """
    engine = Engine()
    inp, out = BlockingChannel("in", engine), BlockingChannel("out", engine)
    dispatches, lines = [], []

    worker = make_worker(engine, inp, out, delay)
    writer(engine, "feeder", inp, [Token(i) for i in range(3)])
    reader(engine, "drain", out, lambda token: None, after=10)
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
    # The logs and counts were recorded from a generator worker of the same
    # peek -> sleep -> consume -> write loop.
    dispatches, lines, resumes, timed = worker_run(method_worker, delay)
    assert list(zip(dispatches, lines)) == WORKER_LOGS[delay]
    assert (resumes, timed) == (14, 4 if delay else 1)


def test_take_grants_a_blocked_writer():
    engine = Engine()
    reader = engine.spawn("r", lambda proc: None)
    writer = engine.spawn("w", lambda proc: None)
    writer.scheduled = False  # parked on the latch, as after a refused write
    latch = BlockingChannel("latch", engine)
    assert latch.try_write(writer, Token(4))
    assert not latch.try_write(writer, Token(5))
    assert latch.take(reader) == Token(4)
    assert writer.scheduled
    assert latch.describe() == "latch: empty"
