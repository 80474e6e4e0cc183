"""Transaction-level execution of an elaborated netlist.

Each stage and each router becomes a simulated process.  A stage perpetually
peeks its input channel, applies its function, waits out its timing model,
consumes the input, advances the transaction's step counter, and writes its
output.  The router on a stage's output looks the transaction up in its table
by the step just completed and forwards it, duplicating on forks, collecting
and merging branch copies at joins, and retiring transactions at the exit.
It takes one transaction per resume, and puts each delivery on the queue
(:class:`.QueueChannel`) that its port process drains into the next stage's
input; a put wakes the port only when it is parked on the empty queue.  The
issue process injects fresh transactions at the entry router according to
the issue policy.

Every process, the issue process included, is a method process (see
:mod:`.engine`): a closure the engine calls once per resume, which carries
the process on from where it last suspended.

Payloads are dynamically typed: ``orig`` and ``data`` are reals when driven
from the CLI, but library users may put any value in ``data`` as long as the
configured stage functions accept it.

Every time in a run's results is an int of ns.  Delta phases only order the
engine's events within one ns and count processes, not anything the hardware
does; only ``Stats.final_time`` keeps its delta, as a :class:`.SimTime`.

A run keeps its results as columns of plain values, with no object per hop
or per transaction for the garbage collector to track: per-id lists of each
transaction's orig, data, and inject and exit ns, and one flat occupancy log
of three entries per hop: stage, transaction id and start ns.  Every
occupancy of a stage lasts its fixed busy window, so the end is not logged.
:class:`Trace` holds the columns and the busy window of each stage in the
log; its record and occupancy objects are views built on first read.

All of a run's mutable state sits on one ``_Runtime`` that every process
holds.  Stalls and drops are the exception: the stage channels count them
(``BlockingChannel.stalls``, ``SignalChannel.dropped``), and the stats and
the deadlock message read them off the channels.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import islice
from math import isfinite
from typing import Iterator, Mapping, Sequence, Union

from . import analysis
from ._value import Value
from .dsl import StageId
from .elaborate import ENTRY, EXIT, Netlist, RouterNode
from .engine import (
    BLOCKED,
    BlockingChannel,
    ChannelBase,
    Engine,
    JoinError,
    QueueChannel,
    Read,
    RoutingFault,
    SeveredChannel,
    SignalChannel,
    SimTime,
    Write,
)
from .errors import PipelineError
from .policy import (
    ChannelKind,
    CheckedConfig,
    ConfigError,
    ExecKind,
    FunctionEvalError,
    FunctionSpec,
    IssueSpec,
    JoinSpec,
    StageConfig,
    for_route,
)


class Transaction(Value):
    """A unit of work in flight.

    ``step`` counts completed progress along the route: a stage increments it
    exactly once per occupancy, and step == len(route) means the transaction
    has left the pipeline.  Fork copies share one id, one per stage of the
    step; the router of each stage hands its copy to the join, which merges
    them back into a single transaction before their common successor (or
    the exit).
    """

    __slots__ = ("id", "orig", "data", "step")
    id: int
    orig: float
    data: float
    step: int

    # Mutable, and compared by identity.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, id: int, orig: float, data: float, step: int = 0):
        self.id = id
        self.orig = orig
        self.data = data
        self.step = step


# ---------------------------------------------------------------------------
# Results


class TraceRecord(Value):
    __slots__ = ("txn_id", "orig", "data", "injected_at", "exited_at", "dropped")
    txn_id: int
    orig: float
    data: float
    injected_at: int | None
    exited_at: int | None
    dropped: bool


class Occupancy(Value):
    stage: str
    txn_id: int
    start: int
    end: int


# (stage, txn_id, start_ns, end_ns)
OccupancyEntry = tuple[str, int, int, int]


class Trace(Value):
    """Per-transaction records plus the stage occupancy log, kept as columns.

    Per transaction the columns hold id, orig, data, inject and exit ns
    (None until reached) and whether it dropped; the log holds three entries
    per hop, (stage, txn_id, start_ns), and each stage in it has one busy
    window, so an entry's end is its start plus its stage's busy ns.  A log
    in which one stage has two durations raises :class:`ValueError`.
    ``records``, ``occupancy_log`` and ``occupancy`` are views built on first
    read; equality compares the columns, hash the views.
    """

    records: tuple[TraceRecord, ...]
    occupancy_log: tuple[OccupancyEntry, ...]

    def __init__(self, records: Sequence[TraceRecord], occupancy_log: Sequence[OccupancyEntry]):
        records, occupancy_log = tuple(records), tuple(occupancy_log)
        rows = [(r.txn_id, r.orig, r.data, r.injected_at, r.exited_at, r.dropped)
                for r in records]
        busy, log = {}, []
        for stage, txn_id, start, end in occupancy_log:
            if busy.setdefault(stage, end - start) != end - start:
                raise ValueError(f"stage {stage} has occupancies of {busy[stage]} ns "
                                 f"and {end - start} ns")
            log += (stage, txn_id, start)
        vars(self).update(_columns=tuple(zip(*rows)) or ((),) * 6, _log=log, _busy=busy,
                          records=records, occupancy_log=occupancy_log)

    @classmethod
    def _of_columns(cls, columns: tuple[Sequence, ...], log: list, busy: dict) -> "Trace":
        trace = cls.__new__(cls)
        vars(trace).update(_columns=columns, _log=log, _busy=busy)
        return trace

    def rows(self) -> Iterator[tuple]:
        """(txn_id, orig, data, inject_ns, exit_ns, dropped) per transaction."""
        return zip(*self._columns)

    @cached_property
    def records(self) -> tuple[TraceRecord, ...]:
        return tuple(TraceRecord(*row) for row in self.rows())

    @cached_property
    def occupancy_log(self) -> tuple[OccupancyEntry, ...]:
        busy = self._busy
        return tuple((stage, txn_id, start, start + busy[stage])
                     for stage, txn_id, start in zip(*[iter(self._log)] * 3))

    @cached_property
    def occupancy(self) -> tuple[Occupancy, ...]:
        return tuple(Occupancy(*entry) for entry in self.occupancy_log)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # A run's ids are a range and its columns lists; a rebuilt trace's are tuples.
            return (tuple(map(tuple, self._columns)) == tuple(map(tuple, other._columns))
                    and self._log == other._log and self._busy == other._busy)
        return NotImplemented

    __hash__ = Value.__hash__  # of the views: defining __eq__ drops the inherited hash

    def __repr__(self) -> str:
        return f"Trace(records={self.records!r}, occupancy={self.occupancy!r})"


class StageStats(Value):
    items: int
    busy_ns: int
    stalls: int


class Stats(Value):
    injected: int
    exited: int
    dropped: int
    in_flight: int
    final_time: SimTime
    timed_waits: int
    total_stalls: int
    stage: Mapping[str, StageStats]
    stalls_by_channel: Mapping[str, int]
    drops_by_channel: Mapping[str, int]
    truncated: bool

    @property
    def throughput(self) -> float | None:
        if self.final_time.ns > 0:
            return self.exited / self.final_time.ns
        return None


class RunResult(Value):
    trace: Trace
    stats: Stats
    warnings: tuple[str, ...]


# ---------------------------------------------------------------------------
# Runtime wiring


class _Runtime:
    """The state of one run, shared by all its processes: wiring, columns and counts."""

    def __init__(self, engine: Engine, netlist: Netlist, checked: CheckedConfig, inputs: int):
        self.engine = engine
        self.netlist = netlist
        self.route = netlist.route
        self._edges = {(e.src, e.dst) for e in netlist.edges}
        self._join_pending: dict[tuple[int, int], list[tuple[int, Transaction]]] = {}
        # Resolved now, so that a custom join compiles when the run builds.
        self._merge = checked.join.merger() if checked.join is not None else None

        # One slot per input; ``orig`` grows as the transactions are created.
        self.orig: list[float] = []
        self.data: list[float] = [0.0] * inputs
        self.inject_ns: list[int | None] = [None] * inputs
        self.exit_ns: list[int | None] = [None] * inputs
        self.occupancy_log: list = []
        self.timed_waits = 0
        self.issue_active = True

        self.in_channels: dict[StageId, ChannelBase] = {}
        self.out_channels: dict[StageId, ChannelBase] = {}
        for stage in netlist.stages:
            signal = checked.config_of(stage).channels is ChannelKind.SIGNAL
            make = SignalChannel if signal else BlockingChannel
            self.in_channels[stage] = make(f"{stage.name}.in", engine)
            self.out_channels[stage] = make(f"{stage.name}.out", engine)

    def channels(self) -> list[ChannelBase]:
        """The stage channels, inputs then outputs, in stage order."""
        return [*self.in_channels.values(), *self.out_channels.values()]

    def dropped_ids(self) -> set[int]:
        return {txn.id for channel in self.channels() for txn in channel.dropped}

    def in_flight_ids(self) -> list[int]:
        gone = self.dropped_ids()
        return [i for i in range(len(self.orig)) if self.exit_ns[i] is None and i not in gone]

    def channel_into(self, src_node: str, dest: StageId) -> ChannelBase:
        if (src_node, dest.name) in self._edges:
            return self.in_channels[dest]
        return SeveredChannel(f"{src_node}->{dest.name} (severed)", self.engine)

    def collect_join(self, txn: Transaction, completed_step: int,
                     branch: StageId) -> Transaction | None:
        """Gather fork copies; returns the merged transaction once all arrived.

        ``branch`` is the stage that completed the step on this copy, the
        stage of the router that received it; copies merge in the declaration
        order of their branches.
        """
        expected = len(self.route.steps[completed_step])
        key = (txn.id, completed_step)
        copies = self._join_pending.setdefault(key, [])
        copies.append((branch.ordinal, txn))
        if len(copies) < expected:
            return None
        del self._join_pending[key]
        if len({ordinal for ordinal, _ in copies}) < expected:
            raise JoinError(
                f"join for transaction {txn.id} at step {completed_step} received "
                f"two copies from the same branch"
            )
        copies.sort()  # by ordinal alone: the ordinals differ
        merge = self._merge  # validation gave every forking route a join
        merged = copies[0][1]
        try:
            for _, other in copies[1:]:
                merged.data = data = merge((merged.orig, merged.data, other.data))
                if type(data) is float and not isfinite(data):
                    raise FunctionEvalError(f"result {data} is not finite")
        except FunctionEvalError as exc:
            raise FunctionEvalError(
                f"join for transaction {txn.id} at step {completed_step}: {exc}"
            ) from None
        return merged

    def resolve(self, src_node: str, dests) -> tuple:
        """The writes that deliver to a routing table entry's ``dests``.

        That is (EXIT, ()) at the exit, or else the write on the channel from
        ``src_node`` into the first stage in declaration order and a tuple of
        the writes into the others, in that order.
        """
        if dests is EXIT:
            return EXIT, ()
        first, *rest = (Write(self.channel_into(src_node, stage))
                        for stage in sorted(dests, key=lambda s: s.ordinal))
        return first, tuple(rest)

    def quiesced_message(self) -> str | None:
        in_flight = self.in_flight_ids()
        if not in_flight and not self.issue_active:
            return None
        lines = [
            f"deadlock: {len(in_flight)} transaction(s) in flight and no runnable process"
        ]
        if in_flight:
            lines.append("  in flight: " + ", ".join(str(i) for i in in_flight))
        lines.append("  processes:")
        for entry in self.engine.describe_processes():
            lines.append(f"    {entry}")
        lines.append("  channels:")
        for stage in self.netlist.stages:
            lines.append(f"    {self.in_channels[stage].describe()}")
            lines.append(f"    {self.out_channels[stage].describe()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Processes


def _busy_ns(cfg: StageConfig) -> int:
    # Every occupancy of a stage lasts exactly this many ns.
    return cfg.timing.delay or 0


def _stage_method(rt: _Runtime, cfg: StageConfig):
    """Build the resume callable of a stage's method process.

    Each call carries the stage from where it last suspended: blocked peeking
    its input, or busy for its delay.  ``LOOP`` sleeps its delay between
    peek and consume.  ``REACTIVE`` (zero delay, by validation) never
    sleeps: it finishes each arrival within the call that the arrival's
    wake-up triggers.

    The output write never blocks.  It wakes the router, which drains the
    output one delta later.  A ``LOOP`` stage sleeps before its next write,
    and that wake-up queues behind the router's, so the slot is free again
    by then; a ``REACTIVE`` stage writes to a signal channel.
    """
    stage = cfg.stage
    name = stage.name
    engine = rt.engine
    log = rt.occupancy_log.extend
    in_ch = rt.in_channels[stage]
    out_ch = rt.out_channels[stage]
    read = Read(in_ch)
    function = cfg.function
    # Called with (orig, data); a parsed function compiles here, once, and its
    # code is called directly.
    evaluate = (function.evaluator() if isinstance(function, FunctionSpec)
                else lambda values: function(*values))
    timed = not cfg.timing.is_untimed
    delay = None if cfg.exec is ExecKind.REACTIVE else _busy_ns(cfg)
    sleep = engine.sleep
    txn = None  # held from its peek until its output write
    start_ns = 0

    def resume(proc):
        nonlocal txn, start_ns
        while True:
            if txn is None:
                # Peek now, consume when done: the input slot stays full for
                # the whole busy window, so contending writers suspend and stall.
                txn = in_ch.try_peek(proc)
                if txn is BLOCKED:
                    proc.pending, txn = read, None
                    return
                proc.pending = None
                start_ns = engine.ns
                try:
                    txn.data = data = evaluate((txn.orig, txn.data))
                    # Payloads may be any type; only a float can overflow.
                    if type(data) is float and not isfinite(data):
                        raise FunctionEvalError(f"result {data} is not finite")
                except FunctionEvalError as exc:
                    raise FunctionEvalError(
                        f"stage {name}, transaction {txn.id}: {exc}"
                    ) from None
                if timed:
                    rt.timed_waits += 1
                if delay is not None:
                    sleep(proc, delay)
                    return
            # Holding a transaction and not blocked: the busy window is over.
            in_ch.consume()
            txn.step += 1
            log((name, txn.id, start_ns))
            out_ch.try_write(proc, txn)
            txn = None

    return resume


def _router_method(rt: _Runtime, router: RouterNode, queue: QueueChannel):
    """Build the resume callable of a router's method process, which never sleeps.

    Each resume takes the transaction whose write to the stage's output woke
    it and queues its deliveries; the port process does the blocking writes.
    Each completed step's table entry is resolved once (:meth:`_Runtime.resolve`),
    beside whether the step is a join.  The transaction goes on the first
    write and a fresh copy on each other one; at the exit it retires.
    """
    out_ch = rt.out_channels[router.stage]
    read = Read(out_ch)
    steps = rt.route.steps
    table = {step: (*rt.resolve(router.name, dests), len(steps[step]) > 1)
             for step, dests in router.table.entries.items()}
    put = queue.put

    def resume(proc):
        txn = out_ch.take(proc)
        if txn is BLOCKED:  # only the first resume: any later one follows a write
            proc.pending = read
            return
        completed = txn.step - 1
        try:
            first, rest, is_join = table[completed]
        except KeyError:
            raise RoutingFault(
                f"router {router.name}: no routing entry for completed step "
                f"{completed} (transaction {txn.id})"
            ) from None
        if is_join:
            txn = rt.collect_join(txn, completed, router.stage)
            if txn is None:
                return
        if first is EXIT:
            rt.exit_ns[txn.id] = rt.engine.ns
            rt.data[txn.id] = txn.data
            return
        put((first, txn))
        for write in rest:
            put((write, Transaction(txn.id, txn.orig, txn.data, txn.step)))

    return resume


def _issue_method(rt: _Runtime, values: Sequence[float], times: Iterator[int]):
    """Build the resume callable of the issue process's method process.

    ``times`` are the inputs' issue ns (:func:`.analysis.issue_times`).  An
    input with a time first sleeps until it, if it is ahead, then one delta
    more; an input past the end of ``times`` goes at once.  Its transaction
    then goes into the first entry stage's input and a fresh copy into each
    other one, in stage order, parking on a busy latch.  The call that
    injects the last input finishes the process.
    """
    engine = rt.engine
    sleep = engine.sleep
    first, rest = rt.resolve(ENTRY, rt.netlist.entry_router.table.lookup(-1))
    target = next(times, None)  # the next input's issue ns, until it is reached
    index = 0
    held = copies = None  # the value of ``proc.pending``'s write; the writes of ``rest`` left

    def resume(proc):
        nonlocal target, index, held, copies
        while True:
            write = proc.pending
            if write is not None:  # an injection under way: the first write, or a refused one
                if not write.channel.try_write(proc, held):
                    return
                for write in copies:
                    held = Transaction(held.id, held.orig, 0.0)
                    if not write.channel.try_write(proc, held):
                        proc.pending = write
                        return
                proc.pending = None
                rt.inject_ns[held.id] = engine.ns
                target = next(times, None)
            if index == len(values):
                rt.issue_active = False
                proc.done = True
                return
            if target is not None:
                if target > engine.ns:
                    sleep(proc, target - engine.ns)
                    return
                # Land after the nanosecond boundary: stage drains run at delta 0.
                target = None
                sleep(proc, 0)
                return
            held = Transaction(index, float(values[index]), 0.0)
            rt.orig.append(held.orig)
            index += 1
            proc.pending, copies = first, iter(rest)

    return resume


# ---------------------------------------------------------------------------
# Top-level run


def run(
    netlist: Netlist,
    stage_configs: Union[CheckedConfig, Mapping[StageId, StageConfig], Sequence[StageConfig]],
    inputs: Sequence[float],
    issue: IssueSpec | None = None,
    horizon_ns: int | None = None,
    join: JoinSpec | None = None,
) -> RunResult:
    """Simulate ``inputs`` through the netlist and return trace and stats.

    Raises :class:`DeadlockError` when no process can run while transactions
    are still in flight; a reached horizon is not an error and is flagged in
    the returned stats instead.  A negative horizon raises
    :class:`PipelineError`, and a ``join`` beside a :class:`CheckedConfig`
    raises :class:`ConfigError`: the checked config carries its join.  A
    :class:`CheckedConfig` built for the netlist's route is used as it is;
    one built for another route is checked against it.
    """
    if horizon_ns is not None and horizon_ns < 0:
        raise PipelineError(f"horizon must be a non-negative number of ns, got {horizon_ns}")
    given = isinstance(stage_configs, CheckedConfig)
    if given and join is not None:
        raise ConfigError("pass the join to validate_config, not to run with a CheckedConfig")
    checked = (for_route(netlist.route, stage_configs) if given
               else CheckedConfig(netlist.route, stage_configs, join))
    if issue is None:
        issue = IssueSpec.greedy()
    table = analysis.reservation_table(netlist.route)
    vector = analysis.collision_vector(analysis.forbidden_latencies(table), table.length)

    engine = Engine()
    rt = _Runtime(engine, netlist, checked, len(inputs))

    engine.spawn("issue", _issue_method(rt, inputs, analysis.issue_times(issue, vector)))
    for stage in netlist.stages:
        engine.spawn(stage.name, _stage_method(rt, checked.config_of(stage)))
    for router in netlist.routers[1:]:
        queue = QueueChannel(f"{router.name}.q", engine)
        engine.spawn(router.name, _router_method(rt, router, queue))
        engine.spawn(f"{router.name}.out", queue.drainer())

    truncated = engine.run(horizon_ns=horizon_ns, quiesced=rt.quiesced_message)
    for proc in engine.processes:  # the only cycles a run makes go through these
        proc.resume = proc.pending = None

    dropped_ids = rt.dropped_ids()
    ids = range(len(rt.orig))
    slots = (rt.data, rt.inject_ns, rt.exit_ns)
    columns = (ids, rt.orig, *(c[:len(ids)] for c in slots), [i in dropped_ids for i in ids])
    items = Counter(islice(rt.occupancy_log, 0, None, 3))  # no copy of the log
    busy = {s.name: _busy_ns(checked.config_of(s)) for s in netlist.stages if s.name in items}
    trace = Trace._of_columns(columns, rt.occupancy_log, busy)
    stage_stats = {
        s.name: StageStats(items[s.name], items[s.name] * busy.get(s.name, 0),
                           rt.in_channels[s].stalls)
        for s in netlist.stages
    }
    channels = sorted(rt.channels(), key=lambda c: c.name)
    stats = Stats(
        injected=len(rt.orig),
        exited=len(rt.exit_ns) - rt.exit_ns.count(None),
        dropped=len(dropped_ids),
        in_flight=len(rt.in_flight_ids()),
        final_time=engine.now,
        timed_waits=rt.timed_waits,
        total_stalls=sum(c.stalls for c in channels),
        stage=stage_stats,
        stalls_by_channel={c.name: c.stalls for c in channels if c.stalls},
        drops_by_channel={c.name: len(c.dropped) for c in channels if c.dropped},
        truncated=truncated,
    )
    warnings = checked.warnings + analysis.issue_warnings(issue, vector)
    return RunResult(trace=trace, stats=stats, warnings=warnings)
