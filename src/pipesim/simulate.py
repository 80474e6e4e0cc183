"""Transaction-level execution of an elaborated netlist.

Each stage and each router becomes a simulated process.  A stage perpetually
peeks its input channel, applies its function, waits out its timing model,
consumes the input, advances the transaction's step counter, and writes its
output.  The router on a stage's output looks the transaction up in its table
by the step just completed and forwards it, duplicating on forks, collecting
and merging branch copies at joins, and retiring transactions at the exit;
its port process writes each delivery into the next stage's input.  The
issue process injects fresh transactions at the entry router according to
the issue policy.

Every process, the issue process included, is a method process (see
:mod:`.engine`): a closure the engine calls once per resume, which carries
the process on from where it last suspended.

Payloads are dynamically typed: ``orig`` and ``data`` are reals when driven
from the CLI, but library users may put any value in ``data`` as long as the
configured stage functions accept it.

Stage occupancy is logged as one tuple of plain ints per hop, (stage name,
transaction id, start ns, start delta, end ns, end delta), and the
:class:`Occupancy` objects with their :class:`SimTime` bounds are built only
when ``Trace.occupancy`` is first read.  A caller that never reads it pays
for the tuples alone.

All of a run's mutable state sits on one ``_Runtime`` that every process
holds.  Stalls and drops are the exception: the stage channels count them
(``BlockingChannel.stalls``, ``SignalChannel.dropped``), and the stats and
the deadlock message read them off the channels.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate, count
from math import isfinite
from operator import itemgetter
from typing import Mapping, Sequence, Union

from . import analysis
from ._value import Value
from .dsl import Route, StageId
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
    ExecKind,
    FunctionEvalError,
    FunctionSpec,
    IssueSpec,
    JoinSpec,
    StageConfig,
    validate_config,
)

__all__ = [
    "Transaction",
    "TraceRecord",
    "Occupancy",
    "Trace",
    "StageStats",
    "Stats",
    "RunResult",
    "run",
]


class Transaction(Value):
    """A unit of work in flight.

    ``step`` counts completed progress along the route: a stage increments it
    exactly once per occupancy, and step == len(route) means the transaction
    has left the pipeline.  ``branch`` is the stage handling the transaction
    within the current step; fork copies share one id and merge back into a
    single transaction before their common successor (or the exit).
    """

    __slots__ = ("id", "orig", "data", "step", "branch")
    id: int
    orig: float
    data: float
    step: int
    branch: StageId | None

    # Mutable, and compared by identity.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, id: int, orig: float, data: float, step: int = 0,
                 branch: StageId | None = None):
        self.id = id
        self.orig = orig
        self.data = data
        self.step = step
        self.branch = branch

    def copy_for(self, branch: StageId) -> "Transaction":
        return Transaction(
            id=self.id,
            orig=self.orig,
            data=self.data,
            step=self.step,
            branch=branch,
        )


# ---------------------------------------------------------------------------
# Results


class TraceRecord(Value):
    __slots__ = ("txn_id", "orig", "data", "injected_at", "exited_at", "dropped")
    txn_id: int
    orig: float
    data: float
    injected_at: SimTime | None
    exited_at: SimTime | None
    dropped: bool

    def __init__(self, txn_id: int, orig: float, data: float,
                 injected_at: SimTime | None, exited_at: SimTime | None, dropped: bool):
        setattr = object.__setattr__
        setattr(self, "txn_id", txn_id)
        setattr(self, "orig", orig)
        setattr(self, "data", data)
        setattr(self, "injected_at", injected_at)
        setattr(self, "exited_at", exited_at)
        setattr(self, "dropped", dropped)


class Occupancy(Value):
    stage: str
    txn_id: int
    start: SimTime
    end: SimTime


# (stage, txn_id, start_ns, start_delta, end_ns, end_delta)
OccupancyEntry = tuple[str, int, int, int, int, int]

class Trace(Value):
    """Per-transaction records plus the stage occupancy log.

    Two traces are equal when their records and logs are; ``occupancy``
    presents the log as :class:`Occupancy` objects, built on first read.
    """

    records: tuple[TraceRecord, ...]
    occupancy_log: tuple[OccupancyEntry, ...]

    @cached_property
    def occupancy(self) -> tuple[Occupancy, ...]:
        return tuple(
            Occupancy(stage, txn_id, SimTime(start_ns, start_delta), SimTime(end_ns, end_delta))
            for stage, txn_id, start_ns, start_delta, end_ns, end_delta in self.occupancy_log
        )

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
    """The state of one run, shared by all its processes.

    Besides the wiring it holds what the run records, frozen into
    :class:`Trace` and :class:`Stats` when the run ends: each transaction's
    orig, data and inject and exit times, the occupancy log and the count of
    timed waits.
    """

    def __init__(self, engine: Engine, netlist: Netlist, checked: CheckedConfig):
        self.engine = engine
        self.netlist = netlist
        self.checked = checked
        self.route = netlist.route
        self._edges = {(e.src, e.dst) for e in netlist.edges}
        self._severed: dict[tuple[str, str], SeveredChannel] = {}
        self._join_pending: dict[tuple[int, int], list[Transaction]] = {}

        self.orig: dict[int, float] = {}
        self.data: dict[int, float] = {}
        self.injected_at: dict[int, SimTime | None] = {}
        self.exited_at: dict[int, SimTime] = {}
        self.occupancy_log: list[OccupancyEntry] = []
        self.timed_waits = 0
        self.issue_active = True

        self.in_channels: dict[StageId, ChannelBase] = {}
        self.out_channels: dict[StageId, ChannelBase] = {}
        for stage in netlist.stages:
            kind = checked.config_of(stage).channels
            self.in_channels[stage] = self._make_channel(f"{stage.name}.in", kind)
            self.out_channels[stage] = self._make_channel(f"{stage.name}.out", kind)

    def _make_channel(self, name: str, kind: ChannelKind) -> ChannelBase:
        if kind is ChannelKind.SIGNAL:
            return SignalChannel(name, self.engine)
        return BlockingChannel(name, self.engine)

    def channels(self) -> list[ChannelBase]:
        """The stage channels, inputs then outputs, in stage order."""
        return [*self.in_channels.values(), *self.out_channels.values()]

    def new_transaction(self, value: float) -> Transaction:
        txn = Transaction(id=len(self.orig), orig=float(value), data=0.0)
        self.orig[txn.id] = txn.orig
        self.data[txn.id] = txn.data
        self.injected_at[txn.id] = None
        return txn

    def dropped_ids(self) -> set[int]:
        return {txn.id for channel in self.channels() for txn in channel.dropped}

    def in_flight_ids(self) -> list[int]:
        gone = self.dropped_ids()
        return [i for i in self.orig if i not in self.exited_at and i not in gone]

    def channel_into(self, src_node: str, dest: StageId) -> ChannelBase:
        if (src_node, dest.name) in self._edges:
            return self.in_channels[dest]
        key = (src_node, dest.name)
        if key not in self._severed:
            self._severed[key] = SeveredChannel(
                f"{src_node}->{dest.name} (severed)", self.engine
            )
        return self._severed[key]

    def collect_join(self, txn: Transaction, completed_step: int) -> Transaction | None:
        """Gather fork copies; returns the merged transaction once all arrived."""
        expected = len(self.route.steps[completed_step])
        key = (txn.id, completed_step)
        copies = self._join_pending.setdefault(key, [])
        copies.append(txn)
        if len(copies) < expected:
            return None
        del self._join_pending[key]
        copies.sort(key=lambda t: t.branch.ordinal)
        branches = [t.branch for t in copies]
        if len(set(branches)) != len(branches):
            raise JoinError(
                f"join for transaction {txn.id} at step {completed_step} received "
                f"two copies from the same branch"
            )
        if any(t.orig != copies[0].orig for t in copies):
            raise JoinError(
                f"join for transaction {txn.id} at step {completed_step} received "
                f"copies with mismatched orig fields"
            )
        join = self.checked.join
        if join is None:
            raise JoinError(
                f"transaction {txn.id} forked at step {completed_step} but no join "
                f"specification was configured"
            )
        merged = copies[0]
        try:
            for other in copies[1:]:
                merged.data = data = join.merge(merged.orig, merged.data, other.data)
                if type(data) is float and not isfinite(data):
                    raise FunctionEvalError(f"result {data} is not finite")
        except FunctionEvalError as exc:
            raise FunctionEvalError(
                f"join for transaction {txn.id} at step {completed_step}: {exc}"
            ) from None
        return merged

    def targets(self, src_node: str, dests):
        """``dests`` of a routing table entry as :meth:`forward` takes them.

        That is EXIT, or one (stage, write) pair per stage in declaration
        order, the write on the channel from ``src_node`` into the stage.
        """
        if dests is EXIT:
            return EXIT
        return tuple(
            (stage, Write(self.channel_into(src_node, stage)))
            for stage in sorted(dests, key=lambda s: s.ordinal)
        )

    def forward(self, txn: Transaction, targets) -> Sequence[tuple[Write, Transaction]]:
        """The (write, copy) deliveries of a transaction to the next step.

        Copies go out in stage declaration order.  At the exit the
        transaction retires and there is nothing to deliver.
        """
        if targets is EXIT:
            self.exited_at[txn.id] = self.engine.now
            self.data[txn.id] = txn.data
            return ()
        if len(targets) == 1:
            ((stage, write),) = targets
            txn.branch = stage
            return ((write, txn),)
        return [(write, txn.copy_for(stage)) for stage, write in targets]

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
    its input, busy for its delay, or blocked writing its output.  ``LOOP``
    sleeps its delay between peek and consume.  ``REACTIVE`` (zero delay,
    by validation) never sleeps: it finishes each arrival within the call
    that the arrival's wake-up triggers.
    """
    stage = cfg.stage
    name = stage.name
    engine = rt.engine
    log = rt.occupancy_log.append
    in_ch = rt.in_channels[stage]
    out_ch = rt.out_channels[stage]
    read, write = Read(in_ch), Write(out_ch)
    function = cfg.function
    # Called with (orig, data); a parsed function's closure is called directly.
    evaluate = (function.compiled if isinstance(function, FunctionSpec)
                else lambda values: function(*values))
    timed = not cfg.timing.is_untimed
    delay = None if cfg.exec is ExecKind.REACTIVE else _busy_ns(cfg)
    sleep = engine.sleep
    txn = None  # held from its peek until its output write is accepted
    start_ns = start_delta = 0

    def resume(proc):
        nonlocal txn, start_ns, start_delta
        if proc.pending is write:
            if not out_ch.try_write(proc, txn):
                return
            proc.pending = txn = None
        while True:
            if txn is None:
                # Peek now, consume when done: the input slot stays full for
                # the whole busy window, so contending writers suspend and stall.
                txn = in_ch.try_peek(proc)
                if txn is BLOCKED:
                    proc.pending, txn = read, None
                    return
                proc.pending = None
                start_ns, start_delta = engine.ns, engine.delta
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
            log((name, txn.id, start_ns, start_delta, engine.ns, engine.delta))
            if not out_ch.try_write(proc, txn):
                proc.pending = write
                return
            txn = None

    return resume


def _router_method(rt: _Runtime, router: RouterNode, queue: QueueChannel):
    """Build the resume callable of a router's method process, which never sleeps.

    It drains the stage's output channel and queues each delivery; the
    router's port process does the blocking write into the stage latch.
    Each completed step's table entry is resolved once, to its targets and
    whether the step is a join.
    """
    out_ch = rt.out_channels[router.stage]
    read = Read(out_ch)
    steps = rt.route.steps
    table = {
        step: (rt.targets(router.name, dests), len(steps[step]) > 1)
        for step, dests in router.table.entries.items()
    }
    put = queue.put

    def resume(proc):
        while True:
            txn = out_ch.try_read(proc)
            if txn is BLOCKED:
                proc.pending = read
                return
            completed = txn.step - 1
            entry = table.get(completed)
            if entry is None:
                raise RoutingFault(
                    f"router {router.name}: no routing entry for completed step "
                    f"{completed} (transaction {txn.id})"
                )
            targets, is_join = entry
            if is_join:
                txn = rt.collect_join(txn, completed)
                if txn is None:
                    continue
            if targets is not EXIT and len(targets) == 1:
                ((txn.branch, write),) = targets
                put((write, txn))
            else:
                for delivery in rt.forward(txn, targets):
                    put(delivery)

    return resume


def _router_port_method(rt: _Runtime, router: RouterNode, queue: QueueChannel):
    """Build the resume callable of a router port's method process.

    It drains the router's pending deliveries, one blocking write at a time;
    it is the only process that suspends on a busy stage latch.
    """
    read = Read(queue)
    held = None  # the transaction of a blocked write

    def resume(proc):
        nonlocal held
        pending = proc.pending
        if type(pending) is Write and not pending.channel.try_write(proc, held):
            return
        while True:
            delivery = queue.try_read(proc)
            if delivery is BLOCKED:
                proc.pending = read
                return
            write, held = delivery
            if not write.channel.try_write(proc, held):
                proc.pending = write
                return

    return resume


def _issue_method(rt: _Runtime, values: Sequence[float], issue: IssueSpec):
    """Build the resume callable of the issue process's method process.

    Under fixed and greedy issue each input first sleeps until its issue
    time, when that is in the future, then one delta more.  Its transaction
    then writes a copy into each entry stage's input in stage order, parking
    on a busy latch; eager issue writes at once.  The call that injects the
    last input finishes the process.
    """
    engine = rt.engine
    sleep = engine.sleep
    entry = rt.targets(ENTRY, rt.netlist.entry_router.table.lookup(-1))
    if issue.kind == "fixed":
        targets = count(0, issue.interval)
    elif issue.kind == "greedy":
        table = analysis.reservation_table(rt.route)
        vector = analysis.collision_vector(analysis.forbidden_latencies(table), table.length)
        targets = accumulate(map(itemgetter(0), analysis._greedy_walk(vector)), initial=0)
    else:
        targets = iter(())
    target = next(targets, None)  # the next input's issue ns, until it is reached
    index = 0
    txn = None  # the transaction being injected
    copies = held = None  # its (write, copy) deliveries not yet written; a blocked write's copy

    def resume(proc):
        nonlocal target, index, txn, held, copies
        write = proc.pending
        if write is not None:
            if not write.channel.try_write(proc, held):
                return
            proc.pending = None
        while True:
            if txn is None:
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
                txn = rt.new_transaction(values[index])
                index += 1
                copies = iter(rt.forward(txn, entry))
            for write, held in copies:
                if not write.channel.try_write(proc, held):
                    proc.pending = write
                    return
            rt.injected_at[txn.id] = engine.now
            txn = None
            target = next(targets, None)

    return resume


# ---------------------------------------------------------------------------
# Top-level run


def _issue_warnings(route: Route, issue: IssueSpec) -> tuple[str, ...]:
    if issue.kind != "fixed":
        return ()
    forbidden = analysis.forbidden_latencies(analysis.reservation_table(route))
    k = issue.interval
    multiple = k
    while multiple < len(route):
        if multiple in forbidden:
            return (
                f"fixed issue interval {k} collides with forbidden latency "
                f"{multiple}; expect structural stalls",
            )
        multiple += k
    return ()


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
    :class:`PipelineError`.
    """
    if horizon_ns is not None and horizon_ns < 0:
        raise PipelineError(f"horizon must be a non-negative number of ns, got {horizon_ns}")
    if isinstance(stage_configs, CheckedConfig):
        checked = stage_configs
    else:
        checked = validate_config(netlist.route, stage_configs, join=join)
    if issue is None:
        issue = IssueSpec.greedy()

    engine = Engine()
    rt = _Runtime(engine, netlist, checked)

    engine.spawn("issue", _issue_method(rt, inputs, issue))
    for stage in netlist.stages:
        engine.spawn(stage.name, _stage_method(rt, checked.config_of(stage)))
    for router in netlist.routers[1:]:
        queue = QueueChannel(f"{router.name}.q", engine)
        engine.spawn(router.name, _router_method(rt, router, queue))
        engine.spawn(f"{router.name}.out", _router_port_method(rt, router, queue))

    truncated = engine.run(horizon_ns=horizon_ns, quiesced=rt.quiesced_message)

    dropped_ids = rt.dropped_ids()
    records = tuple(
        TraceRecord(
            txn_id=i,
            orig=rt.orig[i],
            data=rt.data[i],
            injected_at=rt.injected_at[i],
            exited_at=rt.exited_at.get(i),
            dropped=i in dropped_ids,
        )
        for i in sorted(rt.orig)
    )
    trace = Trace(records=records, occupancy_log=tuple(rt.occupancy_log))

    items = Counter(map(itemgetter(0), rt.occupancy_log))
    stage_stats = {
        s.name: StageStats(
            items=items[s.name],
            busy_ns=items[s.name] * _busy_ns(checked.config_of(s)),
            stalls=rt.in_channels[s].stalls,
        )
        for s in netlist.stages
    }
    channels = sorted(rt.channels(), key=lambda c: c.name)
    stats = Stats(
        injected=len(rt.orig),
        exited=len(rt.exited_at),
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
    warnings = checked.warnings + _issue_warnings(netlist.route, issue)
    return RunResult(trace=trace, stats=stats, warnings=warnings)
