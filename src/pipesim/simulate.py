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

Stages, routers and ports are method processes (see :mod:`.engine`): each is
a closure the engine calls once per resume, which carries the process from
where it last suspended.  The issue process is a thread process, a generator,
because its schedule reads most naturally as a loop of waits.

Payloads are dynamically typed: ``orig`` and ``data`` are reals when driven
from the CLI, but library users may put any value in ``data`` as long as the
configured stage functions accept it.

Stage occupancy is logged as one tuple of plain ints per hop, (stage name,
transaction id, start ns, start delta, end ns, end delta), and the
:class:`Occupancy` objects with their :class:`SimTime` bounds are built only
when ``Trace.occupancy`` is first read.  A caller that never reads it pays
for the tuples alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Sequence, Union

from . import analysis
from .dsl import Route, StageId
from .elaborate import EXIT, Netlist, RouterNode
from .engine import (
    BLOCKED,
    BlockingChannel,
    ChannelBase,
    Delay,
    Engine,
    JoinError,
    Peek,
    QueueChannel,
    Read,
    RoutingFault,
    SeveredChannel,
    SignalChannel,
    SimTime,
    WaitUntil,
    Write,
)
from .errors import PipelineError
from .policy import (
    ChannelKind,
    CheckedConfig,
    ExecKind,
    FunctionEvalError,
    IssueSpec,
    JoinSpec,
    StageConfig,
    apply_stage_function,
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


@dataclass(eq=False)
class Transaction:
    """A unit of work in flight.

    ``step`` counts completed progress along the route: a stage increments it
    exactly once per occupancy, and step == len(route) means the transaction
    has left the pipeline.  ``branch`` is the stage handling the transaction
    within the current step; fork copies share one id and merge back into a
    single transaction before their common successor (or the exit).
    """

    id: int
    orig: float
    data: float
    route: Route
    step: int = 0
    branch: StageId | None = None

    def advance(self) -> None:
        self.step += 1

    def copy_for(self, branch: StageId) -> "Transaction":
        return Transaction(
            id=self.id,
            orig=self.orig,
            data=self.data,
            route=self.route,
            step=self.step,
            branch=branch,
        )


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class TraceRecord:
    txn_id: int
    orig: float
    data: float
    injected_at: SimTime | None
    exited_at: SimTime | None
    dropped: bool


@dataclass(frozen=True)
class Occupancy:
    stage: str
    txn_id: int
    start: SimTime
    end: SimTime


# (stage, txn_id, start_ns, start_delta, end_ns, end_delta)
OccupancyEntry = tuple[str, int, int, int, int, int]


@dataclass(frozen=True, repr=False)
class Trace:
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


@dataclass(frozen=True)
class StageStats:
    items: int
    busy_ns: int
    stalls: int


@dataclass(frozen=True)
class Stats:
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


@dataclass(frozen=True)
class RunResult:
    trace: Trace
    stats: Stats
    warnings: tuple[str, ...]


class _Recorder:
    """Mutable collection point; frozen into Trace/Stats when the run ends."""

    def __init__(self):
        self.orig: dict[int, float] = {}
        self.data: dict[int, float] = {}
        self.injected_at: dict[int, SimTime | None] = {}
        self.exited_at: dict[int, SimTime] = {}
        self.dropped_ids: set[int] = set()
        self.occupancy_log: list[OccupancyEntry] = []
        self.stalls: dict[str, int] = {}
        self.drops: dict[str, int] = {}
        self.timed_waits = 0
        self.issue_active = True

    def new_txn(self, txn: Transaction) -> None:
        self.orig[txn.id] = txn.orig
        self.data[txn.id] = txn.data
        self.injected_at[txn.id] = None

    def mark_injected(self, txn_id: int, when: SimTime) -> None:
        self.injected_at[txn_id] = when

    def record_exit(self, txn: Transaction, when: SimTime) -> None:
        self.exited_at[txn.id] = when
        self.data[txn.id] = txn.data

    def stall(self, channel: str) -> None:
        self.stalls[channel] = self.stalls.get(channel, 0) + 1

    def drop(self, channel: str, value) -> None:
        self.drops[channel] = self.drops.get(channel, 0) + 1
        if isinstance(value, Transaction):
            self.dropped_ids.add(value.id)

    def in_flight_ids(self) -> list[int]:
        return [
            i
            for i in self.orig
            if i not in self.exited_at and i not in self.dropped_ids
        ]


# ---------------------------------------------------------------------------
# Runtime wiring


class _Runtime:
    def __init__(
        self,
        engine: Engine,
        netlist: Netlist,
        checked: CheckedConfig,
        recorder: _Recorder,
    ):
        self.engine = engine
        self.netlist = netlist
        self.checked = checked
        self.recorder = recorder
        self.route = netlist.route
        self._edges = {(e.src, e.dst) for e in netlist.edges}
        self._severed: dict[tuple[str, str], SeveredChannel] = {}
        self._join_pending: dict[tuple[int, int], list[Transaction]] = {}
        self._next_id = 0

        self.in_channels: dict[StageId, ChannelBase] = {}
        self.out_channels: dict[StageId, ChannelBase] = {}
        for stage in netlist.stages:
            kind = checked.config_of(stage).channels
            self.in_channels[stage] = self._make_channel(f"{stage.name}.in", kind)
            self.out_channels[stage] = self._make_channel(f"{stage.name}.out", kind)

    def _make_channel(self, name: str, kind: ChannelKind) -> ChannelBase:
        if kind is ChannelKind.SIGNAL:
            return SignalChannel(name, self.engine, on_drop=self.recorder.drop)
        return BlockingChannel(name, self.engine, on_stall=self.recorder.stall)

    def new_transaction(self, value: float) -> Transaction:
        txn = Transaction(
            id=self._next_id,
            orig=float(value),
            data=0.0,
            route=self.route,
        )
        self._next_id += 1
        self.recorder.new_txn(txn)
        return txn

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
                merged.data = join.merge(merged.orig, merged.data, other.data)
                if _not_finite(merged.data):
                    raise FunctionEvalError(f"result {merged.data} is not finite")
        except FunctionEvalError as exc:
            raise FunctionEvalError(
                f"join for transaction {txn.id} at step {completed_step}: {exc}"
            ) from None
        return merged

    def forward(self, txn: Transaction, dests) -> Sequence[tuple[StageId, Transaction]]:
        """The (stage, copy) deliveries of a transaction to the next step.

        Copies go out in stage declaration order.  At the exit the
        transaction retires and there is nothing to deliver.
        """
        if dests is EXIT:
            self.recorder.record_exit(txn, self.engine.now)
            return ()
        if len(dests) == 1:
            (target,) = dests
            txn.branch = target
            return ((target, txn),)
        targets = sorted(dests, key=lambda s: s.ordinal)
        return [(target, txn.copy_for(target)) for target in targets]

    def quiesced_message(self) -> str | None:
        in_flight = self.recorder.in_flight_ids()
        if not in_flight and not self.recorder.issue_active:
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


def _not_finite(value) -> bool:
    # Payloads may be any type; only a float can overflow to inf or nan.
    return type(value) is float and not math.isfinite(value)


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
    engine, recorder = rt.engine, rt.recorder
    log = recorder.occupancy_log.append
    in_ch = rt.in_channels[stage]
    out_ch = rt.out_channels[stage]
    peek, write = Peek(in_ch), Write(out_ch, None)
    function = cfg.function
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
                    proc.pending, txn = peek, None
                    return
                proc.pending = None
                start_ns, start_delta = engine.ns, engine.delta
                try:
                    txn.data = apply_stage_function(function, txn.orig, txn.data)
                    if _not_finite(txn.data):
                        raise FunctionEvalError(f"result {txn.data} is not finite")
                except FunctionEvalError as exc:
                    raise FunctionEvalError(
                        f"stage {name}, transaction {txn.id}: {exc}"
                    ) from None
                if timed:
                    recorder.timed_waits += 1
                if delay is not None:
                    sleep(proc, delay)
                    return
            # Holding a transaction and not blocked: the busy window is over.
            in_ch.consume()
            txn.advance()
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
    """
    out_ch = rt.out_channels[router.stage]
    read = Read(out_ch)
    lookup = router.table.lookup
    steps = rt.route.steps
    put = queue.put

    def resume(proc):
        while True:
            txn = out_ch.try_read(proc)
            if txn is BLOCKED:
                proc.pending = read
                return
            completed = txn.step - 1
            dests = lookup(completed)
            if dests is None:
                raise RoutingFault(
                    f"router {router.name}: no routing entry for completed step "
                    f"{completed} (transaction {txn.id})"
                )
            if len(steps[completed]) > 1:
                txn = rt.collect_join(txn, completed)
                if txn is None:
                    continue
            for delivery in rt.forward(txn, dests):
                put(delivery)

    return resume


def _router_port_method(rt: _Runtime, router: RouterNode, queue: QueueChannel):
    """Build the resume callable of a router port's method process.

    It drains the router's pending deliveries, one blocking write at a time;
    it is the only process that suspends on a busy stage latch.
    """
    read = Read(queue)
    writes: dict[StageId, Write] = {}
    held = None  # the delivery of a blocked write

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
            target, held = delivery
            write = writes.get(target)
            if write is None:
                write = writes[target] = Write(rt.channel_into(router.name, target), None)
            if not write.channel.try_write(proc, held):
                proc.pending = write
                return

    return resume


def _issue_process(rt: _Runtime, values: Sequence[float], issue: IssueSpec):
    entry_dests = rt.netlist.entry_router.table.lookup(-1)
    if issue.kind == "greedy":
        table = analysis.reservation_table(rt.route)
        vector = analysis.collision_vector(analysis.forbidden_latencies(table), table.length)
        greedy = analysis._greedy_walk(vector)
    target = 0
    for index, value in enumerate(values):
        if issue.kind == "fixed":
            target = issue.interval * index
            yield WaitUntil(target)
            # Land after the nanosecond boundary: stage drains run at delta 0.
            yield Delay(0)
        elif issue.kind == "greedy":
            if index > 0:
                target += next(greedy)[0]
            yield WaitUntil(target)
            yield Delay(0)
        txn = rt.new_transaction(value)
        for stage, copy in rt.forward(txn, entry_dests):
            yield Write(rt.channel_into("entry", stage), copy)
        rt.recorder.mark_injected(txn.id, rt.engine.now)
    rt.recorder.issue_active = False


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
    recorder = _Recorder()
    rt = _Runtime(engine, netlist, checked, recorder)

    engine.spawn("issue", _issue_process(rt, inputs, issue))
    for stage in netlist.stages:
        engine.spawn_method(stage.name, _stage_method(rt, checked.config_of(stage)))
    for router in netlist.routers[1:]:
        queue = QueueChannel(f"{router.name}.q", engine)
        engine.spawn_method(router.name, _router_method(rt, router, queue))
        engine.spawn_method(f"{router.name}.out", _router_port_method(rt, router, queue))

    truncated = engine.run(horizon_ns=horizon_ns, quiesced=rt.quiesced_message)

    records = tuple(
        TraceRecord(
            txn_id=i,
            orig=recorder.orig[i],
            data=recorder.data[i],
            injected_at=recorder.injected_at[i],
            exited_at=recorder.exited_at.get(i),
            dropped=i in recorder.dropped_ids,
        )
        for i in sorted(recorder.orig)
    )
    trace = Trace(records=records, occupancy_log=tuple(recorder.occupancy_log))

    items = Counter(map(itemgetter(0), recorder.occupancy_log))
    stage_stats = {
        s.name: StageStats(
            items=items[s.name],
            busy_ns=items[s.name] * _busy_ns(checked.config_of(s)),
            stalls=recorder.stalls.get(f"{s.name}.in", 0),
        )
        for s in netlist.stages
    }
    stats = Stats(
        injected=len(recorder.orig),
        exited=len(recorder.exited_at),
        dropped=len(recorder.dropped_ids),
        in_flight=len(recorder.in_flight_ids()),
        final_time=engine.now,
        timed_waits=recorder.timed_waits,
        total_stalls=sum(recorder.stalls.values()),
        stage=stage_stats,
        stalls_by_channel=dict(sorted(recorder.stalls.items())),
        drops_by_channel=dict(sorted(recorder.drops.items())),
        truncated=truncated,
    )
    warnings = checked.warnings + _issue_warnings(netlist.route, issue)
    return RunResult(trace=trace, stats=stats, warnings=warnings)
