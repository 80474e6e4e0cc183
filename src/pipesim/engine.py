"""Deterministic discrete-event engine.

Simulated processes are generators that yield requests (read, write, delay)
back to the engine.  A single event queue ordered by (nanoseconds, delta,
schedule sequence) drives everything; a resumed process runs until its next
suspension.  Same-nanosecond causality is sequenced with delta phases: a
wake-up always lands at the current nanosecond, one delta later.  There is no
other source of ordering, which is what makes runs byte-reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import PipelineError

__all__ = [
    "SimTime",
    "DeadlockError",
    "RoutingFault",
    "JoinError",
    "Read",
    "Peek",
    "Write",
    "Delay",
    "WaitUntil",
    "Process",
    "Engine",
    "BlockingChannel",
    "SignalChannel",
    "SeveredChannel",
    "QueueChannel",
]


@dataclass(frozen=True, order=True)
class SimTime:
    """Simulated time: nanoseconds plus a delta phase for zero-time ordering."""

    ns: int = 0
    delta: int = 0

    def __str__(self) -> str:
        return f"{self.ns}ns+{self.delta}d"


class DeadlockError(PipelineError):
    """No runnable process remains while transactions are still in flight."""


class RoutingFault(PipelineError):
    """A router had no table entry for an arriving transaction (elaboration bug)."""


class JoinError(PipelineError):
    """Branch copies arriving at a join are inconsistent."""


# Requests a process may yield.


@dataclass(frozen=True)
class Read:
    channel: "ChannelBase"


@dataclass(frozen=True)
class Peek:
    """Wait for a value without draining the slot.

    A stage peeks its input, works, and only consumes when done: the held
    slot is the stage's input latch, so a second transaction demanding the
    stage while it is busy suspends its writer instead of slipping into the
    buffer.
    """

    channel: "ChannelBase"


@dataclass(frozen=True)
class Write:
    channel: "ChannelBase"
    value: object


@dataclass(frozen=True)
class Delay:
    ns: int  # 0 advances one delta at the current nanosecond


@dataclass(frozen=True)
class WaitUntil:
    ns: int  # resume inline when the target is not in the future


class Process:
    __slots__ = ("name", "gen", "state", "pending", "resume_value", "scheduled", "done")

    def __init__(self, name: str, gen: Iterator):
        self.name = name
        self.gen = gen
        self.state = "created"
        self.pending = None  # request to retry after a wake-up
        self.resume_value = None
        self.scheduled = False
        self.done = False

    def __repr__(self) -> str:
        return f"Process({self.name}, {self.state})"


class Engine:
    """Owns the event queue and steps processes to their next suspension."""

    def __init__(self):
        self._heap: list[tuple[int, int, int, Process]] = []
        self._seq = 0
        self.now = SimTime(0, 0)
        self.processes: list[Process] = []

    def spawn(self, name: str, gen: Iterator) -> Process:
        proc = Process(name, gen)
        self.processes.append(proc)
        self._schedule(proc, self.now.ns, self.now.delta)
        return proc

    def _schedule(self, proc: Process, ns: int, delta: int) -> None:
        assert not proc.scheduled, f"{proc.name} scheduled twice"
        proc.scheduled = True
        self._seq += 1
        heapq.heappush(self._heap, (ns, delta, self._seq, proc))

    def wake(self, proc: Process) -> None:
        """Schedule a parked process one delta after the current instant."""
        self._schedule(proc, self.now.ns, self.now.delta + 1)

    def run(
        self,
        horizon_ns: int | None = None,
        quiesced: Optional[Callable[[], Optional[str]]] = None,
    ) -> bool:
        """Drain the event queue; returns True when stopped by the horizon.

        ``quiesced`` is consulted once the queue empties: a non-None message
        means work was still pending and is raised as a deadlock diagnostic.
        """
        truncated = False
        while self._heap:
            ns, delta, seq, proc = heapq.heappop(self._heap)
            if horizon_ns is not None and ns > horizon_ns:
                heapq.heappush(self._heap, (ns, delta, seq, proc))
                truncated = True
                break
            proc.scheduled = False
            self.now = SimTime(ns, delta)
            self._step(proc)
        if not truncated and quiesced is not None:
            message = quiesced()
            if message is not None:
                raise DeadlockError(message)
        return truncated

    def _step(self, proc: Process) -> None:
        while True:
            if proc.pending is not None:
                request = proc.pending
                proc.pending = None
            else:
                try:
                    request = proc.gen.send(proc.resume_value)
                except StopIteration:
                    proc.state = "finished"
                    proc.done = True
                    return
                proc.resume_value = None

            if isinstance(request, Read):
                ok, value = request.channel.try_read(proc)
                if ok:
                    proc.resume_value = value
                    continue
                proc.pending = request
                proc.state = f"blocked reading {request.channel.name}"
                return
            if isinstance(request, Peek):
                ok, value = request.channel.try_peek(proc)
                if ok:
                    proc.resume_value = value
                    continue
                proc.pending = request
                proc.state = f"blocked reading {request.channel.name}"
                return
            if isinstance(request, Write):
                if request.channel.try_write(proc, request.value):
                    proc.resume_value = None
                    continue
                proc.pending = request
                proc.state = f"blocked writing {request.channel.name}"
                return
            if isinstance(request, Delay):
                if request.ns > 0:
                    self._schedule(proc, self.now.ns + request.ns, 0)
                else:
                    self.wake(proc)
                proc.state = f"waiting until {self.now.ns + request.ns}ns"
                return
            if isinstance(request, WaitUntil):
                if request.ns <= self.now.ns:
                    proc.resume_value = None
                    continue
                self._schedule(proc, request.ns, 0)
                proc.state = f"waiting until {request.ns}ns"
                return
            raise PipelineError(f"process {proc.name} yielded {request!r}")

    def describe_processes(self) -> list[str]:
        return [f"{p.name}: {p.state}" for p in self.processes if not p.done]


# ---------------------------------------------------------------------------
# Channels


class ChannelBase:
    kind = "channel"

    def __init__(self, name: str, engine: Engine):
        self.name = name
        self.engine = engine
        self._reader: Process | None = None

    def try_read(self, proc: Process) -> tuple[bool, object]:
        raise NotImplementedError

    def try_peek(self, proc: Process) -> tuple[bool, object]:
        return self.try_read(proc)

    def consume(self) -> None:
        """Drain a previously peeked value; a no-op for channels without slots."""

    def try_write(self, proc: Process, value) -> bool:
        raise NotImplementedError

    def _park_reader(self, proc: Process) -> None:
        assert self._reader is None or self._reader is proc, (
            f"channel {self.name} has two readers"
        )
        self._reader = proc

    def _wake_reader(self) -> None:
        if self._reader is not None:
            reader, self._reader = self._reader, None
            self.engine.wake(reader)

    def describe(self) -> str:
        return f"{self.name}: ?"


class BlockingChannel(ChannelBase):
    """Single-slot FIFO: reads block while empty, writes block while full.

    Writers blocked on a full slot are granted it by arrival: earlier
    nanosecond first, ties broken by transaction id, then by suspension order.
    """

    kind = "blocking"

    def __init__(
        self,
        name: str,
        engine: Engine,
        on_stall: Callable[[str], None] | None = None,
    ):
        super().__init__(name, engine)
        self.slot = None
        # (blocked_ns, txn_id, seq, proc); seq is unique, so proc is never compared.
        self._writers: list[tuple[int, int, int, Process]] = []
        self._on_stall = on_stall
        self._waiter_seq = 0

    def try_read(self, proc: Process) -> tuple[bool, object]:
        if self.slot is not None:
            value, self.slot = self.slot, None
            self._grant_next_writer()
            return True, value
        self._park_reader(proc)
        return False, None

    def try_peek(self, proc: Process) -> tuple[bool, object]:
        if self.slot is not None:
            return True, self.slot
        self._park_reader(proc)
        return False, None

    def consume(self) -> None:
        assert self.slot is not None, f"consume on empty channel {self.name}"
        self.slot = None
        self._grant_next_writer()

    def try_write(self, proc: Process, value) -> bool:
        if self.slot is None:
            self.slot = value
            self._wake_reader()
            return True
        if self._on_stall is not None:
            self._on_stall(self.name)
        self._waiter_seq += 1
        txn_id = getattr(value, "id", 0)
        self._writers.append((self.engine.now.ns, txn_id, self._waiter_seq, proc))
        return False

    def _grant_next_writer(self) -> None:
        if not self._writers:
            return
        winner = min(self._writers)
        self._writers.remove(winner)
        self.engine.wake(winner[3])

    def describe(self) -> str:
        if self.slot is None:
            state = "empty"
        else:
            txn_id = getattr(self.slot, "id", None)
            state = f"full (txn {txn_id})" if txn_id is not None else "full"
        if self._writers:
            state += f", {len(self._writers)} writer(s) blocked"
        return f"{self.name}: {state}"


class SignalChannel(ChannelBase):
    """Overwrite signal: writes never block; an unread value is dropped."""

    kind = "signal"

    def __init__(
        self,
        name: str,
        engine: Engine,
        on_drop: Callable[[str, object], None] | None = None,
    ):
        super().__init__(name, engine)
        self.value = None
        self.fresh = False
        self.drop_count = 0
        self._on_drop = on_drop

    def try_read(self, proc: Process) -> tuple[bool, object]:
        if self.fresh:
            self.fresh = False
            return True, self.value
        self._park_reader(proc)
        return False, None

    def try_write(self, proc: Process, value) -> bool:
        if self.fresh:
            self.drop_count += 1
            if self._on_drop is not None:
                self._on_drop(self.name, self.value)
        self.value = value
        self.fresh = True
        self._wake_reader()
        return True

    def describe(self) -> str:
        state = "fresh" if self.fresh else "idle"
        if self.drop_count:
            state += f", {self.drop_count} dropped"
        return f"{self.name}: {state}"


class SeveredChannel(ChannelBase):
    """Stands in for a missing netlist edge: never accepts or delivers."""

    kind = "severed"

    def try_read(self, proc: Process) -> tuple[bool, object]:
        self._park_reader(proc)
        return False, None

    def try_write(self, proc: Process, value) -> bool:
        return False

    def describe(self) -> str:
        return f"{self.name}: severed"


class QueueChannel(ChannelBase):
    """Unbounded FIFO for router-internal plumbing; writes never block.

    A router must keep servicing its input even while a destination latch is
    busy, otherwise feedback routes could close a circular wait.  Its pending
    deliveries therefore queue here and a dedicated output-port process drains
    them; that process is the one that suspends (and records the stall) when
    a stage's input latch is occupied.
    """

    kind = "queue"

    def __init__(self, name: str, engine: Engine):
        super().__init__(name, engine)
        self.items: list = []

    def try_read(self, proc: Process) -> tuple[bool, object]:
        if self.items:
            return True, self.items.pop(0)
        self._park_reader(proc)
        return False, None

    def try_write(self, proc: Process, value) -> bool:
        self.items.append(value)
        self._wake_reader()
        return True

    def describe(self) -> str:
        return f"{self.name}: {len(self.items)} queued"
