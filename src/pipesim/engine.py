"""Deterministic discrete-event engine.

A process comes in one of two kinds, as in IEEE 1666 SystemC:

- a thread process (``SC_THREAD``, :meth:`Engine.spawn`) is a generator that
  yields requests (read, peek, write, delay, wait-until) back to the engine;
  a resumed thread runs until its next suspension;
- a method process (``SC_METHOD``, :meth:`Engine.spawn_method`) is a callable
  that the engine calls once per resume.  It calls the channels'
  ``try_peek``/``try_read``/``try_write`` itself, and suspends by returning:
  parked on a channel, with ``proc.pending`` set to the request it would have
  yielded, or after :meth:`Engine.sleep`.

Both kinds block, wake and sleep through the same channel calls and the same
``sleep``, so they schedule alike.  Processes are dispatched in (nanoseconds,
delta, schedule sequence) order and there is no other source of ordering,
which is what makes runs byte-reproducible.  Same-nanosecond causality is
sequenced with delta phases: a wake-up always lands at the current
nanosecond, one delta later.

As in the IEEE 1666 SystemC scheduler, that order needs no single priority
queue.  A wake-up lands at (now.ns, now.delta + 1), and a positive delay or a
future wait-until lands at a strictly later nanosecond, delta 0.  So the
engine keeps three collections:

- a FIFO of the processes runnable in the current delta phase;
- a list of the processes woken for the next delta phase;
- a heap of (ns, sequence, process) entries for timed events only.

Within one (ns, delta) phase the dispatch order is the schedule order, which
is the order processes were appended.  Delta d + 1 of a nanosecond runs right
after delta d, because nothing else can land at that nanosecond in between.
The timed events of the next nanosecond all sit at delta 0 and leave the heap
together, in schedule order.  SimPy's ``Environment``
(https://simpy.readthedocs.io) keeps one heap of (time, priority, id, event);
splitting off the delta phases keeps most resumes out of the heap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
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
    "BLOCKED",
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


# Requests a process may yield.  A request holds no state of its own, so a
# process may yield the same one again and again.  They are plain slotted
# classes: nothing hashes or compares them, and a plain ``__init__`` is the
# cheapest to call on the per-hop ``Write``.


class Read:
    __slots__ = ("channel",)

    def __init__(self, channel: "ChannelBase"):
        self.channel = channel


class Peek:
    """Wait for a value without draining the slot.

    A stage peeks its input, works, and only consumes when done: the held
    slot is the stage's input latch, so a second transaction demanding the
    stage while it is busy suspends its writer instead of slipping into the
    buffer.
    """

    __slots__ = ("channel",)

    def __init__(self, channel: "ChannelBase"):
        self.channel = channel


class Write:
    __slots__ = ("channel", "value")

    def __init__(self, channel: "ChannelBase", value: object):
        self.channel, self.value = channel, value


class Delay:
    __slots__ = ("ns",)

    def __init__(self, ns: int):
        self.ns = ns  # 0 advances one delta at the current nanosecond


class WaitUntil:
    __slots__ = ("ns",)

    def __init__(self, ns: int):
        self.ns = ns  # resume inline when the target is not in the future


# What a channel's try_read/try_peek return when the caller must suspend.
BLOCKED = object()


class Process:
    """A scheduled process; ``resume(proc)`` runs it to its next suspension.

    A thread process keeps its generator in ``gen`` and resumes through the
    engine's request loop; a method process has no generator.
    """

    __slots__ = ("name", "gen", "resume", "pending", "until", "scheduled", "done")

    def __init__(self, name: str, gen: Iterator | None, resume: Callable[["Process"], None]):
        self.name = name
        self.gen = gen
        self.resume = resume
        self.pending = None  # the blocked request, retried after a wake-up
        self.until: int | None = None  # ns the last delay or wait targeted
        self.scheduled = False
        self.done = False

    @property
    def state(self) -> str:
        if self.done:
            return "finished"
        request = self.pending
        if request is not None:
            verb = "writing" if type(request) is Write else "reading"
            return f"blocked {verb} {request.channel.name}"
        if self.until is None:
            return "created"
        return f"waiting until {self.until}ns"

    def __repr__(self) -> str:
        return f"Process({self.name}, {self.state})"


class Engine:
    """Owns the run queues and steps processes to their next suspension.

    The current instant is the two ints ``ns`` and ``delta``; ``now`` builds
    a :class:`SimTime` from them for callers that want one.  ``resumes``
    counts processes resumed, of both kinds, and ``timed`` counts timed
    events scheduled (heap pushes); both only grow.
    """

    def __init__(self):
        self._runnable: deque[Process] = deque()  # the current delta phase
        self._woken: list[Process] = []  # the next delta phase
        self._timed: list[tuple[int, int, Process]] = []  # (ns, seq, proc)
        self.ns = 0
        self.delta = 0
        self.processes: list[Process] = []
        self.resumes = 0
        self.timed = 0

    @property
    def now(self) -> SimTime:
        return SimTime(self.ns, self.delta)

    def spawn(self, name: str, gen: Iterator) -> Process:
        """Create a thread process, runnable at the current instant."""
        return self._start(Process(name, gen, self._step))

    def spawn_method(self, name: str, resume: Callable[[Process], None]) -> Process:
        """Create a method process, runnable at the current instant.

        The engine calls ``resume(proc)`` on every resume.  It returns after
        parking on a channel (setting ``proc.pending`` to the ``Peek``,
        ``Read`` or ``Write`` it is blocked on, and clearing it once past)
        or after ``self.sleep(proc, ns)``.
        """
        return self._start(Process(name, None, resume))

    def _start(self, proc: Process) -> Process:
        self.processes.append(proc)
        proc.scheduled = True
        self._runnable.append(proc)
        return proc

    def wake(self, proc: Process) -> None:
        """Schedule a parked process one delta after the current instant."""
        assert not proc.scheduled, f"{proc.name} scheduled twice"
        proc.scheduled = True
        self._woken.append(proc)

    def sleep(self, proc: Process, ns: int) -> None:
        """Schedule ``proc`` ``ns`` after the current instant.

        A positive ``ns`` is a timed event on the heap; 0 wakes ``proc`` one
        delta later at the current nanosecond.
        """
        if ns <= 0:
            proc.until = self.ns
            self.wake(proc)
            return
        assert not proc.scheduled, f"{proc.name} scheduled twice"
        proc.scheduled = True
        proc.until = ns = self.ns + ns
        self.timed += 1  # also the entry's schedule sequence
        heappush(self._timed, (ns, self.timed, proc))

    def run(
        self,
        horizon_ns: int | None = None,
        quiesced: Optional[Callable[[], Optional[str]]] = None,
    ) -> bool:
        """Dispatch until nothing is scheduled; returns True when stopped by the horizon.

        ``quiesced`` is consulted once nothing is scheduled: a non-None
        message means work was still pending and is raised as a deadlock
        diagnostic.
        """
        runnable, woken, timed = self._runnable, self._woken, self._timed
        while True:
            while runnable:
                proc = runnable.popleft()
                proc.scheduled = False
                self.resumes += 1
                proc.resume(proc)
            if woken:
                runnable.extend(woken)
                woken.clear()
                self.delta += 1
            elif timed:
                ns = timed[0][0]
                if horizon_ns is not None and ns > horizon_ns:
                    return True
                self.ns = ns
                self.delta = 0
                while timed and timed[0][0] == ns:
                    runnable.append(heappop(timed)[2])
            else:
                break
        if quiesced is not None:
            message = quiesced()
            if message is not None:
                raise DeadlockError(message)
        return False

    def _step(self, proc: Process) -> None:
        # The resume of a thread process: serve its requests until one suspends it.
        request = proc.pending
        proc.pending = None
        value = None
        send = proc.gen.send
        while True:
            if request is None:
                try:
                    request = send(value)
                except StopIteration:
                    proc.done = True
                    return
            kind = type(request)
            if kind is Peek:
                value = request.channel.try_peek(proc)
                if value is BLOCKED:
                    proc.pending = request
                    return
            elif kind is Read:
                value = request.channel.try_read(proc)
                if value is BLOCKED:
                    proc.pending = request
                    return
            elif kind is Write:
                if not request.channel.try_write(proc, request.value):
                    proc.pending = request
                    return
                value = None
            elif kind is Delay:
                self.sleep(proc, request.ns)
                return
            elif kind is WaitUntil:
                if request.ns > self.ns:
                    self.sleep(proc, request.ns - self.ns)
                    return
                value = None
            else:
                raise PipelineError(f"process {proc.name} yielded {request!r}")
            request = None

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

    def try_read(self, proc: Process) -> object:
        """The next value, or BLOCKED after parking ``proc`` as the reader."""
        raise NotImplementedError

    def try_peek(self, proc: Process) -> object:
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

    def try_read(self, proc: Process) -> object:
        value = self.slot
        if value is not None:
            self.slot = None
            self._grant_next_writer()
            return value
        self._park_reader(proc)
        return BLOCKED

    def try_peek(self, proc: Process) -> object:
        value = self.slot
        if value is not None:
            return value
        self._park_reader(proc)
        return BLOCKED

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
        self._writers.append((self.engine.ns, txn_id, self._waiter_seq, proc))
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

    def try_read(self, proc: Process) -> object:
        if self.fresh:
            self.fresh = False
            return self.value
        self._park_reader(proc)
        return BLOCKED

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

    def try_read(self, proc: Process) -> object:
        self._park_reader(proc)
        return BLOCKED

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
        self.items: deque = deque()

    def try_read(self, proc: Process) -> object:
        if self.items:
            return self.items.popleft()
        self._park_reader(proc)
        return BLOCKED

    def try_write(self, proc: Process, value) -> bool:
        self.put(value)
        return True

    def put(self, value) -> None:
        """Append ``value``; a writer that never blocks may call this directly."""
        self.items.append(value)
        self._wake_reader()

    def describe(self) -> str:
        return f"{self.name}: {len(self.items)} queued"
