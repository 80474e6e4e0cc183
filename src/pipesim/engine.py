"""Deterministic discrete-event engine.

Every process is a method process, the ``SC_METHOD`` kind of IEEE 1666
SystemC (:meth:`Engine.spawn`): a callable that the engine calls once per
resume.  It calls the channels' ``try_peek``/``take``/``try_write``
itself, and suspends by returning: parked on a channel, with ``proc.pending``
set to the request it is blocked on, or after :meth:`Engine.sleep`.

Processes are dispatched in (nanoseconds, delta, schedule sequence) order and
there is no other source of ordering, which is what makes runs
byte-reproducible.  Same-nanosecond causality is sequenced with delta phases:
a wake-up always lands at the current nanosecond, one delta later.

As in the IEEE 1666 SystemC scheduler, that order needs no single priority
queue.  A wake-up lands at (now.ns, now.delta + 1), and a positive sleep lands
at a strictly later nanosecond, delta 0.  So the engine keeps three
collections:

- a FIFO of the processes runnable in the current delta phase;
- a list of the processes woken for the next delta phase;
- one list of timed events per nanosecond, and a heap of those nanoseconds.

Within one (ns, delta) phase the dispatch order is the schedule order, which
is the order processes were appended.  Delta d + 1 of a nanosecond runs right
after delta d, because nothing else can land at that nanosecond in between.
The timed events of the next nanosecond all sit at delta 0 and become the
next phase together, in schedule order.  SimPy's ``Environment``
(https://simpy.readthedocs.io) keeps one heap of (time, priority, id, event);
splitting off the delta phases and each nanosecond's list keeps most resumes
out of the heap.

A channel has at most one parked reader, and wakes and parks it inline, with
no helper call per hop.  A ``try_peek`` that returns BLOCKED parks the
reader, as do every ``take`` and a queue's port on the empty queue,
asserting that no other process is parked there ("two readers").  A write
that gives the channel a value wakes that reader onto the engine's
next-delta list, exactly as :meth:`Engine.wake` does and under the same
"scheduled twice" assert.  A blocked writer is woken through
:meth:`Engine.wake`, and only when a ``take`` or ``consume`` frees a slot
that writers wait for.

The channels count the effects of the communication policy themselves: a
:class:`BlockingChannel` counts the writes it refuses in ``stalls``, and a
:class:`SignalChannel` lists the values it overwrites unread in ``dropped``.
Nothing else counts them; a simulation reads them off its channels.
"""

from __future__ import annotations

from collections import deque
from functools import total_ordering
from heapq import heappop, heappush
from typing import Callable, Optional

from ._value import Value
from .errors import PipelineError


@total_ordering
class SimTime(Value):
    """Simulated time: nanoseconds plus a delta phase for zero-time ordering."""

    ns: int = 0
    delta: int = 0

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key < other._key
        return NotImplemented

    def __str__(self) -> str:
        return f"{self.ns}ns+{self.delta}d"


class DeadlockError(PipelineError):
    """No runnable process remains while transactions are still in flight."""


class RoutingFault(PipelineError):
    """A router had no table entry for an arriving transaction (elaboration bug)."""


class JoinError(PipelineError):
    """Branch copies arriving at a join are inconsistent."""


# What a process is blocked on, kept in ``proc.pending``.  A request holds no
# state of its own, so a process builds each one once and parks on it again
# and again.


class Read:
    __slots__ = ("channel",)

    def __init__(self, channel: "ChannelBase"):
        self.channel = channel


class Write:
    __slots__ = ("channel",)

    def __init__(self, channel: "ChannelBase"):
        self.channel = channel


# What a channel's try_peek/take return when the caller must suspend.
BLOCKED = object()


class Process:
    """A scheduled process; ``resume(proc)`` runs it to its next suspension."""

    __slots__ = ("name", "resume", "pending", "until", "scheduled", "done")

    def __init__(self, name: str, resume: Callable[["Process"], None]):
        self.name = name
        self.resume = resume
        self.pending = None  # the blocked request, retried after a wake-up
        self.until: int | None = None  # ns the last sleep targeted
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
    counts processes resumed and ``timed`` counts timed events scheduled
    (positive sleeps); both only grow.
    """

    def __init__(self):
        self._runnable: deque[Process] = deque()  # the current delta phase
        self._woken: list[Process] = []  # the next delta phase
        self._timed: list[int] = []  # heap of the ns that have timed events
        self._at: dict[int, list[Process]] = {}  # each such ns's events, in schedule order
        self.ns = 0
        self.delta = 0
        self.processes: list[Process] = []
        self.resumes = 0
        self.timed = 0

    @property
    def now(self) -> SimTime:
        return SimTime(self.ns, self.delta)

    def spawn(self, name: str, resume: Callable[[Process], None]) -> Process:
        """Create a process, runnable at the current instant.

        The engine calls ``resume(proc)`` on every resume.  It returns after
        parking on a channel (setting ``proc.pending`` to the ``Read`` or
        ``Write`` it is blocked on, and clearing it once past),
        after ``self.sleep(proc, ns)``, or after setting ``proc.done``.
        """
        proc = Process(name, resume)
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

        A positive ``ns`` is a timed event, appended to the list of its
        nanosecond; 0 wakes ``proc`` one delta later at the current nanosecond.
        A negative ``ns`` raises :class:`ValueError`.
        """
        if ns <= 0:
            if ns < 0:
                raise ValueError(f"{proc.name} cannot sleep {ns} ns")
            proc.until = self.ns
            self.wake(proc)
            return
        assert not proc.scheduled, f"{proc.name} scheduled twice"
        proc.scheduled = True
        proc.until = ns = self.ns + ns
        self.timed += 1
        at = self._at
        if ns in at:
            at[ns].append(proc)
        else:
            at[ns] = [proc]
            heappush(self._timed, ns)

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
        runnable, woken, timed, at = self._runnable, self._woken, self._timed, self._at
        popleft = runnable.popleft
        resumes = self.resumes
        try:
            while True:
                while runnable:
                    proc = popleft()
                    proc.scheduled = False
                    resumes += 1
                    proc.resume(proc)
                if woken:
                    runnable.extend(woken)
                    woken.clear()
                    self.delta += 1
                elif timed:
                    ns = timed[0]
                    if horizon_ns is not None and ns > horizon_ns:
                        return True
                    heappop(timed)
                    self.ns = ns
                    self.delta = 0
                    runnable.extend(at.pop(ns))
                else:
                    break
        finally:
            self.resumes = resumes
        if quiesced is not None:
            message = quiesced()
            if message is not None:
                raise DeadlockError(message)
        return False

    def describe_processes(self) -> list[str]:
        return [f"{p.name}: {p.state}" for p in self.processes if not p.done]


# ---------------------------------------------------------------------------
# Channels


class ChannelBase:
    """A named channel between processes.

    Each kind defines ``try_write(proc, value)``, which returns whether the
    channel took the value.  A stage's input is read in two calls:
    ``try_peek(proc)`` returns the next value, or BLOCKED after parking
    ``proc`` as the reader, and ``consume()`` frees the slot once the stage
    is done with it.  A stage's output is read with ``take(proc)``, which
    parks ``proc`` even after returning a value, for a reader that only this
    channel's writes wake.  ``stalls`` counts the writes it refused and
    ``dropped`` lists the values it overwrote unread; a channel kind that
    does neither keeps these defaults.
    """

    stalls = 0
    dropped = ()

    def __init__(self, name: str, engine: Engine):
        self.name = name
        self.engine = engine
        self._woken = engine._woken  # where a wake-up goes; see the module doc
        self._reader: Process | None = None

    def consume(self) -> None:
        """Drain a previously peeked value; a no-op for channels without slots."""


class BlockingChannel(ChannelBase):
    """Single-slot FIFO: reads block while empty, writes block while full.

    Writers blocked on a full slot are granted it by their latest refused
    write: earlier nanosecond first, ties broken by transaction id, then by
    suspension order.  A grant only wakes the writer, so another write can
    fill the slot before its retry; that retry is refused as well, counts a
    second stall and queues anew under the retry's nanosecond, not the first
    one.  Each refused write is a stall; ``stalls`` numbers them, which gives
    the suspension order.
    """

    def __init__(self, name: str, engine: Engine):
        super().__init__(name, engine)
        self.slot = None
        # (blocked_ns, txn_id, stall number, proc); the stall number is unique,
        # so proc is never compared.
        self._writers: list[tuple[int, int, int, Process]] = []
        self.stalls = 0

    def take(self, proc: Process) -> object:
        value = self.slot
        self.slot = None
        if value is not None and self._writers:
            self._grant_next_writer()
        assert self._reader in (None, proc), f"channel {self.name} has two readers"
        self._reader = proc
        return BLOCKED if value is None else value

    def try_peek(self, proc: Process) -> object:
        value = self.slot
        if value is not None:
            return value
        assert self._reader in (None, proc), f"channel {self.name} has two readers"
        self._reader = proc
        return BLOCKED

    def consume(self) -> None:
        assert self.slot is not None, f"consume on empty channel {self.name}"
        self.slot = None
        if self._writers:
            self._grant_next_writer()

    def try_write(self, proc: Process, value) -> bool:
        if self.slot is None:
            self.slot = value
            reader = self._reader
            if reader is not None:
                assert not reader.scheduled, f"{reader.name} scheduled twice"
                reader.scheduled = True
                self._reader = None
                self._woken.append(reader)
            return True
        self.stalls += 1
        txn_id = getattr(value, "id", 0)
        self._writers.append((self.engine.ns, txn_id, self.stalls, proc))
        return False

    def _grant_next_writer(self) -> None:
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
    """Overwrite signal: writes never block; an unread value is dropped.

    ``dropped`` lists the overwritten values in the order they were dropped.
    """

    def __init__(self, name: str, engine: Engine):
        super().__init__(name, engine)
        self.value = None
        self.fresh = False
        self.dropped = []

    def try_peek(self, proc: Process) -> object:
        # A signal has no slot to hold: the peek reads the value.
        if self.fresh:
            self.fresh = False
            return self.value
        assert self._reader in (None, proc), f"channel {self.name} has two readers"
        self._reader = proc
        return BLOCKED

    def take(self, proc: Process) -> object:
        value = self.value if self.fresh else BLOCKED
        self.fresh = False
        assert self._reader in (None, proc), f"channel {self.name} has two readers"
        self._reader = proc
        return value

    def try_write(self, proc: Process, value) -> bool:
        if self.fresh:
            self.dropped.append(self.value)
        self.value = value
        self.fresh = True
        reader = self._reader
        if reader is not None:
            assert not reader.scheduled, f"{reader.name} scheduled twice"
            reader.scheduled = True
            self._reader = None
            self._woken.append(reader)
        return True

    def describe(self) -> str:
        state = "fresh" if self.fresh else "idle"
        if self.dropped:
            state += f", {len(self.dropped)} dropped"
        return f"{self.name}: {state}"


class SeveredChannel(ChannelBase):
    """Stands in for a missing netlist edge: never accepts a write."""

    def try_write(self, proc: Process, value) -> bool:
        return False


class QueueChannel(ChannelBase):
    """Unbounded FIFO of a router's (write, value) deliveries; ``put`` never blocks.

    A router must keep servicing its input even while a destination latch is
    busy, otherwise feedback routes could close a circular wait.  Its pending
    deliveries therefore queue here and the output-port process that
    :meth:`drainer` builds writes them; that process is the one that suspends
    (and records the stall) when a stage's input latch is occupied.
    """

    def __init__(self, name: str, engine: Engine):
        super().__init__(name, engine)
        self.items: deque = deque()

    def put(self, value) -> None:
        """Append ``value``, waking the port if it is parked on the empty queue."""
        self.items.append(value)
        reader = self._reader
        if reader is not None:
            assert not reader.scheduled, f"{reader.name} scheduled twice"
            reader.scheduled = True
            self._reader = None
            self._woken.append(reader)

    def drainer(self) -> Callable[[Process], None]:
        """Build the resume callable of the port process that drains the queue.

        A resume retries a refused write, then writes the queued deliveries
        in one loop, parking on a refused write or else on the empty queue.
        """
        read = Read(self)
        items = self.items
        popleft = items.popleft
        held = None  # the value of a refused write

        def resume(proc):
            nonlocal held
            pending = proc.pending
            if type(pending) is Write and not pending.channel.try_write(proc, held):
                return
            while items:
                write, held = popleft()
                if not write.channel.try_write(proc, held):
                    proc.pending = write
                    return
            proc.pending = read
            assert self._reader in (None, proc), f"channel {self.name} has two readers"
            self._reader = proc

        return resume
