import hashlib
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def refuse_process_exit(monkeypatch):
    """Make ``os._exit`` raise in the test process.

    ``cli.console_main`` ends its process with ``os._exit``; called in
    process, it would end the whole session with status 0 and no summary.
    """

    def refused(code):
        raise AssertionError(f"os._exit({code}) called in the test process")

    monkeypatch.setattr(os, "_exit", refused)


class DispatchRecorder:
    """The engines of the runs made while it is installed, with their dispatches.

    Each engine's ``dispatches`` lists one ``(process name, ns, delta)`` per
    resume, in dispatch order.
    """

    def __init__(self):
        self.engines = []

    @property
    def last(self):
        return self.engines[-1]

    def digest(self, engine=None) -> str:
        """SHA-256 of an engine's dispatch sequence, the last engine's by default."""
        engine = self.last if engine is None else engine
        text = "".join(f"{name} {ns} {delta}\n" for name, ns, delta in engine.dispatches)
        return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def dispatch_recorder(monkeypatch):
    """Make every ``simulate.run`` record each resume of its engine.

    The engine subclass wraps each process's resume callable, so it records
    whatever the engine dispatches without changing what or when.
    """
    from pipesim import simulate
    from pipesim.engine import Engine

    recorder = DispatchRecorder()

    class RecordingEngine(Engine):
        def __init__(self):
            super().__init__()
            self.dispatches = []
            recorder.engines.append(self)

        def spawn(self, name, resume):
            log = self.dispatches.append

            def recorded(proc):
                log((proc.name, self.ns, self.delta))
                resume(proc)

            return super().spawn(name, recorded)

    monkeypatch.setattr(simulate, "Engine", RecordingEngine)
    return recorder
