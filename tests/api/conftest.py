"""Fixtures shared by the serving suites."""

import threading
import time

import pytest

from repro.api import backends
from repro.api.types import ExecutionReport


class GateBackend(backends.Backend):
    """Blocks every run until its gate opens — pins a worker
    mid-request so backpressure, cancellation and queue-deadline
    scenarios are deterministic."""

    name = "test-gate"

    def __init__(self, gate: threading.Event):
        self.gate = gate

    def run(self, artifact, config=None, queries=1, options=None):
        self.gate.wait(timeout=10.0)
        return ExecutionReport(
            backend=self.name, kernel=artifact.kind, result=1.0, cycles=1, seconds=1e-6
        )


def wait_until_running(future, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not future.running():
        assert time.monotonic() < deadline, "worker never picked up the request"
        time.sleep(0.001)


def wait_idle(service, timeout_s: float = 10.0) -> None:
    """Until every shard's queue is empty and its worker is waiting: a
    settled future does not say its worker has left the request yet."""
    deadline = time.monotonic() + timeout_s
    while any(shard.running or shard.items for shard in service._shards):
        assert time.monotonic() < deadline, "a shard never went idle"
        time.sleep(0.001)


@pytest.fixture
def gate(monkeypatch):
    """A shut gate behind ``backend="test-gate"``, registered for this
    test only: ``test_every_registered_backend_agrees`` runs every
    registered backend, so a gate left in the registry would block it.
    Opened on the way out whatever the test did."""
    event = threading.Event()
    monkeypatch.setitem(backends._BACKENDS, GateBackend.name, GateBackend(event))
    yield event
    event.set()
