"""Deterministic fault injection for the serving drills.

A seeded :class:`FaultPlan` schedules compile errors, execution
exceptions, artificial latency, worker crashes, and shared-store
failures and corruption.  It reaches the stack by wrapping what it
breaks, through seams production code already has, so a drill runs
the lifecycle real requests take (the inline claim of a warm hit on an
idle shard included):

* :class:`ChaosBackend`, in the backend registry, decides a crash,
  then latency, then an execution error, before the real backend runs;
* :class:`ChaosAdapter`, in the adapter registry, raises compile
  faults from ``prepare``;
* :class:`ChaosStore` wraps a real :class:`~repro.api.store.ArtifactStore`
  and is passed as the service's ``store=`` instance, so the service's
  :class:`~repro.api.resilience.ResilientStore` sits outside the chaos.

The ``chaos`` fixture (``tests/conftest.py``) arms a plan over every
registered backend and adapter for one test::

    plan = chaos(FaultPlan(seed=3, execute_error_rate=1.0, max_injections=3))
    with ReasonService(shards=2, store=ChaosStore(DiskStore(path), plan)) as service:
        ...

Every injection site (compile, execute, latency, crash, store,
corrupt) owns a private :class:`random.Random` stream seeded from
``(seed, site)``, and each decision consumes exactly one draw from it,
so two runs with the same plan and the same per-site operation order
inject the same faults.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, Optional

from repro.api import adapters, backends
from repro.api.resilience import TransientError, WorkerCrash
from repro.api.store import ArtifactStore
from repro.api.types import CompiledArtifact
from repro.core.arch.config import DEFAULT_CONFIG


class FaultInjected(TransientError, RuntimeError):
    """An artificial fault from a :class:`FaultPlan`.

    A :class:`~repro.api.resilience.TransientError`, so the default
    :class:`~repro.api.resilience.RetryPolicy` retries it.  ``site``
    names the injection point, ``key`` the operation's subject
    (fingerprint or store key).
    """

    def __init__(self, site: str, key: str = ""):
        detail = f" on {key[:16]}" if key else ""
        super().__init__(f"injected {site} fault{detail}")
        self.site = site
        self.key = key


class StoreFault(FaultInjected):
    """An injected shared-store failure (``get`` / ``put``)."""


#: Injection sites a plan tracks, in reporting order.
SITES = ("compile", "execute", "latency", "crash", "store", "corrupt")


class _Site:
    """Decision stream for one injection site."""

    __slots__ = ("rate", "rng", "decisions", "injected")

    def __init__(self, rate: float, seed: int, name: str):
        self.rate = rate
        self.rng = random.Random(f"{seed}:{name}")
        self.decisions = 0
        self.injected = 0

    def decide(self, cap: Optional[int]) -> bool:
        self.decisions += 1
        if self.rate <= 0.0:
            return False
        if cap is not None and self.injected >= cap:
            return False
        hit = self.rng.random() < self.rate
        if hit:
            self.injected += 1
        return hit


class FaultPlan:
    """A seeded chaos schedule.

    ``compile_error_rate`` / ``execute_error_rate`` / ``store_error_rate``
    are the chances that a cold compile, an execution or a shared-store
    get or put raises :class:`FaultInjected`; ``latency_rate`` the
    chance an execution first sleeps ``latency_s`` wall seconds;
    ``crash_rate`` the chance the thread running an execution takes a
    :class:`~repro.api.resilience.WorkerCrash`; ``store_corrupt_rate``
    the chance a written :class:`~repro.api.store.DiskStore` entry is
    overwritten with garbage.  ``max_injections`` caps each site's
    faults: ``rate=1.0`` with ``max_injections=2`` means the first two
    operations at that site fault and everything after succeeds.

    Decisions serialize under one lock, so concurrent threads never
    tear a stream (the order across threads follows scheduling).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        compile_error_rate: float = 0.0,
        execute_error_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_s: float = 0.0,
        crash_rate: float = 0.0,
        store_error_rate: float = 0.0,
        store_corrupt_rate: float = 0.0,
        max_injections: Optional[int] = None,
    ):
        rates = {
            "compile": compile_error_rate,
            "execute": execute_error_rate,
            "latency": latency_rate,
            "crash": crash_rate,
            "store": store_error_rate,
            "corrupt": store_corrupt_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1], got {rate}")
        if latency_s < 0.0:
            raise ValueError("latency_s must be >= 0")
        if max_injections is not None and max_injections < 0:
            raise ValueError("max_injections must be >= 0 (or None)")
        self.latency_s = latency_s
        self.max_injections = max_injections
        self._lock = threading.Lock()
        self._sites = {name: _Site(rates[name], seed, name) for name in SITES}

    def _decide(self, site: str) -> bool:
        with self._lock:
            return self._sites[site].decide(self.max_injections)

    def compile_fault(self, key: str = "") -> None:
        if self._decide("compile"):
            raise FaultInjected("compile", key)

    def execute_fault(self, key: str = "") -> None:
        """Maybe sleep (injected latency), then maybe raise."""
        if self._decide("latency") and self.latency_s > 0.0:
            # Outside the lock: a hung backend must not stall the
            # other sites' decisions.
            time.sleep(self.latency_s)
        if self._decide("execute"):
            raise FaultInjected("execute", key)

    def crash_fault(self) -> None:
        if self._decide("crash"):
            raise WorkerCrash("injected crash")

    def store_fault(self, operation: str, key: str = "") -> None:
        if self._decide("store"):
            raise StoreFault(f"store-{operation}", key)

    def corrupt_put(self) -> bool:
        """Should the store entry just written be corrupted?"""
        return self._decide("corrupt")

    def injected(self, site: Optional[str] = None) -> int:
        """Faults injected at one site (or in total)."""
        with self._lock:
            if site is not None:
                return self._sites[site].injected
            return sum(entry.injected for entry in self._sites.values())

    def counts(self) -> Dict[str, Dict[str, int]]:
        """Per-site ``{"decisions": n, "injected": m}`` snapshot."""
        with self._lock:
            return {
                name: {"decisions": site.decisions, "injected": site.injected}
                for name, site in self._sites.items()
            }


class ChaosBackend(backends.Backend):
    """A registered backend whose runs take the plan's crash first, so
    a crash still comes before execution, then its latency and
    execution faults."""

    def __init__(self, inner: backends.Backend, plan: FaultPlan):
        self.inner = inner
        self.plan = plan

    def run(self, artifact, config=DEFAULT_CONFIG, queries=1, options=None):
        self.plan.crash_fault()
        self.plan.execute_fault(artifact.key)
        return self.inner.run(artifact, config, queries, options)


class ChaosAdapter:
    """A registered kernel adapter whose cold compiles may raise the
    plan's compile faults; everything else is the real adapter's."""

    def __init__(self, inner: adapters.KernelAdapter, plan: FaultPlan):
        self.inner = inner
        self.plan = plan

    def prepare(self, kernel, options, config) -> CompiledArtifact:
        self.plan.compile_fault()
        return self.inner.prepare(kernel, options, config)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def arm(monkeypatch, plan: FaultPlan) -> FaultPlan:
    """Wrap every registered backend and adapter in ``plan`` until
    ``monkeypatch`` undoes it; returns the plan."""
    for name, backend in list(backends._BACKENDS.items()):
        monkeypatch.setitem(backends._BACKENDS, name, ChaosBackend(backend, plan))
    for kernel_type, adapter in list(adapters._ADAPTERS.items()):
        monkeypatch.setitem(adapters._ADAPTERS, kernel_type, ChaosAdapter(adapter, plan))
    return plan


#: What an injected corruption writes over a stored artifact — not a
#: pickle at all, so any reader fails fast into the corrupt-miss path.
CORRUPT_BYTES = b"\x00REASON-CHAOS-CORRUPTED\x00"


def corrupt_disk_entry(store: ArtifactStore, key: str) -> bool:
    """Overwrite ``key``'s on-disk entry with garbage bytes; False when
    the store is not file-backed or holds no such entry."""
    file_for = getattr(store, "_file_for", None)
    if file_for is None:
        return False
    target = file_for(key)
    if not target.exists():
        return False
    target.write_bytes(CORRUPT_BYTES)
    return True


class ChaosStore(ArtifactStore):
    """Inject the plan's store faults around a real artifact store."""

    def __init__(self, inner: ArtifactStore, plan: FaultPlan):
        super().__init__()
        self.inner = inner
        self.plan = plan

    def get(self, key: str) -> Optional[CompiledArtifact]:
        self.plan.store_fault("get", key)
        return self.inner.get(key)

    def put(self, key: str, artifact: CompiledArtifact) -> None:
        self.plan.store_fault("put", key)
        self.inner.put(key, artifact)
        if self.plan.corrupt_put():
            corrupt_disk_entry(self.inner, key)

    def __len__(self) -> int:
        return len(self.inner)

    def holds(self, key: str) -> bool:
        # Forwarded, fault-free: the get an inline store hit then makes
        # is where the plan strikes, as it strikes a worker's.
        return self.inner.holds(key)

    def __getattr__(self, name):
        # Diagnostics (corrupt_misses, path, ...) are the real store's.
        return getattr(self.inner, name)
