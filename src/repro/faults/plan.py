"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a reproducible chaos schedule: every injection
site (compile, execute, latency, crash, store, corrupt) owns a private
:class:`random.Random` stream seeded from ``(seed, site)``, and each
*decision* — "does the n-th operation at this site fault?" — consumes
exactly one draw from that stream.  Two runs with the same plan and the
same per-site operation order therefore inject the same faults, which
is what lets the chaos bench demand bit-identical successful reports.

The plan is pure decision state; the hooks that *act* on it live where
the fault strikes:

* :meth:`compile_fault` — inside the session's cold-compile factory;
* :meth:`execute_fault` — between compile and backend execution (also
  where injected latency sleeps, modeling a slow/hung backend);
* :meth:`crash_fault` — inside the shard worker loop, raising
  :class:`~repro.api.resilience.WorkerCrash` to kill the thread;
* :meth:`store_fault` / :meth:`corrupt_put` — inside
  :class:`~repro.faults.store.ChaosStore` around the shared store.

All hooks follow the PR 6/7 zero-overhead-when-off idiom: the serving
path holds ``faults=None`` by default and pays a single attribute
check; only a service built with a plan ever calls into this module.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, Optional

from repro.api.resilience import TransientError, WorkerCrash


class FaultInjected(TransientError, RuntimeError):
    """An artificial fault from a :class:`FaultPlan`.

    Subclasses :class:`~repro.api.resilience.TransientError`, so the
    default :class:`~repro.api.resilience.RetryPolicy` retries it —
    injected faults model exactly the transient failures retries exist
    for.  ``site`` names the injection point, ``key`` the operation's
    subject (fingerprint or store key).
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
    """A seeded chaos schedule over the serving stack.

    Parameters
    ----------
    seed:
        Root seed; every site derives its own stream from it.
    compile_error_rate:
        Probability a cold compile raises :class:`FaultInjected`.
    execute_error_rate:
        Probability an execution raises :class:`FaultInjected`.
    latency_rate / latency_s:
        Probability an execution first sleeps ``latency_s`` wall
        seconds (a slow or briefly hung backend; combine with
        deadlines to exercise execution timeouts).
    crash_rate:
        Probability a shard worker dies
        (:class:`~repro.api.resilience.WorkerCrash`) as it picks up a
        request — the supervisor-restart path.
    store_error_rate:
        Probability a shared-store get or put raises
        :class:`StoreFault` (degraded by
        :class:`~repro.api.resilience.ResilientStore`).
    store_corrupt_rate:
        Probability a successful :class:`~repro.api.store.DiskStore`
        put is followed by corruption of the written file — the next
        reader sees garbage bytes and must treat them as a miss.
    max_injections:
        Optional per-site cap on injected faults.  ``rate=1.0`` with
        ``max_injections=2`` means "the first two operations at this
        site fault, everything after succeeds" — the deterministic
        building block the recovery tests script scenarios with.

    Thread-safe: decisions serialize under one lock, so concurrent
    shard workers never tear a stream.  (Decision *order* across
    threads follows scheduling; per-site injected/decision counts and
    single-threaded scenarios are exactly reproducible.)
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
        self.seed = seed
        self.latency_s = latency_s
        self.max_injections = max_injections
        self._lock = threading.Lock()
        self._sites = {name: _Site(rates[name], seed, name) for name in SITES}

    def _decide(self, site: str) -> bool:
        with self._lock:
            return self._sites[site].decide(self.max_injections)

    # ------------------------------------------------------------- hooks

    def compile_fault(self, key: str = "") -> None:
        """Hook inside the cold-compile factory."""
        if self._decide("compile"):
            raise FaultInjected("compile", key)

    def execute_fault(self, key: str = "") -> None:
        """Hook between compile and backend execution: maybe sleep
        (injected latency), maybe raise (injected execution error)."""
        if self._decide("latency") and self.latency_s > 0.0:
            # Sleep outside the lock: a hung backend must not stall
            # every other site's decisions.
            time.sleep(self.latency_s)
        if self._decide("execute"):
            raise FaultInjected("execute", key)

    def crash_fault(self, shard_index: int) -> None:
        """Hook in the shard worker loop; raising here kills the
        worker thread (the supervisor restarts it)."""
        if self._decide("crash"):
            raise WorkerCrash(shard_index)

    def store_fault(self, operation: str, key: str = "") -> None:
        """Hook around shared-store operations."""
        if self._decide("store"):
            raise StoreFault(f"store-{operation}", key)

    def corrupt_put(self, key: str = "") -> bool:
        """Should the entry just written under ``key`` be corrupted?"""
        return self._decide("corrupt")

    # ---------------------------------------------------------- reporting

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = {
            name: site.rate for name, site in self._sites.items() if site.rate > 0
        }
        return f"FaultPlan(seed={self.seed}, rates={active})"
