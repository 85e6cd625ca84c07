"""Deterministic fault injection for the serving stack.

A seeded :class:`FaultPlan` schedules compile errors, execution
exceptions, artificial latency, shard-worker crashes, and shared-store
failures/corruption; :class:`ChaosStore` applies the store-side faults
around a real :class:`~repro.api.store.ArtifactStore`.  The serving
layer (:class:`~repro.api.service.ReasonService`, built with
``faults=FaultPlan(...)``) survives all of it — see
:mod:`repro.api.resilience` for the retry/breaker/deadline machinery
and ``tests/api/test_faults.py`` for the chaos gates.

Zero overhead when off: without a plan attached, the hot path pays one
``is None`` check per hook and never imports this package's logic.
"""

from repro.faults.plan import SITES, FaultInjected, FaultPlan, StoreFault
from repro.faults.store import CORRUPT_BYTES, ChaosStore, corrupt_disk_entry

__all__ = [
    "FaultPlan",
    "FaultInjected",
    "StoreFault",
    "ChaosStore",
    "corrupt_disk_entry",
    "CORRUPT_BYTES",
    "SITES",
]
