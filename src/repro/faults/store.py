"""Chaos wrapper for artifact stores.

:class:`ChaosStore` sits between a cache and a real
:class:`~repro.api.store.ArtifactStore` and injects the store-side
faults a :class:`~repro.faults.plan.FaultPlan` schedules: get and put
operations raise :class:`~repro.faults.plan.StoreFault`, and — for
file-backed stores — a just-written entry can be corrupted on disk, so
the next reader exercises the corrupt-entry miss path.

The intended layering puts the service's
:class:`~repro.api.resilience.ResilientStore` *outside* the chaos::

    ResilientStore(ChaosStore(DiskStore(path)))

— faults strike the real store, resilience absorbs them, requests
degrade to shard-local caching.  :class:`~repro.api.service.ReasonService`
builds exactly this sandwich when given both ``store=`` and
``faults=``.
"""

from __future__ import annotations

from typing import Optional

from repro.api.store import ArtifactStore
from repro.api.types import CompiledArtifact
from repro.faults.plan import FaultPlan

#: What an injected corruption writes over a stored artifact — not a
#: pickle at all, so any reader fails fast into the corrupt-miss path.
CORRUPT_BYTES = b"\x00REASON-CHAOS-CORRUPTED\x00"


def corrupt_disk_entry(store: ArtifactStore, key: str) -> bool:
    """Overwrite ``key``'s on-disk entry with garbage bytes.

    Returns True when the store is file-backed (exposes ``_file_for``)
    and the entry existed; in-memory stores have no bytes to corrupt
    and return False.  Also what the corrupt-miss counter test uses to
    plant a bad entry directly.
    """
    file_for = getattr(store, "_file_for", None)
    if file_for is None:
        return False
    target = file_for(key)
    if not target.exists():
        return False
    target.write_bytes(CORRUPT_BYTES)
    return True


class ChaosStore(ArtifactStore):
    """Inject scheduled faults around a real artifact store."""

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
        if self.plan.corrupt_put(key):
            corrupt_disk_entry(self.inner, key)

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, name):
        # Proxy diagnostics (corrupt_misses, path, ...) to the real
        # store, mirroring ResilientStore's convention.
        return getattr(self.inner, name)
