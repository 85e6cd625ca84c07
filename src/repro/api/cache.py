"""Content-addressed compile cache for :class:`repro.api.ReasonSession`.

The offline front end (Stage 1-3 optimization + DAG→VLIW compilation,
or CDCL solve + trace recording for logic kernels) dominates the cost
of repeated queries; execution replay is cheap.  The cache keys
artifacts by a content hash of the kernel, the architecture config and
the optimization options, so structurally identical requests compile
once and replay many times — the serving pattern the ROADMAP targets.

The cache is **two-level**: a local LRU (always present) in front of an
optional shared :class:`~repro.api.store.ArtifactStore`.  A lookup
falls through local → shared → compile; shared hits are *promoted* into
the local LRU, and fresh compiles are published back to the store.  N
shard-local caches over one store therefore pay the cold front end once
service-wide, and a :class:`~repro.api.store.DiskStore` extends the
same sharing across processes.  :class:`CacheStats` accounts per level:
``local_hits`` / ``shared_hits`` / ``misses`` / ``promotions``.

The cache is thread-safe: every operation (lookup, insert, eviction,
stats accounting) happens under one lock, never taken twice by one
thread, so a session — or a :class:`~repro.api.service.ReasonService`
shard — can be shared across threads without corrupting the LRU order
or the hit/miss counters.
Compiles run *outside* that lock under a per-key in-flight guard, so
concurrent requests for the same missing kernel compile it exactly
once while unrelated keys proceed in parallel.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

from repro.api.store import ArtifactStore, _OnceGuard, make_store
from repro.api.types import CompiledArtifact, check_count

#: CPython's default ``object.__repr__`` embeds the instance address
#: (``<Foo object at 0x7f...>``), which differs between processes and
#: even between runs — a silent key-stability killer for any shared
#: store.  Reject such parts loudly instead of hashing garbage.
_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+>")


def stable_repr(part: object) -> bytes:
    """``repr(part)`` as UTF-8, for the small parts of a key that have
    no packed form (option scalars, a Dag payload, an evidence value
    ``struct`` will not take).

    A repr that falls back to the address-bearing default
    ``object.__repr__`` (``<Foo object at 0x...>``) raises
    :class:`TypeError`: such reprs change between processes, so the
    resulting key would never match in a shared or on-disk store.
    """
    text = repr(part)
    if " at 0x" in text and _ADDRESS_REPR.search(text):
        raise TypeError(
            f"content_key part {text!r} (type "
            f"{type(part).__name__}) has an address-based repr; "
            f"give it a stable __repr__ or pass a canonical "
            f"serialization instead"
        )
    return text.encode("utf-8")


def key_part(part: object) -> bytes:
    """The bytes :func:`content_key` hashes for one part: ``bytes`` as
    they are, anything else through :func:`stable_repr`."""
    return part if isinstance(part, bytes) else stable_repr(part)


def content_key(*parts: object) -> str:
    """Stable content hash over canonical parts (see :func:`key_part`).

    ``bytes`` parts — what adapters pass for everything sizeable: packed
    kernel structure, raw parameter arrays, packed evidence — are hashed
    raw.  Adapters are responsible for making each ``bytes`` part
    self-delimiting and order-stable.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(key_part(part))
        digest.update(b"\x1f")  # field separator: avoid concat collisions
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Per-level hit/miss accounting surfaced by the session's reports.

    Exactly one of ``local_hits`` / ``shared_hits`` / ``misses``
    increments per lookup, so ``lookups = hits + misses`` always holds.
    ``promotions`` counts shared-store artifacts copied into the local
    LRU (every shared hit promotes); ``evictions`` counts LRU drops —
    evicted artifacts remain fetchable from the shared store.
    """

    local_hits: int = 0
    shared_hits: int = 0
    misses: int = 0
    evictions: int = 0
    promotions: int = 0

    @property
    def hits(self) -> int:
        """Total cache hits across both levels."""
        return self.local_hits + self.shared_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class CompileCache:
    """Thread-safe two-level cache: local LRU over an optional store.

    ``capacity`` bounds the local level: a positive integer (numpy's
    included, never a bool or a float), or ``None`` for an unbounded
    one (the default: artifacts are small relative to the kernels they
    were compiled from).  ``store`` attaches the shared level — an
    :class:`~repro.api.store.ArtifactStore` instance or a spec string
    (``"shared"`` / ``"disk:<path>"``).  Without a store the cache
    behaves exactly like the original single-level LRU.

    :meth:`get_or_compile` is the one way in (:meth:`get_missing` its
    second half, after a :meth:`get_local` miss): an artifact enters either
    level only as the return value of a compile factory, so a factory
    that raises (a failed compile, or the session's verify gate
    rejecting its result) leaves both levels untouched.  :meth:`holds`
    answers, counting nothing, whether a lookup would be served without
    a compile: from the LRU, or from a store that promises its ``get``
    (:meth:`~repro.api.store.ArtifactStore.holds`) — where a service
    shard decides to run a request on the submitting thread.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        store: Union[None, str, ArtifactStore] = None,
    ):
        if capacity is not None:
            check_count("capacity", capacity)
        self.capacity = capacity
        self.store = make_store(store)
        self._lock = threading.Lock()
        self._stats = CacheStats()
        self._entries: "OrderedDict[str, CompiledArtifact]" = OrderedDict()
        # In-flight compile guard for the store-less configuration
        # (with a store attached, the guard lives on the store so it is
        # shared by every cache in front of it).
        self._once = _OnceGuard()

    @property
    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters (safe to read while
        other threads keep hitting the cache)."""
        with self._lock:
            return CacheStats(
                local_hits=self._stats.local_hits,
                shared_hits=self._stats.shared_hits,
                misses=self._stats.misses,
                evictions=self._stats.evictions,
                promotions=self._stats.promotions,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def holds(self, key: str) -> bool:
        """Whether a lookup of ``key`` is sure to be served without a
        compile: the local LRU has it, or the store promises it
        (:meth:`~repro.api.store.ArtifactStore.holds`).  Counts nothing
        and takes no lock, so the answer about the LRU holds only for
        a caller no other thread can insert or evict behind, such as a
        service shard's runner."""
        return key in self._entries or (self.store is not None and self.store.holds(key))

    def get_local(self, key: str) -> Optional[CompiledArtifact]:
        """Local-level probe: bumps LRU + local_hits on a hit, never
        the store, and counts nothing on a miss — so a caller may probe
        here before building a factory for :meth:`get_missing`."""
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is None:
                return None
            self._entries.move_to_end(key)
            self._stats.local_hits += 1
            return artifact

    def peek(self, key: str) -> Optional[CompiledArtifact]:
        """Stats-neutral lookup: no hit/miss accounting, no LRU bump,
        no promotion.  Introspection paths (answer checks, the traced
        bench's placement probe, tests) use this so they never distort
        the serving hit rate."""
        with self._lock:
            artifact = self._entries.get(key)
        if artifact is None and self.store is not None:
            artifact = self.store.get(key)
        return artifact

    def get_or_compile(
        self, key: str, factory: Callable[[], CompiledArtifact]
    ) -> Tuple[CompiledArtifact, bool]:
        """The full serve path: local → shared → compile-once.

        Returns ``(artifact, cache_hit)``.  ``cache_hit`` is False only
        for the caller whose factory actually ran; callers that joined
        an in-flight compile (here or on the shared store) report a hit
        — they paid a wait, not a front end.  The factory runs outside
        the cache lock, so unrelated keys keep compiling in parallel.
        """
        artifact = self.get_local(key)
        if artifact is not None:
            return artifact, True
        return self.get_missing(key, factory)

    def get_missing(
        self, key: str, factory: Callable[[], CompiledArtifact]
    ) -> Tuple[CompiledArtifact, bool]:
        """:meth:`get_or_compile` after its local probe: for a caller
        that has just had None from :meth:`get_local`, so the LRU is
        not asked (nor its lock taken) twice for one miss.  Shared →
        compile-once, counted and returned as :meth:`get_or_compile`
        counts and returns them."""
        if self.store is not None:
            # The store's guard spans every cache sharing it: N shards
            # racing on one cold kernel run one front end between them.
            artifact, compiled = self.store.fetch_or_compile(key, factory)
            with self._lock:
                if compiled:
                    self._stats.misses += 1
                else:
                    self._stats.shared_hits += 1
                    self._stats.promotions += 1
                self._insert(key, artifact)
            return artifact, not compiled
        artifact, compiled = self._once.run(
            key, self._peek_local, factory, self._publish_local
        )
        if compiled:
            with self._lock:
                self._stats.misses += 1
        else:
            # Joined another thread's in-flight compile: the artifact
            # was served from this (local) level.
            with self._lock:
                self._stats.local_hits += 1
                self._insert(key, artifact)
        return artifact, not compiled

    def _peek_local(self, key: str) -> Optional[CompiledArtifact]:
        with self._lock:
            return self._entries.get(key)

    def _publish_local(self, key: str, artifact: CompiledArtifact) -> None:
        with self._lock:
            self._insert(key, artifact)

    def _insert(self, key: str, artifact: CompiledArtifact) -> None:
        # Caller holds the lock.
        self._entries[key] = artifact
        self._entries.move_to_end(key)
        if self.capacity is not None and len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._stats.evictions += 1
