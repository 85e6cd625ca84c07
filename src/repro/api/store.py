"""Content-addressed artifact stores: the shared level of the compile cache.

A :class:`~repro.api.cache.CompileCache` keeps a local LRU in front of
an optional :class:`ArtifactStore`.  The store is what makes the cache
*shared*: every shard of a :class:`~repro.api.service.ReasonService`
keeps its own LRU, but all of them publish compiled artifacts into (and
promote from) one store, so a kernel pays the offline front end once
service-wide instead of once per shard.  Two stores ship:

* :class:`SharedStore` — an in-process, thread-safe map.  The right
  choice when the sharing boundary is threads (shards inside one
  service process).
* :class:`DiskStore` — a directory of pickled
  :class:`~repro.api.types.CompiledArtifact` files, one per content
  key, written atomically (temp file + ``os.replace``).  The right
  choice when the sharing boundary is processes: a second service
  pointed at the same directory starts with every kernel the first one
  compiled already warm.

Both inherit the base class's *in-flight compile guard*:
:meth:`ArtifactStore.fetch_or_compile` guarantees that concurrent
callers racing on the same missing key run the compile factory exactly
once — late arrivals block on the winner's in-flight event and receive
its published artifact instead of re-compiling.
"""

from __future__ import annotations

import abc
import hashlib
import os
import pickle
import re
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.api.types import CompiledArtifact

#: Content keys are normally sha256 hexdigests (``content_key``); any
#: other key is aliased to its own digest before touching the
#: filesystem, so arbitrary strings stay path-safe.
_SAFE_KEY = re.compile(r"[A-Za-z0-9._-]{1,128}\Z")


def safe_store_key(key: str) -> str:
    """A filesystem-safe alias for one content key.

    Hexdigest keys pass through unchanged; anything else maps to its
    own sha256, deterministically.  :class:`DiskStore` names artifact
    files with this, and the trace subsystem names trace files the
    same way (:func:`repro.trace.analyze.trace_artifact_path`), so a
    request's trace sits next to its compiled artifact under one
    addressing scheme.
    """
    if _SAFE_KEY.match(key):
        return key
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


class _OnceGuard:
    """Per-key in-flight guard: run a factory at most once per key.

    The first caller to miss on a key becomes the owner and runs the
    factory; concurrent callers for the same key wait on the owner's
    event and then re-read the published value.  If the owner's factory
    raises, waiters retry from the top (one of them becomes the new
    owner), so a transient failure never wedges the key.

    Each key is looked up once per attempt: an owner looks again only
    if some owner retired its event between this caller's miss and its
    claim (``_retired`` moved), since that owner may have published the
    key.  The count is one for all keys, so a retirement of another key
    costs a spare lookup, never a second compile.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: Dict[str, threading.Event] = {}
        self._retired = 0

    def run(
        self,
        key: str,
        lookup: Callable[[str], Optional[CompiledArtifact]],
        factory: Callable[[], CompiledArtifact],
        publish: Callable[[str, CompiledArtifact], None],
    ) -> Tuple[CompiledArtifact, bool]:
        """Returns ``(artifact, computed_here)``."""
        while True:
            retired = self._retired
            artifact = lookup(key)
            if artifact is not None:
                return artifact, False
            with self._lock:
                event = self._events.get(key)
                if event is None:
                    event = self._events[key] = threading.Event()
                    owner = True
                    recheck = self._retired != retired
                else:
                    owner = False
            if owner:
                try:
                    # A previous owner may have published and retired
                    # its event between our miss above and our claim,
                    # in which case this is a join, not a second compile.
                    if recheck:
                        artifact = lookup(key)
                        if artifact is not None:
                            return artifact, False
                    artifact = factory()
                    publish(key, artifact)
                    return artifact, True
                finally:
                    with self._lock:
                        del self._events[key]
                        self._retired += 1
                    event.set()
            event.wait()


class ArtifactStore(abc.ABC):
    """Content-addressed map from compile-cache key to artifact.

    Subclasses provide plain storage (:meth:`get` / :meth:`put` /
    ``len``); the base class layers the compile-once guard on top.
    Stores keep no hit/miss statistics — accounting is the job of the
    :class:`~repro.api.cache.CompileCache` level that owns the lookup.
    """

    def __init__(self) -> None:
        self._once = _OnceGuard()

    @abc.abstractmethod
    def get(self, key: str) -> Optional[CompiledArtifact]:
        """The stored artifact, or None."""

    @abc.abstractmethod
    def put(self, key: str, artifact: CompiledArtifact) -> None:
        """Publish an artifact (last writer wins; keys are content
        hashes, so concurrent writers store equivalent values)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored artifacts."""

    def holds(self, key: str) -> bool:
        """True only when a later :meth:`get` of ``key`` is sure to
        return the artifact: the promise a
        :class:`~repro.api.service.ReasonService` runs a request on the
        submitting thread on.  False here, so a store that cannot
        promise it (a :class:`DiskStore`, whose entry another process
        may remove or corrupt, or a custom store) sends its hits to a
        worker.  A store that breaks the promise costs a compile on
        the submitting thread, slow but correct."""
        return False

    def fetch_or_compile(
        self, key: str, factory: Callable[[], CompiledArtifact]
    ) -> Tuple[CompiledArtifact, bool]:
        """Fetch ``key``, or compile-and-publish it exactly once.

        Returns ``(artifact, compiled_here)``: concurrent callers for
        the same missing key serialize behind one factory run — the
        losers get ``compiled_here=False`` and the winner's artifact,
        exactly as if the store had already held it.  A factory that
        raises publishes nothing.
        """
        return self._once.run(key, self.get, factory, self.put)


class SharedStore(ArtifactStore):
    """In-memory store shared by every cache (shard) in one process."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()
        self._entries: Dict[str, CompiledArtifact] = {}

    def get(self, key: str) -> Optional[CompiledArtifact]:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, artifact: CompiledArtifact) -> None:
        with self._lock:
            self._entries[key] = artifact

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def holds(self, key: str) -> bool:
        """Read without the lock: one dict membership test, and an entry
        once put is never deleted, so ``get`` cannot miss it later."""
        return key in self._entries


#: The version of what a :class:`DiskStore` entry holds.  A cache key
#: names the kernel, its options and the config, not the compiler that
#: built the artifact, so an entry written before a change to the
#: compiler's output would keep serving the old program.  Every such
#: change bumps this number; it is part of each entry's file name, so a
#: store reads and counts only the entries of its own version and an
#: older entry is a plain miss.  ``tests/api/test_store_version.py``
#: pins it to a digest of the corpus kernels' compiled output.
STORE_VERSION = 2


class DiskStore(ArtifactStore):
    """File-backed store: one pickled artifact per content key.

    ``path`` may be any writable directory (a pytest ``tmp_path``, a
    shared scratch volume); it is created on first use.  Writes go to a
    temp file in the same directory and ``os.replace`` into place, so a
    reader never observes a half-written artifact and concurrent
    writers of the same key settle on one complete file.

    The store is a cache, not a source of truth: an unreadable entry
    (truncated file, pickle from an incompatible library version) is
    treated as a miss — the kernel recompiles and the entry is
    rewritten — never surfaced as a lookup error.

    **Trust boundary**: artifacts are plain pickles, and unpickling
    executes code chosen by whoever wrote the file.  Point a DiskStore
    only at directories writable solely by principals you already
    trust to run code (your own user, your service's account) — never
    at a world-writable path.
    """

    _SUFFIX = f".v{STORE_VERSION}.artifact.pkl"

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        super().__init__()
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        # Unreadable entries degrade to misses by design — this counter
        # is the only trace they leave (exported as
        # reason_store_corrupt_misses_total by the service).
        self.corrupt_misses = 0
        self._stats_lock = threading.Lock()

    def _file_for(self, key: str) -> Path:
        return self.path / f"{safe_store_key(key)}{self._SUFFIX}"

    def get(self, key: str) -> Optional[CompiledArtifact]:
        try:
            with open(self._file_for(key), "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Unreadable entry — truncation, corrupt pickle frames
            # (UnpicklingError, but also OverflowError/ValueError/
            # struct.error on mangled bytes), version-incompatible
            # classes (AttributeError/ImportError), permissions: all
            # degrade to a miss (the caller recompiles and overwrites),
            # never a lookup error.  The store is a cache, not a
            # source of truth — but the degradation is counted, not
            # silent.
            with self._stats_lock:
                self.corrupt_misses += 1
            return None

    def put(self, key: str, artifact: CompiledArtifact) -> None:
        target = self._file_for(key)
        fd, tmp_name = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(entry.name.endswith(self._SUFFIX) for entry in self.path.iterdir())


def make_store(
    spec: Union[None, str, ArtifactStore],
) -> Optional[ArtifactStore]:
    """Resolve a store spec: None (no shared level), an
    :class:`ArtifactStore` instance (passed through), ``"shared"``
    (a fresh in-process :class:`SharedStore`), or ``"disk:<path>"``
    (a :class:`DiskStore` rooted at ``<path>``).
    """
    if spec is None or isinstance(spec, ArtifactStore):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"store spec must be None, 'shared', 'disk:<path>' or an "
            f"ArtifactStore instance, not {type(spec).__name__}"
        )
    if spec == "shared":
        return SharedStore()
    if spec.startswith("disk:"):
        path = spec[len("disk:"):]
        if not path:
            raise ValueError("disk store spec needs a path: 'disk:<path>'")
        return DiskStore(path)
    raise ValueError(
        f"unknown store spec {spec!r} (expected 'shared' or 'disk:<path>')"
    )
