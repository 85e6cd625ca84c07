"""Scheduling policies: which shard serves which request.

:class:`~repro.api.service.ReasonService` asks its policy to place
every admitted request on one of its shards.  A policy sees the request
(including its content-hash fingerprint) and a load snapshot of every
shard — its pending count above all — and returns a shard index.  Every shard is
the same REASON session, so placement never changes a request's
substrate.  Three policies ship in the registry:

* ``round-robin``   — cycle through shards; the predictable baseline;
* ``least-loaded``  — pick the shard with the fewest pending requests
  (queued + in flight), breaking ties by index;
* ``cache-affinity`` — hash the request fingerprint onto a shard, so
  structurally identical requests always land on the same shard and hit
  its warm compile cache (each shard owns a private cache; spreading a
  hot kernel across shards re-pays the front end once per shard).

Registering a custom policy is one :func:`register_policy` call; the
service accepts either a registered name or a policy instance.
"""

from __future__ import annotations

import abc
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Union

from repro.api.adapters import RunOptions
from repro.costmodel.features import PredictionMap


@dataclass(frozen=True)
class ShardView:
    """Read-only load snapshot of one shard, handed to policies.

    ``pending`` is the load every shipped policy and the service's
    rerouting read.  The service no longer predicts, so it fills
    ``backend`` with ``"reason"`` (every shard is a REASON session) and
    ``busy_s`` with ``0.0``; both stay for callers that build views.
    """

    index: int
    pending: int  # queued + in-flight requests
    completed: int
    backend: str  # always "reason" from the service
    busy_s: float  # always 0.0 from the service


class ShardViews(Sequence):
    """The shards as a policy receives them: each :class:`ShardView` is
    taken (``source.view()``) when the policy reads it, so a policy that
    routes on the request alone (round-robin, cache-affinity) takes no
    snapshot, and no shard lock, at all."""

    def __init__(self, sources: Sequence):
        self._sources = sources

    def __len__(self) -> int:
        return len(self._sources)

    def __getitem__(self, index):
        sources = self._sources[index]
        if isinstance(index, slice):
            return [source.view() for source in sources]
        return sources.view()


class Request(NamedTuple):
    """What a policy may route on (the kernel itself included).

    ``backend`` is the caller's forced substrate, or None for the
    REASON model.  ``predicted`` maps a backend name to a
    :class:`~repro.costmodel.features.CostPrediction` for callers that
    price requests themselves; the service no longer predicts, so it
    passes an empty read-only mapping.  Immutable, and built in one
    step (a tuple, not a frozen dataclass's one ``object.__setattr__``
    per field): admission makes one per request.
    """

    kernel: object
    options: RunOptions
    kind: str
    fingerprint: str
    backend: Optional[str]
    queries: int
    neural_s: float
    predicted: PredictionMap
    # Wall-clock budget the caller attached (resolved seconds; None =
    # unbounded), measured from admission.  The service's expiry timer
    # and pre-execution shed read it; admission does not.
    deadline_s: Optional[float] = None


class SchedulingPolicy(abc.ABC):
    """Maps one request to one shard index."""

    name: str = ""

    @abc.abstractmethod
    def select(self, request: Request, shards: Sequence[ShardView]) -> int:
        """Return the index of the shard that should serve ``request``."""


class RoundRobinPolicy(SchedulingPolicy):
    """Cycle through shards in admission order."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def select(self, request: Request, shards: Sequence[ShardView]) -> int:
        index = self._next % len(shards)
        self._next += 1
        return index


class LeastLoadedPolicy(SchedulingPolicy):
    """Place on the shard with the fewest pending requests."""

    name = "least-loaded"

    def select(self, request: Request, shards: Sequence[ShardView]) -> int:
        return min(shards, key=lambda view: (view.pending, view.index)).index


class CacheAffinityPolicy(SchedulingPolicy):
    """Route by content-hash fingerprint: identical requests share a shard.

    The built-in adapters fingerprint to a uniform hex digest (the
    compile-cache key from ``adapter_for(kernel).fingerprint``), so a
    prefix modulo the shard count gives stable, well-spread placement
    with no extra hashing.  Custom adapters may return any string;
    non-hex fingerprints fall back to a CRC of the full string, so the
    policy stays total over the adapter protocol.
    """

    name = "cache-affinity"

    def select(self, request: Request, shards: Sequence[ShardView]) -> int:
        try:
            bucket = int(request.fingerprint[:16], 16)
        except ValueError:
            bucket = zlib.crc32(request.fingerprint.encode("utf-8"))
        return bucket % len(shards)


#: Name → factory registry.  Factories, not instances: policies may be
#: stateful (round-robin's cursor), so every service gets its own.
_POLICIES: Dict[str, Callable[[], SchedulingPolicy]] = {}


def register_policy(name: str, factory: Callable[[], SchedulingPolicy]) -> None:
    """Register (or override) the policy available under ``name``."""
    _POLICIES[name] = factory


def list_policies() -> List[str]:
    """Registered policy names, sorted for stable display and docs."""
    return sorted(_POLICIES)


def get_policy(spec: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
    """Resolve a policy name (or pass an instance through).

    Raises a :class:`KeyError` naming every registered policy on an
    unknown name, and a :class:`TypeError` when ``spec`` is neither a
    string nor a :class:`SchedulingPolicy`.
    """
    if isinstance(spec, SchedulingPolicy):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"policy spec must be a registered name or a SchedulingPolicy "
            f"instance, not {type(spec).__name__}"
        )
    try:
        factory = _POLICIES[spec]
    except KeyError:
        raise KeyError(
            f"unknown scheduling policy {spec!r} "
            f"(registered: {', '.join(list_policies())})"
        ) from None
    return factory()


register_policy("round-robin", RoundRobinPolicy)
register_policy("least-loaded", LeastLoadedPolicy)
register_policy("cache-affinity", CacheAffinityPolicy)
