"""Scheduling policies: which shard serves which request.

:class:`~repro.api.service.ReasonService` asks its policy to place
every admitted request on one of its shards.  A policy sees the request
(including its content-hash fingerprint and the cost model's predicted
cost on every substrate it could land on) and a load snapshot
of every shard, and returns a shard index.  Five policies ship in the
registry:

* ``round-robin``   — cycle through shards; the predictable baseline;
* ``least-loaded``  — pick the shard with the fewest pending requests
  (queued + in flight), breaking ties by index;
* ``cache-affinity`` — hash the request fingerprint onto a shard, so
  structurally identical requests always land on the same shard and hit
  its warm compile cache (each shard owns a private cache; spreading a
  hot kernel across shards re-pays the front end once per shard);
* ``predicted-makespan`` — time-aware least-loaded: place on the shard
  whose *predicted busy time* plus this request's predicted execution
  time is smallest, so heterogeneous request costs balance by seconds
  instead of by count;
* ``cost-aware`` — heterogeneous placement: minimize predicted
  completion time across shards that may sit on different substrates
  (reason vs gpu vs cpu vs roofline), charging a one-time compile
  penalty to shards that have never seen the kernel.

Registering a custom policy is one :func:`register_policy` call; the
service accepts either a registered name or a policy instance.
"""

from __future__ import annotations

import abc
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.api.adapters import RunOptions
from repro.costmodel.features import CostPrediction, PredictionMap, remember


@dataclass(frozen=True)
class ShardView:
    """Read-only load snapshot of one shard, handed to policies.

    ``backend`` is the shard's substrate and ``busy_s`` its cumulative
    *predicted* busy time — the seconds of admitted-but-unfinished work
    the cost model expects it still owes.
    """

    index: int
    pending: int  # queued + in-flight requests
    completed: int
    backend: str
    busy_s: float  # predicted seconds of unfinished admitted work


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


@dataclass(frozen=True)
class Request:
    """What a policy may route on (the kernel itself included).

    ``backend`` is the caller's forced substrate, or None when the
    request should run on whatever backend the chosen shard owns.
    ``predicted`` maps every backend the request could execute on (the
    forced one, or each distinct shard substrate) to the cost model's
    :class:`~repro.costmodel.features.CostPrediction` — the service
    always has a cost model, so a policy never sees a request without
    one.  ``warm`` says the compiled
    artifact already sits in the service's shared store, so *any*
    shard serves this request without a cold front end — placement may
    ignore compile penalties and cache locality for it.
    """

    kernel: object
    options: RunOptions
    kind: str
    fingerprint: str
    backend: Optional[str]
    queries: int
    neural_s: float
    predicted: PredictionMap
    warm: bool = False
    # Wall-clock budget the caller attached (resolved seconds; None =
    # unbounded).  Admission rejects placements whose predicted
    # completion already exceeds it; policies may also route on it.
    deadline_s: Optional[float] = None

    def predicted_for(self, view: ShardView) -> CostPrediction:
        """This request's prediction on one shard's substrate (its
        forced backend when set, else the shard's own)."""
        return self.predicted[self.backend or view.backend]


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


class PredictedMakespanPolicy(SchedulingPolicy):
    """Time-aware least-loaded: balance predicted seconds, not counts.

    Queue depth treats a 110-clause SAT replay and a 3-state HMM as
    equal work; on heterogeneous traces that leaves one shard grinding
    long kernels while others idle (the 2-shard scaling gap the
    shard-scaling bench shows).  This policy charges each shard its
    cumulative predicted busy time and places the request where
    ``busy_s + predicted_exec_s`` is smallest — greedy longest-
    processing-time balancing over the cost model's estimates.
    """

    name = "predicted-makespan"

    def select(self, request: Request, shards: Sequence[ShardView]) -> int:
        def completion(view: ShardView):
            exec_s = request.predicted_for(view).seconds
            return (view.busy_s + exec_s, view.pending, view.index)

        return min(shards, key=completion).index


class CostAwarePlacementPolicy(SchedulingPolicy):
    """Heterogeneous placement: minimize predicted completion time
    across shards on *different substrates*.

    Each shard advertises its backend (reason / gpu / cpu / roofline /
    …); the request's predicted execution time differs per substrate
    (a logic kernel is ~7× cheaper on the accelerator than on a GPU's
    derated roofline), so the policy scores every shard as::

        busy_s + exec_s(shard.backend) + compile_s·[kernel unseen here]

    and takes the minimum — routing each kernel class to the substrate
    that serves it fastest *given current load*, spilling onto slower
    substrates only when the fast ones are saturated.  The compile term
    charges the offline front end once per (shard, fingerprint), which
    keeps hot kernels from ping-ponging between cold caches.

    Requests flagged ``warm`` (their artifact is resident in the
    service's shared store) carry no cold penalty anywhere: their
    predictions arrive with ``compile_s == 0`` and the cold-start
    stickiness below is skipped, so placement reduces to pure
    completion-time minimization — with a two-level cache, affinity is
    an optimization, not a correctness crutch.

    Placement is recorded optimistically at selection: if admission is
    subsequently rejected (backpressure timeout) the shard is still
    marked warm, slightly under-charging the next repeat — a bounded
    mis-estimate the calibrated busy time dominates, accepted to keep
    policies free of admission-outcome plumbing.  The per-shard memory
    is FIFO-bounded (:func:`repro.costmodel.features.remember`).
    """

    name = "cost-aware"

    def __init__(self):
        # dict-as-ordered-set per shard: insertion order = FIFO eviction.
        self._placed: Dict[int, Dict[str, None]] = {}

    def select(self, request: Request, shards: Sequence[ShardView]) -> int:
        # Cold start: with neither features nor class priors the scores
        # carry no compile signal (compile_s is 0 everywhere), so a
        # burst of identical never-seen kernels would spread across
        # every cold cache.  Until the model learns, stick repeats to
        # the shard that first took the fingerprint.  Store-warm
        # requests skip this: every shard fetches them equally cheaply.
        if not request.warm and all(
            p.source == "default" for p in request.predicted.values()
        ):
            for view in shards:
                if request.fingerprint in self._placed.get(view.index, ()):
                    return view.index

        def completion(view: ShardView):
            prediction = request.predicted_for(view)
            compile_s = 0.0
            if request.fingerprint not in self._placed.get(view.index, ()):
                compile_s = prediction.compile_s
            return (view.busy_s + prediction.seconds + compile_s, view.pending, view.index)

        index = min(shards, key=completion).index
        remember(self._placed.setdefault(index, {}), request.fingerprint)
        return index


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
register_policy("predicted-makespan", PredictedMakespanPolicy)
register_policy("cost-aware", CostAwarePlacementPolicy)
