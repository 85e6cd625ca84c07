"""Fault-tolerance primitives for the serving layer.

:class:`~repro.api.service.ReasonService` survives worker crashes,
flaky compiles/executions, hung requests, and a misbehaving shared
store.  The policy objects that decide *how* live here:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic seeded jitter; only *transient* errors (injected
  faults, worker crashes) are retried — a request's own exception
  (bad kernel, unknown backend) passes through untouched, and replays
  are idempotent because execution is deterministic, so a retried
  success is bit-identical to a first-try success.
* :class:`CircuitBreaker` — every shard's (and the store's) trip switch:
  after ``failure_threshold`` *consecutive* faults the breaker opens
  and admission routes around the shard; after ``reset_after_s`` it
  half-opens and lets one probe through — success closes it, failure
  re-opens it.
* :class:`ResilientStore` — wraps the shared
  :class:`~repro.api.store.ArtifactStore` so store trouble degrades the
  service to shard-local caching instead of failing requests: every
  ``get``/``put`` error is swallowed (counted, breaker-fed) and reads
  simply miss.
* Deadline plumbing — :func:`resolve_deadline` maps a deadline spec
  (seconds, or a named class from :data:`DEADLINE_CLASSES`) to the
  per-request budget the service enforces at admission, in queue, and
  around execution.

The exception taxonomy callers see:

* :class:`DeadlineExceeded` (a :class:`TimeoutError`) — the request's
  deadline expired; deliberately *not* retryable (the budget is gone).
* :class:`ShardCrashed` — a shard worker died mid-request; transient,
  retried when a :class:`RetryPolicy` is active.
* :class:`RetriesExhausted` — every allowed attempt failed; the last
  underlying error is chained as ``__cause__``.
* :class:`TransientError` — marker base for errors that are safe to
  retry (:class:`repro.faults.FaultInjected` subclasses it).
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.api.store import ArtifactStore
from repro.api.types import check_count

# --------------------------------------------------------------------------
# Exception taxonomy
# --------------------------------------------------------------------------


class TransientError(Exception):
    """Marker base class for errors that are safe to retry.

    The default :class:`RetryPolicy` retries exactly these (plus
    :class:`ShardCrashed`): replaying a request after a transient
    failure is idempotent because compilation and execution are
    deterministic.  Request-inherent errors (unknown backend, invalid
    kernel) must *not* subclass this — retrying them would just fail
    again, slower.
    """


class WorkerCrash(BaseException):
    """Injected worker death (raised by a fault plan *inside* a shard
    worker, on purpose escaping the per-request error handling).

    Deliberately a :class:`BaseException` subclass: it models the whole
    worker thread dying — a bug, a segfaulting native extension, an OOM
    kill — not the request failing, so the per-request ``except`` path
    must not absorb it.  Only the shard supervisor catches it.
    """

    def __init__(self, shard_index: int = -1):
        super().__init__(f"injected crash of shard {shard_index} worker")
        self.shard_index = shard_index


class ShardCrashed(RuntimeError):
    """A shard worker died while this request was in flight.

    What the *stranded request's* future receives (possibly wrapped in
    :class:`RetriesExhausted`) when retries are off or exhausted; the
    crash that killed the worker is chained as ``__cause__``.
    Transient by nature — the supervisor restarts the worker, and a
    replay is safe.
    """

    def __init__(self, message: str, shard_index: int = -1):
        super().__init__(message)
        self.shard_index = shard_index


class DeadlineExceeded(TimeoutError):
    """The request's deadline expired (in queue or mid-execution).

    Never retried: the time budget is spent, and the caller has moved
    on.  ``deadline_s`` is the budget the request was admitted with.
    """

    def __init__(self, message: str, deadline_s: float = 0.0):
        super().__init__(message)
        self.deadline_s = deadline_s


class RetriesExhausted(RuntimeError):
    """Every allowed attempt failed; the last error is ``__cause__``."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


# --------------------------------------------------------------------------
# Deadlines
# --------------------------------------------------------------------------

#: Named deadline classes (seconds of wall-clock budget per request).
#: ``submit(kernel, deadline_s="interactive")`` resolves through this
#: table — the first half of the ROADMAP's SLO-aware-admission item.
DEADLINE_CLASSES: Dict[str, float] = {
    "interactive": 0.100,
    "standard": 1.0,
    "batch": 30.0,
}


def resolve_deadline(spec: Union[None, int, float, str]) -> Optional[float]:
    """A deadline spec to seconds: None (no deadline), a named class
    from :data:`DEADLINE_CLASSES`, or a number above 0 and at most
    :data:`threading.TIMEOUT_MAX` — the longest wait the deadline timer
    can arm (NaN, infinity and a bool are none of these)."""
    if spec is None:
        return None
    if isinstance(spec, bool):
        raise ValueError(f"deadline_s must be seconds or a deadline class, not {spec!r}")
    if isinstance(spec, str):
        try:
            return DEADLINE_CLASSES[spec]
        except KeyError:
            raise ValueError(
                f"unknown deadline class {spec!r} "
                f"(expected one of {sorted(DEADLINE_CLASSES)})"
            ) from None
    deadline = float(spec)
    if not 0.0 < deadline <= threading.TIMEOUT_MAX:
        raise ValueError(
            f"deadline_s must be positive and at most {threading.TIMEOUT_MAX} s, got {deadline}"
        )
    return deadline


# --------------------------------------------------------------------------
# Retry policy
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How the service replays transiently-failed requests.

    ``max_attempts`` bounds total executions (1 = no retries).  The
    delay before attempt *n* (n >= 2) is ``backoff_s *
    multiplier**(n - 2)``, perturbed by ``±jitter`` fractionally —
    jitter draws from a :class:`random.Random` seeded by
    ``(seed, fingerprint, attempt)``, so two runs of the same trace
    back off identically (determinism survives the chaos suite).
    ``reroute=True`` sends each retry to a different shard when one is
    available — the natural move after a shard crash, and harmless
    otherwise because every shard is the same REASON session and runs
    whatever backend the request names.

    Construction checks what a backoff timer can arm: ``max_attempts``
    is a positive integer, ``backoff_s`` and ``multiplier`` are finite,
    and the longest delay, jitter included, is at most
    :data:`threading.TIMEOUT_MAX` (the bound deadlines have too) —
    past it the timer thread dies and its request never resolves.
    """

    max_attempts: int = 3
    backoff_s: float = 0.0
    multiplier: float = 2.0
    jitter: float = 0.0
    reroute: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("max_attempts", self.max_attempts)
        if not 0.0 <= self.backoff_s < math.inf:
            raise ValueError(f"backoff_s must be finite and >= 0, not {self.backoff_s!r}")
        if not 1.0 <= self.multiplier < math.inf:
            raise ValueError(f"multiplier must be finite and >= 1, not {self.multiplier!r}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.backoff_s > 0.0 and self.max_attempts > 1:
            try:
                longest = self.backoff_s * self.multiplier ** (self.max_attempts - 2)
            except OverflowError:
                longest = math.inf
            longest *= 1.0 + self.jitter
            if longest > threading.TIMEOUT_MAX:
                raise ValueError(
                    f"the longest retry delay, {longest} s, must be at most "
                    f"threading.TIMEOUT_MAX ({threading.TIMEOUT_MAX} s)"
                )

    def retryable(self, error: BaseException) -> bool:
        """Is this error worth a replay?

        Only transient faults qualify: injected faults
        (:class:`TransientError`) and worker deaths
        (:class:`ShardCrashed`).  :class:`DeadlineExceeded` is checked
        first and always final — a spent budget cannot be retried into
        existence.  Everything else (user errors, real bugs) passes
        through on the first failure, unwrapped.
        """
        if isinstance(error, DeadlineExceeded):
            return False
        return isinstance(error, (TransientError, ShardCrashed))

    def delay_s(self, attempt: int, fingerprint: str = "") -> float:
        """Seconds to wait before ``attempt`` (2-based; attempt 1 is
        the original execution and never waits)."""
        if attempt <= 1 or self.backoff_s <= 0.0:
            return 0.0
        base = self.backoff_s * self.multiplier ** (attempt - 2)
        if self.jitter > 0.0:
            rng = random.Random(f"{self.seed}:{fingerprint}:{attempt}")
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(base, 0.0)


# --------------------------------------------------------------------------
# Circuit breaker
# --------------------------------------------------------------------------

#: Gauge encoding of breaker states (what the metrics callback exports).
BREAKER_STATE_CODES: Dict[str, int] = {"closed": 0, "half-open": 1, "open": 2}


class CircuitBreaker:
    """Trip switch over one fallible resource (a shard, a store).

    Closed (normal) → ``failure_threshold`` *consecutive* failures →
    open (admission refuses) → after ``reset_after_s`` → half-open
    (one probe admitted): probe success closes, probe failure re-opens
    and restarts the cooldown.  Thread-safe; the open→half-open
    transition happens lazily inside :meth:`admits`, so there is no
    background timer to manage.

    A closed breaker is read without its lock, so a healthy shard's
    requests never take it.  That is safe because :meth:`admits` on a
    closed breaker is True whatever the clock says, and one attribute
    read sees a whole state; and because :meth:`record_success` on a
    closed breaker with no failure counted would change nothing, while
    a failure racing it counts itself before it moves the state — so a
    read of "closed" and then of zero failures is a success ordered
    before that failure, an order the lock also allows.
    """

    def __init__(self, failure_threshold: int = 5, reset_after_s: float = 0.25):
        check_count("failure_threshold", failure_threshold)
        if not 0.0 <= reset_after_s < math.inf:
            # A NaN cooldown would never half-open: `elapsed >= nan` is False.
            raise ValueError(f"reset_after_s must be finite and >= 0, not {reset_after_s!r}")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive = 0
        self._opened_at = 0.0
        self.trips = 0  # times the breaker transitioned closed/half-open -> open

    @property
    def state(self) -> str:
        """``closed`` | ``open`` | ``half-open`` (cooldown applied)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def state_code(self) -> int:
        return BREAKER_STATE_CODES[self.state]

    def _maybe_half_open(self) -> None:
        # Caller holds the lock.
        if (
            self._state == "open"
            and time.monotonic() - self._opened_at >= self.reset_after_s
        ):
            self._state = "half-open"

    def admits(self) -> bool:
        """May the next request use this resource right now?"""
        if self._state == "closed":
            return True
        with self._lock:
            self._maybe_half_open()
            return self._state != "open"

    def record_success(self) -> None:
        if self._state == "closed" and not self._consecutive:
            return  # nothing to reset (see the class docstring)
        with self._lock:
            self._consecutive = 0
            self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            self._consecutive += 1
            if self._state == "half-open" or (
                self._state == "closed"
                and self._consecutive >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = time.monotonic()
                self.trips += 1


# --------------------------------------------------------------------------
# Resilient store wrapper
# --------------------------------------------------------------------------


class ResilientStore(ArtifactStore):
    """Degrade store trouble to shard-local caching, never to failure.

    Wraps any :class:`~repro.api.store.ArtifactStore` so that an error
    in ``get``/``put``/``len`` becomes a miss / no-op / zero instead
    of propagating into the request: the compile factory still runs,
    the request still succeeds, only the *sharing* is lost.  Errors
    feed a :class:`CircuitBreaker`; while it is open the inner store
    is not even called (``degraded`` counts those skipped operations),
    and half-open probes let the service rediscover a recovered store
    on its own.

    Unknown attributes proxy to the inner store, so diagnostics like
    ``DiskStore.corrupt_misses`` or ``DiskStore.path`` stay reachable
    through the wrapper.
    """

    def __init__(
        self, inner: ArtifactStore, breaker: Optional[CircuitBreaker] = None
    ):
        super().__init__()
        self.inner = inner
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=3, reset_after_s=1.0
        )
        self._stats_lock = threading.Lock()
        self.errors = 0  # inner-store operations that raised
        self.degraded = 0  # operations skipped while the breaker was open

    def _guarded(self, operation, fallback):
        if not self.breaker.admits():
            with self._stats_lock:
                self.degraded += 1
            return fallback
        try:
            value = operation()
        except Exception:
            with self._stats_lock:
                self.errors += 1
            self.breaker.record_failure()
            return fallback
        self.breaker.record_success()
        return value

    def get(self, key):
        return self._guarded(lambda: self.inner.get(key), None)

    def put(self, key, artifact) -> None:
        self._guarded(lambda: self.inner.put(key, artifact), None)

    def __len__(self) -> int:
        return int(self._guarded(lambda: len(self.inner), 0))

    def attach_metrics(self, registry) -> None:
        """Mirror this store into a live-metrics registry
        (:mod:`repro.metrics`) through snapshot-time callbacks — the
        store's own paths pay nothing."""
        registry.register_callback(
            "reason_store_artifacts",
            lambda: len(self),
            kind="gauge",
            help="Artifacts resident in the shared store.",
        )
        registry.register_callback(
            "reason_store_errors_total",
            lambda: self.errors,
            kind="counter",
            help="Shared-store operations that raised (degraded to "
            "miss/no-op by the resilient wrapper).",
        )
        registry.register_callback(
            "reason_store_degraded_total",
            lambda: self.degraded,
            kind="counter",
            help="Store operations skipped while its breaker was open "
            "(local-only caching).",
        )
        # DiskStore corrupt-entry misses, proxied through the
        # wrappers; in-memory stores have no such counter.
        if getattr(self, "corrupt_misses", None) is not None:
            registry.register_callback(
                "reason_store_corrupt_misses_total",
                lambda: self.corrupt_misses,
                kind="counter",
                help="Corrupt/incompatible store entries degraded to "
                "misses (silent until counted here).",
            )

    def __getattr__(self, name):
        # Only reached for attributes this wrapper doesn't define:
        # proxy diagnostics (corrupt_misses, path, ...) to the inner
        # store so callers don't need to unwrap.
        return getattr(self.inner, name)
