"""Fault-tolerance primitives for the serving layer.

:class:`~repro.api.service.ReasonService` survives worker crashes,
flaky compiles/executions, hung requests, and a misbehaving shared
store.  The policy objects that decide *how* live here:

* :class:`RetryPolicy` — a bound on attempts; only *transient* errors
  (:class:`TransientError`, crashes) are retried — a request's own
  exception (bad kernel, unknown backend) passes through untouched.
  Replays are idempotent because execution is deterministic, so a
  retried success is bit-identical to a first-try success, and a
  replay is requeued at once: a wait before it would change nothing.
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
* Deadline plumbing — :func:`resolve_deadline` checks a deadline in
  seconds: the per-request wall-clock budget, measured from admission,
  that the service enforces in queue and around execution.

The exception taxonomy callers see:

* :class:`DeadlineExceeded` (a :class:`TimeoutError`) — the request's
  deadline expired; deliberately *not* retryable (the budget is gone).
* :class:`ShardCrashed` — the thread running a request (its shard's
  worker, or the submitting thread of an inline warm hit) took a
  :class:`WorkerCrash`; transient, retried when a :class:`RetryPolicy`
  is active.
* :class:`RetriesExhausted` — every allowed attempt failed; the last
  underlying error is chained as ``__cause__``.
* :class:`TransientError` — marker base for errors that are safe to
  retry (the chaos drills' injected faults subclass it).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

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
    """The death of the thread running a request — a bug, a
    segfaulting native extension, an OOM kill — not the request failing.

    Deliberately a :class:`BaseException` subclass, so the per-request
    ``except`` path does not absorb it: on a shard worker it kills the
    thread, and the shard supervisor restarts it and retries or fails
    the request as :class:`ShardCrashed`.  On the submitting thread of
    an inline warm hit nothing is restarted: the attempt fails as
    :class:`ShardCrashed` at once.
    """


class ShardCrashed(RuntimeError):
    """The thread running this request crashed (a shard worker, or
    the submitting thread of an inline warm hit).

    What the *stranded request's* future receives (possibly wrapped in
    :class:`RetriesExhausted`) when retries are off or exhausted; the
    :class:`WorkerCrash` is chained as ``__cause__``.  Transient by
    nature — a dead worker is restarted, and a replay is safe.
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

def resolve_deadline(spec: Optional[float]) -> Optional[float]:
    """A deadline to seconds: None (no deadline), or a number above 0
    and at most :data:`threading.TIMEOUT_MAX` — the longest wait the
    deadline timer can arm (NaN, infinity and a bool are none of these).
    Text (``str`` or ``bytes``) is a :class:`TypeError`: a deadline is a
    number of seconds, never a name or a numeral to parse."""
    if spec is None:
        return None
    if isinstance(spec, bool):
        raise ValueError(f"deadline_s must be seconds, not {spec!r}")
    if isinstance(spec, (str, bytes, bytearray)):
        raise TypeError(f"deadline_s must be seconds (a number), not the text {spec!r}")
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

    ``max_attempts`` bounds total executions (1 = no retries), and is a
    positive integer.  A retry is requeued at once by the thread whose
    attempt failed, to the least-loaded other admitting shard when
    there is one — the natural move after a shard crash, and harmless
    otherwise because every shard is the same REASON session and runs
    whatever backend the request names.
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        check_count("max_attempts", self.max_attempts)

    def retryable(self, error: BaseException) -> bool:
        """Is this error worth a replay?

        Only transient faults qualify: :class:`TransientError` and
        crashes (:class:`ShardCrashed`).  :class:`DeadlineExceeded` is
        checked first and always final — a spent budget cannot be
        retried into existence.  Everything else (user errors, real bugs) passes
        through on the first failure, unwrapped.
        """
        if isinstance(error, DeadlineExceeded):
            return False
        return isinstance(error, (TransientError, ShardCrashed))


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
            return self._skipped(fallback)
        try:
            value = operation()
        except Exception:
            return self._failed(fallback)
        self.breaker.record_success()
        return value

    def _skipped(self, fallback):
        with self._stats_lock:
            self.degraded += 1
        return fallback

    def _failed(self, fallback):
        with self._stats_lock:
            self.errors += 1
        self.breaker.record_failure()
        return fallback

    def get(self, key):
        # _guarded written out: every store hit a service serves comes
        # through here, and a healthy one pays no closure or guard frame.
        if not self.breaker.admits():
            return self._skipped(None)
        try:
            artifact = self.inner.get(key)
        except Exception:
            return self._failed(None)
        self.breaker.record_success()
        return artifact

    def put(self, key, artifact) -> None:
        self._guarded(lambda: self.inner.put(key, artifact), None)

    def __len__(self) -> int:
        return int(self._guarded(lambda: len(self.inner), 0))

    def holds(self, key) -> bool:
        """The inner store's answer while the breaker admits, else
        False, as on an error.  A query, not an operation: it counts no
        error or degraded operation and moves no breaker."""
        if not self.breaker.admits():
            return False
        try:
            return self.inner.holds(key)
        except Exception:
            return False

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
