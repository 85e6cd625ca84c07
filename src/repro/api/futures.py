"""Futures returned by :class:`repro.api.service.ReasonService`.

A :class:`ReasonFuture` is a standard :class:`concurrent.futures.Future`
specialized to one admitted request: it resolves to the request's
:class:`~repro.api.types.ExecutionReport`, carries the routing metadata
the scheduler used (shard index, content-hash fingerprint, kernel
kind), and is directly awaitable from asyncio code, so the same handle
works for blocking callers (``future.result()``) and async callers
(``await future``).

A request the submitting thread claims to serve itself (a warm hit on
an idle shard, see ``ReasonService._run_inline``) gets a
:class:`_ClaimedFuture`, which builds the ``threading.Condition`` a
stdlib future builds in its constructor only when a thread first needs
one.  When that inline attempt succeeds, the future is *born
resolved*: the report is written into it before any other thread holds
it, with no lock or notify, and a finished one's ``done``, ``result``,
``exception`` and ``add_done_callback`` read it without the lock.  Its
condition is then :data:`_SETTLED`, which takes nothing, so the stdlib's
``wait``, ``as_completed``, ``cancel`` and the rest (and
:func:`wait_all`) build no Condition for it and take no lock.  A queued
request's future is a plain :class:`ReasonFuture`, whose path pays for
none of this.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from concurrent.futures._base import FINISHED, LOGGER, PENDING
from typing import List, Optional

from repro.api.types import ExecutionReport


class ReasonFuture(concurrent.futures.Future):
    """Handle for one request admitted to a :class:`ReasonService`.

    Attributes
    ----------
    kind:
        Adapter kind of the submitted kernel (``cnf`` | ``circuit`` |
        ``hmm`` | ``dag``).
    fingerprint:
        Content-hash cache key of (kernel, options, config) — the same
        key the shard's compile cache uses, and what the cache-affinity
        policy routes on.
    shard_index:
        Index of the shard the scheduler placed this request on.
    neural_s:
        The request's neural-stage (GPU) time, used when composing
        shard makespans through the two-level pipeline.
    """

    def __init__(
        self,
        kind: str = "",
        fingerprint: str = "",
        shard_index: int = -1,
        neural_s: float = 0.0,
    ):
        super().__init__()
        self.kind = kind
        self.fingerprint = fingerprint
        self.shard_index = shard_index
        self.neural_s = neural_s

    def __await__(self):
        # Bridge into the running asyncio loop: the shard worker thread
        # resolves the concurrent future, the wrapper wakes the loop.
        return asyncio.wrap_future(self).__await__()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done() else "pending"
        return (
            f"ReasonFuture(kind={self.kind!r}, shard={self.shard_index}, "
            f"fingerprint={self.fingerprint[:12]!r}..., {state})"
        )


class _Settled:
    """The condition of every born-resolved future: its ``acquire``,
    ``release`` and ``with`` take nothing.  A stand-in is safe there
    because FINISHED is terminal: under a finished future's condition
    the stdlib only reads the state, raises ``InvalidStateError``, or
    appends or removes a waiter (one atomic list operation each), and it
    never waits or notifies.  Not a real lock shared by all such
    futures: ``wait`` acquires its futures' conditions in id order, and
    one lock shared across a batch would deadlock on the batch's second
    future (a ``Lock``) or between two threads (an ``RLock``)."""

    __slots__ = ()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return True

    def release(self) -> None:
        pass

    def __enter__(self) -> bool:
        return True

    def __exit__(self, *exc_info) -> None:
        pass


_SETTLED = _Settled()


class _LazyCondition:
    """A future's ``_condition``, built the first time a thread reads
    it.  A non-data descriptor: the first read of a pending future
    stores the Condition in the future's ``__dict__``, where every later
    read finds it without calling here.  ``dict.setdefault`` is one
    atomic step, so threads racing the first read all get the Condition
    that won.  A future found FINISHED with nothing stored was born
    resolved (every other way to FINISHED reads the condition first),
    and gets :data:`_SETTLED`, with nothing stored."""

    def __get__(self, future, owner=None):
        if future is None:
            return self
        if future._state == FINISHED:
            return _SETTLED
        return future.__dict__.setdefault("_condition", threading.Condition())


class _ClaimedFuture(ReasonFuture):
    """The future of a request its submitting thread claimed to serve
    inline.  Until the service hands it on (``_sole_thread = 0``), only
    the thread that built it holds it, and a ``set_result`` there is a
    write in place.  A request that misses the shard's cache, or whose
    inline attempt fails and is requeued, is resolved by a worker the
    stdlib way, under a Condition built on first use."""

    _condition = _LazyCondition()

    def __init__(self, kind: str, fingerprint: str, shard_index: int, neural_s: float):
        # Future.__init__'s state, less the Condition (_LazyCondition);
        # tests/api/test_futures.py holds the two to the same attributes.
        self._state = PENDING
        self._result = None
        self._exception = None
        self._waiters = []
        self._done_callbacks = []
        self.kind = kind
        self.fingerprint = fingerprint
        self.shard_index = shard_index
        self.neural_s = neural_s
        self._sole_thread = threading.get_ident()

    def set_result(self, result: ExecutionReport) -> None:
        if self._sole_thread != threading.get_ident():
            super().set_result(result)
            return
        # Nobody else can wait on it, add a callback to it or cancel
        # it: pending straight to FINISHED, no lock, notify or callback.
        self._result = result
        self._state = FINISHED

    # FINISHED is terminal: a finished future answers these four
    # without the lock, and a pending one takes the stdlib path.

    def done(self) -> bool:
        return self._state == FINISHED or super().done()

    def result(self, timeout: Optional[float] = None):
        if self._state == FINISHED and self._exception is None:
            return self._result
        return super().result(timeout)

    def exception(self, timeout: Optional[float] = None):
        if self._state == FINISHED:
            return self._exception
        return super().exception(timeout)

    def add_done_callback(self, fn) -> None:
        if self._state != FINISHED:
            super().add_done_callback(fn)  # runs fn at once if it finished meanwhile
            return
        try:
            fn(self)
        except Exception:
            LOGGER.exception("exception calling callback for %r", self)


def wait_all(
    futures: List[ReasonFuture], timeout: Optional[float] = None
) -> List[ExecutionReport]:
    """Resolve many futures in submission order (blocking convenience).

    On timeout, raises :class:`TimeoutError` naming how many futures
    are still unresolved and which shards they sit on — and if some
    *other* future in the batch already failed, chains that failure as
    ``__cause__`` instead of masking it behind a generic timeout (the
    failed request is usually *why* the batch stalled).
    """
    futures = list(futures)
    done, not_done = concurrent.futures.wait(futures, timeout=timeout)
    if not_done:
        shards = sorted(
            {getattr(future, "shard_index", -1) for future in not_done}
        )
        error = TimeoutError(
            f"{len(not_done)} of {len(futures)} futures unresolved after "
            f"{timeout}s (waiting on shard(s) {shards})"
        )
        failed = next(
            (
                future
                for future in done
                if not future.cancelled() and future.exception() is not None
            ),
            None,
        )
        if failed is not None:
            raise error from failed.exception()
        raise error
    return [future.result(timeout=0) for future in futures]
