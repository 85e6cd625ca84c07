"""Futures returned by :class:`repro.api.service.ReasonService`.

A :class:`ReasonFuture` is a standard :class:`concurrent.futures.Future`
specialized to one admitted request: it resolves to the request's
:class:`~repro.api.types.ExecutionReport`, carries the routing metadata
the scheduler used (shard index, content-hash fingerprint, kernel
kind), and is directly awaitable from asyncio code, so the same handle
works for blocking callers (``future.result()``) and async callers
(``await future``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
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
