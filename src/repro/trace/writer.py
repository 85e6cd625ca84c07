"""`TraceWriter`: streaming binary encoder for execution event traces.

The writer is the single producer-side entry point: the accelerator's
replay/program loops call :meth:`TraceWriter.emit` per event, and the
writer varint/delta-encodes records into an internal buffer that
flushes to the sink in large chunks (so tracing costs appends, not
syscalls, in the hot loop).  ``close()`` seals the stream with the
counting footer readers validate against.

Sinks: ``None`` buffers the whole stream in memory (``getvalue()``),
and a ``str``/``Path`` writes that file.  The writer owns every file it
opens; anything else is a :class:`TypeError`.

A path sink is written to a sibling temp file and moved into place by
``close()``, so the path never holds a partial trace: a reader sees the
previous complete trace or the new one, even while a second request of
the same kernel (same content-addressed path) is being traced.  A run
that raises before ``close()`` calls ``discard()``, which deletes the
temp file, and a ``close()`` that cannot move the file into place (the
path is a directory, say) deletes it before it re-raises.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from repro.trace.format import (
    DELTA_ESCAPE,
    EVENT_SCHEMA,
    MAX_INLINE_DELTA,
    EventKind,
    encode_footer,
    encode_header,
    zigzag_encode,
)

#: Flush the internal buffer to the sink once it crosses this size.
_FLUSH_BYTES = 1 << 16


@dataclass(frozen=True)
class TraceSummary:
    """What a sealed trace contains, as the writer counted it."""

    events: int
    bytes: int
    last_cycle: int
    counts: Dict[str, int]  # EventKind name -> count (non-zero only)
    path: Optional[str] = None

    @property
    def bytes_per_event(self) -> float:
        return self.bytes / self.events if self.events else 0.0


class TraceWriter:
    """Encode an event stream; one instance per trace file.

    The emit path is deliberately branch-light: one code-byte append
    for the common small-delta case, inline LEB128 loops for payload
    operands, and a size check that flushes at most once per ~64 KiB.
    """

    def __init__(self, sink: Union[None, str, os.PathLike] = None):
        if not (sink is None or isinstance(sink, (str, os.PathLike))):
            raise TypeError(
                f"a TraceWriter sink is None (in memory) or a path, not {type(sink).__name__}"
            )
        self.path: Optional[str] = None if sink is None else str(sink)
        self._sink = None
        if sink is not None:
            target = Path(sink)
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, self._tmp_path = tempfile.mkstemp(
                dir=target.parent, prefix=target.name + ".", suffix=".tmp"
            )
            self._sink = os.fdopen(fd, "wb")
        self._buf = bytearray(encode_header())
        self._flushed = 0
        self._last_cycle = 0
        self._counts = [0] * 32
        self._events = 0
        self._closed = False
        self._summary: Optional[TraceSummary] = None

    # ------------------------------------------------------------ emission

    def emit(
        self,
        kind: int,
        cycle: Optional[int] = None,
        value: int = 0,
        extra: int = 0,
    ) -> None:
        """Append one event.

        ``cycle=None`` stamps the event at the previous event's cycle
        (a free 0 delta) — the convention for events that annotate the
        current timestamp rather than advance the clock.
        """
        buf = self._buf
        if cycle is None:
            delta = 0
        else:
            delta = cycle - self._last_cycle
            self._last_cycle = cycle
        if 0 <= delta <= MAX_INLINE_DELTA:
            buf.append(kind | (delta << 5))
        else:
            buf.append(kind | (DELTA_ESCAPE << 5))
            encoded = zigzag_encode(delta)
            while encoded > 0x7F:
                buf.append((encoded & 0x7F) | 0x80)
                encoded >>= 7
            buf.append(encoded)
        nfields, signed = EVENT_SCHEMA[kind]
        if nfields:
            operand = zigzag_encode(value) if signed else value
            if operand < 0:
                raise ValueError(
                    f"{EventKind(kind).name} value operand must be >= 0, got {value}"
                )
            while operand > 0x7F:
                buf.append((operand & 0x7F) | 0x80)
                operand >>= 7
            buf.append(operand)
            if nfields == 2:
                operand = extra
                if operand < 0:
                    raise ValueError(
                        f"{EventKind(kind).name} extra operand must be >= 0, got {extra}"
                    )
                while operand > 0x7F:
                    buf.append((operand & 0x7F) | 0x80)
                    operand >>= 7
                buf.append(operand)
        self._counts[kind] += 1
        self._events += 1
        if len(buf) >= _FLUSH_BYTES and self._sink is not None:
            self._flush()

    # ----------------------------------------------------------- counters

    def counts(self) -> Dict[str, int]:
        """Per-kind event counts so far (non-zero, by kind name)."""
        return {
            EventKind(kind).name: count
            for kind, count in enumerate(self._counts)
            if count
        }

    # ---------------------------------------------------------- lifecycle

    def _flush(self) -> None:
        self._flushed += len(self._buf)
        self._sink.write(bytes(self._buf))
        self._buf = bytearray()

    def close(self) -> TraceSummary:
        """Seal the stream: write the counting footer, flush, and (for
        a path sink) close the file and move it into place at ``path``,
        discarding it if that fails.  Idempotent; returns the
        :class:`TraceSummary` for the whole trace."""
        if self._closed:
            return self._summary
        counts = {kind: n for kind, n in enumerate(self._counts) if n}
        self._buf.extend(encode_footer(counts, self._events, self._last_cycle))
        total_bytes = self._flushed + len(self._buf)
        if self._sink is not None:
            try:
                self._flush()
                self._sink.close()
                os.replace(self._tmp_path, self.path)
            except BaseException:
                self.discard()
                raise
        self._closed = True
        self._summary = TraceSummary(
            events=self._events,
            bytes=total_bytes,
            last_cycle=self._last_cycle,
            counts=self.counts(),
            path=self.path,
        )
        return self._summary

    def discard(self) -> None:
        """Abandon an unsealed trace to a path sink: close the temp file
        and delete it, so ``path`` keeps whatever complete trace it
        held.  For a run that raised before ``close()``.  Idempotent;
        does nothing after ``close()`` and on an in-memory sink."""
        if self._closed or self._sink is None:
            return
        self._closed = True
        self._sink.close()
        try:
            os.unlink(self._tmp_path)
        except FileNotFoundError:
            pass

    def getvalue(self) -> bytes:
        """The encoded stream of an in-memory (``sink=None``) writer."""
        if self._sink is not None:
            raise ValueError(
                "getvalue() is only available on in-memory writers; "
                f"this one streams to {self.path!r}"
            )
        return bytes(self._buf)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
