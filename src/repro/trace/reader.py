"""`TraceReader`: streaming decoder + windowed query API over a trace.

The reader never materializes the event stream: iteration decodes one
record at a time from a chunked read buffer, so a multi-gigabyte trace
costs constant memory to scan.  Three access levels:

* :meth:`TraceReader.__iter__` / :meth:`events` — forward iteration,
  optionally filtered by event kind and cycle window;
* :meth:`summary` — footer-only metadata (event counts, final cycle)
  read from the last few dozen bytes without decoding any records;
* :meth:`validate` — full decode cross-checked against the footer's
  per-kind counts (the integrity gate for archived traces).

Truncated files, foreign magic and unknown schema versions raise
:class:`~repro.trace.format.TraceFormatError` — a trace that decodes
silently is a trace whose counts the footer has vouched for.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Iterator, Optional, Union

from repro.trace.format import (
    DELTA_ESCAPE,
    EVENT_SCHEMA,
    FOOTER_TAIL_SIZE,
    END_MAGIC,
    EventKind,
    TraceFormatError,
    TraceRecord,
    decode_footer_body,
    decode_header,
    read_uvarint,
    zigzag_decode,
)
from repro.trace.writer import TraceSummary

#: Chunk size for file-backed streaming decode.
_CHUNK_BYTES = 1 << 16
#: A record is at most code + 3 maximal varints (< 32 bytes); keeping
#: this many bytes buffered guarantees a record never splits a refill.
_MIN_BUFFERED = 64


class TraceReader:
    """Decode one binary trace from a path or from bytes.

    A reader is restartable: every call to :meth:`__iter__` /
    :meth:`events` / :meth:`validate` re-opens the stream from the
    first record, so one reader instance can serve several queries.
    """

    def __init__(self, source: Union[str, os.PathLike, bytes, bytearray]):
        self._path: Optional[str] = None
        self._data: Optional[bytes] = None
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._data = bytes(source)
        elif isinstance(source, (str, os.PathLike)):
            self._path = str(source)
        else:
            raise TypeError(
                "TraceReader reads a path (str / os.PathLike) or bytes, "
                f"not {type(source).__name__}; pass an open file's name or "
                "its .read()"
            )
        # Validate the header eagerly: a reader over a foreign or
        # stale-version file should fail at construction, not mid-scan.
        header = self._read_prefix()
        decode_header(header)

    # ------------------------------------------------------------- source

    def _read_prefix(self) -> bytes:
        if self._data is not None:
            return self._data[:8]
        with open(self._path, "rb") as handle:
            return handle.read(8)

    def _chunks(self) -> Iterator[bytes]:
        """Yield the raw stream as chunks, from the beginning."""
        if self._data is not None:
            yield self._data
            return
        with open(self._path, "rb") as handle:
            while True:
                chunk = handle.read(_CHUNK_BYTES)
                if not chunk:
                    return
                yield chunk

    # ------------------------------------------------------------ decode

    def _records(self) -> Iterator[TraceRecord]:
        """Decode records until the footer; validates stream shape but
        not footer counts (see :meth:`validate`)."""
        chunks = self._chunks()
        buf = b""
        for chunk in chunks:
            buf += chunk
            if len(buf) >= _MIN_BUFFERED:
                break
        offset = decode_header(buf)
        cycle = 0
        schema = EVENT_SCHEMA
        kind_of = EventKind
        while True:
            # Keep at least one whole record + footer head buffered.
            if len(buf) - offset < _MIN_BUFFERED:
                buf = buf[offset:]
                offset = 0
                for chunk in chunks:
                    buf += chunk
                    if len(buf) >= _MIN_BUFFERED:
                        break
            if offset >= len(buf):
                raise TraceFormatError(
                    "truncated trace: stream ended without an end-of-stream footer"
                )
            code = buf[offset]
            kind = code & 0x1F
            if kind == EventKind.EOS:
                # Footer reached: pull the remainder in and stop.
                tail = buf[offset:] + b"".join(chunks)
                self._check_footer_shape(tail)
                return
            offset += 1
            delta = code >> 5
            if delta == DELTA_ESCAPE:
                raw, offset = read_uvarint(buf, offset)
                delta = zigzag_decode(raw)
            cycle += delta
            try:
                nfields, signed = schema[kind]
            except KeyError:
                raise TraceFormatError(
                    f"unknown event kind {kind} (corrupt stream or future schema)"
                ) from None
            value = 0
            extra = 0
            if nfields:
                value, offset = read_uvarint(buf, offset)
                if signed:
                    value = zigzag_decode(value)
                if nfields == 2:
                    extra, offset = read_uvarint(buf, offset)
            yield TraceRecord(kind_of(kind), cycle, value, extra)

    @staticmethod
    def _check_footer_shape(tail: bytes) -> None:
        """The stream after the last record must be one whole footer."""
        counts, total, last_cycle, offset = decode_footer_body(tail, 0)
        if len(tail) - offset != FOOTER_TAIL_SIZE:
            raise TraceFormatError(
                "malformed footer: trailing bytes after the event counts"
            )
        if tail[-len(END_MAGIC):] != END_MAGIC:
            raise TraceFormatError(
                "truncated trace: footer does not end with the closing magic"
            )

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._records()

    def events(
        self,
        kinds: Optional[Iterable[Union[EventKind, str]]] = None,
        start_cycle: Optional[int] = None,
        end_cycle: Optional[int] = None,
    ) -> Iterator[TraceRecord]:
        """Stream records matching every given filter.

        ``kinds`` accepts :class:`EventKind` members or their names;
        ``start_cycle``/``end_cycle`` bound an inclusive cycle window.
        Filters compose; the stream is never materialized.
        """
        wanted = None
        if kinds is not None:
            wanted = frozenset(
                EventKind[k] if isinstance(k, str) else EventKind(k) for k in kinds
            )
        for record in self._records():
            if wanted is not None and record.kind not in wanted:
                continue
            if start_cycle is not None and record.cycle < start_cycle:
                continue
            if end_cycle is not None and record.cycle > end_cycle:
                continue
            yield record

    # ----------------------------------------------------------- metadata

    def summary(self) -> TraceSummary:
        """Footer metadata without decoding records.

        For paths this reads only the footer region (self-locating via
        its trailing length field), so summarizing a huge archived
        trace is O(footer).
        """
        tail = self._read_tail()
        if len(tail) < FOOTER_TAIL_SIZE:
            raise TraceFormatError("truncated trace: no footer tail")
        if tail[-len(END_MAGIC):] != END_MAGIC:
            raise TraceFormatError(
                "truncated trace: footer does not end with the closing magic"
            )
        body_len = int.from_bytes(
            tail[-FOOTER_TAIL_SIZE : -FOOTER_TAIL_SIZE + 4], "little"
        )
        if body_len + FOOTER_TAIL_SIZE > len(tail):
            raise TraceFormatError("malformed footer: length field out of range")
        body = tail[len(tail) - FOOTER_TAIL_SIZE - body_len : len(tail) - FOOTER_TAIL_SIZE]
        counts, total, last_cycle, _ = decode_footer_body(body, 0)
        return TraceSummary(
            events=total,
            bytes=self._stream_size(),
            last_cycle=last_cycle,
            counts={EventKind(k).name: n for k, n in counts.items()},
            path=self._path,
        )

    def _read_tail(self) -> bytes:
        window = 4096 + FOOTER_TAIL_SIZE
        if self._data is not None:
            return self._data[-window:]
        with open(self._path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.seek(max(0, size - window))
            return handle.read()

    def _stream_size(self) -> int:
        if self._data is not None:
            return len(self._data)
        return os.path.getsize(self._path)

    def validate(self) -> TraceSummary:
        """Full-decode integrity check against the footer.

        Decodes every record, tallies per-kind counts, and compares
        them (plus the total and final cycle) with what the writer
        recorded in the footer.  Returns the verified summary; raises
        :class:`TraceFormatError` on any disagreement.
        """
        declared = self.summary()
        counts: Dict[str, int] = {}
        total = 0
        last_cycle = 0
        for record in self._records():
            counts[record.kind.name] = counts.get(record.kind.name, 0) + 1
            total += 1
            last_cycle = record.cycle
        if total != declared.events:
            raise TraceFormatError(
                f"footer declares {declared.events} events, stream decodes {total}"
            )
        if counts != declared.counts:
            raise TraceFormatError(
                f"footer event counts {declared.counts} disagree with "
                f"decoded counts {counts}"
            )
        if total and last_cycle != declared.last_cycle:
            raise TraceFormatError(
                f"footer last cycle {declared.last_cycle} disagrees with "
                f"decoded last cycle {last_cycle}"
            )
        return declared
