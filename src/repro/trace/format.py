"""Binary event-trace format: compact, versioned, self-describing.

The replay engine models every memory and algorithm event but used to
aggregate them into counters and throw the stream away.  This format
keeps the stream, at a size where tracing whole benchmark suites is
routine.  Design constraints (inlined here so the format is fully
self-contained — there is no external spec document):

* **~2-4 bytes per event at scale.**  One code byte carries the event
  kind (low 5 bits) and, for the common case, the cycle delta since
  the previous event (high 3 bits encode deltas 0-6 inline; the value
  7 escapes to an explicit varint).  Payload operands are LEB128
  varints — unsigned for banks/counts/levels, zigzag for literals —
  so a typical PROPAGATE(literal) record is 2-3 bytes and a BANK_READ
  is 3.  A mixed stream must average <= 6 bytes/event
  (``tests/trace`` holds a synthetic mix and the traces of real
  kernels to it).
* **Delta-encoded cycles.**  Event cycles are emitted as signed deltas
  against the previous record, so monotone streams cost 0-1 bytes per
  timestamp regardless of absolute cycle counts (billions of cycles
  encode as cheaply as hundreds).
* **Stream framing.**  A 4-byte magic + 1-byte schema version header
  rejects foreign files and stale readers up front; an end-of-stream
  footer carries per-kind event counts, the total event count and the
  final cycle, so a reader can (a) detect truncation without decoding
  and (b) cross-check a full decode against the writer's own counts
  (:meth:`~repro.trace.reader.TraceReader.validate`).  The footer ends
  with its own byte length and a closing magic, so summaries read the
  last few dozen bytes instead of the whole file.

Wire layout::

    stream  := header record* footer
    header  := MAGIC(4) version(1)
    record  := code [zigzag-varint cycle-delta if escaped] payload
    code    := kind(low 5 bits) | delta-tag(high 3 bits; 7 = escape)
    payload := per-kind varints (see EVENT_SCHEMA)
    footer  := EOS-code varint(num-kinds) (varint kind, varint count)*
               varint(total-events) zigzag-varint(last-cycle)
               u32le(footer-length) END_MAGIC(4)

The schema (which kinds exist and how many payload fields each
carries) is part of the version: readers refuse versions they do not
know rather than guessing field counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

#: Leading stream magic: "Reason TRaCe".
MAGIC = b"RTRC"
#: Trailing magic closing the footer (truncation sentinel).
END_MAGIC = b"CRT1"
#: Schema version this module reads and writes.
VERSION = 1

#: Bytes a correct header occupies (magic + version byte).
HEADER_SIZE = len(MAGIC) + 1
#: Fixed-size tail after the variable footer body: u32le length + magic.
FOOTER_TAIL_SIZE = 4 + len(END_MAGIC)

#: High-3-bit delta tag value that escapes to an explicit varint delta.
DELTA_ESCAPE = 7
#: Largest cycle delta the code byte encodes inline.
MAX_INLINE_DELTA = DELTA_ESCAPE - 1
_KIND_MASK = 0x1F


class TraceFormatError(ValueError):
    """A trace stream violates the format: bad magic, unknown version,
    truncated records, or footer counts that contradict the stream."""


class EventKind(enum.IntEnum):
    """Event codes.  Values are wire format — never renumber, only
    append (and bump :data:`VERSION` when appending changes decoding).

    Kind 0 is reserved as the end-of-stream marker so a zeroed byte can
    never masquerade as a silent no-op event.
    """

    EOS = 0  # reserved: footer marker, never a record
    # ---- algorithm events (CDCL replay) ---------------------------------
    DECIDE = 1  # value = decided literal (zigzag)
    PROPAGATE = 2  # value = implied literal (zigzag)
    CONFLICT = 3  # value = FIFO entries flushed (always 0: the replay queues nothing)
    LEARN = 4  # value = learned clause size (cycle-neutral annotation)
    BACKJUMP = 5  # value = target decision level
    RESTART = 6
    # ---- memory events --------------------------------------------------
    WATCH_UPDATE = 7  # value = falsified watch literal (zigzag), extra = clauses
    BANK_READ = 8  # value = SRAM bank, extra = words read
    DMA_FETCH = 9  # value = words fetched from DRAM
    # ---- VLIW program events --------------------------------------------
    COMPUTE = 10  # value = executing PE index
    LOAD = 11  # value = destination register bank
    STORE = 12  # value = source register bank
    SPILL = 13  # value = victim register bank
    RELOAD = 14  # value = destination register bank
    NOP = 15
    PE_BLOCK = 16  # value = active node ops, extra = forward ops
    # ---- stream structure ----------------------------------------------
    PHASE = 17  # value = phase id (PHASE_* below)
    RUN_END = 18  # cycle = the run's total modeled cycles


#: ``PHASE`` payload values: which execution mode follows.
PHASE_SYMBOLIC = 1  # CDCL trace replay (run_symbolic_trace)
PHASE_PROGRAM = 2  # compiled VLIW program (run_program)

PHASE_NAMES: Dict[int, str] = {
    PHASE_SYMBOLIC: "symbolic-replay",
    PHASE_PROGRAM: "program",
}

#: kind -> (payload field count, first field zigzag-signed?).  The
#: second payload field (``extra``) is always unsigned.  This table is
#: the schema: both the writer and the reader derive record layout
#: from it, so they cannot disagree within one VERSION.
EVENT_SCHEMA: Dict[int, Tuple[int, bool]] = {
    EventKind.DECIDE: (1, True),
    EventKind.PROPAGATE: (1, True),
    EventKind.CONFLICT: (1, False),
    EventKind.LEARN: (1, False),
    EventKind.BACKJUMP: (1, False),
    EventKind.RESTART: (0, False),
    EventKind.WATCH_UPDATE: (2, True),
    EventKind.BANK_READ: (2, False),
    EventKind.DMA_FETCH: (1, False),
    EventKind.COMPUTE: (1, False),
    EventKind.LOAD: (1, False),
    EventKind.STORE: (1, False),
    EventKind.SPILL: (1, False),
    EventKind.RELOAD: (1, False),
    EventKind.NOP: (0, False),
    EventKind.PE_BLOCK: (2, False),
    EventKind.PHASE: (1, False),
    EventKind.RUN_END: (0, False),
}

#: Kinds whose count equals the ExecutionReport's ``instructions``.
INSTRUCTION_KINDS = frozenset(
    {
        EventKind.COMPUTE,
        EventKind.LOAD,
        EventKind.STORE,
        EventKind.SPILL,
        EventKind.RELOAD,
        EventKind.NOP,
    }
)
#: Kinds the accelerator counts as stalls in ``run_program`` (NOPs are
#: scheduler bubbles; memory ops overlap with issue and do not stall).
STALL_KINDS = frozenset({EventKind.NOP})


@dataclass(slots=True, frozen=True)
class TraceRecord:
    """One decoded event.

    ``value`` and ``extra`` are the kind-specific operands documented
    on :class:`EventKind` (0 for kinds with fewer payload fields).
    """

    kind: EventKind
    cycle: int
    value: int = 0
    extra: int = 0


# --------------------------------------------------------------- varints


def zigzag_encode(value: int) -> int:
    """Map a signed int to unsigned so small magnitudes stay small."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def zigzag_decode(value: int) -> int:
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


def append_uvarint(buf: bytearray, value: int) -> None:
    """LEB128-append an unsigned int (7 payload bits per byte)."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_uvarint(data, offset: int) -> Tuple[int, int]:
    """Decode one LEB128 uvarint; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    length = len(data)
    while True:
        if offset >= length:
            raise TraceFormatError("truncated varint: stream ended mid-value")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise TraceFormatError("varint overflow: more than 9 continuation bytes")


# -------------------------------------------------------------- framing


def encode_header() -> bytes:
    return MAGIC + bytes((VERSION,))


def decode_header(data) -> int:
    """Validate the header; returns the offset of the first record."""
    if len(data) < HEADER_SIZE:
        raise TraceFormatError(
            f"not a trace: {len(data)} bytes is shorter than the header"
        )
    if bytes(data[: len(MAGIC)]) != MAGIC:
        raise TraceFormatError(
            f"not a trace: bad magic {bytes(data[:len(MAGIC)])!r} (expected {MAGIC!r})"
        )
    version = data[len(MAGIC)]
    if version != VERSION:
        raise TraceFormatError(
            f"unsupported trace schema version {version} (reader supports {VERSION})"
        )
    return HEADER_SIZE


def encode_footer(counts: Dict[int, int], total: int, last_cycle: int) -> bytes:
    """The end-of-stream frame: per-kind counts + totals + self-length."""
    body = bytearray()
    body.append(EventKind.EOS)
    present = [(kind, count) for kind, count in sorted(counts.items()) if count]
    append_uvarint(body, len(present))
    for kind, count in present:
        append_uvarint(body, kind)
        append_uvarint(body, count)
    append_uvarint(body, total)
    append_uvarint(body, zigzag_encode(last_cycle))
    body.extend(len(body).to_bytes(4, "little"))
    body.extend(END_MAGIC)
    return bytes(body)


def decode_footer_body(data, offset: int) -> Tuple[Dict[int, int], int, int, int]:
    """Decode the footer from its EOS byte onward.

    Returns ``(counts, total_events, last_cycle, next_offset)`` where
    ``next_offset`` points at the u32 length field.
    """
    if data[offset] != EventKind.EOS:
        raise TraceFormatError("footer does not start with the EOS marker")
    offset += 1
    num_kinds, offset = read_uvarint(data, offset)
    counts: Dict[int, int] = {}
    for _ in range(num_kinds):
        kind, offset = read_uvarint(data, offset)
        count, offset = read_uvarint(data, offset)
        counts[kind] = count
    total, offset = read_uvarint(data, offset)
    raw_cycle, offset = read_uvarint(data, offset)
    return counts, total, zigzag_decode(raw_cycle), offset
