"""Wire-format primitives: varints, zigzag, framing, error paths."""

import io

import pytest

from repro.trace.format import (
    EVENT_SCHEMA,
    HEADER_SIZE,
    MAGIC,
    VERSION,
    EventKind,
    TraceFormatError,
    append_uvarint,
    decode_footer_body,
    decode_header,
    encode_footer,
    encode_header,
    read_uvarint,
    zigzag_decode,
    zigzag_encode,
)
from repro.trace.reader import TraceReader
from repro.trace.writer import TraceWriter


class TestVarints:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 300, 2**14, 2**21 - 1, 2**32, 2**63 - 1]
    )
    def test_uvarint_round_trip(self, value):
        buf = bytearray()
        append_uvarint(buf, value)
        decoded, offset = read_uvarint(buf, 0)
        assert decoded == value
        assert offset == len(buf)

    def test_uvarint_size_grows_by_seven_bits(self):
        for value, size in [(0, 1), (127, 1), (128, 2), (2**14 - 1, 2), (2**14, 3)]:
            buf = bytearray()
            append_uvarint(buf, value)
            assert len(buf) == size, value

    def test_uvarint_rejects_negative(self):
        with pytest.raises(ValueError):
            append_uvarint(bytearray(), -1)

    def test_truncated_uvarint_raises(self):
        buf = bytearray()
        append_uvarint(buf, 2**20)
        with pytest.raises(TraceFormatError, match="truncated varint"):
            read_uvarint(buf[:-1], 0)

    def test_unterminated_uvarint_raises(self):
        # All continuation bits set forever: overflow, not an infinite loop.
        with pytest.raises(TraceFormatError, match="overflow"):
            read_uvarint(bytes([0x80] * 16), 0)

    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 63, -64, 10**12, -(10**12)])
    def test_zigzag_round_trip(self, value):
        encoded = zigzag_encode(value)
        assert encoded >= 0
        assert zigzag_decode(encoded) == value

    def test_zigzag_small_magnitudes_stay_small(self):
        # The point of zigzag: literal -3 must not cost 10 bytes.
        assert zigzag_encode(-1) == 1
        assert zigzag_encode(1) == 2
        assert zigzag_encode(-64) == 127  # still one varint byte


class TestFraming:
    def test_header_round_trip(self):
        header = encode_header()
        assert len(header) == HEADER_SIZE
        assert header.startswith(MAGIC)
        assert decode_header(header) == HEADER_SIZE

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError, match="bad magic"):
            decode_header(b"NOPE" + bytes((VERSION,)))

    def test_wrong_version_rejected(self):
        with pytest.raises(TraceFormatError, match="version"):
            decode_header(MAGIC + bytes((VERSION + 1,)))

    def test_short_stream_rejected(self):
        with pytest.raises(TraceFormatError, match="shorter than the header"):
            decode_header(MAGIC[:2])

    def test_footer_round_trip(self):
        counts = {int(EventKind.DECIDE): 7, int(EventKind.PROPAGATE): 40}
        footer = encode_footer(counts, total=47, last_cycle=12345)
        decoded, total, last_cycle, _ = decode_footer_body(footer, 0)
        assert decoded == counts
        assert total == 47
        assert last_cycle == 12345

    def test_footer_drops_zero_counts(self):
        footer = encode_footer({1: 3, 2: 0}, total=3, last_cycle=0)
        decoded, _, _, _ = decode_footer_body(footer, 0)
        assert decoded == {1: 3}

    def test_schema_covers_every_kind_except_eos(self):
        for kind in EventKind:
            if kind is EventKind.EOS:
                assert kind not in EVENT_SCHEMA
            else:
                nfields, signed = EVENT_SCHEMA[kind]
                assert nfields in (0, 1, 2)
                assert isinstance(signed, bool)


class TestWriterErrors:
    def test_negative_unsigned_operand_rejected(self):
        # An unsigned-schema kind given a negative operand must raise,
        # not spin the LEB128 loop forever (Python's >> keeps negatives
        # negative).
        writer = TraceWriter()
        with pytest.raises(ValueError, match="BANK_READ"):
            writer.emit(EventKind.BANK_READ, 0, -1)
        with pytest.raises(ValueError, match="extra"):
            writer.emit(EventKind.BANK_READ, 0, 1, -2)

    def test_negative_literal_is_fine_for_signed_kinds(self):
        writer = TraceWriter()
        writer.emit(EventKind.DECIDE, 5, -17)
        writer.close()
        [record] = list(TraceReader(writer.getvalue()))
        assert record.value == -17

    def test_getvalue_only_for_memory_sinks(self, tmp_path):
        writer = TraceWriter(tmp_path / "x.trace")
        writer.close()
        with pytest.raises(ValueError, match="in-memory"):
            writer.getvalue()


class TestWriterDiscard:
    def test_discard_removes_the_temp_file_and_keeps_the_old_trace(self, tmp_path):
        path = tmp_path / "x.trace"
        with TraceWriter(path) as first:
            first.emit(EventKind.DECIDE, 1, 3)
        sealed = path.read_bytes()
        abandoned = TraceWriter(path)
        abandoned.emit(EventKind.DECIDE, 1, 4)
        assert len(list(tmp_path.iterdir())) == 2  # the trace and a temp file
        abandoned.discard()
        abandoned.discard()  # idempotent
        assert [entry.name for entry in tmp_path.iterdir()] == ["x.trace"]
        assert path.read_bytes() == sealed

    def test_discard_after_close_keeps_the_trace(self, tmp_path):
        path = tmp_path / "x.trace"
        writer = TraceWriter(path)
        writer.emit(EventKind.DECIDE, 1, 3)
        summary = writer.close()
        writer.discard()
        assert TraceReader(path.read_bytes()).validate().events == summary.events

    def test_discard_leaves_a_memory_sink_alone(self):
        memory = TraceWriter()
        memory.emit(EventKind.DECIDE, 1, 3)
        memory.discard()
        memory.close()
        assert TraceReader(memory.getvalue()).validate().events == 1

    def test_the_writer_owns_its_sink(self, tmp_path):
        with open(tmp_path / "handle.trace", "wb") as handle:
            with pytest.raises(TypeError, match=r"None \(in memory\) or a path"):
                TraceWriter(handle)
        with pytest.raises(TypeError, match="not bytes"):
            TraceWriter(b"x.trace")
        assert [entry.name for entry in tmp_path.iterdir()] == ["handle.trace"]


class TestReaderErrors:
    def _stream(self, events=3):
        writer = TraceWriter()
        for index in range(events):
            writer.emit(EventKind.PROPAGATE, index * 10, index - 1)
        writer.close()
        return writer.getvalue()

    def test_reader_rejects_foreign_bytes_at_construction(self):
        with pytest.raises(TraceFormatError):
            TraceReader(b"GIF89a not a trace")

    def test_reader_rejects_an_open_file_naming_what_it_accepts(self):
        with pytest.raises(TypeError, match=r"path .* or bytes, not BytesIO"):
            TraceReader(io.BytesIO(self._stream()))

    def test_reader_rejects_future_version_at_construction(self):
        data = bytearray(self._stream())
        data[len(MAGIC)] = VERSION + 1
        with pytest.raises(TraceFormatError, match="version"):
            TraceReader(bytes(data))

    def test_truncated_mid_record_raises(self):
        data = self._stream()
        with pytest.raises(TraceFormatError):
            list(TraceReader(data[: HEADER_SIZE + 1]))

    def test_missing_footer_raises(self):
        data = self._stream()
        # Slice off the whole footer: decode hits end-of-stream instead
        # of the EOS marker.
        with pytest.raises(TraceFormatError, match="footer|truncated"):
            list(TraceReader(data[: HEADER_SIZE + 2]))

    def test_truncated_footer_raises(self):
        data = self._stream()
        with pytest.raises(TraceFormatError):
            list(TraceReader(data[:-3]))

    def test_footer_count_mismatch_detected(self):
        # Corrupt one footer count; validate() must notice even though
        # plain iteration succeeds structurally.
        writer = TraceWriter()
        writer.emit(EventKind.RESTART, 1)
        writer.emit(EventKind.RESTART, 2)
        writer.close()
        data = bytearray(writer.getvalue())
        # Locate the footer via its self-locating length field, then
        # flip the RESTART count (and the declared total with it, so
        # only the decoded-vs-declared comparison can catch the lie).
        body_len = int.from_bytes(data[-8:-4], "little")
        index = len(data) - 8 - body_len
        assert data[index] == EventKind.EOS
        assert data[index + 3] == 2  # count for RESTART
        data[index + 3] = 3
        data[index + 4] = 3
        with pytest.raises(TraceFormatError, match="declares 3 events|disagree"):
            TraceReader(bytes(data)).validate()

    def test_validate_passes_on_intact_stream(self):
        summary = TraceReader(self._stream(50)).validate()
        assert summary.events == 50
        assert summary.counts == {"PROPAGATE": 50}
