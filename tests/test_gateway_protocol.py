"""Property/fuzz tests for the gateway wire codec.

The contract under test: the binary codec round-trips arbitrary frames
exactly (meta via JSON, payloads bit-exact), and **no byte sequence** —
truncated, oversized, garbage-header, bit-flipped — ever surfaces
anything but the typed :class:`~repro.exceptions.ProtocolError`; after
the error the decoder has resynchronized, so valid frames before and
after the corruption still decode.  A raw ``struct.error`` /
``UnicodeDecodeError`` / ``ValueError`` escaping the codec is a bug even
when the input is hostile.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataShapeError, MagnetoError, ProtocolError
from repro.serving.gateway import (
    MAGIC,
    PROTOCOL_VERSION,
    BinaryFrameCodec,
    Frame,
    FrameType,
    chunk_frame,
    error_code_for,
    exception_for,
    hello_frame,
)
from repro.serving.gateway.protocol import HEADER_SIZE, _HEADER


# ---------------------------------------------------------------------- #
# hypothesis strategies
# ---------------------------------------------------------------------- #

meta_values = st.one_of(
    st.text(max_size=20),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.none(),
)
metas = st.dictionaries(
    st.text(min_size=1, max_size=12), meta_values, max_size=6
)
payload_dtypes = st.sampled_from([np.float64, np.float32])
payload_shapes = st.tuples(
    st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=6)
)


@st.composite
def frames(draw):
    ftype = draw(st.sampled_from(list(FrameType)))
    meta = draw(metas)
    payload = None
    if draw(st.booleans()):
        shape = draw(payload_shapes)
        dtype = draw(payload_dtypes)
        payload = draw(
            st.just(
                np.arange(shape[0] * shape[1], dtype=dtype).reshape(shape)
                * draw(st.floats(-1e6, 1e6, allow_nan=False))
            )
        )
        # the encoder injects dtype/shape into meta; reserved keys
        meta.pop("dtype", None)
        meta.pop("shape", None)
        meta.pop("payload", None)
    return Frame(ftype, meta, payload)


class TestBinaryRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(frames(), min_size=1, max_size=4))
    def test_roundtrips_arbitrary_frame_sequences(self, originals):
        codec = BinaryFrameCodec()
        wire = b"".join(codec.encode(f) for f in originals)
        decoded = BinaryFrameCodec().feed(wire)
        assert len(decoded) == len(originals)
        for got, sent in zip(decoded, originals):
            assert got.type == sent.type
            for key, value in sent.meta.items():
                assert got.meta[key] == value
            if sent.payload is None:
                assert got.payload is None
            elif sent.payload.size == 0:
                # zero-length payloads ship no bytes; shape is in meta
                assert got.payload is None or got.payload.size == 0
            else:
                assert got.payload.dtype == sent.payload.dtype
                np.testing.assert_array_equal(got.payload, sent.payload)

    @settings(max_examples=30, deadline=None)
    @given(frames(), st.integers(min_value=1, max_value=7))
    def test_decoding_is_split_invariant(self, frame, step):
        wire = BinaryFrameCodec().encode(frame)
        decoder = BinaryFrameCodec()
        decoded = []
        for start in range(0, len(wire), step):
            decoded.extend(decoder.feed(wire[start : start + step]))
        assert len(decoded) == 1
        assert decoded[0].type == frame.type

    def test_decoded_payload_owns_writable_memory(self):
        frame = chunk_frame(1, np.ones((4, 3)))
        wire = BinaryFrameCodec().encode(frame)
        got = BinaryFrameCodec().feed(wire)[0]
        assert got.payload.flags.writeable
        got.payload[0, 0] = 99.0  # must not raise

    def test_f4_payload_dtype_survives_the_wire(self):
        frame = chunk_frame(1, np.ones((2, 2), dtype=np.float32))
        got = BinaryFrameCodec().feed(BinaryFrameCodec().encode(frame))[0]
        assert got.payload.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_chunk_decodes_as_an_empty_array(self, dtype):
        frame = chunk_frame(1, np.ones((0, 22), dtype=dtype))
        wire = BinaryFrameCodec().encode(frame)
        got = BinaryFrameCodec().feed(wire)[0]
        assert got.payload is not None
        assert got.payload.shape == (0, 22)
        assert got.payload.dtype == dtype


class TestBinaryHostileBytes:
    def test_truncated_frame_never_decodes_and_close_raises(self):
        wire = BinaryFrameCodec().encode(chunk_frame(1, np.ones((4, 3))))
        decoder = BinaryFrameCodec()
        assert decoder.feed(wire[:-1]) == []
        with pytest.raises(ProtocolError):
            decoder.close()

    def test_garbage_prefix_raises_typed_error_then_resyncs(self):
        good = BinaryFrameCodec().encode(hello_frame("dev"))
        decoder = BinaryFrameCodec()
        with pytest.raises(ProtocolError):
            decoder.feed(b"\x00garbage\x00" + good)
        recovered = decoder.feed(b"")
        assert [f.type for f in recovered] == [FrameType.HELLO]

    def test_json_lines_bytes_raise_typed_error_then_resync(self):
        """A JSON-lines frame is not a wire format: it is skipped garbage."""
        line = b'{"type":"HELLO","meta":{"session_id":"dev"}}\n'
        good = BinaryFrameCodec().encode(hello_frame("after"))
        decoder = BinaryFrameCodec()
        with pytest.raises(ProtocolError, match="magic"):
            decoder.feed(line + good)
        assert [f.meta["session_id"] for f in decoder.feed(b"")] == ["after"]
        assert decoder.pending_bytes == 0
        decoder.close()

    def test_truncated_header_waits_then_close_raises(self):
        wire = BinaryFrameCodec().encode(hello_frame("dev"))
        decoder = BinaryFrameCodec()
        assert decoder.feed(wire[: HEADER_SIZE - 1]) == []
        assert decoder.pending_bytes == HEADER_SIZE - 1
        with pytest.raises(ProtocolError, match="truncated"):
            decoder.close()

    def test_frames_before_corruption_survive(self):
        codec = BinaryFrameCodec()
        wire = codec.encode(hello_frame("a")) + b"junkjunk" + codec.encode(
            hello_frame("b")
        )
        decoder = BinaryFrameCodec()
        with pytest.raises(ProtocolError):
            decoder.feed(wire)
        frames_ = decoder.feed(b"")
        assert [f.meta["session_id"] for f in frames_] == ["a", "b"]

    def test_oversized_payload_header_rejected_before_allocation(self):
        header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, 3, 0, 2, 1 << 31)
        decoder = BinaryFrameCodec()
        with pytest.raises(ProtocolError, match="payload length"):
            decoder.feed(header + b"{}")

    def test_oversized_meta_header_rejected(self):
        header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, 1, 0, 1 << 21, 0)
        with pytest.raises(ProtocolError, match="meta length"):
            BinaryFrameCodec().feed(header)

    def test_encode_refuses_payload_beyond_ceiling(self):
        codec = BinaryFrameCodec(max_payload=64)
        with pytest.raises(ProtocolError, match="ceiling"):
            codec.encode(chunk_frame(1, np.ones((10, 10))))

    def test_wrong_version_raises_typed_error(self):
        wire = bytearray(BinaryFrameCodec().encode(hello_frame("dev")))
        wire[2] = 99  # the version byte
        with pytest.raises(ProtocolError, match="version"):
            BinaryFrameCodec().feed(bytes(wire))

    def test_unknown_frame_type_consumes_the_frame(self):
        meta = b"{}"
        header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, 200, 0, len(meta), 0)
        good = BinaryFrameCodec().encode(hello_frame("after"))
        decoder = BinaryFrameCodec()
        with pytest.raises(ProtocolError, match="frame type"):
            decoder.feed(header + meta + good)
        assert [f.meta["session_id"] for f in decoder.feed(b"")] == ["after"]

    def test_non_utf8_meta_raises_typed_error_in_sync(self):
        meta = b"\xff\xfe\xfd\xfc"
        header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, 1, 0, len(meta), 0)
        good = BinaryFrameCodec().encode(hello_frame("after"))
        decoder = BinaryFrameCodec()
        with pytest.raises(ProtocolError, match="JSON"):
            decoder.feed(header + meta + good)
        assert [f.meta["session_id"] for f in decoder.feed(b"")] == ["after"]

    def test_meta_must_be_a_json_object(self):
        meta = b"[1,2]"
        header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, 1, 0, len(meta), 0)
        with pytest.raises(ProtocolError, match="object"):
            BinaryFrameCodec().feed(header + meta)

    @pytest.mark.parametrize(
        "meta",
        [
            {"dtype": "<i8", "shape": [2, 2]},  # dtype not allowed
            {"dtype": "<f8", "shape": "nope"},  # shape not a list
            {"dtype": "<f8", "shape": [2, -1]},  # negative dim
            {"dtype": "<f8", "shape": [3, 3]},  # byte-count mismatch
            {"dtype": "<f8"},  # shape missing
        ],
    )
    def test_bad_payload_meta_raises_typed_error(self, meta):
        raw = np.ones(4, dtype="<f8").tobytes()
        meta_bytes = json.dumps(meta).encode()
        header = _HEADER.pack(
            MAGIC, PROTOCOL_VERSION, 3, 0, len(meta_bytes), len(raw)
        )
        with pytest.raises(ProtocolError):
            BinaryFrameCodec().feed(header + meta_bytes + raw)

    def test_hostile_shape_cannot_overflow_byte_count(self):
        # (2**62, 2**62) at 8 bytes/item overflows int64 multiplication;
        # the decoder must still reject it with the typed error.
        meta = json.dumps({"dtype": "<f8", "shape": [2**62, 2**62]}).encode()
        raw = b"\x00" * 8
        header = _HEADER.pack(
            MAGIC, PROTOCOL_VERSION, 3, 0, len(meta), len(raw)
        )
        with pytest.raises(ProtocolError):
            BinaryFrameCodec().feed(header + meta + raw)

    def test_fuzz_mutated_streams_only_raise_protocol_error(self):
        """Seeded fuzz: bit-flips and splices never desync or leak errors."""
        rng = np.random.default_rng(2024)
        codec = BinaryFrameCodec()
        clean = b"".join(
            codec.encode(chunk_frame(i, np.ones((3, 2)) * i)) for i in range(4)
        )
        for trial in range(200):
            wire = bytearray(clean)
            for _ in range(rng.integers(1, 6)):
                wire[rng.integers(0, len(wire))] = rng.integers(0, 256)
            decoder = BinaryFrameCodec()
            # feed in random-sized pieces; only ProtocolError may escape
            offset, decoded = 0, 0
            while offset < len(wire):
                size = int(rng.integers(1, 64))
                piece = bytes(wire[offset : offset + size])
                offset += size
                try:
                    decoded += len(decoder.feed(piece))
                except ProtocolError:
                    pass
            # drain whatever survived the mutations
            while True:
                try:
                    decoded += len(decoder.feed(b""))
                    break
                except ProtocolError:
                    continue
            assert decoded <= 4


class TestFrameConstructors:
    def test_chunk_frame_requires_2d(self):
        with pytest.raises(DataShapeError):
            chunk_frame(1, np.ones(7))

    def test_error_code_taxonomy_roundtrips(self):
        from repro import exceptions as exc

        for cls in [
            exc.ProtocolError,
            exc.UnknownCohortError,
            exc.DataShapeError,
            exc.NotFittedError,
            exc.UnknownActivityError,
            exc.SerializationError,
            exc.ResourceExceededError,
            exc.PrivacyViolationError,
            exc.TrainingStateError,
            exc.ConfigurationError,
            exc.MagnetoError,
        ]:
            code = error_code_for(cls("boom"))
            rebuilt = exception_for(code, "boom")
            assert isinstance(rebuilt, cls)
            assert isinstance(rebuilt, MagnetoError)

    def test_unknown_code_falls_back_to_base_error(self):
        assert type(exception_for("NO_SUCH_CODE", "x")) is MagnetoError

    def test_foreign_exception_maps_to_internal(self):
        assert error_code_for(ValueError("nope")) == "INTERNAL"

    def test_header_layout_is_frozen(self):
        """The wire header is a public contract: 14 bytes, little-endian."""
        assert HEADER_SIZE == 14
        assert _HEADER.pack(MAGIC, 1, 2, 3, 4, 5) == (
            b"RG" + struct.pack("<BBHII", 1, 2, 3, 4, 5)
        )
