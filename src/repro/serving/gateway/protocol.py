"""The gateway wire protocol: framed chunk messages over a byte stream.

One frame = one protocol event, in one binary format: a fixed
little-endian struct header, a small UTF-8 JSON *meta* document, and an
optional raw little-endian numpy payload::

    offset  size  field
    0       2     magic  b"RG"
    2       1     protocol version (1)
    3       1     frame type (FrameType)
    4       2     flags (reserved, 0)
    6       4     meta length   (uint32, UTF-8 JSON bytes)
    10      4     payload length (uint32, raw array bytes)
    14      ...   meta bytes, then payload bytes

Only ``CHUNK`` frames normally carry a payload; its dtype (``"<f8"`` or
``"<f4"``) and shape travel in the meta document, so the receiver
reconstructs the array with one ``np.frombuffer``.

The codec is *incremental*: ``feed(data)`` buffers partial frames
(slow-loris clients simply take longer) and returns every completed
frame.  Garbage raises :class:`~repro.exceptions.ProtocolError` — never a
raw ``struct``/``unicode``/``json`` error — **after** resynchronizing the
buffer (scan to the next magic), so frames behind the corruption
are recovered by the next ``feed`` call.  ``close()`` raises if a partial
frame is still buffered (a truncated stream).

Error frames carry a structured ``code`` drawn from the
:mod:`repro.exceptions` taxonomy; :func:`error_code_for` maps an exception
to its code and :func:`exception_for` maps a received code back to the
typed exception, so a remote failure re-raises client-side as the same
class it had server-side.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from ...exceptions import (
    ConfigurationError,
    DataShapeError,
    MagnetoError,
    NotFittedError,
    PrivacyViolationError,
    ProtocolError,
    ResourceExceededError,
    SerializationError,
    TrainingStateError,
    UnknownActivityError,
    UnknownCohortError,
)

__all__ = [
    "BinaryFrameCodec",
    "Frame",
    "FrameType",
    "MAGIC",
    "PROTOCOL_VERSION",
    "chunk_frame",
    "error_code_for",
    "error_frame",
    "exception_for",
    "finish_frame",
    "hello_frame",
    "verdict_frame",
    "welcome_frame",
]

MAGIC = b"RG"
PROTOCOL_VERSION = 1
_HEADER = struct.Struct("<2sBBHII")
HEADER_SIZE = _HEADER.size

#: Ceilings a decoder enforces before allocating anything: a hostile
#: header cannot make the server reserve gigabytes.
MAX_META_BYTES = 1 << 20
DEFAULT_MAX_PAYLOAD_BYTES = 1 << 26  # 64 MiB ≈ 350k samples x 22 ch f8

#: Wire dtypes a CHUNK payload may use (little-endian only, by design).
ALLOWED_DTYPES = ("<f8", "<f4")


class FrameType(enum.IntEnum):
    """Every frame the protocol speaks, client->server and back."""

    HELLO = 1  # c->s: open a session (session_id, cohort, stride, dtype)
    WELCOME = 2  # s->c: session accepted (cohort, window_len, classes)
    CHUNK = 3  # c->s: one tick of raw samples (payload = (n, ch) array)
    VERDICT = 4  # s->c: the windows a chunk/finish completed
    FINISH = 5  # c->s: flush the session's held-back tail
    BUSY = 6  # reserved: no peer sends it; a client treats it as unexpected
    ERROR = 7  # s->c: typed failure (code from the exception taxonomy)


@dataclass
class Frame:
    """One decoded protocol event: a type, a meta dict, an optional array."""

    type: FrameType
    meta: Dict = field(default_factory=dict)
    payload: Optional[np.ndarray] = None

    @property
    def seq(self) -> Optional[int]:
        """The client tick sequence number this frame refers to, if any."""
        value = self.meta.get("seq")
        return None if value is None else int(value)


# ---------------------------------------------------------------------- #
# typed frame constructors
# ---------------------------------------------------------------------- #


def hello_frame(
    session_id: str,
    cohort: Optional[str] = None,
    stride: Optional[int] = None,
    dtype: Optional[str] = None,
) -> Frame:
    meta: Dict = {"session_id": str(session_id)}
    if cohort is not None:
        meta["cohort"] = str(cohort)
    if stride is not None:
        meta["stride"] = int(stride)
    if dtype is not None:
        # Session compute dtype ("float64"/"float32"); the server rejects
        # anything else with a fatal PROTOCOL error.
        meta["dtype"] = str(dtype)
    return Frame(FrameType.HELLO, meta)


def welcome_frame(
    session_id: str, cohort: str, window_len: int, classes
) -> Frame:
    return Frame(
        FrameType.WELCOME,
        {
            "session_id": str(session_id),
            "cohort": str(cohort),
            "window_len": int(window_len),
            "classes": list(classes),
        },
    )


def chunk_frame(seq: int, chunk: np.ndarray) -> Frame:
    """One tick of raw samples; dtype is preserved for f4/f8, else f8."""
    arr = np.asarray(chunk)
    if arr.ndim != 2:
        raise DataShapeError(
            f"a CHUNK payload must be (n_samples, n_channels), "
            f"got shape {arr.shape}"
        )
    wire = "<f4" if arr.dtype == np.float32 else "<f8"
    return Frame(
        FrameType.CHUNK,
        {"seq": int(seq)},
        np.ascontiguousarray(arr, dtype=np.dtype(wire)),
    )


def verdict_frame(seq: Optional[int], verdicts, final: bool = False) -> Frame:
    """Serialize served verdicts; floats survive JSON round-trips exactly."""
    return Frame(
        FrameType.VERDICT,
        {
            "seq": seq,
            "final": bool(final),
            "verdicts": [
                {
                    "activity": v.activity,
                    "display": v.display,
                    "confidence": float(v.confidence),
                    "accepted": bool(v.accepted),
                }
                for v in verdicts
            ],
        },
    )


def finish_frame(seq: int) -> Frame:
    return Frame(FrameType.FINISH, {"seq": int(seq)})


def error_frame(
    code: str,
    message: str,
    seq: Optional[int] = None,
    fatal: bool = False,
) -> Frame:
    return Frame(
        FrameType.ERROR,
        {"code": code, "message": message, "seq": seq, "fatal": bool(fatal)},
    )


# ---------------------------------------------------------------------- #
# the error-code taxonomy (mirrors repro.exceptions)
# ---------------------------------------------------------------------- #

#: Most-derived first: ``error_code_for`` walks this in order.
_CODE_BY_CLASS: Tuple[Tuple[Type[MagnetoError], str], ...] = (
    (ProtocolError, "PROTOCOL"),
    (UnknownCohortError, "UNKNOWN_COHORT"),
    (DataShapeError, "DATA_SHAPE"),
    (NotFittedError, "NOT_FITTED"),
    (UnknownActivityError, "UNKNOWN_ACTIVITY"),
    (SerializationError, "SERIALIZATION"),
    (ResourceExceededError, "RESOURCE_EXCEEDED"),
    (PrivacyViolationError, "PRIVACY"),
    (TrainingStateError, "TRAINING_STATE"),
    (ConfigurationError, "CONFIGURATION"),
    (MagnetoError, "INTERNAL"),
)

_CLASS_BY_CODE: Dict[str, Type[MagnetoError]] = {
    code: cls for cls, code in _CODE_BY_CLASS
}


def error_code_for(exc: BaseException) -> str:
    """The structured wire code for an exception (``INTERNAL`` fallback)."""
    for cls, code in _CODE_BY_CLASS:
        if isinstance(exc, cls):
            return code
    return "INTERNAL"


def exception_for(code: str, message: str) -> MagnetoError:
    """Rebuild the typed exception a remote ``ERROR`` frame describes."""
    return _CLASS_BY_CODE.get(code, MagnetoError)(message)


# ---------------------------------------------------------------------- #
# binary codec
# ---------------------------------------------------------------------- #


class BinaryFrameCodec:
    """Incremental encoder/decoder for the length-prefixed binary format.

    One codec instance per connection per direction (it holds the receive
    buffer).  ``feed`` never raises anything but
    :class:`~repro.exceptions.ProtocolError`, and always advances past the
    offending bytes before raising, so the caller can keep feeding (or
    call ``feed(b"")`` to drain frames decoded before/after the
    corruption).
    """

    def __init__(self, max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES) -> None:
        self.max_payload = int(max_payload)
        self._buffer = bytearray()
        self._ready: List[Frame] = []

    # -- encoding ------------------------------------------------------ #

    def encode(self, frame: Frame) -> bytes:
        meta = dict(frame.meta)
        payload = b""
        if frame.payload is not None:
            arr = np.asarray(frame.payload)
            wire = "<f4" if arr.dtype == np.float32 else "<f8"
            arr = np.ascontiguousarray(arr, dtype=np.dtype(wire))
            meta["dtype"] = wire
            meta["shape"] = list(arr.shape)
            payload = arr.tobytes()
        meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        if len(payload) > self.max_payload:
            raise ProtocolError(
                f"payload of {len(payload)} bytes exceeds the codec's "
                f"{self.max_payload}-byte ceiling"
            )
        header = _HEADER.pack(
            MAGIC,
            PROTOCOL_VERSION,
            int(frame.type),
            0,
            len(meta_bytes),
            len(payload),
        )
        return header + meta_bytes + payload

    # -- decoding ------------------------------------------------------ #

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)

    def _resync(self, reason: str) -> None:
        """Drop bytes up to the next plausible frame start, then raise."""
        nxt = self._buffer.find(MAGIC, 1)
        if nxt < 0:
            # keep the final byte: it may be the first half of a magic
            del self._buffer[: max(1, len(self._buffer) - 1)]
        else:
            del self._buffer[:nxt]
        raise ProtocolError(reason)

    def _decode_one(self) -> Optional[Frame]:
        buf = self._buffer
        if len(buf) < HEADER_SIZE:
            return None
        magic, version, ftype, _flags, meta_len, payload_len = (
            _HEADER.unpack_from(buf)
        )
        if magic != MAGIC:
            self._resync(f"bad magic {bytes(magic)!r} (expected {MAGIC!r})")
        if version != PROTOCOL_VERSION:
            self._resync(
                f"unsupported protocol version {version} "
                f"(speaking {PROTOCOL_VERSION})"
            )
        if meta_len > MAX_META_BYTES:
            self._resync(
                f"meta length {meta_len} exceeds the {MAX_META_BYTES}-byte "
                f"ceiling — oversized or corrupt header"
            )
        if payload_len > self.max_payload:
            self._resync(
                f"payload length {payload_len} exceeds the "
                f"{self.max_payload}-byte ceiling — oversized or corrupt "
                f"header"
            )
        total = HEADER_SIZE + meta_len + payload_len
        if len(buf) < total:
            return None  # partial frame: wait for more bytes
        meta_bytes = bytes(buf[HEADER_SIZE : HEADER_SIZE + meta_len])
        payload_bytes = bytes(buf[HEADER_SIZE + meta_len : total])
        del buf[:total]  # the frame is consumed even if its body is bad
        try:
            meta = json.loads(meta_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"frame meta is not UTF-8 JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise ProtocolError(
                f"frame meta must be a JSON object, got {type(meta).__name__}"
            )
        try:
            frame_type = FrameType(ftype)
        except ValueError:
            raise ProtocolError(f"unknown frame type {ftype}") from None
        payload = None
        if payload_len or ("dtype" in meta and "shape" in meta):
            # zero-size arrays ship no payload bytes but keep their
            # dtype/shape in meta, so an empty chunk round-trips as an
            # empty array rather than decaying to "no payload"
            payload = self._decode_payload(meta, payload_bytes)
        return Frame(frame_type, meta, payload)

    def _decode_payload(self, meta: Dict, raw: bytes) -> np.ndarray:
        dtype = meta.get("dtype")
        shape = meta.get("shape")
        if dtype not in ALLOWED_DTYPES:
            raise ProtocolError(
                f"payload dtype {dtype!r} not in {ALLOWED_DTYPES}"
            )
        if (
            not isinstance(shape, list)
            or not shape
            or not all(isinstance(d, int) and d >= 0 for d in shape)
        ):
            raise ProtocolError(f"payload shape {shape!r} is not valid")
        expected = math.prod(shape) * np.dtype(dtype).itemsize
        if expected != len(raw):
            raise ProtocolError(
                f"payload of {len(raw)} bytes does not match shape {shape} "
                f"x dtype {dtype} (= {expected} bytes)"
            )
        return (
            np.frombuffer(raw, dtype=np.dtype(dtype))
            .reshape(shape)
            .copy()  # own, writable memory — never a view of the buffer
        )

    def feed(self, data: bytes) -> List[Frame]:
        """Buffer ``data`` and return every frame completed so far.

        Raises :class:`~repro.exceptions.ProtocolError` on garbage, after
        resynchronizing; frames decoded before the corruption (and bytes
        after it) are preserved — drain them with another ``feed`` call.
        """
        self._buffer.extend(data)
        while True:
            frame = self._decode_one()  # raises ProtocolError on garbage
            if frame is None:
                break
            self._ready.append(frame)
        ready, self._ready = self._ready, []
        return ready

    def close(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._buffer:
            raise ProtocolError(
                f"stream truncated mid-frame ({len(self._buffer)} bytes "
                f"of an incomplete frame buffered)"
            )
