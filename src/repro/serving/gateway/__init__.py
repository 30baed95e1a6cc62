"""Network gateway: framed chunk ingestion over asyncio TCP.

The serving stack's socket edge.  :mod:`~repro.serving.gateway.protocol`
defines the wire format (one length-prefixed binary framing),
:class:`GatewayServer` accepts per-session ``HELLO``/``CHUNK``/``FINISH``
frames and serves them through
:class:`~repro.serving.AsyncFleetServer` with per-cohort micro-batched
ticks, :class:`GatewayClient` drives one device session with transparent
``BUSY`` retry, and :mod:`~repro.serving.gateway.loadgen` replays
simulated fleets to measure tick-latency percentiles and the saturation
point (the ``repro gateway-bench`` CLI).
"""

from .client import GatewayClient
from .loadgen import LoadReport, find_saturation, percentiles, run_load
from .protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    BinaryFrameCodec,
    Frame,
    FrameType,
    busy_frame,
    chunk_frame,
    error_code_for,
    error_frame,
    exception_for,
    finish_frame,
    hello_frame,
    verdict_frame,
    welcome_frame,
)
from .server import GatewayServer

__all__ = [
    "BinaryFrameCodec",
    "Frame",
    "FrameType",
    "GatewayClient",
    "GatewayServer",
    "LoadReport",
    "MAGIC",
    "PROTOCOL_VERSION",
    "busy_frame",
    "chunk_frame",
    "error_code_for",
    "error_frame",
    "exception_for",
    "find_saturation",
    "finish_frame",
    "hello_frame",
    "percentiles",
    "run_load",
    "verdict_frame",
    "welcome_frame",
]
