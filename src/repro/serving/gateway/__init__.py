"""Network gateway: framed chunk ingestion over asyncio TCP.

The serving stack's socket edge.  :mod:`~repro.serving.gateway.protocol`
defines the wire format (one length-prefixed binary framing),
:class:`GatewayServer` accepts per-session ``HELLO``/``CHUNK``/``FINISH``
frames and serves them through one
:class:`~repro.serving.FleetServer` with micro-batched ticks across
cohorts, :class:`GatewayClient` drives one device session, and :mod:`~repro.serving.gateway.loadgen` replays
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
