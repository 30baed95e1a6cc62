"""A typed asyncio client for the gateway wire protocol.

:class:`GatewayClient` drives one device session over one TCP
connection: ``connect`` sends ``HELLO`` and returns the server's
``WELCOME`` metadata, :meth:`send_chunk` ships one tick of raw samples
and blocks for the verdicts it completed, :meth:`finish` flushes the
session tail.  Server-side failures come back as the **same typed
exception** the in-process API raises (``ERROR`` frames are rebuilt via
:func:`~repro.serving.gateway.protocol.exception_for`), so code written
against :class:`~repro.serving.fleet.FleetServer` ports over unchanged.

The client never sleeps and never resends: the server parks a chunk that
arrives mid-tick for the next flush rather than refusing it, so any reply
other than ``VERDICT`` or ``ERROR`` — a ``BUSY`` frame included — is a
:class:`~repro.exceptions.ProtocolError`.  A refused handshake closes the
connection, so the same client can ``connect`` again.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

import numpy as np

from ...exceptions import ConfigurationError, ProtocolError
from ..fleet import SessionVerdict
from .protocol import (
    BinaryFrameCodec,
    Frame,
    FrameType,
    chunk_frame,
    exception_for,
    finish_frame,
    hello_frame,
)

__all__ = ["GatewayClient"]

_READ_SIZE = 1 << 16


class GatewayClient:
    """One device session against a :class:`GatewayServer`.

    Parameters
    ----------
    host / port:
        The gateway's bind address.
    """

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = int(port)
        self._codec = BinaryFrameCodec()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._inbox: List[Frame] = []
        self.session_id: Optional[str] = None
        self.cohort: Optional[str] = None
        self.window_len: Optional[int] = None
        self.classes: List[str] = []
        # Always 0 (no retry on BUSY); the e2e benchmark reads it.
        self.busy_frames_seen = 0
        self._seq = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def connect(
        self,
        session_id: str,
        cohort: Optional[str] = None,
        stride: Optional[int] = None,
        dtype: Optional[str] = None,
    ) -> Dict:
        """Open the TCP connection and the device session; returns WELCOME meta.

        ``dtype="float32"`` asks the server to serve this session on the
        reduced-precision fast path (``"float64"``/``None`` is the
        canonical math; anything else is rejected with a fatal error).
        A refused handshake closes the connection before it raises.
        """
        if self._writer is not None:
            raise ConfigurationError("client is already connected")
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        try:
            await self._write(
                hello_frame(
                    session_id, cohort=cohort, stride=stride, dtype=dtype
                )
            )
            frame = await self._read_frame()
            if frame.type != FrameType.WELCOME:
                self._raise_for(frame)
        except BaseException:
            await self.aclose()
            raise
        self.session_id = frame.meta.get("session_id")
        self.cohort = frame.meta.get("cohort")
        self.window_len = frame.meta.get("window_len")
        self.classes = list(frame.meta.get("classes", []))
        return dict(frame.meta)

    async def aclose(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # the far side may already be gone; closing is closing
            self._writer = None
            self._reader = None
            self._inbox.clear()

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # the session verbs
    # ------------------------------------------------------------------ #

    async def send_chunk(self, chunk: np.ndarray) -> List[SessionVerdict]:
        """Ship one tick of raw samples; returns the verdicts it completed.

        ``ERROR`` frames re-raise as the typed repro exception; any other
        reply but ``VERDICT`` raises :class:`ProtocolError`.
        """
        self._require_session()
        self._seq += 1
        await self._write(chunk_frame(self._seq, chunk))
        reply = await self._read_frame()
        if reply.type == FrameType.VERDICT:
            return self._parse_verdicts(reply)
        self._raise_for(reply)

    async def finish(self) -> List[SessionVerdict]:
        """Flush the session's held-back tail; returns the final verdicts."""
        self._require_session()
        self._seq += 1
        await self._write(finish_frame(self._seq))
        reply = await self._read_frame()
        if reply.type == FrameType.VERDICT:
            return self._parse_verdicts(reply)
        self._raise_for(reply)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def _require_session(self) -> None:
        if self._writer is None or self.session_id is None:
            raise ConfigurationError(
                "no session established — call connect() first"
            )

    def _parse_verdicts(self, frame: Frame) -> List[SessionVerdict]:
        return [
            SessionVerdict(
                session_id=self.session_id,
                activity=row["activity"],
                display=row["display"],
                confidence=float(row["confidence"]),
                accepted=bool(row["accepted"]),
            )
            for row in frame.meta.get("verdicts", [])
        ]

    def _raise_for(self, frame: Frame) -> None:
        if frame.type == FrameType.ERROR:
            raise exception_for(
                frame.meta.get("code"), frame.meta.get("message")
            )
        raise ProtocolError(
            f"unexpected {frame.type.name} frame from the server"
        )

    async def _write(self, frame: Frame) -> None:
        self._writer.write(self._codec.encode(frame))
        await self._writer.drain()

    async def _read_frame(self) -> Frame:
        while not self._inbox:
            data = await self._reader.read(_READ_SIZE)
            if not data:
                raise ProtocolError(
                    "gateway closed the connection mid-exchange"
                )
            self._inbox.extend(self._codec.feed(data))
        return self._inbox.pop(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"GatewayClient({self._host}:{self._port}, "
            f"session={self.session_id!r})"
        )
