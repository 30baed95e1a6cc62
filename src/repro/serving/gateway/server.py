"""The asyncio TCP ingestion edge: framed chunks in, verdicts out.

:class:`GatewayServer` is the network front of the serving stack.  Each
TCP connection speaks the :mod:`~repro.serving.gateway.protocol` binary
framing, carries **one device session** (``HELLO`` → ``CHUNK``* →
``FINISH``), and every chunk is served through the in-process
:class:`~repro.serving.FleetServer` — the gateway owns no inference
code of its own, so gateway verdicts are pinned identical (1e-9) to
in-process serving by construction.

Three design points carry the production semantics:

- **Micro-batched ticks.**  A chunk does not become its own engine call.
  Arriving chunks park in a pending set; a flusher task re-evaluates it
  on every arrival and every disconnect, and drains it the instant no
  session is left to wait for — otherwise at a deadline (a loop timer,
  not a sleep) never later than ``batch_window_s`` after the flusher
  first saw the batch.  A live session without a parked chunk is
  *awaited* only while it is about to send: its reply is still to come
  (its chunk is in flight) or was written less than ``slack`` ago,
  **and** its previous turnaround (reply written → next ``CHUNK``
  parked) was itself within ``slack``, where ``slack = batch_window_s +``
  the tick-time EWMA (a round's replies are spread by about one tick).
  Closed-loop devices that answer within a tick are therefore batched
  with no added latency, a paced device whose neighbours were answered
  long ago is served on arrival, and a straggler costs the others at
  most one window, once.
  (The rule this replaced — wake on the first chunk, then sleep the whole
  window unless *every* live session had parked — slept in 91% of
  lockstep flushes and 100% of paced ones.)  Each flush is **one** fleet
  tick (:meth:`~repro.serving.FleetServer.stream_tick`) across every
  cohort — one per stride, when clients asked for different strides — so
  a 50-device flush costs the same batched engine passes as in-process
  serving, not 50 singleton calls: one featurize pass per preprocessing
  configuration and dtype, one model call per ``(engine, dtype)`` group.
- **One tick at a time.**  Ticks run inline on the event loop, so at
  most one is ever in flight.  Chunks that arrive mid-tick wait in the
  socket buffers and park for the next flush; no chunk is refused.
  (``BUSY`` stays a reserved frame type on the wire; no peer sends it.)
- **Failure isolation per connection.**  A client vanishing mid-CHUNK,
  after a CHUNK or mid-handshake releases exactly its own session; other
  sessions' verdicts are untouched.  Every chunk is checked on its own
  when it arrives, before it is parked
  (:meth:`~repro.serving.FleetServer.check_chunk`): a non-finite, 1-D or
  wrong-width chunk gets its own non-fatal ``ERROR`` frame and never
  enters a flush, so the sessions it would have shared a tick with keep
  their chunks and verdicts.  A cohort whose model (or featurize pass)
  raises mid-tick costs only the clients of the groups it served their
  verdicts: each gets its group's typed ``ERROR`` frame, and every other
  client of the flush gets its ``VERDICT``.
  Frame-level garbage gets a typed ``ERROR`` frame (code ``PROTOCOL``)
  and the decoder resynchronizes — corruption on one connection never
  poisons another.

Quickstart::

    import asyncio
    from repro.serving.gateway import GatewayServer

    async def serve(registry):
        async with GatewayServer(registry, port=0) as gateway:
            print("listening on", gateway.port)
            await gateway.serve_forever()

    asyncio.run(serve(registry))
"""

from __future__ import annotations

import asyncio
import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ...exceptions import ConfigurationError, MagnetoError, ProtocolError
from ...utils import Timer
from ..fleet import FleetServer
from .protocol import (
    BinaryFrameCodec,
    Frame,
    FrameType,
    error_code_for,
    error_frame,
    verdict_frame,
    welcome_frame,
)

__all__ = ["GatewayServer"]

_READ_SIZE = 1 << 16


class _PendingChunk:
    """One parked CHUNK awaiting the next micro-batch flush."""

    __slots__ = ("session_id", "stride", "chunk", "waiter")

    def __init__(self, session_id, stride, chunk, waiter) -> None:
        self.session_id = session_id
        self.stride = stride
        self.chunk = chunk
        self.waiter = waiter


class _Connection:
    """Per-connection protocol state (the connection's decoder, its session).

    ``replied_at`` (loop time the last WELCOME or CHUNK/FINISH reply was
    written; ``inf`` while a chunk's reply is still to come) and
    ``turnaround`` (that reply -> the next CHUNK parked) are what the
    flusher reads to decide whether the session is about to send.
    """

    __slots__ = (
        "codec", "session_id", "stride", "replied_at", "turnaround",
    )

    def __init__(self, codec: BinaryFrameCodec) -> None:
        self.codec = codec
        self.session_id: Optional[str] = None
        self.stride: Optional[int] = None
        self.replied_at = 0.0
        self.turnaround = 0.0


class GatewayServer:
    """Accept framed device sessions over TCP and serve them via the fleet.

    Parameters
    ----------
    registry:
        What to serve: a :class:`~repro.serving.ModelRegistry`, or an
        engine served as its default cohort.  The gateway builds and
        owns one :class:`~repro.serving.FleetServer` over it.
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port; read it back
        from :attr:`port` after :meth:`start`.
    batch_window_s:
        The longest a parked chunk waits for other sessions' chunks to
        share its tick (``0`` = never wait).  The wait ends the moment no
        live session is still expected to send — one is expected only
        while its reply is in flight or younger than ``batch_window_s`` +
        the tick-time EWMA, and its previous turnaround was that quick
        too — so silent, slow or disconnected sessions hold nobody up.
    max_payload:
        Per-frame payload ceiling handed to each connection's decoder.
    """

    def __init__(
        self,
        registry: object,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window_s: float = 0.002,
        max_payload: int = 1 << 26,
    ) -> None:
        if batch_window_s < 0:
            raise ConfigurationError(
                f"batch_window_s must be >= 0, got {batch_window_s}"
            )
        self._fleet = FleetServer(registry)
        self._host = host
        self._requested_port = int(port)
        self.batch_window_s = float(batch_window_s)
        self.max_payload = int(max_payload)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._pending: Dict[str, _PendingChunk] = {}
        self._live_sessions: Dict[str, _Connection] = {}
        self._wake: Optional[asyncio.Event] = None
        self._flusher: Optional[asyncio.Task] = None
        self._closed = False
        self._tick_ewma_ms = 0.0
        # counters (surfaced by summary())
        self.connections_total = 0
        self.protocol_errors = 0
        self.frames_received = 0
        self.flushes = 0
        self.flush_waits = 0  # flushes that waited at all
        self.flush_deadline_expiries = 0  # ... and were fired by the deadline
        self.flush_wait_ms_total = 0.0  # flusher's first look -> flush

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def fleet(self) -> FleetServer:
        return self._fleet

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self._host

    async def start(self) -> "GatewayServer":
        if self._server is not None:
            raise ConfigurationError("GatewayServer is already started")
        self._wake = asyncio.Event()
        self._flusher = asyncio.create_task(self._flush_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
        )
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ConfigurationError("call start() before serve_forever()")
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, drop connections, stop the flusher."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        pending = list(self._conn_tasks) + (
            [self._flusher] if self._flusher else []
        )
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    async def __aenter__(self) -> "GatewayServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    def summary(self) -> Dict[str, float]:
        """Gateway-level counters plus the underlying fleet's rollup."""
        rollup = dict(self._fleet.summary())
        rollup.update(
            connections_total=float(self.connections_total),
            busy_refusals=0.0,  # always 0; the e2e benchmark reads the key
            protocol_errors=float(self.protocol_errors),
            frames_received=float(self.frames_received),
            live_sessions=float(len(self._live_sessions)),
            flushes=float(self.flushes),
            flush_waits=float(self.flush_waits),
            flush_deadline_expiries=float(self.flush_deadline_expiries),
            flush_wait_ms_total=self.flush_wait_ms_total,
        )
        return rollup

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.connections_total += 1
        state = _Connection(BinaryFrameCodec(max_payload=self.max_payload))
        try:
            await self._connection_loop(reader, writer, state)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client vanished; the finally block releases the session
        except asyncio.CancelledError:
            pass  # gateway shutdown; cleanup still runs, task ends quietly
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            if state.session_id is not None:
                self._release_session(state.session_id)

    async def _connection_loop(self, reader, writer, state) -> None:
        while True:
            data = await reader.read(_READ_SIZE)
            if not data:
                return
            frames, faults = self._feed(state.codec, data)
            for fault in faults:
                self.protocol_errors += 1
                await self._send(
                    writer, state, error_frame("PROTOCOL", str(fault))
                )
            for frame in frames:
                self.frames_received += 1
                keep_going = await self._dispatch(frame, state, writer)
                if not keep_going:
                    return

    @staticmethod
    def _feed(codec, data: bytes) -> "Tuple[List[Frame], List[ProtocolError]]":
        """Drain the codec fully, collecting frames and protocol faults."""
        frames: List[Frame] = []
        faults: List[ProtocolError] = []
        while True:
            try:
                frames.extend(codec.feed(data))
                return frames, faults
            except ProtocolError as fault:
                faults.append(fault)
                data = b""  # the codec resynced; drain what remains

    async def _send(self, writer, state, frame: Frame) -> None:
        writer.write(state.codec.encode(frame))
        await writer.drain()

    async def _reply(self, writer, state, frame: Frame) -> None:
        """Send a frame the device's next CHUNK follows: WELCOME, whatever
        answers a CHUNK (VERDICT, ERROR), the final VERDICT."""
        state.replied_at = asyncio.get_running_loop().time()
        await self._send(writer, state, frame)

    async def _dispatch(self, frame: Frame, state, writer) -> bool:
        """Handle one frame; returns False when the connection must close."""
        if frame.type == FrameType.HELLO:
            return await self._on_hello(frame, state, writer)
        if frame.type == FrameType.CHUNK:
            return await self._on_chunk(frame, state, writer)
        if frame.type == FrameType.FINISH:
            return await self._on_finish(frame, state, writer)
        await self._send(
            writer,
            state,
            error_frame(
                "PROTOCOL",
                f"unexpected {frame.type.name} frame from a client",
                seq=frame.seq,
            ),
        )
        return True

    async def _on_hello(self, frame: Frame, state, writer) -> bool:
        if state.session_id is not None:
            await self._send(
                writer,
                state,
                error_frame(
                    "PROTOCOL",
                    "session already established on this connection",
                ),
            )
            return True
        session_id = frame.meta.get("session_id")
        cohort = frame.meta.get("cohort")
        stride = frame.meta.get("stride")
        dtype = frame.meta.get("dtype")
        if not session_id:
            problem = "HELLO frame is missing session_id"
        elif dtype is not None and dtype not in ("float64", "float32"):
            problem = (
                f"HELLO dtype must be 'float64' or 'float32', got {dtype!r}"
            )
        elif stride is not None and (type(stride) is not int or stride < 1):
            # exact type: a JSON ``true`` is an int to isinstance
            problem = f"HELLO stride must be an integer >= 1, got {stride!r}"
        else:
            problem = None
        if problem is not None:
            await self._send(
                writer, state, error_frame("PROTOCOL", problem, fatal=True)
            )
            return False
        try:
            # resolve (lazily load) the model first: a cohort whose package
            # fails to load must not leave a connected session behind
            engine = self._fleet.registry.engine_for(cohort)
            session = self._fleet.connect(
                session_id, cohort=cohort, dtype=dtype
            )
        except MagnetoError as exc:
            await self._send(
                writer,
                state,
                error_frame(error_code_for(exc), str(exc), fatal=True),
            )
            return False
        state.session_id = session.session_id
        state.stride = stride
        self._live_sessions[session.session_id] = state
        await self._reply(
            writer,
            state,
            welcome_frame(
                session.session_id,
                session.cohort,
                engine.pipeline.window_len,
                engine.class_names,
            ),
        )
        return True

    async def _on_chunk(self, frame: Frame, state, writer) -> bool:
        if state.session_id is None:
            await self._send(
                writer,
                state,
                error_frame(
                    "PROTOCOL", "CHUNK before HELLO", seq=frame.seq, fatal=True
                ),
            )
            return False
        if frame.payload is None:
            await self._send(
                writer,
                state,
                error_frame(
                    "PROTOCOL", "CHUNK frame has no payload", seq=frame.seq
                ),
            )
            return True
        try:
            # Checked alone, so a bad chunk is answered alone and never
            # costs the sessions of its flush their chunks.
            chunk = self._fleet.check_chunk(
                state.session_id, frame.payload, stride=state.stride
            )
        except MagnetoError as exc:
            await self._reply(
                writer,
                state,
                error_frame(error_code_for(exc), str(exc), seq=frame.seq),
            )
            return True
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future = loop.create_future()
        now = loop.time()
        state.turnaround = now - state.replied_at
        state.replied_at = math.inf  # this chunk's reply is still to come
        self._pending[state.session_id] = _PendingChunk(
            state.session_id, state.stride, chunk, waiter
        )
        self._wake.set()
        try:
            verdicts = await waiter
        except MagnetoError as exc:
            reply = error_frame(error_code_for(exc), str(exc), seq=frame.seq)
        except Exception as exc:  # reprolint: disable=broad-except — failure isolation: a model blowing up mid-tick must surface as a structured INTERNAL error frame on this one session, not tear down the whole gateway
            reply = error_frame("INTERNAL", str(exc), seq=frame.seq)
        else:
            reply = verdict_frame(frame.seq, verdicts)
        await self._reply(writer, state, reply)
        return True

    async def _on_finish(self, frame: Frame, state, writer) -> bool:
        if state.session_id is None:
            await self._send(
                writer,
                state,
                error_frame(
                    "PROTOCOL", "FINISH before HELLO", seq=frame.seq, fatal=True
                ),
            )
            return False
        try:
            verdicts = self._fleet.finish_stream(state.session_id)
        except MagnetoError as exc:
            await self._send(
                writer,
                state,
                error_frame(error_code_for(exc), str(exc), seq=frame.seq),
            )
            return True
        await self._reply(
            writer, state, verdict_frame(frame.seq, verdicts, final=True)
        )
        return True

    # ------------------------------------------------------------------ #
    # micro-batch flushing
    # ------------------------------------------------------------------ #

    def _wait_deadline(self, wait_from: float) -> float:
        """Loop time until which the parked chunks wait; past = flush now.

        A live session without a parked chunk is waited for while it is
        about to send: its reply is still to come or younger than
        ``slack``, and its previous turnaround was within ``slack`` too.
        The wait ends when the last such session stops qualifying, and
        never later than ``batch_window_s`` after ``wait_from``, the
        flusher's first look at the batch (not the first chunk's arrival:
        on a busy loop the window would be spent before anyone looked).
        """
        slack = self.batch_window_s + self._tick_ewma_ms / 1e3
        awaited_until = 0.0
        for session_id, conn in self._live_sessions.items():
            if session_id not in self._pending and conn.turnaround <= slack:
                awaited_until = max(awaited_until, conn.replied_at + slack)
        return min(wait_from + self.batch_window_s, awaited_until)

    async def _flush_loop(self) -> None:
        """Flush on readiness or deadline; woken by arrivals and disconnects."""
        loop = asyncio.get_running_loop()
        timer: Optional[asyncio.TimerHandle] = None  # armed = this flush waits
        wait_from = 0.0
        try:
            while True:
                await self._wake.wait()
                self._wake.clear()
                if not self._pending:
                    continue
                now = loop.time()
                if timer is None:
                    wait_from = now  # the flusher's first look at this batch
                else:
                    timer.cancel()
                deadline = self._wait_deadline(wait_from)
                if deadline > now:
                    timer = loop.call_at(deadline, self._wake.set)
                    continue
                self.flushes += 1
                if timer is not None:
                    self.flush_waits += 1
                    if timer.when() <= now:  # the timer woke us, not a chunk
                        self.flush_deadline_expiries += 1
                    self.flush_wait_ms_total += (now - wait_from) * 1e3
                    timer = None
                batch, self._pending = self._pending, {}
                for group in self._group_batch(batch):
                    self._serve_group(group)
        finally:
            if timer is not None:
                timer.cancel()

    @staticmethod
    def _group_batch(batch) -> "List[List[_PendingChunk]]":
        """Split a flush into one fleet tick per HELLO ``stride``.

        ``stream_tick`` takes one stride per call; every cohort shares
        the tick, so cohorts configured alike share its featurize pass.
        Failure isolation needs no split: the tick reports each failed
        group's sessions, and only their waiters get the exception.
        """
        groups: Dict[Optional[int], List[_PendingChunk]] = {}
        for item in batch.values():
            groups.setdefault(item.stride, []).append(item)
        return list(groups.values())

    def _serve_group(self, group: "List[_PendingChunk]") -> None:
        """One fleet tick for a group, start to finish; resolves its waiters.

        Each waiter gets its session's verdicts, or the exception of the
        fleet group that served it.  The tick never suspends, so chunks
        arriving meanwhile park for the next flush.
        """
        chunks = {item.session_id: item.chunk for item in group}
        stride = group[0].stride
        with Timer() as timer:
            try:
                verdicts, failures = self._fleet.stream_tick(
                    chunks, stride=stride
                )
            except Exception as exc:  # reprolint: disable=broad-except — failure isolation: a tick refused whole is delivered to every waiter of this group as a typed frame; other groups and the flush loop must keep serving
                for item in group:
                    if not item.waiter.done():
                        item.waiter.set_exception(exc)
                return
        alpha = 0.3
        self._tick_ewma_ms = (
            timer.elapsed_ms
            if self._tick_ewma_ms == 0.0
            else alpha * timer.elapsed_ms + (1 - alpha) * self._tick_ewma_ms
        )
        for item in group:
            if item.waiter.done():
                continue
            failure = failures.get(item.session_id)
            if failure is None:
                item.waiter.set_result(verdicts[item.session_id])
            else:
                item.waiter.set_exception(failure)

    # ------------------------------------------------------------------ #
    # session cleanup
    # ------------------------------------------------------------------ #

    def _release_session(self, session_id: str) -> None:
        """Disconnect a dead client's session.

        The session stops being live first — its pacing stamps go with
        its entry, and the flusher is woken so chunks parked waiting for
        it are served now.  No tick can be in flight here (ticks never
        suspend), so the fleet session goes at once.  Sessions already
        gone (an explicit disconnect elsewhere) are a no-op.
        """
        self._live_sessions.pop(session_id, None)
        self._wake.set()
        if session_id in self._fleet.sessions:
            self._fleet.disconnect(session_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"GatewayServer(host={self._host!r}, port={self.port}, "
            f"sessions={len(self._live_sessions)})"
        )
