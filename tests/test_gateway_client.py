"""The gateway client against a scripted peer.

A stub asyncio server answers each frame with whatever the test scripts,
so the client's handling of replies :class:`GatewayServer` never sends
can be pinned: a refused or broken handshake closes the connection (the
same client can connect again), and a ``BUSY`` frame — a reserved type
no peer sends — is an unexpected frame, raised at once with no sleep and
no resend.
"""

import asyncio

import numpy as np
import pytest

from repro.exceptions import ProtocolError, UnknownCohortError
from repro.serving.gateway import (
    BinaryFrameCodec,
    Frame,
    FrameType,
    GatewayClient,
    error_frame,
    verdict_frame,
    welcome_frame,
)

WELCOME = welcome_frame("dev", "a", 120, ["walk"])


class _StubGateway:
    """Answers HELLO with ``hello_reply`` and every CHUNK with
    ``chunk_reply``; a ``None`` reply closes the connection instead."""

    def __init__(self, hello_reply, chunk_reply=None):
        self.hello_reply = hello_reply
        self.chunk_reply = chunk_reply
        self.chunks = 0

    async def handle(self, reader, writer):
        codec = BinaryFrameCodec()
        try:
            while data := await reader.read(1 << 16):
                for frame in codec.feed(data):
                    if frame.type == FrameType.HELLO:
                        reply = self.hello_reply
                    else:
                        self.chunks += 1
                        reply = self.chunk_reply
                    if reply is None:
                        return
                    writer.write(codec.encode(reply))
                    await writer.drain()
        finally:
            writer.close()


def drive(stub, body):
    """Serve ``stub`` on an ephemeral port and run ``body(port)`` against
    it, with a timeout far below any retry hint a test scripts."""

    async def run():
        server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
        async with server:
            port = server.sockets[0].getsockname()[1]
            return await asyncio.wait_for(body(port), timeout=10)

    return asyncio.run(run())


@pytest.mark.parametrize(
    "hello_reply, raised",
    [
        (error_frame("UNKNOWN_COHORT", "no cohort 'nope'", fatal=True),
         UnknownCohortError),
        (verdict_frame(None, []), ProtocolError),
        (None, ProtocolError),
    ],
    ids=["error", "not-welcome", "eof"],
)
def test_a_failed_handshake_closes_the_connection(hello_reply, raised):
    stub = _StubGateway(hello_reply)

    async def body(port):
        async with GatewayClient("127.0.0.1", port) as client:
            with pytest.raises(raised):
                await client.connect("dev", cohort="nope")
            stub.hello_reply = WELCOME
            return await client.connect("dev", cohort="a")

    assert drive(stub, body)["cohort"] == "a"


def test_a_busy_frame_is_a_protocol_error_with_no_resend():
    busy = Frame(FrameType.BUSY, {"seq": 1, "retry_after_ms": 60_000.0})
    stub = _StubGateway(WELCOME, chunk_reply=busy)

    async def body(port):
        async with GatewayClient("127.0.0.1", port) as client:
            await client.connect("dev")
            with pytest.raises(ProtocolError, match="BUSY"):
                await client.send_chunk(np.zeros((120, 22)))
            return client.busy_frames_seen

    assert drive(stub, body) == 0
    assert stub.chunks == 1
