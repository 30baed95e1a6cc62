"""End-to-end tests for the TCP gateway.

The acceptance bar: verdicts received over a real localhost socket are
pinned identical (1e-9) to in-process
:class:`~repro.serving.AsyncFleetServer` serving on the same chunking —
including ragged 1-sample ticks and a mid-stream
:meth:`~repro.serving.ModelRegistry.publish` hot-swap — and the
protocol-level contracts hold: ``BUSY`` frames carry a retry-after hint,
no accepted CHUNK is ever dropped (windows served == windows sent after
the drain), bytes that are not the binary framing get a typed ``PROTOCOL``
error and no session, and server-side errors arrive as the same typed
exceptions the in-process API raises.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.exceptions import (
    BackpressureError,
    ConfigurationError,
    ProtocolError,
    UnknownCohortError,
)
from repro.serving import AsyncFleetServer, ModelRegistry
from repro.serving.gateway import (
    BinaryFrameCodec,
    Frame,
    FrameType,
    GatewayClient,
    GatewayServer,
)

PARITY = dict(rtol=0.0, atol=1e-9)
WINDOW = 120  # the default pipeline window length

#: Ragged tick sizes, including 1-sample ticks straddling window edges —
#: the same schedule the async-fleet parity tests pin.
RAGGED_SIZES = [1, 119, 1, 179, 240, 60, 1, 1, 358]


@pytest.fixture
def engines(scenario):
    """Two distinct engines: the base package and a 6-class variant."""
    edge_a = scenario.fresh_edge(rng=1)
    edge_b = scenario.fresh_edge(rng=2)
    edge_b.learn_activity(
        "gesture_hi", scenario.sensor_device.record("gesture_hi", 20.0)
    )
    return edge_a.engine, edge_b.engine


@pytest.fixture
def registry(engines):
    engine_a, engine_b = engines
    reg = ModelRegistry(default_cohort="a")
    reg.publish("a", engine_a)
    reg.publish("b", engine_b)
    return reg


def drive(coro):
    """Run one async test body with a safety timeout."""

    async def bounded():
        return await asyncio.wait_for(coro, timeout=60)

    return asyncio.run(bounded())


def _verdict_tuples(verdicts):
    return [
        (v.activity, v.display, round(v.confidence, 12), v.accepted)
        for v in verdicts
    ]


def _chunks(data, sizes):
    out, start = [], 0
    for size in sizes:
        out.append(data[start : start + size])
        start += size
    return out


def _blocking(monkeypatch, engine, release: threading.Event, calls=None):
    """Patch ``engine.infer_features`` to wait for ``release`` first."""
    original = engine.infer_features

    def blocked(features):
        if calls is not None:
            calls.append(features.shape[0])
        release.wait(timeout=30)
        return original(features)

    monkeypatch.setattr(engine, "infer_features", blocked)


async def _in_process_reference(registry, schedule, cohorts):
    """Serve the same chunk schedule without sockets (the parity pin)."""
    got = {sid: [] for sid in schedule}
    async with AsyncFleetServer(registry, workers=2) as server:
        for sid in schedule:
            server.connect(sid, cohort=cohorts.get(sid))
        for tick in range(max(len(c) for c in schedule.values())):
            chunks = {
                sid: chunk_list[tick]
                for sid, chunk_list in schedule.items()
                if tick < len(chunk_list)
            }
            result = await server.step_stream(chunks)
            for sid, verdicts in result.items():
                got[sid].extend(verdicts)
        for sid in schedule:
            got[sid].extend(await server.finish_stream(sid))
    return got


async def _raw_exchange(gateway, wire):
    """Send raw bytes, half-close, and decode every frame the server sent."""
    codec = BinaryFrameCodec()
    reader, writer = await asyncio.open_connection(gateway.host, gateway.port)
    writer.write(wire)
    writer.write_eof()
    frames = []
    while data := await reader.read(4096):
        frames.extend(codec.feed(data))
    writer.close()
    return frames


async def _gateway_serve(registry, schedule, cohorts, **gw):
    """Serve the same schedule through a real TCP gateway."""
    got = {}
    async with GatewayServer(registry, **gw) as gateway:

        async def drive_one(sid, chunk_list):
            async with GatewayClient(gateway.host, gateway.port) as client:
                await client.connect(sid, cohort=cohorts.get(sid))
                verdicts = []
                for chunk in chunk_list:
                    verdicts.extend(await client.send_chunk(chunk))
                verdicts.extend(await client.finish())
                got[sid] = verdicts

        await asyncio.gather(
            *(drive_one(sid, chunks) for sid, chunks in schedule.items())
        )
    return got


class TestEndToEndParity:
    def test_ragged_ticks_pinned_to_in_process_serving(
        self, registry, scenario
    ):
        """Socket verdicts == in-process verdicts on ragged 1-sample ticks."""
        data = scenario.sensor_device.record("walk", 8.0).data
        chunk_list = _chunks(data, RAGGED_SIZES)
        schedule = {"alice": chunk_list, "bob": chunk_list}
        cohorts = {"alice": "a", "bob": "b"}

        reference = drive(_in_process_reference(registry, schedule, cohorts))
        served = drive(_gateway_serve(registry, schedule, cohorts))

        assert sum(len(v) for v in reference.values()) > 0
        for sid in schedule:
            assert _verdict_tuples(served[sid]) == _verdict_tuples(
                reference[sid]
            )
            np.testing.assert_allclose(
                [v.confidence for v in served[sid]],
                [v.confidence for v in reference[sid]],
                **PARITY,
            )

    def test_mid_stream_hot_swap_keeps_open_streams_pinned(
        self, registry, engines, scenario
    ):
        """publish() mid-stream: open socket sessions keep their engine."""
        engine_a, engine_b = engines
        data = scenario.sensor_device.record("walk", 6.0).data
        chunk_list = _chunks(data, [240, 240, 240, 240])
        swap_after = 2  # publish after this many chunks

        async def in_process():
            registry.publish("a", engine_a)  # reset to v1
            got = []
            async with AsyncFleetServer(registry, workers=2) as server:
                server.connect("dev", cohort="a")
                for i, chunk in enumerate(chunk_list):
                    if i == swap_after:
                        registry.publish("a", engine_b)
                    got.extend(
                        (await server.step_stream({"dev": chunk}))["dev"]
                    )
                got.extend(await server.finish_stream("dev"))
            return got

        async def over_the_wire():
            registry.publish("a", engine_a)  # reset to v1
            async with GatewayServer(registry) as gateway:
                async with GatewayClient(gateway.host, gateway.port) as cli:
                    await cli.connect("dev", cohort="a")
                    got = []
                    for i, chunk in enumerate(chunk_list):
                        if i == swap_after:
                            registry.publish("a", engine_b)
                        got.extend(await cli.send_chunk(chunk))
                    got.extend(await cli.finish())
            return got

        reference = drive(in_process())
        served = drive(over_the_wire())
        assert _verdict_tuples(served) == _verdict_tuples(reference)
        assert len(served) > 0

    def test_welcome_reports_session_metadata(self, registry, scenario):
        async def body():
            async with GatewayServer(registry) as gateway:
                async with GatewayClient(gateway.host, gateway.port) as cli:
                    meta = await cli.connect("dev", cohort="b")
            return meta

        meta = drive(body())
        engine_b = registry.engine_for("b")
        assert meta["cohort"] == "b"
        assert meta["window_len"] == engine_b.pipeline.window_len
        assert meta["classes"] == list(engine_b.class_names)


class TestBackpressureContract:
    def test_busy_carries_retry_after_and_nothing_is_dropped(
        self, registry, engines, scenario, monkeypatch
    ):
        """Saturate max_inflight: BUSY has retry-after; drain serves all."""
        engine_a, engine_b = engines
        release = threading.Event()
        _blocking(monkeypatch, engine_a, release)
        data = scenario.sensor_device.record("walk", 4.0).data
        window = data[:WINDOW]

        async def body():
            fleet = AsyncFleetServer(registry, workers=2, max_inflight=1)
            async with GatewayServer(
                fleet, batch_window_s=0.0, retry_after_ms=5.0
            ) as gateway:
                alice = GatewayClient(gateway.host, gateway.port)
                bob = GatewayClient(
                    gateway.host, gateway.port, busy_retries=200
                )
                await alice.connect("alice", cohort="a")
                await bob.connect("bob", cohort="b")
                # alice's tick blocks inside engine_a → occupies the one
                # in-flight slot
                alice_task = asyncio.create_task(alice.send_chunk(window))
                while gateway.fleet.inflight == 0:
                    await asyncio.sleep(0.005)
                # bob's chunk now gets BUSY frames until alice drains;
                # the client absorbs them and retries the same chunk
                bob_task = asyncio.create_task(bob.send_chunk(window))
                while bob.busy_frames_seen == 0:
                    await asyncio.sleep(0.005)
                release.set()
                alice_verdicts = await alice_task
                bob_verdicts = await bob_task
                alice_verdicts += await alice.finish()
                bob_verdicts += await bob.finish()
                busy_seen = bob.busy_frames_seen
                refusals = gateway.busy_refusals
                served = gateway.fleet.summary()["windows_served"]
                await alice.aclose()
                await bob.aclose()
            fleet.close()
            return alice_verdicts, bob_verdicts, busy_seen, refusals, served

        alice_verdicts, bob_verdicts, busy_seen, refusals, served = drive(
            body()
        )
        # windows served == windows sent: one full window per session
        assert len(alice_verdicts) == 1
        assert len(bob_verdicts) == 1
        assert busy_seen >= 1
        assert refusals >= 1
        assert served == 2.0

    def test_busy_frame_meta_has_retry_hint(self, registry, engines,
                                            scenario, monkeypatch):
        """The raw BUSY frame exposes retry_after_ms > 0 and inflight."""
        from repro.serving.gateway import (
            BinaryFrameCodec,
            FrameType,
            chunk_frame,
            hello_frame,
        )

        engine_a, engine_b = engines
        release = threading.Event()
        _blocking(monkeypatch, engine_a, release)
        window = scenario.sensor_device.record("walk", 1.0).data[:WINDOW]

        async def body():
            fleet = AsyncFleetServer(registry, workers=2, max_inflight=1)
            async with GatewayServer(
                fleet, batch_window_s=0.0, retry_after_ms=7.5
            ) as gateway:
                blocker = GatewayClient(gateway.host, gateway.port)
                await blocker.connect("alice", cohort="a")
                blocked = asyncio.create_task(blocker.send_chunk(window))
                while gateway.fleet.inflight == 0:
                    await asyncio.sleep(0.005)
                # speak the raw protocol for bob to inspect the BUSY frame
                codec = BinaryFrameCodec()
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                writer.write(codec.encode(hello_frame("bob", cohort="b")))
                writer.write(codec.encode(chunk_frame(1, window)))
                await writer.drain()
                frames = []
                while len(frames) < 2:
                    frames.extend(codec.feed(await reader.read(4096)))
                release.set()
                await blocked
                writer.close()
            fleet.close()
            return frames

        frames = drive(body())
        assert frames[0].type == FrameType.WELCOME
        busy = frames[1]
        assert busy.type == FrameType.BUSY
        assert busy.meta["retry_after_ms"] >= 7.5
        assert busy.meta["inflight"] >= 1
        assert busy.seq == 1


class TestTypedErrorsOverTheWire:
    def test_unknown_cohort_raises_typed_exception_client_side(
        self, registry
    ):
        async def body():
            async with GatewayServer(registry) as gateway:
                async with GatewayClient(gateway.host, gateway.port) as cli:
                    with pytest.raises(UnknownCohortError):
                        await cli.connect("dev", cohort="nope")

        drive(body())

    def test_duplicate_session_id_raises_configuration_error(self, registry):
        async def body():
            async with GatewayServer(registry) as gateway:
                async with GatewayClient(gateway.host, gateway.port) as one:
                    await one.connect("dev", cohort="a")
                    async with GatewayClient(
                        gateway.host, gateway.port
                    ) as two:
                        with pytest.raises(ConfigurationError):
                            await two.connect("dev", cohort="a")

        drive(body())

    def test_chunk_before_hello_is_a_protocol_error(self, registry, scenario):
        from repro.serving.gateway import (
            BinaryFrameCodec,
            FrameType,
            chunk_frame,
        )

        window = scenario.sensor_device.record("walk", 1.0).data[:WINDOW]

        async def body():
            async with GatewayServer(registry) as gateway:
                codec = BinaryFrameCodec()
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                writer.write(codec.encode(chunk_frame(1, window)))
                await writer.drain()
                frames = codec.feed(await reader.read(4096))
                writer.close()
            return frames

        frames = drive(body())
        assert frames[0].type == FrameType.ERROR
        assert frames[0].meta["code"] == "PROTOCOL"
        assert frames[0].meta["fatal"] is True

    def test_session_released_when_connection_closes(self, registry,
                                                     scenario):
        """A closed connection frees the id for the next client."""
        data = scenario.sensor_device.record("walk", 1.0).data

        async def body():
            async with GatewayServer(registry) as gateway:
                async with GatewayClient(gateway.host, gateway.port) as one:
                    await one.connect("dev", cohort="a")
                    await one.send_chunk(data)
                # reconnecting under the same id must succeed once the
                # server has released the session
                for _ in range(200):
                    try:
                        async with GatewayClient(
                            gateway.host, gateway.port
                        ) as two:
                            await two.connect("dev", cohort="a")
                            return True
                    except ConfigurationError:
                        await asyncio.sleep(0.01)
                return False

        assert drive(body())

    def test_json_lines_client_gets_a_binary_protocol_error(
        self, registry, scenario
    ):
        """The gateway speaks one format: a JSON-lines HELLO is garbage."""
        data = scenario.sensor_device.record("walk", 2.0).data
        hello = b'{"type":"HELLO","meta":{"session_id":"dev"}}\n'

        async def body():
            async with GatewayServer(registry) as gateway:
                frames = await _raw_exchange(gateway, hello)
                sessions = dict(gateway.fleet.sessions)
                # a binary client on the same gateway (and the same id)
                # is served normally
                async with GatewayClient(gateway.host, gateway.port) as cli:
                    await cli.connect("dev", cohort="a")
                    verdicts = await cli.send_chunk(data)
                    verdicts += await cli.finish()
            return frames, sessions, verdicts

        frames, sessions, verdicts = drive(body())
        assert frames
        assert all(f.type == FrameType.ERROR for f in frames)
        assert frames[0].meta["code"] == "PROTOCOL"
        assert sessions == {}
        assert len(verdicts) == 2

    @pytest.mark.parametrize("stride", ["abc", 2.5, True, 0, -3])
    def test_bad_hello_stride_is_a_fatal_protocol_error(
        self, registry, stride
    ):
        hello = Frame(FrameType.HELLO, {"session_id": "dev", "stride": stride})

        async def body():
            async with GatewayServer(registry) as gateway:
                frames = await _raw_exchange(
                    gateway, BinaryFrameCodec().encode(hello)
                )
                return (
                    frames,
                    dict(gateway.fleet.sessions),
                    gateway.summary()["live_sessions"],
                )

        frames, sessions, live = drive(body())
        assert [f.type for f in frames] == [FrameType.ERROR]
        assert frames[0].meta["code"] == "PROTOCOL"
        assert frames[0].meta["fatal"] is True
        assert sessions == {}
        assert live == 0
