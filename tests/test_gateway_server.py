"""End-to-end tests for the TCP gateway.

The acceptance bar: verdicts received over a real localhost socket are
pinned identical (1e-9) to in-process
:class:`~repro.serving.FleetServer` serving on the same chunking —
including ragged 1-sample ticks and a mid-stream
:meth:`~repro.serving.ModelRegistry.publish` hot-swap — and the
protocol-level contracts hold: every engine call of a tick runs on the
event-loop thread, chunks that arrive during a slow tick are all served
in the next flush and never refused ``BUSY``, bytes that are not the
binary framing get a typed ``PROTOCOL`` error and no session, a HELLO
whose cohort cannot load leaves no session behind, and server-side
errors arrive as the same typed exceptions the in-process API raises.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    MagnetoError,
    ProtocolError,
    UnknownCohortError,
)
from repro.sensors import SensorDevice
from repro.serving import FleetServer, ModelRegistry
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


def _in_process_reference(registry, schedule, cohorts):
    """Serve the same chunk schedule without sockets (the parity pin)."""
    got = {sid: [] for sid in schedule}
    server = FleetServer(registry)
    for sid in schedule:
        server.connect(sid, cohort=cohorts.get(sid))
    for tick in range(max(len(c) for c in schedule.values())):
        chunks = {
            sid: chunk_list[tick]
            for sid, chunk_list in schedule.items()
            if tick < len(chunk_list)
        }
        result = server.step_stream(chunks)
        for sid, verdicts in result.items():
            got[sid].extend(verdicts)
    for sid in schedule:
        got[sid].extend(server.finish_stream(sid))
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

        reference = _in_process_reference(registry, schedule, cohorts)
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

        def in_process():
            registry.publish("a", engine_a)  # reset to v1
            got = []
            server = FleetServer(registry)
            server.connect("dev", cohort="a")
            for i, chunk in enumerate(chunk_list):
                if i == swap_after:
                    registry.publish("a", engine_b)
                got.extend(server.step_stream({"dev": chunk})["dev"])
            got.extend(server.finish_stream("dev"))
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

        reference = in_process()
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


def _record_engine_calls(monkeypatch, engine, calls, first_call=None):
    """Spy on ``engine.infer_features``: record ``(thread, rows, start,
    end)`` per call; ``first_call()`` runs inside the first call."""
    original = engine.infer_features

    def recorded(features, dtype=None):
        start = time.perf_counter()
        if first_call is not None and not calls:
            first_call()
        out = (
            original(features)
            if dtype is None
            else original(features, dtype=dtype)
        )
        calls.append((
            threading.current_thread(), int(features.shape[0]), start,
            time.perf_counter(),
        ))
        return out

    monkeypatch.setattr(engine, "infer_features", recorded)


class TestOneTickAtATime:
    def test_every_engine_call_of_a_gateway_tick_runs_on_the_loop(
        self, registry, engines, scenario, monkeypatch
    ):
        """No worker thread: the gateway's ticks call the engines inline."""
        data = scenario.sensor_device.record("walk", 8.0).data
        chunk_list = _chunks(data, RAGGED_SIZES)
        schedule = {"alice": chunk_list, "bob": chunk_list}
        cohorts = {"alice": "a", "bob": "b"}
        reference = _in_process_reference(registry, schedule, cohorts)
        calls = []
        for engine in engines:
            _record_engine_calls(monkeypatch, engine, calls)

        served = drive(_gateway_serve(registry, schedule, cohorts))

        assert len(calls) >= 2
        assert {thread for thread, *_ in calls} == {threading.current_thread()}
        for sid in schedule:
            assert _verdict_tuples(served[sid]) == _verdict_tuples(
                reference[sid]
            )

    def test_chunks_arriving_during_a_slow_tick_wait_for_the_next_flush(
        self, registry, engines, scenario, monkeypatch
    ):
        """Four devices send while one tick sleeps inside the engine: all
        four are served together by the next flush, none is refused BUSY."""
        engine_a, _ = engines
        window = scenario.sensor_device.record("walk", 1.0).data[:WINDOW]
        ready, go = threading.Event(), threading.Event()

        def slow_tick():
            go.set()  # the other devices send while this tick runs
            time.sleep(0.3)

        calls = []
        _record_engine_calls(monkeypatch, engine_a, calls, first_call=slow_tick)

        async def other_devices(host, port):
            """Four clients on their own loop (and thread), in lockstep."""
            clients = [GatewayClient(host, port) for _ in range(4)]
            for i, client in enumerate(clients):
                await client.connect(f"dev-{i}", cohort="a")
            ready.set()
            assert go.wait(timeout=30)  # this loop has nothing else to run
            verdicts = await asyncio.gather(
                *(client.send_chunk(window) for client in clients)
            )
            for client in clients:
                await client.aclose()
            return verdicts, [c.busy_frames_seen for c in clients]

        async def body():
            async with GatewayServer(registry) as gateway:
                others = asyncio.get_running_loop().run_in_executor(
                    None, asyncio.run, other_devices(gateway.host, gateway.port)
                )
                assert await asyncio.to_thread(ready.wait, 30)
                async with GatewayClient(gateway.host, gateway.port) as slow:
                    await slow.connect("slow", cohort="a")
                    first = await slow.send_chunk(window)
                    verdicts, busy = await others
                return first, verdicts, busy, gateway.summary()

        first, verdicts, busy, summary = drive(body())
        assert len(first) == 1
        assert [len(v) for v in verdicts] == [1, 1, 1, 1]
        assert busy == [0, 0, 0, 0] and summary["busy_refusals"] == 0
        # the slow tick served one window; the next call, all four
        # parked chunks at once, and only after the slow one returned
        assert [rows for _, rows, _, _ in calls] == [1, 4]
        assert calls[1][2] >= calls[0][3]
        assert summary["flushes"] == 2 and summary["ticks"] == 2
        single = engine_a.infer_windows(window[None, :, :])
        for got in [first] + verdicts:
            assert got[0].confidence == pytest.approx(
                single.confidences[0], abs=1e-9
            )


class TestTypedErrorsOverTheWire:
    def test_a_failing_cohort_costs_only_its_own_clients(
        self, registry, engines, scenario, monkeypatch
    ):
        """Two cohorts share the flushes and b's engine raises in every
        tick: b's clients get an ``INTERNAL`` ERROR frame per chunk, and
        a's clients get the VERDICTs in-process serving gives them."""
        _, engine_b = engines
        data = scenario.sensor_device.record("walk", 8.0).data
        chunk_list = [data[i * WINDOW : (i + 1) * WINDOW] for i in range(8)]
        cohorts = {"a1": "a", "a2": "a", "b1": "b", "b2": "b"}
        reference = _in_process_reference(
            registry, {"a1": chunk_list, "a2": chunk_list}, cohorts
        )

        def boom(features, dtype=None):
            raise RuntimeError("model fell over")

        monkeypatch.setattr(engine_b, "infer_features", boom)

        async def body():
            async with GatewayServer(registry, batch_window_s=0.05) as gateway:

                async def client(sid):
                    async with GatewayClient(gateway.host, gateway.port) as cli:
                        await cli.connect(sid, cohort=cohorts[sid])
                        verdicts, errors = [], []
                        for chunk in chunk_list:
                            try:
                                verdicts.extend(await cli.send_chunk(chunk))
                            except MagnetoError as exc:
                                errors.append(exc)
                        verdicts.extend(await cli.finish())
                        return verdicts, errors

                served = await asyncio.gather(*(client(s) for s in cohorts))
                return dict(zip(cohorts, served)), gateway.summary()

        served, summary = drive(body())
        assert summary["flushes"] < 2 * len(chunk_list)  # cohorts shared them
        for sid in ("b1", "b2"):
            verdicts, errors = served[sid]
            assert verdicts == []
            assert len(errors) == len(chunk_list)
            # INTERNAL is the code of an untyped server-side failure
            assert all(type(exc) is MagnetoError for exc in errors)
            assert all("model fell over" in str(exc) for exc in errors)
        for sid in ("a1", "a2"):
            verdicts, errors = served[sid]
            assert errors == []
            assert len(verdicts) == len(chunk_list)
            assert _verdict_tuples(verdicts) == _verdict_tuples(reference[sid])
            np.testing.assert_allclose(
                [v.confidence for v in verdicts],
                [v.confidence for v in reference[sid]],
                **PARITY,
            )

    def test_unknown_cohort_raises_typed_exception_client_side(
        self, registry
    ):
        async def body():
            async with GatewayServer(registry) as gateway:
                async with GatewayClient(gateway.host, gateway.port) as cli:
                    with pytest.raises(UnknownCohortError):
                        await cli.connect("dev", cohort="nope")

        drive(body())

    def test_a_refused_hello_leaves_the_client_free_to_retry(self, registry):
        data = SensorDevice(rng=36).record("walk", 2.0).data

        async def body():
            async with GatewayServer(registry) as gateway:
                async with GatewayClient(gateway.host, gateway.port) as cli:
                    with pytest.raises(UnknownCohortError):
                        await cli.connect("dev", cohort="nope")
                    welcome = await cli.connect("dev", cohort="a")
                    verdicts = await cli.send_chunk(data)
                    return welcome, verdicts, set(gateway.fleet.sessions)

        welcome, verdicts, sessions = drive(body())
        assert welcome["cohort"] == "a"
        assert len(verdicts) == 2
        assert sessions == {"dev"}

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

    def test_hello_for_an_unloadable_cohort_leaves_no_session(
        self, registry, tmp_path
    ):
        """The package loads before the session opens: a failed load
        leaves the id free for the device's next HELLO."""
        from repro.exceptions import SerializationError

        registry.register_lazy("broken", tmp_path / "missing.npz")

        async def body():
            async with GatewayServer(registry) as gateway:
                async with GatewayClient(gateway.host, gateway.port) as cli:
                    with pytest.raises(SerializationError):
                        await cli.connect("dev-1", cohort="broken")
                sessions = dict(gateway.fleet.sessions)
                async with GatewayClient(gateway.host, gateway.port) as cli:
                    welcome = await cli.connect("dev-1", cohort="a")
                return sessions, welcome

        sessions, welcome = drive(body())
        assert sessions == {}
        assert welcome["session_id"] == "dev-1" and welcome["cohort"] == "a"

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
