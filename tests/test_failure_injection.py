"""Failure-injection tests: the platform under degraded conditions.

A credible edge system must behave sanely when reality misbehaves —
corrupted bundles, sensor dropouts, extreme noise, starved resources and
adversarial inputs.  These tests inject each failure and assert the system
either recovers gracefully or fails loudly with the right exception.
"""

import numpy as np
import pytest

from repro.core import EdgeDevice, TransferPackage
from repro.edge_runtime import MIDRANGE_PHONE, ResourceAccountant
from repro.exceptions import (
    ConfigurationError,
    DataShapeError,
    NotFittedError,
    ResourceExceededError,
    SerializationError,
)
from repro.sensors import CompositeNoise, DropoutNoise, SensorDevice
from repro.sensors.noise import GaussianNoise


class TestCorruptedArtifacts:
    def test_truncated_package_file(self, scenario, tmp_path):
        path = tmp_path / "package.npz"
        scenario.package.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SerializationError):
            TransferPackage.load(path)

    def test_non_npz_package_file(self, tmp_path):
        path = tmp_path / "package.npz"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(SerializationError):
            TransferPackage.load(path)

    def test_uninstalled_device_refuses_everything(self, scenario):
        edge = EdgeDevice()
        rec = scenario.sensor_device.record("walk", 2.0)
        with pytest.raises(NotFittedError):
            edge.infer_recording(rec)
        with pytest.raises(NotFittedError):
            edge.learn_activity("x", rec)
        with pytest.raises(NotFittedError):
            edge.footprint_bytes()


class TestDegradedSensorData:
    def test_inference_survives_sensor_dropout(self, edge, scenario):
        """Windows with zeroed runs must still classify (not crash/NaN)."""
        rec = scenario.sensor_device.record("walk", 1.0)
        dropout = DropoutNoise(rate=1.0, max_length=30)
        rng = np.random.default_rng(3)
        corrupted = rec.data.copy()
        for col in range(corrupted.shape[1]):
            corrupted[:, col] = dropout.apply(rng, corrupted[:, col])
        result = edge.infer_window(corrupted)
        assert result.activity in edge.classes
        assert np.isfinite(result.confidence)

    def test_inference_under_extreme_noise_degrades_not_crashes(
        self, edge, scenario
    ):
        rec = scenario.sensor_device.record("still", 1.0)
        noise = CompositeNoise(additive=[GaussianNoise(scale=50.0)])
        rng = np.random.default_rng(4)
        noisy = rec.data.copy()
        for col in range(noisy.shape[1]):
            noisy[:, col] = noise.corrupt(rng, noisy[:, col])
        result = edge.infer_window(noisy)  # wrong is fine; crashing is not
        assert result.activity in edge.classes

    def test_all_zero_window_classifies(self, edge):
        result = edge.infer_window(np.zeros((120, 22)))
        assert result.activity in edge.classes
        assert all(np.isfinite(d) for d in result.distances.values())

    def test_constant_window_classifies(self, edge):
        result = edge.infer_window(np.full((120, 22), 5.0))
        assert result.activity in edge.classes

    def test_wrong_channel_count_rejected(self, edge):
        with pytest.raises(DataShapeError):
            edge.infer_window(np.zeros((120, 21)))

    def test_huge_values_stay_finite(self, edge):
        window = np.full((120, 22), 1e12)
        result = edge.infer_window(window)
        assert np.isfinite(result.confidence)


class TestResourceExhaustion:
    def test_learning_blocked_when_storage_starved(self, edge, scenario):
        edge.accountant = ResourceAccountant(MIDRANGE_PHONE,
                                             storage_budget_fraction=1e-6)
        rec = scenario.sensor_device.record("gesture_hi", 15.0)
        with pytest.raises(ResourceExceededError):
            edge.learn_activity("gesture_hi", rec)
        # The budget is asked before the update, so the class was not learned.
        assert "gesture_hi" not in edge.classes
        assert "gesture_hi" not in edge.support_set

    def test_paper_footprint_fits_midrange_budget(self, edge):
        accountant = ResourceAccountant(MIDRANGE_PHONE,
                                        storage_budget_fraction=0.0001)
        # 0.01% of 64 GB = ~6.5 MB — the paper's 5 MB claim must fit.
        assert accountant.admit(edge.footprint_bytes()) < accountant.storage_budget_bytes


class TestAdversarialLearning:
    def test_learning_identical_data_for_two_classes_degrades_gracefully(
        self, edge, scenario
    ):
        """Two 'different' activities with identical data: accuracy on them
        is naturally ambiguous, but the system stays consistent."""
        rec = scenario.sensor_device.record("gesture_hi", 15.0)
        feats = edge.pipeline.process_recording(rec)
        edge.learn_activity("copy_a", feats)
        edge.learn_activity("copy_b", feats)
        assert "copy_a" in edge.classes
        assert "copy_b" in edge.classes
        # Old classes must survive even this pathological update.
        still = scenario.sensor_device.record("still", 3.0)
        majority, _ = edge.infer_recording(still)
        assert majority == "still"

    def test_single_window_learning_rejected(self, edge, scenario):
        rec = scenario.sensor_device.record("gesture_hi", 1.0)
        with pytest.raises(DataShapeError):
            edge.learn_activity("gesture_hi", rec)

    def test_duplicate_class_name_rejected(self, edge, scenario):
        rec = scenario.sensor_device.record("gesture_hi", 15.0)
        edge.learn_activity("gesture_hi", rec)
        rec2 = scenario.sensor_device.record("gesture_hi", 15.0)
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            edge.learn_activity("gesture_hi", rec2)


class TestGatewayFaultInjection:
    """The TCP gateway under misbehaving clients.

    A vanished, crawling or half-speaking client must cost the fleet
    exactly its own session: resources released, the id reusable, and
    every other session's verdicts untouched.
    """

    @pytest.fixture
    def gateway_registry(self, scenario):
        from repro.serving import ModelRegistry

        edge_a = scenario.fresh_edge(rng=1)
        edge_b = scenario.fresh_edge(rng=2)
        registry = ModelRegistry(default_cohort="a")
        registry.publish("a", edge_a.engine)
        registry.publish("b", edge_b.engine)
        return registry

    @staticmethod
    def _drive(coro):
        import asyncio

        async def bounded():
            return await asyncio.wait_for(coro, timeout=60)

        return asyncio.run(bounded())

    def test_disconnect_mid_chunk_releases_session(
        self, gateway_registry, scenario
    ):
        """A client dying inside a half-sent CHUNK frees its session."""
        import asyncio

        from repro.serving.gateway import (
            BinaryFrameCodec,
            GatewayClient,
            GatewayServer,
            chunk_frame,
            hello_frame,
        )

        window = scenario.sensor_device.record("walk", 1.0).data[:120]

        async def body():
            async with GatewayServer(gateway_registry) as gateway:
                codec = BinaryFrameCodec()
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                writer.write(codec.encode(hello_frame("victim", cohort="a")))
                await writer.drain()
                codec.feed(await reader.read(4096))  # WELCOME
                # half a CHUNK frame, then vanish
                wire = codec.encode(chunk_frame(1, window))
                writer.write(wire[: len(wire) // 2])
                await writer.drain()
                writer.close()
                # the id must become reusable once the server cleans up
                for _ in range(200):
                    try:
                        async with GatewayClient(
                            gateway.host, gateway.port
                        ) as again:
                            await again.connect("victim", cohort="a")
                            verdicts = await again.send_chunk(window)
                            return len(verdicts)
                    except ConfigurationError:
                        await asyncio.sleep(0.01)
                return -1

        assert self._drive(body()) == 1

    def test_slow_loris_client_does_not_stall_other_sessions(
        self, gateway_registry, scenario
    ):
        """One byte at a time from one client; everyone else full speed."""
        import asyncio

        from repro.serving.gateway import (
            BinaryFrameCodec,
            FrameType,
            GatewayClient,
            GatewayServer,
            chunk_frame,
            hello_frame,
        )

        data = scenario.sensor_device.record("walk", 2.0).data
        window = data[:120]

        async def body():
            async with GatewayServer(gateway_registry) as gateway:
                codec = BinaryFrameCodec()
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                writer.write(codec.encode(hello_frame("loris", cohort="a")))
                await writer.drain()
                codec.feed(await reader.read(4096))  # WELCOME
                wire = codec.encode(chunk_frame(1, window))

                fast_verdicts = []

                async def drip():
                    # ~40 dribbled writes while the fast path serves
                    step = max(1, len(wire) // 40)
                    for start in range(0, len(wire), step):
                        writer.write(wire[start : start + step])
                        await writer.drain()
                        await asyncio.sleep(0.002)

                async def fast_session():
                    async with GatewayClient(
                        gateway.host, gateway.port
                    ) as fast:
                        await fast.connect("fast", cohort="b")
                        for start in range(0, data.shape[0], 240):
                            fast_verdicts.extend(
                                await fast.send_chunk(
                                    data[start : start + 240]
                                )
                            )
                        fast_verdicts.extend(await fast.finish())

                await asyncio.gather(drip(), fast_session())
                frames = codec.feed(await reader.read(4096))
                writer.close()
            return frames, fast_verdicts

        frames, fast_verdicts = self._drive(body())
        # the dribbled frame still decodes into real verdicts ...
        assert [f.type for f in frames] == [FrameType.VERDICT]
        assert len(frames[0].meta["verdicts"]) == 1
        # ... and the fast session was never starved or corrupted
        assert len(fast_verdicts) == 2

    def test_abort_right_after_chunk_leaves_no_session_behind(
        self, gateway_registry, scenario, monkeypatch
    ):
        """A client gone right after its CHUNK is released as soon as its
        (slow) tick is served; a survivor on another cohort is untouched."""
        import asyncio
        import time

        from repro.serving.gateway import (
            BinaryFrameCodec,
            GatewayClient,
            GatewayServer,
            chunk_frame,
            hello_frame,
        )

        engine_a = gateway_registry.engine_for("a")
        original = engine_a.infer_features

        def slow(features):
            time.sleep(0.3)  # the victim's tick outlasts the survivor's
            return original(features)

        monkeypatch.setattr(engine_a, "infer_features", slow)
        data = scenario.sensor_device.record("walk", 4.0).data
        survivor_chunks = [data[i : i + 240] for i in range(0, 960, 240)]

        async def body():
            async with GatewayServer(gateway_registry) as gateway:
                survivor = GatewayClient(gateway.host, gateway.port)
                await survivor.connect("survivor", cohort="b")
                codec = BinaryFrameCodec()
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                writer.write(codec.encode(hello_frame("victim", cohort="a")))
                await writer.drain()
                codec.feed(await reader.read(4096))  # WELCOME
                writer.write(codec.encode(chunk_frame(1, data[:120])))
                await writer.drain()
                writer.transport.abort()  # gone before any reply
                verdicts, victim_seen = [], []
                for chunk in survivor_chunks:
                    verdicts.extend(await survivor.send_chunk(chunk))
                    victim_seen.append("victim" in gateway.fleet.sessions)
                verdicts.extend(await survivor.finish())
                left = (
                    set(gateway.fleet.sessions),
                    set(gateway._live_sessions),
                    dict(gateway._pending),
                )
                await survivor.aclose()
            return verdicts, victim_seen, left

        verdicts, victim_seen, left = self._drive(body())
        # served inline, the victim's tick completes (and its session
        # goes) before the survivor's next chunk is answered
        assert not any(victim_seen[1:])
        assert left == ({"survivor"}, {"survivor"}, {})
        ref = gateway_registry.engine_for("b").infer_stream(data[:960])
        assert [v.activity for v in verdicts] == ref.names
        np.testing.assert_allclose(
            [v.confidence for v in verdicts], ref.confidences,
            rtol=0.0, atol=1e-9,
        )
