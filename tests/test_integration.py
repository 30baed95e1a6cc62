"""Integration tests: full paper flows across every subsystem."""

import numpy as np
import pytest

from repro.core import (
    CloudConfig,
    MagnetoPlatform,
    NetworkLink,
    TransferPackage,
)
from repro.datasets import activity_windows, build_edge_scenario
from repro.edge_runtime import MagnetoApp, MIDRANGE_PHONE, ResourceAccountant
from repro.eval import accuracy
from repro.exceptions import PrivacyViolationError
from repro.nn import TrainConfig
from repro.sensors import SensorDevice, sample_user


class TestFullLifecycle:
    """Figure 2 end-to-end: Cloud pre-train -> transfer -> Edge operate."""

    def test_cloud_to_edge_to_inference_to_learning(self, scenario):
        edge = scenario.fresh_edge(rng=10)
        # A locally seeded recorder: the shared ``scenario.sensor_device``
        # hands out different recordings depending on which tests ran first.
        device = SensorDevice(user=scenario.edge_user, rng=2024)

        # Edge inference on the new user's base activities.
        feats = edge.pipeline.process_windows(scenario.base_test.windows)
        base_acc = accuracy(scenario.base_test.labels, edge.infer_features(feats))
        assert base_acc > 0.85

        # Learn two new activities in sequence (Definition 2).
        for activity in ("gesture_hi", "jump"):
            rec = device.record(activity, 20.0)
            edge.learn_activity(activity, rec)

        assert edge.classes == (
            "drive", "escooter", "run", "still", "walk", "gesture_hi", "jump"
        )

        # Both new activities recognized, old ones retained.
        for activity in ("gesture_hi", "jump", "still", "walk"):
            rec = device.record(activity, 4.0)
            majority, _ = edge.infer_recording(rec)
            assert majority == activity, f"failed on {activity}"

        # Definition 1 held throughout.
        assert edge.guard.user_bytes_sent_to_cloud() == 0

    def test_package_survives_disk_roundtrip_then_operates(
        self, scenario, tmp_path
    ):
        path = tmp_path / "magneto.npz"
        scenario.package.save(path)
        loaded = TransferPackage.load(path)

        from repro.core import EdgeDevice

        edge = EdgeDevice(rng=3)
        edge.install(loaded)
        rec = scenario.sensor_device.record("run", 3.0)
        majority, _ = edge.infer_recording(rec)
        assert majority == "run"

        rec = scenario.sensor_device.record("gesture_circle", 20.0)
        edge.learn_activity("gesture_circle", rec)
        assert "gesture_circle" in edge.classes


class TestAppOnRuntime:
    """The demo app running on a resource-accounted device."""

    def test_demo_with_resource_accounting(self, scenario):
        edge = scenario.fresh_edge(rng=11)
        edge.accountant = ResourceAccountant(MIDRANGE_PHONE)
        app = MagnetoApp(edge, scenario.sensor_device)

        app.run_demo_scenario(
            new_label="wave", performed_new_activity="gesture_hi",
            warmup_activities=["still"], infer_s=3.0, record_s=15.0,
        )
        assert edge.accountant.admit(edge.footprint_bytes()) > 0
        assert "wave" in edge.classes


class TestMultiUserIsolation:
    """Two users on two devices personalize independently."""

    def test_two_edges_diverge_without_interference(self, scenario):
        user_a = sample_user(2001, rng=1)
        user_b = sample_user(2002, rng=2)
        device_a = SensorDevice(user=user_a, rng=3)
        device_b = SensorDevice(user=user_b, rng=4)

        edge_a = scenario.fresh_edge(rng=5)
        edge_b = scenario.fresh_edge(rng=6)

        edge_a.learn_activity("gesture_hi", device_a.record("gesture_hi", 20.0))
        edge_b.learn_activity("jump", device_b.record("jump", 20.0))

        assert "gesture_hi" in edge_a.classes
        assert "gesture_hi" not in edge_b.classes
        assert "jump" in edge_b.classes
        assert "jump" not in edge_a.classes


class TestPrivacyEndToEnd:
    def test_only_transfer_is_the_initial_package(self, scenario):
        link = NetworkLink(latency_ms=30.0, bandwidth_mbps=40.0, rng=0)
        edge = scenario.fresh_edge(link=link, rng=7)

        rec = scenario.sensor_device.record("gesture_hi", 20.0)
        edge.learn_activity("gesture_hi", rec)
        for _ in range(3):
            edge.infer_window(scenario.sensor_device.record("walk", 1.0).data)

        log = edge.guard.log
        assert len(log) == 1  # exactly one transfer happened, ever
        assert log[0].direction == "cloud->edge"

        with pytest.raises(PrivacyViolationError):
            edge.attempt_cloud_upload(rec)
        assert edge.guard.user_bytes_sent_to_cloud() == 0


class TestCalibrationImprovesAtypicalUser:
    """E6's mechanism at integration scale: an atypical user gains accuracy
    on a calibrated activity."""

    def test_calibration_gain(self):
        scenario = build_edge_scenario(
            cloud_config=CloudConfig(
                backbone_dims=(64, 32),
                embedding_dim=16,
                train=TrainConfig(epochs=12, batch_pairs=32, lr=1e-3),
                support_capacity=25,
            ),
            n_users=4,
            windows_per_user_per_activity=12,
            base_test_windows_per_activity=12,
            edge_user_atypical=True,
            rng=1234,
        )
        edge = scenario.fresh_edge(rng=8)
        pipeline = edge.pipeline

        # Accuracy over all base activities before calibration.
        feats = pipeline.process_windows(scenario.base_test.windows)
        acc_before = accuracy(
            scenario.base_test.labels, edge.infer_features(feats)
        )

        # Calibrate every base activity with the user's own data.
        for name in scenario.base_test.class_names:
            windows = activity_windows(scenario.edge_user, name, 15, rng=name.__hash__() % 1000)
            edge.calibrate_activity(name, pipeline.process_windows(windows))

        acc_after = accuracy(
            scenario.base_test.labels, edge.infer_features(feats)
        )
        assert acc_after >= acc_before
