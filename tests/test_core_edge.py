"""Unit tests for the Edge device: inference, incremental learning, privacy."""

import numpy as np
import pytest

from repro.core import (
    EdgeDevice,
    IncrementalConfig,
    NetworkLink,
    SupportSet,
    TransferPackage,
)
from repro.datasets import activity_windows, train_test_windows
from repro.edge_runtime import MIDRANGE_PHONE, ResourceAccountant
from repro.exceptions import (
    ConfigurationError,
    DataShapeError,
    NotFittedError,
    PrivacyViolationError,
    ResourceExceededError,
)
from repro.nn import TrainConfig


class TestInstallation:
    def test_not_ready_before_install(self):
        edge = EdgeDevice()
        assert not edge.is_ready
        with pytest.raises(NotFittedError):
            edge.infer_window(np.zeros((120, 22)))

    def test_install_makes_ready(self, edge):
        assert edge.is_ready
        assert edge.classes == ("drive", "escooter", "run", "still", "walk")

    def test_install_records_cloud_to_edge_transfer(self, edge):
        log = edge.guard.log
        assert len(log) == 1
        assert log[0].direction == "cloud->edge"
        assert not log[0].contains_user_data

    def test_install_over_link_costs_time(self, scenario):
        link = NetworkLink(latency_ms=100.0, bandwidth_mbps=10.0, rng=0)
        edge = scenario.fresh_edge(link=link)
        assert edge.guard.log[0].simulated_ms >= 100.0


class TestInference:
    def test_window_prediction_fields(self, edge, scenario):
        rec = scenario.sensor_device.record("walk", 1.0)
        result = edge.infer_window(rec.data)
        assert result.activity in edge.classes
        assert 0.0 <= result.confidence <= 1.0
        assert result.latency_ms > 0.0
        assert set(result.distances) == set(edge.classes)

    def test_top_k(self, edge, scenario):
        rec = scenario.sensor_device.record("walk", 1.0)
        result = edge.infer_window(rec.data)
        top2 = result.top(2)
        assert len(top2) == 2
        assert top2[0][1] <= top2[1][1]
        assert top2[0][0] == result.activity

    def test_recognizes_base_activities(self, edge, scenario):
        correct = 0
        for activity in edge.classes:
            rec = scenario.sensor_device.record(activity, 4.0)
            majority, _ = edge.infer_recording(rec)
            correct += majority == activity
        assert correct >= 4  # at least 4/5 majority-vote correct

    def test_infer_recording_per_window_names(self, edge, scenario):
        rec = scenario.sensor_device.record("still", 3.0)
        majority, names = edge.infer_recording(rec)
        assert len(names) == 3
        assert majority in names

    def test_too_short_recording_rejected(self, edge, scenario):
        rec = scenario.sensor_device.record("walk", 0.3)
        with pytest.raises(DataShapeError):
            edge.infer_recording(rec)

    def test_non_2d_window_rejected(self, edge):
        with pytest.raises(DataShapeError):
            edge.infer_window(np.zeros(120))

    def test_latency_is_milliseconds_scale(self, edge, scenario):
        # E1's claim: prediction latency of a few ms on a laptop-scale model.
        rec = scenario.sensor_device.record("walk", 1.0)
        edge.infer_window(rec.data)  # warm up
        latencies = [edge.infer_window(rec.data).latency_ms for _ in range(5)]
        assert np.median(latencies) < 50.0


class TestIncrementalLearning:
    def test_learn_new_activity_from_recording(self, edge, recorder):
        rec = recorder.record("gesture_hi", 20.0)
        result = edge.learn_activity("gesture_hi", rec)
        assert result.operation == "learn"
        assert "gesture_hi" in edge.classes
        assert edge.classes[:5] == ("drive", "escooter", "run", "still", "walk")

    def test_new_activity_recognized_after_learning(self, edge, recorder):
        train = recorder.record("gesture_hi", 20.0)
        edge.learn_activity("gesture_hi", train)
        test = recorder.record("gesture_hi", 4.0)
        majority, _ = edge.infer_recording(test)
        assert majority == "gesture_hi"

    def test_old_classes_survive_update(self, edge, scenario, recorder):
        """The headline no-catastrophic-forgetting property."""
        feats = edge.pipeline.process_windows(scenario.base_test.windows)
        before = edge.infer_features(feats)
        acc_before = float(np.mean(before == scenario.base_test.labels))

        rec = recorder.record("gesture_hi", 20.0)
        edge.learn_activity("gesture_hi", rec)

        after = edge.infer_features(feats)
        acc_after = float(np.mean(after == scenario.base_test.labels))
        assert acc_before > 0.8
        assert acc_after > acc_before - 0.15

    def test_learn_from_features_directly(self, edge, scenario):
        windows = activity_windows(scenario.edge_user, "jump", 20, rng=9)
        feats = edge.pipeline.process_windows(windows)
        edge.learn_activity("jump", feats)
        assert "jump" in edge.classes

    def test_learning_grows_footprint(self, edge, recorder):
        before = edge.footprint_bytes()
        rec = recorder.record("gesture_hi", 20.0)
        edge.learn_activity("gesture_hi", rec)
        assert edge.footprint_bytes() > before

    def test_reinforce_existing_activity(self, edge, recorder):
        rec = recorder.record("walk", 10.0)
        result = edge.reinforce_activity("walk", rec)
        assert result.operation == "extend"
        assert edge.classes == ("drive", "escooter", "run", "still", "walk")


class TestCalibration:
    def test_calibrate_replaces_and_retrains(self, edge, recorder):
        rec = recorder.record("walk", 15.0)
        n_classes_before = len(edge.classes)
        result = edge.calibrate_activity("walk", rec)
        assert result.operation == "calibrate"
        assert len(edge.classes) == n_classes_before

    def test_calibrated_class_still_recognized(self, edge, recorder):
        rec = recorder.record("walk", 15.0)
        edge.calibrate_activity("walk", rec)
        test = recorder.record("walk", 4.0)
        majority, _ = edge.infer_recording(test)
        assert majority == "walk"


def device_state(edge):
    """Every byte an update may change: weights, support set, classifier."""
    return (
        {k: v.tobytes() for k, v in edge.embedder.network.state_dict().items()},
        {k: v.tobytes() for k, v in edge.support_set.to_arrays().items()},
        edge.ncm.prototypes_.tobytes(),
        edge.ncm.class_names_,
    )


class TestRefusedRecordings:
    """One non-finite sample must cost the user a recording, not the model."""

    @pytest.mark.parametrize("poison", [np.nan, -np.inf])
    @pytest.mark.parametrize("operation, activity", [
        ("learn_activity", "gesture_hi"),
        ("calibrate_activity", "walk"),
        ("reinforce_activity", "walk"),
    ])
    def test_non_finite_sample_refused_before_anything_changes(
        self, edge, recorder, operation, activity, poison
    ):
        rec = recorder.record(activity, 25.0)
        rec.data[1500, 3] = poison
        before = device_state(edge)
        with pytest.raises(DataShapeError, match=r"non-finite values in \d+ of \d+ rows"):
            getattr(edge, operation)(activity, rec)
        assert device_state(edge) == before
        majority, _ = edge.infer_recording(recorder.record("walk", 4.0))
        assert majority == "walk"

    @pytest.mark.parametrize("stride", [None, 30])
    def test_infer_stream_refuses_a_non_finite_recording(
        self, edge, recorder, stride
    ):
        data = recorder.record("walk", 4.0).data
        data[100, 3] = np.nan
        with pytest.raises(DataShapeError, match="non-finite values in 1 of 480 rows"):
            edge.infer_stream(data, stride=stride)

    def test_non_finite_feature_rows_are_counted(self, edge, recorder):
        feats = edge.process_recording(recorder.record("gesture_hi", 10.0))
        feats[2, 5] = np.nan
        feats[7, 0] = np.inf
        before = device_state(edge)
        with pytest.raises(DataShapeError, match="in 2 of 10 rows"):
            edge.learn_activity("gesture_hi", feats)
        assert device_state(edge) == before
        assert "gesture_hi" not in edge.classes

    def test_unusable_training_config_never_reaches_a_device(self):
        # it used to surface inside the first batch, after the support set
        # had already taken the new class
        with pytest.raises(ConfigurationError, match="positive_fraction"):
            IncrementalConfig(train=TrainConfig(positive_fraction=1.5))


def seeded_device(scenario):
    """A fresh device whose learner *and* support-set generators are its
    own and seeded, so two of them update bit-identically."""
    package = scenario.package
    support = SupportSet.from_arrays(
        package.support_set.to_arrays(),
        capacity_per_class=package.support_set.capacity_per_class,
        selection=package.support_set.selection,
        rng=9,
    )
    edge = EdgeDevice(rng=5)
    edge.install(TransferPackage(
        pipeline=package.pipeline,
        embedder=package.embedder.clone(),
        support_set=support,
    ))
    return edge


UPDATES = [
    ("learn_activity", "gesture_hi"),
    ("calibrate_activity", "walk"),
    ("reinforce_activity", "walk"),
]


class TestStorageBudget:
    """The budget is asked before an update moves anything."""

    @pytest.mark.parametrize("operation, activity", UPDATES)
    def test_refused_update_leaves_no_trace(
        self, scenario, recorder, operation, activity
    ):
        rec = recorder.record(activity, 15.0)
        refused = seeded_device(scenario)
        refused.accountant = ResourceAccountant(
            MIDRANGE_PHONE, storage_budget_fraction=1e-7
        )
        before = device_state(refused)
        with pytest.raises(ResourceExceededError, match="exceeds storage budget"):
            getattr(refused, operation)(activity, rec)
        assert device_state(refused) == before
        assert refused.accountant.stats.retrainings == 0

        # No generator draw was spent on the refusal: once the budget is
        # raised the same update lands bit-identically to a device that
        # never saw it.
        refused.accountant = ResourceAccountant(MIDRANGE_PHONE)
        getattr(refused, operation)(activity, rec)
        clean = seeded_device(scenario)
        getattr(clean, operation)(activity, rec)
        assert device_state(refused) == device_state(clean)

    @pytest.mark.parametrize("operation, activity", UPDATES)
    def test_projected_footprint_is_the_committed_one(
        self, edge, recorder, operation, activity
    ):
        features = edge.process_recording(recorder.record(activity, 40.0))
        merge = operation == "reinforce_activity"
        projected = edge.footprint_bytes() + edge.support_set.size_delta_bytes(
            activity, *features.shape, merge=merge
        )
        getattr(edge, operation)(activity, features)
        assert edge.footprint_bytes() == projected

    def test_update_that_fits_is_charged_once(self, edge, recorder):
        edge.accountant = ResourceAccountant(MIDRANGE_PHONE)
        edge.reinforce_activity("walk", recorder.record("walk", 10.0))
        assert edge.accountant.stats.retrainings == 1
        assert edge.accountant.stats.modeled_compute_ms > 0.0


class TestPrivacy:
    def test_upload_of_recording_blocked(self, edge, scenario):
        rec = scenario.sensor_device.record("walk", 2.0)
        with pytest.raises(PrivacyViolationError):
            edge.attempt_cloud_upload(rec)

    def test_upload_of_features_blocked(self, edge, rng):
        with pytest.raises(PrivacyViolationError):
            edge.attempt_cloud_upload(rng.normal(size=(10, 80)))

    def test_no_user_bytes_leak_even_after_learning(self, edge, scenario):
        rec = scenario.sensor_device.record("gesture_hi", 20.0)
        edge.learn_activity("gesture_hi", rec)
        assert edge.guard.user_bytes_sent_to_cloud() == 0


class TestFootprint:
    def test_component_breakdown(self, edge):
        sizes = edge.component_sizes()
        assert set(sizes) == {"pipeline", "model", "support_set"}

    def test_footprint_well_under_paper_budget(self, edge):
        # Test-scale model; the full-size check lives in the benchmark.
        assert edge.footprint_bytes() < 5 * 1024 * 1024
