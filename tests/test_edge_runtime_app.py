"""Unit tests for the edge runtime accounting and the demo app."""

import numpy as np
import pytest

from repro.core import IncrementalConfig
from repro.edge_runtime import (
    AppState,
    MagnetoApp,
    MIDRANGE_PHONE,
    ResourceAccountant,
    confidence_bar,
    render_event_log,
    render_prediction,
    render_session,
    training_flops,
)
from repro.exceptions import (
    ConfigurationError,
    ResourceExceededError,
    UnknownActivityError,
)
from repro.nn import TrainConfig


@pytest.fixture
def app(edge, scenario):
    return MagnetoApp(edge, scenario.sensor_device)


@pytest.fixture
def accounted(edge):
    edge.accountant = ResourceAccountant(MIDRANGE_PHONE)
    return edge


class TestDeviceAccounting:
    def test_inference_accounted(self, accounted, scenario):
        rec = scenario.sensor_device.record("walk", 1.0)
        accounted.infer_window(rec.data)
        stats = accounted.accountant.stats
        assert stats.inferences == 1
        assert stats.compute_energy_joules > 0
        assert stats.wall_clock_ms > 0

    def test_learning_accounted_and_storage_checked(self, accounted, scenario):
        rec = scenario.sensor_device.record("gesture_hi", 15.0)
        accounted.learn_activity("gesture_hi", rec)
        assert accounted.accountant.stats.retrainings == 1
        assert accounted.accountant.admit(accounted.footprint_bytes()) > 0

    def test_storage_budget_enforced(self, edge):
        accountant = ResourceAccountant(MIDRANGE_PHONE,
                                        storage_budget_fraction=1e-7)
        with pytest.raises(ResourceExceededError):
            accountant.admit(edge.footprint_bytes())

    def test_summary_keys(self, accounted):
        summary = accounted.accountant.summary(accounted.footprint_bytes())
        assert {"inferences", "retrainings", "footprint_bytes",
                "storage_budget_bytes"} <= set(summary)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ResourceExceededError):
            ResourceAccountant(MIDRANGE_PHONE, storage_budget_fraction=0.0)

    def test_retraining_charge_follows_pairs_per_epoch(self, scenario):
        # 16 pairs per epoch in batches of 48 is one batch per epoch,
        # whatever the support set's size.
        train = TrainConfig(epochs=2, batch_pairs=48, pairs_per_epoch=16)
        edge = scenario.fresh_edge(
            incremental_config=IncrementalConfig(train=train), rng=5
        )
        edge.accountant = ResourceAccountant(MIDRANGE_PHONE)
        edge.learn_activity(
            "gesture_hi", scenario.sensor_device.record("gesture_hi", 15.0)
        )
        flops = training_flops(edge.embedder.network, 96, n_batches=1, epochs=2)
        assert edge.accountant.stats.modeled_compute_ms == pytest.approx(
            edge.accountant.model.latency_ms(flops)
        )


class TestAppStates:
    def test_starts_idle(self, app):
        assert app.state is AppState.IDLE

    def test_infer_live_returns_one_frame_per_second(self, app):
        frames = app.infer_live("walk", 4.0)
        assert len(frames) == 4
        assert app.state is AppState.IDLE

    def test_frames_carry_truth_for_eval(self, app):
        frames = app.infer_live("still", 3.0)
        assert all(f.true_activity == "still" for f in frames)
        accuracy = np.mean([f.activity == f.true_activity for f in frames])
        assert accuracy >= 2 / 3

    def test_record_stages_without_learning(self, app):
        app.record_activity("my_gesture", "gesture_hi", duration_s=10.0)
        assert "my_gesture" not in app.edge.classes
        assert app.state is AppState.IDLE

    def test_learn_staged_updates_model(self, app):
        app.record_activity("my_gesture", "gesture_hi", duration_s=20.0)
        result = app.learn_staged("my_gesture")
        assert result.class_name == "my_gesture"
        assert "my_gesture" in app.edge.classes

    def test_learn_unstaged_rejected(self, app):
        with pytest.raises(UnknownActivityError):
            app.learn_staged("never_recorded")

    def test_staged_recording_consumed(self, app):
        app.record_activity("g", "gesture_hi", duration_s=15.0)
        app.learn_staged("g")
        with pytest.raises(UnknownActivityError):
            app.learn_staged("g")

    def test_calibrate_staged(self, app):
        app.record_activity("walk", "walk", duration_s=15.0)
        result = app.calibrate_staged("walk")
        assert result.operation == "calibrate"

    def test_event_log_grows(self, app):
        app.infer_live("still", 2.0)
        assert len(app.events) >= 2
        states = {e.state for e in app.events}
        assert AppState.INFERRING in states

    def test_validation(self, app):
        with pytest.raises(ConfigurationError):
            app.infer_live("walk", 0.0)
        with pytest.raises(ConfigurationError):
            app.record_activity("", "walk")


class TestDemoScenario:
    def test_demo_flow_is_accounted(self, accounted, scenario):
        app = MagnetoApp(accounted, scenario.sensor_device)
        frames = app.run_demo_scenario(
            new_label="hi", performed_new_activity="gesture_hi",
            warmup_activities=["still"], infer_s=3.0, record_s=15.0,
        )
        stats = accounted.accountant.stats
        assert stats.inferences == sum(len(f) for f in frames.values()) == 6
        assert stats.retrainings == 1
        assert stats.wall_clock_ms > 0.0

    def test_figure3_flow(self, app):
        frames = app.run_demo_scenario(
            new_label="hi", performed_new_activity="gesture_hi",
            warmup_activities=["still"], infer_s=3.0, record_s=15.0,
        )
        assert set(frames) == {"warmup:still", "new:hi"}
        assert "hi" in app.edge.classes
        new_frames = frames["new:hi"]
        accuracy = np.mean([f.activity == "hi" for f in new_frames])
        assert accuracy >= 2 / 3


class TestDisplay:
    def test_confidence_bar_extremes(self):
        assert confidence_bar(0.0, width=10) == "[          ]   0%"
        assert confidence_bar(1.0, width=10) == "[##########] 100%"

    def test_confidence_bar_clamps(self):
        assert "100%" in confidence_bar(1.5)

    def test_render_prediction_contains_fields(self, app):
        frame = app.infer_live("still", 1.0)[0]
        panel = render_prediction(frame)
        assert "MAGNETO" in panel
        assert frame.activity in panel
        assert "ms" in panel

    def test_render_session_marks_misses(self, app):
        frames = app.infer_live("walk", 3.0)
        text = render_session(frames)
        assert text.count("t=") == 3

    def test_render_event_log(self, app):
        app.infer_live("still", 1.0)
        text = render_event_log(app.events)
        assert "inferring" in text
