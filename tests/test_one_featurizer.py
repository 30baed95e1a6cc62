"""One window featurizer: every windowed entry runs the pipeline's window kernel.

- **Geometry.**  ``process_windows``, ``InferenceEngine.infer_windows``,
  ``EdgeDevice.infer_window`` and ``FleetServer.step`` refuse a window whose
  channel count or length is not the pipeline's with ``DataShapeError``; a
  fleet tick refuses it by session, before any engine runs.
- **Bit-identity.**  Pre-segmented windows and a continuous stream cut into
  the same windows give the same feature rows and the same verdicts, bit
  for bit, and the spectral and combined extractors' kernel rows are the
  reference arithmetic (the reference extractor's signal series fed into
  the spectral block).
- **The Cloud featurizes once.**  Pre-training computes the campaign's raw
  rows once; the normalizer is fitted on them and normalizes them.
- **The device learns from the rows it serves.**  ``process_recording``
  gives ``process_windows``'s rows of the segmented recording, bit for
  bit, so an update fed a recording stores exactly those rows.
"""

import numpy as np
import pytest

from reference_features import FeatureExtractor
from test_core_edge import device_state, seeded_device
from repro.core import CloudConfig, CloudInitializer
from repro.exceptions import DataShapeError
from repro.nn import SiameseTrainer, TrainConfig
from repro.preprocessing import (
    CombinedFeatureExtractor,
    PreprocessingPipeline,
    SpectralConfig,
    SpectralFeatureExtractor,
    StreamingFeatureExtractor,
    sliding_windows,
)
from repro.preprocessing.pipeline import _WindowKernel
from repro.sensors import SensorDevice
from repro.serving import FleetServer

W = 120  # the window length of every pipeline in these tests


@pytest.fixture(scope="module")
def recording():
    """Twelve seconds of walking plus a tail shorter than a window."""
    return SensorDevice(rng=3801).record("walk", 12.5).data


# ---------------------------------------------------------------------- #
# geometry
# ---------------------------------------------------------------------- #


def _process_windows(edge, window):
    return edge.pipeline.process_windows(window[None])


def _infer_windows(edge, window):
    return edge.engine.infer_windows(window[None])


def _infer_window(edge, window):
    return edge.infer_window(window)


def _fleet_step(edge, window):
    server = FleetServer(edge.engine)
    server.connect("s")
    try:
        return server.step({"s": window})
    finally:
        assert server.ticks == 0 and server.session("s").windows_seen == 0


ENTRIES = {
    "process_windows": _process_windows,
    "infer_windows": _infer_windows,
    "infer_window": _infer_window,
    "fleet_step": _fleet_step,
}

BAD_SHAPES = [(W, 20), (W, 21), (W, 25), (W - 1, 22), (W + 1, 22)]


@pytest.mark.parametrize(
    "shape", BAD_SHAPES, ids=[f"{n}x{c}" for n, c in BAD_SHAPES]
)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_windowed_entries_refuse_bad_geometry(edge, recording, entry, shape):
    n, channels = shape
    window = np.resize(recording[:n], (n, channels))
    with pytest.raises(DataShapeError):
        ENTRIES[entry](edge, window)


def test_fleet_refuses_a_bad_length_before_any_engine_runs(edge, recording):
    server = FleetServer(edge.engine)
    server.connect_many(["ok", "short"])
    with pytest.raises(DataShapeError, match="session 'short'"):
        server.step({"ok": recording[:W], "short": recording[: W - 1]})
    assert server.ticks == 0
    assert server.session("ok").windows_seen == 0


# ---------------------------------------------------------------------- #
# bit-identity
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("dtype", [None, np.float32])
def test_process_windows_is_process_stream(edge, recording, dtype):
    pipeline = edge.pipeline
    windows = sliding_windows(recording, W, W)
    assert windows.shape[0] == 12
    assert np.array_equal(
        pipeline.process_windows(windows, dtype=dtype),
        pipeline.process_stream(recording, dtype=dtype),
    )


def test_infer_windows_is_infer_stream(edge, recording):
    windowed = edge.engine.infer_windows(sliding_windows(recording, W, W))
    streamed = edge.engine.infer_stream(recording, stride=W)
    assert np.array_equal(windowed.labels, streamed.labels)
    assert np.array_equal(windowed.confidences, streamed.confidences)
    assert np.array_equal(windowed.distances, streamed.distances)


def test_process_recording_is_process_windows(edge, recorder):
    rec = recorder.record("gesture_hi", 20.0)
    assert np.array_equal(
        edge.pipeline.process_recording(rec),
        edge.pipeline.process_windows(sliding_windows(rec.data, W, W)),
    )


def test_learning_a_recording_stores_the_served_rows(scenario, recorder):
    rec = recorder.record("gesture_hi", 20.0)
    from_recording = seeded_device(scenario)
    from_recording.learn_activity("gesture_hi", rec)
    from_rows = seeded_device(scenario)
    rows = from_rows.pipeline.process_windows(sliding_windows(rec.data, W, W))
    from_rows.learn_activity("gesture_hi", rows)
    assert "gesture_hi" in from_recording.classes
    assert device_state(from_recording) == device_state(from_rows)


def _reference_spectral_rows(spectral, denoised):
    """The spectral rows of denoised windows, as the reference computes
    the signal series: one ``np.linalg.norm`` or column per signal."""
    reference = FeatureExtractor()
    return np.concatenate(
        [
            spectral._spectral_block(reference._signal_series(denoised, sig))
            for sig in spectral.config.signals
        ],
        axis=1,
    )


@pytest.mark.parametrize("dtype", [None, np.float32])
@pytest.mark.parametrize(
    "signals",
    [("accel_mag", "gyro_mag", "linacc_mag"), ("accel_x", "baro", "gyro_mag")],
)
def test_spectral_kernel_rows_are_the_reference_arithmetic(
    recording, signals, dtype
):
    spectral = SpectralFeatureExtractor(SpectralConfig(signals=signals))
    pipeline = PreprocessingPipeline(extractor=spectral)
    windows = sliding_windows(recording, W, W)
    # The kernel filters the read columns only, and the window operator's
    # bits can depend on the column count and on the layout of its input
    # (docs/precision.md): denoise those same columns, gathered the way the
    # kernel gathers them, and scatter them back into the 22-channel layout.
    read = spectral.read_channels
    denoised = pipeline.denoiser.apply_batch(windows)
    denoised[..., read] = pipeline.denoiser.batch_kernel(W)(
        np.take(windows, read, axis=2)
    )
    want = _reference_spectral_rows(spectral, denoised)
    got = pipeline.window_kernel(dtype).raw(windows)
    assert got.dtype == (dtype or np.float64)
    assert np.array_equal(got, want.astype(got.dtype))


@pytest.mark.parametrize("dtype", [None, np.float32])
def test_combined_kernel_rows_are_their_parts(recording, dtype):
    statistical = StreamingFeatureExtractor()
    spectral = SpectralFeatureExtractor()
    pipeline = PreprocessingPipeline(
        extractor=CombinedFeatureExtractor([statistical, spectral])
    )
    windows = sliding_windows(recording, W, W)
    statistical_rows = (
        PreprocessingPipeline(extractor=statistical)
        .window_kernel(dtype)
        .raw(windows)
    )
    spectral_rows = _reference_spectral_rows(
        spectral, pipeline.denoiser.apply_batch(windows)
    )
    got = pipeline.window_kernel(dtype).raw(windows)
    assert np.array_equal(
        got,
        np.concatenate(
            [statistical_rows, spectral_rows.astype(got.dtype)], axis=1
        ),
    )


# ---------------------------------------------------------------------- #
# the Cloud
# ---------------------------------------------------------------------- #


def test_cloud_featurizes_its_campaign_once(tiny_campaign, monkeypatch):
    raw_calls, trained = [], []
    raw, train = _WindowKernel.raw, SiameseTrainer.train

    def spy_raw(self, windows):
        raw_calls.append(windows.shape[0])
        return raw(self, windows)

    def spy_train(self, embedder, features, labels, *args, **kwargs):
        trained.append(features)
        return train(self, embedder, features, labels, *args, **kwargs)

    monkeypatch.setattr(_WindowKernel, "raw", spy_raw)
    monkeypatch.setattr(SiameseTrainer, "train", spy_train)
    config = CloudConfig(
        backbone_dims=(16,),
        embedding_dim=8,
        train=TrainConfig(epochs=1, batch_pairs=16),
        support_capacity=5,
    )
    package, _ = CloudInitializer(config, rng=3).pretrain(tiny_campaign)
    assert raw_calls == [tiny_campaign.n_windows]
    assert np.array_equal(
        trained[0], package.pipeline.process_windows(tiny_campaign.windows)
    )
