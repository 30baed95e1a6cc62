"""StreamingFeatureExtractor: 1e-9 parity with the per-window extractor.

The streaming extractor's contract is that
``StreamingFeatureExtractor().extract(data, w, stride)`` equals
``FeatureExtractor().extract(sliding_windows(data, w, stride))`` to 1e-9
(the per-window reference of ``reference_features.py``)
for every statistic, across strides, odd window lengths, constant signals
(the zcr/slope edge cases) and the empty no-complete-window case.  These
tests pin that contract column by column, plus the zero-copy / dtype
semantics of ``sliding_windows`` the streaming path rests on.
"""

import numpy as np
import pytest

from reference_features import FeatureExtractor
from repro.exceptions import ConfigurationError, DataShapeError
from repro.preprocessing import (
    FeatureConfig,
    PreprocessingPipeline,
    SpectralFeatureExtractor,
    StreamingFeatureExtractor,
    sliding_windows,
)
from repro.preprocessing import streaming as streaming_module
from repro.preprocessing.features import DEFAULT_STATS, STATISTICS
from repro.sensors import SensorDevice
from repro.sensors.channels import N_CHANNELS, group_indices

PARITY = dict(rtol=0.0, atol=1e-9)


def continuous_data(rng, n=1500):
    """A continuous (n, 22) signal with offset-heavy channels.

    Barometer (~1013 hPa) and ambient light (~hundreds of lux) stress the
    statistics' cancellation resistance the way real recordings do.
    """
    data = rng.normal(size=(n, N_CHANNELS))
    data[:, 19] += 1013.25
    data[:, 20] = np.abs(data[:, 20]) * 300.0
    return data


def assert_column_parity(data, window_len, stride):
    """Every feature column matches the batch extractor at 1e-9."""
    batch = FeatureExtractor()
    streaming = StreamingFeatureExtractor()
    ref = batch.extract(sliding_windows(data, window_len, stride))
    got = streaming.extract(data, window_len, stride=stride)
    assert got.shape == ref.shape
    for col, name in enumerate(batch.feature_names()):
        np.testing.assert_allclose(
            got[:, col], ref[:, col], err_msg=name, **PARITY
        )


class TestStreamingParity:
    @pytest.mark.parametrize("stride", [120, 60, 30, 1])
    def test_default_window_all_strides(self, rng, stride):
        assert_column_parity(continuous_data(rng), 120, stride)

    @pytest.mark.parametrize("window_len,stride", [
        (7, 3),      # odd
        (5, 5),      # odd, non-overlapping
        (2, 1),      # shortest window with a zcr/slope
        (31, 7),     # odd
        (119, 17),   # odd, just under the paper window
        (1, 1),      # degenerate single-sample windows
    ])
    def test_odd_and_tiny_window_lengths(self, rng, window_len, stride):
        assert_column_parity(continuous_data(rng, n=800), window_len, stride)

    def test_stride_longer_than_window(self, rng):
        assert_column_parity(continuous_data(rng), 120, 250)

    def test_constant_signal_zcr_slope_edge_cases(self):
        data = np.full((600, N_CHANNELS), 3.7)
        assert_column_parity(data, 120, 60)
        streaming = StreamingFeatureExtractor()
        feats = streaming.extract(data, 120, stride=60)
        names = streaming.feature_names()
        for stat in ("zcr", "slope", "std", "iqr", "mad"):
            cols = [i for i, name in enumerate(names) if name.endswith(stat)]
            np.testing.assert_allclose(feats[:, cols], 0.0, atol=1e-9)

    def test_linear_ramp_slope(self, rng):
        data = np.tile(np.arange(900.0)[:, None], (1, N_CHANNELS))
        assert_column_parity(data, 120, 40)

    def test_empty_when_data_shorter_than_window(self, rng):
        streaming = StreamingFeatureExtractor()
        out = streaming.extract(rng.normal(size=(50, N_CHANNELS)), 120)
        assert out.shape == (0, streaming.n_features)
        out = streaming.extract(np.empty((0, N_CHANNELS)), 120)
        assert out.shape == (0, streaming.n_features)
        out = streaming.extract(
            rng.normal(size=(50, N_CHANNELS)), 120, dtype=np.float32
        )
        assert out.shape == (0, streaming.n_features)
        assert out.dtype == np.float32

    def test_custom_config_subset(self, rng):
        config = FeatureConfig(
            signals=("accel_mag", "baro"), stats=("median", "slope", "min")
        )
        batch = FeatureExtractor(config)
        streaming = StreamingFeatureExtractor(config)
        data = continuous_data(rng)
        ref = batch.extract(sliding_windows(data, 64, 16))
        got = streaming.extract(data, 64, stride=16)
        np.testing.assert_allclose(got, ref, **PARITY)
        assert streaming.feature_names() == batch.feature_names()

    def test_unknown_stat_falls_back_to_batch_impl(self, rng):
        STATISTICS["ptp"] = lambda s: s.max(axis=1) - s.min(axis=1)
        try:
            config = FeatureConfig(signals=("gyro_mag",), stats=("ptp", "mean"))
            data = continuous_data(rng)
            got = StreamingFeatureExtractor(config).extract(data, 120, stride=60)
            ref = FeatureExtractor(config).extract(sliding_windows(data, 120, 60))
            np.testing.assert_allclose(got, ref, **PARITY)
        finally:
            del STATISTICS["ptp"]

    def test_every_default_stat_has_streaming_impl(self):
        assert set(DEFAULT_STATS) == set(streaming_module._STACKED_STATISTICS)

    def test_float32_flip_budget(self, edge):
        """<= 1e-3 of verdicts flip in float32 on a long overlapping call."""
        device = SensorDevice(rng=np.random.default_rng(26))
        recording = device.record("walk", 6.0)
        ref = edge.infer_stream(recording.data, stride=4)
        got = edge.infer_stream(recording.data, stride=4, dtype=np.float32)
        assert len(ref) == len(got) > 100
        flips = int(
            (ref.labels != got.labels).sum()
            + (ref.accepted != got.accepted).sum()
        )
        assert flips / len(ref) <= 1e-3

    def test_validation_errors(self, rng):
        streaming = StreamingFeatureExtractor()
        with pytest.raises(DataShapeError):
            streaming.extract(np.zeros(100), 10)
        with pytest.raises(DataShapeError):
            streaming.extract(np.zeros((100, 3)), 10)
        with pytest.raises(ConfigurationError):
            streaming.extract(np.zeros((100, N_CHANNELS)), 0)
        with pytest.raises(ConfigurationError):
            streaming.extract(np.zeros((100, N_CHANNELS)), 10, stride=0)


# ---------------------------------------------------------------------- #
# the same contract across scratch-block boundaries
# ---------------------------------------------------------------------- #
#
# ``extract`` walks a call's windows in groups of ``_STACKED_BLOCK_SAMPLES``
# samples, so at the default block the short inputs above mostly fit in
# one group.  The class below shrinks the block so every call crosses many
# group boundaries, including a ragged last group.

BLOCK_SIZES = {
    "one-window": 1,         # every group holds a single window
    "small-blocks": 1 << 12,  # a few windows per group, ragged tail
}


@pytest.fixture(params=sorted(BLOCK_SIZES))
def small_blocks(request, monkeypatch):
    """Shrink the stacked pass's scratch block for every ``extract`` call."""
    monkeypatch.setattr(
        streaming_module, "_STACKED_BLOCK_SAMPLES", BLOCK_SIZES[request.param]
    )
    return request.param


class TestParityAcrossBlocks:
    @pytest.mark.parametrize("stride", [120, 60, 30, 1])
    def test_default_window_all_strides(self, small_blocks, rng, stride):
        assert_column_parity(continuous_data(rng), 120, stride)

    @pytest.mark.parametrize("window_len,stride", [
        (7, 3), (5, 5), (2, 1), (31, 7), (119, 17), (1, 1),
    ])
    def test_odd_and_tiny_window_lengths(
        self, small_blocks, rng, window_len, stride
    ):
        assert_column_parity(continuous_data(rng, n=800), window_len, stride)

    def test_stride_longer_than_window(self, small_blocks, rng):
        assert_column_parity(continuous_data(rng), 120, 250)

    def test_constant_signal(self, small_blocks):
        data = np.full((600, N_CHANNELS), 3.7)
        assert_column_parity(data, 120, 60)
        streaming = StreamingFeatureExtractor()
        feats = streaming.extract(data, 120, stride=60)
        names = streaming.feature_names()
        for stat in ("zcr", "slope", "std", "iqr", "mad"):
            cols = [i for i, name in enumerate(names) if name.endswith(stat)]
            np.testing.assert_allclose(feats[:, cols], 0.0, atol=1e-9)

    def test_linear_ramp_slope(self, small_blocks):
        data = np.tile(np.arange(900.0)[:, None], (1, N_CHANNELS))
        assert_column_parity(data, 120, 40)

    def test_custom_config_subset(self, small_blocks, rng):
        config = FeatureConfig(
            signals=("accel_mag", "baro"), stats=("median", "slope", "min")
        )
        data = continuous_data(rng)
        ref = FeatureExtractor(config).extract(sliding_windows(data, 64, 16))
        got = StreamingFeatureExtractor(config).extract(data, 64, stride=16)
        np.testing.assert_allclose(got, ref, **PARITY)

    def test_custom_statistics_entry(self, small_blocks, rng):
        STATISTICS["ptp"] = lambda s: s.max(axis=1) - s.min(axis=1)
        try:
            config = FeatureConfig(signals=("gyro_mag",), stats=("ptp", "mean"))
            data = continuous_data(rng)
            got = StreamingFeatureExtractor(config).extract(data, 120, stride=60)
            ref = FeatureExtractor(config).extract(sliding_windows(data, 120, 60))
            np.testing.assert_allclose(got, ref, **PARITY)
        finally:
            del STATISTICS["ptp"]

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_same_bits_as_the_default_block(self, rng, dtype):
        """A long call (> 256 windows) returns the same bits whatever the
        block size: no row reads across a group boundary."""
        data = continuous_data(rng, n=4000)
        streaming = StreamingFeatureExtractor()
        default = streaming.extract(data, 120, stride=10, dtype=dtype)
        assert default.shape[0] > 256
        for block in BLOCK_SIZES.values():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(streaming_module, "_STACKED_BLOCK_SAMPLES", block)
                got = streaming.extract(data, 120, stride=10, dtype=dtype)
            assert np.array_equal(got, default)

    def test_float32_flip_budget(self, small_blocks, edge):
        """<= 1e-3 of verdicts flip in float32, whatever the block size."""
        device = SensorDevice(rng=np.random.default_rng(26))
        recording = device.record("walk", 6.0)
        ref = edge.infer_stream(recording.data, stride=4)
        got = edge.infer_stream(recording.data, stride=4, dtype=np.float32)
        assert len(ref) == len(got) > 100
        flips = int(
            (ref.labels != got.labels).sum()
            + (ref.accepted != got.accepted).sum()
        )
        assert flips / len(ref) <= 1e-3


class TestSlidingWindowsView:
    def test_copy_false_is_readonly_view(self, rng):
        data = rng.normal(size=(600, 4))
        view = sliding_windows(data, 120, 60, copy=False)
        copied = sliding_windows(data, 120, 60)
        np.testing.assert_array_equal(view, copied)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0, 0] = 1.0

    def test_copy_false_shares_memory_with_source(self, rng):
        data = rng.normal(size=(600, 4))
        view = sliding_windows(data, 120, 60, copy=False)
        assert np.shares_memory(view, data)
        assert not np.shares_memory(sliding_windows(data, 120, 60), data)

    def test_default_copy_stays_writable(self, rng):
        windows = sliding_windows(rng.normal(size=(600, 4)), 120)
        windows[0, 0, 0] = 42.0  # must not raise
        assert windows[0, 0, 0] == 42.0

    def test_dtype_none_preserves_float32(self, rng):
        data = rng.normal(size=(600, 4)).astype(np.float32)
        assert sliding_windows(data, 120, dtype=None).dtype == np.float32
        assert sliding_windows(data, 120).dtype == np.float64
        view = sliding_windows(data, 120, copy=False, dtype=None)
        assert view.dtype == np.float32
        assert np.shares_memory(view, data)

    def test_empty_result_respects_dtype(self):
        data = np.zeros((10, 4), dtype=np.float32)
        assert sliding_windows(data, 120, dtype=None).dtype == np.float32


class TestPipelineStreamingPlumbing:
    def test_raw_stream_features_rejects_non_2d(self):
        pipeline = PreprocessingPipeline()
        with pytest.raises(DataShapeError):
            pipeline.raw_stream_features(np.zeros(240))

    def test_streaming_extractor_tracks_extractor_reassignment(self):
        pipeline = PreprocessingPipeline()
        first = pipeline.streaming_extractor
        assert first is not None
        pipeline.extractor = StreamingFeatureExtractor(
            FeatureConfig(signals=("accel_mag",), stats=("mean",))
        )
        second = pipeline.streaming_extractor
        assert second is not first
        assert second.config is pipeline.extractor.config
        # spectral goes through the same kernel, with its own read channels
        spectral = SpectralFeatureExtractor()
        pipeline.extractor = spectral
        assert pipeline.streaming_extractor is spectral
        assert pipeline.window_kernel().extractor is spectral
        assert spectral.read_channels.tolist() == sorted(
            group_indices("accelerometer")
            + group_indices("gyroscope")
            + group_indices("linear_acceleration")
        )


class TestStackedRows:
    """A stacked feature row reads its own window's samples, nothing else."""

    @pytest.mark.parametrize("dtype", [None, np.float32])
    @pytest.mark.parametrize("stride", [120, 60, 7, 4])
    def test_rows_do_not_depend_on_who_shares_the_call(
        self, rng, dtype, stride
    ):
        # 90 windows span several scratch blocks; at stride 4 the call is
        # 300 windows long, past any "a tick is short" assumption
        k = 300 if stride == 4 else 90
        data = continuous_data(rng, n=(k - 1) * stride + 120) * 5.0
        streaming = StreamingFeatureExtractor()
        full = streaming.extract(data, 120, stride=stride, dtype=dtype)
        assert full.shape[0] == k
        for i in (0, 1, 33, 34, 35, k - 1):
            alone = streaming.extract(
                data[i * stride : i * stride + 120], 120, dtype=dtype
            )
            assert np.array_equal(alone[0], full[i])
        for a, b in ((3, 50), (17, 18), (30, 70)):
            part = streaming.extract(
                data[a * stride : (b - 1) * stride + 120],
                120, stride=stride, dtype=dtype,
            )
            assert np.array_equal(part, full[a:b])

    def test_scratch_is_bounded_by_the_block_not_the_window_count(
        self, rng, monkeypatch
    ):
        """tracemalloc: on a 3571-window call (the precision bench's
        120 s recording at stride 4) the window walk holds the output, the
        series block and a handful of scratch blocks — an unblocked pass
        would hold >= 3 copies of all windows, ~27 MB each."""
        import tracemalloc

        build = StreamingFeatureExtractor._series_block

        def build_then_reset(self, data):
            series = build(self, data)
            tracemalloc.reset_peak()  # measure the walk, not the build
            return series

        monkeypatch.setattr(
            StreamingFeatureExtractor, "_series_block", build_then_reset
        )
        k, stride = 3571, 4
        data = rng.normal(size=((k - 1) * stride + 120, N_CHANNELS))
        streaming = StreamingFeatureExtractor()
        streaming.extract(data, 120, stride=stride)
        tracemalloc.start()
        try:
            out = streaming.extract(data, 120, stride=stride)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape[0] == k
        series_bytes = len(streaming.config.signals) * data.shape[0] * 8
        block_bytes = streaming_module._STACKED_BLOCK_SAMPLES * 8
        assert peak - out.nbytes - series_bytes <= 8 * block_bytes
        assert k * 8 * 120 * 8 > 100 * block_bytes  # the bound is a real one
