"""StreamingFeatureExtractor: 1e-9 parity with the per-window extractor.

The streaming extractor's contract is that
``StreamingFeatureExtractor().extract(data, w, stride)`` equals
``FeatureExtractor().extract(sliding_windows(data, w, stride))`` to 1e-9
(the per-window reference of ``reference_features.py``)
for every statistic, across strides, odd window lengths, constant signals
(the zcr/slope edge cases) and the empty no-complete-window case.  These
tests pin that contract column by column, plus the zero-copy / dtype
semantics of ``sliding_windows`` the streaming path rests on.

The fused stacked pass (shared means and centred rows, one sort and
take) must moreover return the exact bits
of the per-statistic stacked pass it replaced, kept as
``reference_features.stacked_features``: ``TestFusedPassBitIdentity``.
"""

import numpy as np
import pytest

from reference_features import FeatureExtractor, stacked_features
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
from repro.sensors import BASE_ACTIVITIES, SensorDevice
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


#: The float32 flip-rate bound, and the seconds of each base activity in
#: the recording it is scored on.  At stride 4 the 300 s give 8971
#: windows, so the bound is resolvable: it fails at the ninth flip, not at
#: the first legitimate near-tie.
MAX_FLIP_RATE = 1e-3
FLIP_SECONDS_PER_ACTIVITY = 60.0


@pytest.fixture(scope="module")
def flip_recording():
    device = SensorDevice(rng=np.random.default_rng(26))
    return np.concatenate([
        device.record(activity, FLIP_SECONDS_PER_ACTIVITY).data
        for activity in BASE_ACTIVITIES
    ])


def assert_float32_flip_budget(edge, data):
    """At most ``MAX_FLIP_RATE`` of the stride-4 verdicts (label or
    accept) change when the stream runs in float32."""
    ref = edge.infer_stream(data, stride=4)
    got = edge.infer_stream(data, stride=4, dtype=np.float32)
    assert len(ref) == len(got) > 2 / MAX_FLIP_RATE
    flips = int(
        (ref.labels != got.labels).sum()
        + (ref.accepted != got.accepted).sum()
    )
    assert flips / len(ref) <= MAX_FLIP_RATE


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

    def test_float32_flip_budget(self, edge, flip_recording):
        """<= 1e-3 of verdicts flip in float32 on a long overlapping call."""
        assert_float32_flip_budget(edge, flip_recording)

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
# the fused pass returns the per-statistic pass's bits
# ---------------------------------------------------------------------- #


def _signal(kind, rng, n):
    """A continuous (n, 22) signal: offset-heavy normal, small integers
    (ties in every sort, exact zeros after centring) or constant."""
    if kind == "normal":
        return continuous_data(rng, n)
    if kind == "integer":
        return rng.integers(-4, 5, size=(n, N_CHANNELS)).astype(np.float64)
    return np.full((n, N_CHANNELS), 3.7)


FUSED_CONFIGS = {
    "default": FeatureConfig(),
    "subset": FeatureConfig(
        signals=("baro", "accel_mag"), stats=("iqr", "rms", "median")
    ),
    "repeated": FeatureConfig(
        signals=("gyro_z", "gyro_z", "grav_mag"),
        stats=("slope", "mad", "zcr", "mad"),
    ),
    "no-centring": FeatureConfig(signals=("light",), stats=("rms", "max")),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestFusedPassBitIdentity:
    @pytest.mark.parametrize("kind", ["normal", "integer", "constant"])
    def test_every_window_length(self, dtype, kind):
        """Every length from 1 to 200, odd and even, at a non-overlapping
        and an overlapping stride."""
        rng = np.random.default_rng(2029)
        streaming = StreamingFeatureExtractor()
        for window_len in range(1, 201):
            for stride in (window_len, max(1, window_len // 3)):
                data = _signal(kind, rng, 3 * stride + window_len)
                got = streaming.extract(
                    data, window_len, stride=stride, dtype=dtype
                )
                want = stacked_features(
                    streaming.config, data, window_len, stride, dtype
                )
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got, want), (window_len, stride)

    @pytest.mark.parametrize("name", sorted(FUSED_CONFIGS))
    @pytest.mark.parametrize("window_len,stride", [
        (120, 120), (120, 7), (61, 61), (2, 1), (1, 1), (64, 16),
    ])
    def test_configurations(self, rng, dtype, name, window_len, stride):
        config = FUSED_CONFIGS[name]
        data = _signal("normal", rng, 900)
        got = StreamingFeatureExtractor(config).extract(
            data, window_len, stride=stride, dtype=dtype
        )
        want = stacked_features(config, data, window_len, stride, dtype)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["normal", "integer"])
    def test_calls_past_one_block(self, dtype, kind):
        """389 windows span many scratch blocks, the last one ragged."""
        data = _signal(kind, np.random.default_rng(7), 4000)
        streaming = StreamingFeatureExtractor()
        got = streaming.extract(data, 120, stride=10, dtype=dtype)
        per_block = streaming_module._STACKED_BLOCK_SAMPLES * 8 // (
            np.dtype(dtype).itemsize * 8 * 120
        )
        assert got.shape[0] > 3 * per_block
        assert np.array_equal(
            got, stacked_features(streaming.config, data, 120, 10, dtype)
        )

    def test_user_statistic_falls_back(self, rng, dtype):
        STATISTICS["ptp"] = lambda s: s.max(axis=1) - s.min(axis=1)
        try:
            config = FeatureConfig(
                signals=("gyro_mag", "baro"), stats=("ptp", "median", "std")
            )
            data = _signal("normal", rng, 4000)
            got = StreamingFeatureExtractor(config).extract(
                data, 120, stride=10, dtype=dtype
            )
            want = stacked_features(config, data, 120, 10, dtype)
        finally:
            del STATISTICS["ptp"]
        assert np.array_equal(got, want)


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

    def test_float32_flip_budget(self, small_blocks, edge, flip_recording):
        """<= 1e-3 of verdicts flip in float32, whatever the block size."""
        assert_float32_flip_budget(edge, flip_recording)


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
