"""Property-based tests (hypothesis) for the pre-processing substrate."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference_features import FeatureExtractor
from repro.preprocessing import (
    FeatureConfig,
    MinMaxNormalizer,
    MovingAverageFilter,
    ZScoreNormalizer,
    sliding_windows,
    window_count,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def window_arrays(max_k=4, max_n=40):
    """Strategy for raw window batches (k, n, 22)."""
    return st.tuples(
        st.integers(1, max_k), st.integers(2, max_n)
    ).flatmap(
        lambda kn: arrays(
            np.float64, (kn[0], kn[1], 22), elements=finite_floats
        )
    )


def matrices(max_n=30, max_d=8):
    return st.tuples(st.integers(1, max_n), st.integers(1, max_d)).flatmap(
        lambda nd: arrays(np.float64, nd, elements=finite_floats)
    )


class TestFeatureProperties:
    @settings(max_examples=30, deadline=None)
    @given(windows=window_arrays())
    def test_features_always_finite(self, windows):
        out = FeatureExtractor().extract(windows)
        assert out.shape == (windows.shape[0], 80)
        assert np.all(np.isfinite(out))

    @settings(max_examples=30, deadline=None)
    @given(windows=window_arrays())
    def test_min_le_median_le_max(self, windows):
        cfg = FeatureConfig(signals=("accel_x",), stats=("min", "median", "max"))
        out = FeatureExtractor(cfg).extract(windows)
        assert np.all(out[:, 0] <= out[:, 1] + 1e-9)
        assert np.all(out[:, 1] <= out[:, 2] + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(windows=window_arrays())
    def test_rms_at_least_abs_mean(self, windows):
        cfg = FeatureConfig(signals=("gyro_x",), stats=("mean", "rms"))
        out = FeatureExtractor(cfg).extract(windows)
        assert np.all(out[:, 1] >= np.abs(out[:, 0]) - 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(windows=window_arrays(), shift=st.floats(-100, 100))
    def test_std_shift_invariant(self, windows, shift):
        cfg = FeatureConfig(signals=("accel_x",), stats=("std", "iqr", "mad"))
        extractor = FeatureExtractor(cfg)
        shifted = windows.copy()
        shifted[:, :, 0] += shift
        a = extractor.extract(windows)
        b = extractor.extract(shifted)
        assert np.allclose(a, b, atol=1e-6 * (1 + abs(shift)))

    @settings(max_examples=30, deadline=None)
    @given(windows=window_arrays(), scale=st.floats(0.1, 100))
    def test_magnitude_scale_equivariance(self, windows, scale):
        cfg = FeatureConfig(signals=("accel_mag",), stats=("mean", "max", "rms"))
        extractor = FeatureExtractor(cfg)
        scaled = windows.copy()
        scaled[:, :, 0:3] *= scale
        a = extractor.extract(windows)
        b = extractor.extract(scaled)
        assert np.allclose(b, scale * a, rtol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(windows=window_arrays())
    def test_zcr_in_unit_interval(self, windows):
        cfg = FeatureConfig(signals=("mag_x",), stats=("zcr",))
        out = FeatureExtractor(cfg).extract(windows)
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)


class TestNormalizerProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=matrices())
    def test_zscore_inverse_roundtrip(self, data):
        norm = ZScoreNormalizer().fit(data)
        rebuilt = norm.inverse_transform(norm.transform(data))
        assert np.allclose(rebuilt, data, atol=1e-6, rtol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(data=matrices())
    def test_minmax_output_bounded_on_fit_data(self, data):
        out = MinMaxNormalizer().fit_transform(data)
        assert np.all(out >= -1e-9)
        assert np.all(out <= 1.0 + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(data=matrices())
    def test_zscore_output_standardized(self, data):
        """Transformed columns have mean ~0 and std ~1 (or 0 if constant).

        Columns whose variance is pathologically small relative to their
        magnitude are excluded: catastrophic cancellation makes any
        standardization numerically meaningless there.
        """
        stds_in = data.std(axis=0)
        means_in = np.abs(data.mean(axis=0))
        assume(
            bool(np.all((stds_in == 0.0) | (stds_in > 1e-6 * (1.0 + means_in))))
        )
        out = ZScoreNormalizer().fit_transform(data)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)
        stds = out.std(axis=0)
        assert np.all(
            np.isclose(stds, 1.0, atol=1e-6) | np.isclose(stds, 0.0, atol=1e-6)
        )

    @settings(max_examples=30, deadline=None)
    @given(data=matrices())
    def test_serialization_roundtrip_property(self, data):
        norm = ZScoreNormalizer().fit(data)
        rebuilt = ZScoreNormalizer.from_dict(norm.to_dict())
        assert np.allclose(rebuilt.transform(data), norm.transform(data))


class TestSegmentationProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 400),
        window_len=st.integers(1, 100),
        stride=st.integers(1, 100),
    )
    def test_count_formula_matches(self, n, window_len, stride):
        data = np.zeros((n, 3))
        windows = sliding_windows(data, window_len, stride)
        assert windows.shape[0] == window_count(n, window_len, stride)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(10, 200),
        window_len=st.integers(2, 50),
    )
    def test_windows_reconstruct_source(self, n, window_len):
        """Non-overlapping windows concatenate back to a prefix of the data."""
        data = np.arange(n * 2, dtype=float).reshape(n, 2)
        windows = sliding_windows(data, window_len)
        if windows.shape[0]:
            flat = windows.reshape(-1, 2)
            assert np.allclose(flat, data[: flat.shape[0]])

    @settings(max_examples=30, deadline=None)
    @given(size=st.integers(1, 15).map(lambda k: 2 * k - 1))
    def test_moving_average_preserves_mean_of_constant(self, size):
        data = np.full((40, 2), 3.7)
        out = MovingAverageFilter(size=size).apply(data)
        assert np.allclose(out, 3.7)
