"""Unit tests for the statistical feature grid and its reference extractor."""

import numpy as np
import pytest

from reference_features import FeatureExtractor
from repro.exceptions import ConfigurationError, DataShapeError
from repro.preprocessing import (
    DEFAULT_SIGNALS,
    DEFAULT_STATS,
    FeatureConfig,
)
from repro.preprocessing.features import STATISTICS
from repro.sensors import SensorDevice, channel_index, group_indices


@pytest.fixture
def windows(rng):
    return rng.normal(size=(6, 120, 22))


class TestDefaultConfig:
    def test_exactly_80_features(self):
        # The paper's "80 statistical features".
        assert FeatureConfig().n_features == 80
        assert len(DEFAULT_SIGNALS) * len(DEFAULT_STATS) == 80

    def test_feature_names_count_and_format(self):
        names = FeatureExtractor().feature_names()
        assert len(names) == 80
        assert names[0] == "accel_mag:mean"
        assert all(":" in n for n in names)

    def test_names_unique(self):
        names = FeatureExtractor().feature_names()
        assert len(set(names)) == len(names)


class TestConfigValidation:
    def test_unknown_signal_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown signal"):
            FeatureConfig(signals=("sonar",))

    def test_unknown_stat_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown statistic"):
            FeatureConfig(stats=("entropy_xyz",))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureConfig(signals=())
        with pytest.raises(ConfigurationError):
            FeatureConfig(stats=())

    def test_raw_channel_as_signal(self):
        cfg = FeatureConfig(signals=("accel_x",), stats=("mean",))
        assert cfg.n_features == 1

    def test_dict_roundtrip(self):
        cfg = FeatureConfig(signals=("accel_mag", "baro"), stats=("mean", "std"))
        rebuilt = FeatureConfig.from_dict(cfg.to_dict())
        assert rebuilt == cfg


class TestExtraction:
    def test_output_shape(self, windows):
        out = FeatureExtractor().extract(windows)
        assert out.shape == (6, 80)

    def test_extract_one_matches_batch(self, windows):
        extractor = FeatureExtractor()
        batch = extractor.extract(windows)
        single = extractor.extract_one(windows[2])
        assert np.allclose(single, batch[2])

    def test_finite_output(self, windows):
        assert np.all(np.isfinite(FeatureExtractor().extract(windows)))

    def test_wrong_ndim_rejected(self, rng):
        with pytest.raises(DataShapeError):
            FeatureExtractor().extract(rng.normal(size=(120, 22)))

    def test_wrong_channels_rejected(self, rng):
        with pytest.raises(DataShapeError):
            FeatureExtractor().extract(rng.normal(size=(2, 120, 21)))

    def test_empty_window_rejected(self, rng):
        with pytest.raises(DataShapeError):
            FeatureExtractor().extract(rng.normal(size=(2, 0, 22)))


class TestStatisticCorrectness:
    """Each statistic verified against a hand-computable construction."""

    def _single_signal(self, series):
        """Embed a 1-D series into accel_x of an otherwise-zero window."""
        window = np.zeros((1, len(series), 22))
        window[0, :, channel_index("accel_x")] = series
        cfg = FeatureConfig(signals=("accel_x",), stats=tuple(STATISTICS))
        return FeatureExtractor(cfg).extract(window)[0], list(STATISTICS)

    def test_known_values(self):
        series = np.array([1.0, 2.0, 3.0, 4.0])
        values, names = self._single_signal(series)
        got = dict(zip(names, values))
        assert got["mean"] == pytest.approx(2.5)
        assert got["std"] == pytest.approx(series.std())
        assert got["min"] == 1.0
        assert got["max"] == 4.0
        assert got["median"] == pytest.approx(2.5)
        assert got["iqr"] == pytest.approx(1.5)
        assert got["rms"] == pytest.approx(np.sqrt(np.mean(series**2)))
        assert got["mad"] == pytest.approx(1.0)

    def test_slope_of_linear_series(self):
        series = 0.5 * np.arange(10) + 2.0
        values, names = self._single_signal(series)
        got = dict(zip(names, values))
        assert got["slope"] == pytest.approx(0.5)

    def test_zcr_of_alternating_series(self):
        series = np.array([1.0, -1.0] * 10)
        values, names = self._single_signal(series)
        got = dict(zip(names, values))
        assert got["zcr"] == pytest.approx(1.0)

    def test_zcr_of_flat_series_is_zero(self):
        values, names = self._single_signal(np.full(20, 3.0))
        got = dict(zip(names, values))
        assert got["zcr"] == 0.0


class TestDerivedSignals:
    def test_magnitude_is_rotation_invariant(self, rng):
        """accel_mag must not change when the device frame is rotated."""
        window = rng.normal(size=(1, 60, 22))
        theta = 0.7
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        rotated = window.copy()
        idx = group_indices("accelerometer")
        rotated[0, :, idx] = (rot @ window[0, :, idx])
        cfg = FeatureConfig(signals=("accel_mag",), stats=("mean", "std", "max"))
        extractor = FeatureExtractor(cfg)
        assert np.allclose(
            extractor.extract(window), extractor.extract(rotated), atol=1e-10
        )

    def test_magnitude_nonnegative(self, rng):
        window = rng.normal(size=(4, 60, 22))
        cfg = FeatureConfig(signals=("gyro_mag",), stats=("min",))
        out = FeatureExtractor(cfg).extract(window)
        assert np.all(out >= 0.0)


class TestSeparability:
    def test_activities_differ_in_feature_space(self):
        """The default features must separate Still from Run clearly."""
        device = SensorDevice(rng=3)
        extractor = FeatureExtractor()

        def features_of(activity):
            rec = device.record(activity, 5.0)
            windows = rec.data[: 5 * 120].reshape(5, 120, 22)
            return extractor.extract(windows)

        still = features_of("still")
        run = features_of("run")
        # accel_mag std (feature index 1) must be far larger for run.
        assert run[:, 1].min() > 3.0 * still[:, 1].max()
