"""Unit tests for spectral features and extractor composition."""

import numpy as np
import pytest

from reference_features import FeatureExtractor
from repro.exceptions import ConfigurationError, DataShapeError, SerializationError
from repro.preprocessing import (
    CombinedFeatureExtractor,
    PreprocessingPipeline,
    SPECTRAL_STATS,
    SpectralConfig,
    SpectralFeatureExtractor,
    StreamingFeatureExtractor,
    extractor_from_dict,
    extractor_to_dict,
)
from repro.sensors import SensorDevice, channel_index, get_activity


def tone_windows(freq_hz, n_windows=2, n=240, fs=120.0, channel="accel_x"):
    """Windows whose given channel carries a pure tone at freq_hz."""
    t = np.arange(n) / fs
    windows = np.zeros((n_windows, n, 22))
    windows[:, :, channel_index(channel)] = np.sin(2 * np.pi * freq_hz * t)
    return windows


class TestSpectralConfig:
    def test_default_feature_count(self):
        cfg = SpectralConfig()
        assert cfg.n_features == 3 * len(SPECTRAL_STATS)

    def test_unknown_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            SpectralConfig(signals=("laser",))

    def test_bad_sampling_rejected(self):
        with pytest.raises(ConfigurationError):
            SpectralConfig(sampling_hz=0.0)

    def test_dict_roundtrip(self):
        cfg = SpectralConfig(signals=("accel_mag",), sampling_hz=100.0)
        assert SpectralConfig.from_dict(cfg.to_dict()) == cfg


class TestSpectralExtraction:
    def test_dominant_frequency_of_pure_tone(self):
        cfg = SpectralConfig(signals=("accel_x",))
        extractor = SpectralFeatureExtractor(cfg)
        for freq in (2.0, 5.0, 13.0):
            out = extractor.extract(tone_windows(freq))
            names = extractor.feature_names()
            dom = out[0, names.index("accel_x:dom_freq")]
            assert dom == pytest.approx(freq, abs=0.5)

    def test_pure_tone_has_low_entropy(self, rng):
        cfg = SpectralConfig(signals=("accel_x",))
        extractor = SpectralFeatureExtractor(cfg)
        names = extractor.feature_names()
        idx = names.index("accel_x:entropy")
        tone = extractor.extract(tone_windows(3.0))[0, idx]
        noise = np.zeros((1, 240, 22))
        noise[0, :, channel_index("accel_x")] = rng.normal(size=240)
        noisy = extractor.extract(noise)[0, idx]
        assert tone < 0.4 < noisy

    def test_band_fractions_sum_at_most_one(self, rng):
        windows = rng.normal(size=(3, 120, 22))
        extractor = SpectralFeatureExtractor(SpectralConfig(signals=("gyro_x",)))
        names = extractor.feature_names()
        out = extractor.extract(windows)
        band_cols = [i for i, n in enumerate(names) if ":band_" in n]
        sums = out[:, band_cols].sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-9)
        assert np.all(out[:, band_cols] >= 0.0)

    def test_tone_lands_in_right_band(self):
        extractor = SpectralFeatureExtractor(SpectralConfig(signals=("accel_x",)))
        names = extractor.feature_names()
        out = extractor.extract(tone_windows(25.0))  # vibration-range tone
        high = out[0, names.index("accel_x:band_high")]
        body = out[0, names.index("accel_x:band_body")]
        assert high > 0.9
        assert body < 0.05

    def test_silent_signal_yields_zeros(self):
        windows = np.zeros((2, 120, 22))
        extractor = SpectralFeatureExtractor(SpectralConfig(signals=("accel_x",)))
        assert np.all(extractor.extract(windows) == 0.0)

    def test_extract_one_matches_batch(self, rng):
        windows = rng.normal(size=(3, 120, 22))
        extractor = SpectralFeatureExtractor()
        assert np.allclose(
            extractor.extract_one(windows[1]), extractor.extract(windows)[1]
        )

    def test_shape_validation(self, rng):
        extractor = SpectralFeatureExtractor()
        with pytest.raises(DataShapeError):
            extractor.extract(rng.normal(size=(120, 22)))
        with pytest.raises(DataShapeError):
            extractor.extract(rng.normal(size=(2, 1, 22)))

    def test_separates_walk_from_drive(self):
        """Cadence vs engine vibration: clearly different dominant bands."""
        device = SensorDevice(rng=5)
        extractor = SpectralFeatureExtractor(
            SpectralConfig(signals=("linacc_mag",))
        )
        names = extractor.feature_names()
        body_idx = names.index("linacc_mag:band_body")

        def body_fraction(activity):
            rec = device.record(activity, 4.0)
            windows = rec.data[: 4 * 120].reshape(4, 120, 22)
            return extractor.extract(windows)[:, body_idx].mean()

        assert body_fraction("walk") > 2.0 * body_fraction("drive")


class TestCombinedExtractor:
    def test_concatenates_features(self):
        combined = CombinedFeatureExtractor(
            [StreamingFeatureExtractor(), SpectralFeatureExtractor()]
        )
        assert combined.n_features == 80 + 24
        assert len(combined.feature_names()) == 104

    def test_output_is_column_concat(self, rng):
        spec = SpectralFeatureExtractor()
        combined = CombinedFeatureExtractor([StreamingFeatureExtractor(), spec])
        windows = rng.normal(size=(3, 120, 22))
        out = combined.extract(windows)
        assert np.allclose(out[:, :80], FeatureExtractor().extract(windows))
        assert np.allclose(out[:, 80:], spec.extract(windows))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            CombinedFeatureExtractor([])

    def test_extract_one(self, rng):
        combined = CombinedFeatureExtractor([SpectralFeatureExtractor()])
        w = rng.normal(size=(120, 22))
        assert combined.extract_one(w).shape == (24,)


class TestExtractorSerialization:
    def test_statistical_roundtrip(self, rng):
        original = StreamingFeatureExtractor()
        rebuilt = extractor_from_dict(extractor_to_dict(original))
        data = rng.normal(size=(120, 22))
        assert np.allclose(
            rebuilt.extract(data, 60), original.extract(data, 60)
        )

    def test_spectral_roundtrip(self, rng):
        original = SpectralFeatureExtractor(
            SpectralConfig(signals=("gyro_mag",), sampling_hz=100.0)
        )
        rebuilt = extractor_from_dict(extractor_to_dict(original))
        windows = rng.normal(size=(2, 60, 22))
        assert np.allclose(rebuilt.extract(windows), original.extract(windows))

    def test_combined_roundtrip(self, rng):
        original = CombinedFeatureExtractor(
            [StreamingFeatureExtractor(), SpectralFeatureExtractor()]
        )
        rebuilt = extractor_from_dict(extractor_to_dict(original))
        windows = rng.normal(size=(2, 60, 22))
        assert np.allclose(rebuilt.extract(windows), original.extract(windows))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            extractor_from_dict({"kind": "wavelet"})

    def test_unsupported_object_rejected(self):
        with pytest.raises(SerializationError):
            extractor_to_dict(object())


class TestPipelineWithCustomExtractor:
    def test_spectral_pipeline_end_to_end(self, tiny_campaign):
        pipeline = PreprocessingPipeline(
            extractor=SpectralFeatureExtractor()
        )
        pipeline.fit_normalizer(tiny_campaign.windows[:20])
        out = pipeline.process_windows(tiny_campaign.windows[:5])
        assert out.shape == (5, 24)

    def test_combined_pipeline_roundtrip(self, tiny_campaign):
        pipeline = PreprocessingPipeline(
            extractor=CombinedFeatureExtractor(
                [StreamingFeatureExtractor(), SpectralFeatureExtractor()]
            )
        )
        pipeline.fit_normalizer(tiny_campaign.windows[:20])
        rebuilt = PreprocessingPipeline.from_dict(pipeline.to_dict())
        a = pipeline.process_windows(tiny_campaign.windows[:3])
        b = rebuilt.process_windows(tiny_campaign.windows[:3])
        assert np.allclose(a, b)

    def test_both_config_and_extractor_rejected(self):
        from repro.preprocessing import FeatureConfig

        with pytest.raises(ConfigurationError):
            PreprocessingPipeline(
                feature_config=FeatureConfig(),
                extractor=SpectralFeatureExtractor(),
            )
