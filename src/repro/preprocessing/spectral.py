"""Spectral (frequency-domain) feature extraction.

The paper's pipeline uses hand-crafted *statistical* features but
explicitly invites richer extractors: "more advanced feature extractors
can be explored and integrated into our framework ... This is orthogonal
to our work" (Section 3.2).  This module provides that integration point:
frequency-domain descriptors of each configured signal, computed from the
window's FFT magnitude spectrum —

- ``dom_freq``      dominant frequency (Hz) — separates walk/run cadence,
- ``dom_power``     relative power of the dominant bin,
- ``centroid``      spectral centroid (Hz),
- ``entropy``       normalized spectral entropy (flat noise -> 1),
- ``band_*``        energy fractions of fixed bands (0.5-3, 3-8, 8-20,
  20-60 Hz: body motion, fast motion, vehicle vibration, high-frequency).

:class:`SpectralFeatureExtractor` speaks the statistical extractor's
protocol — ``read_channels`` plus ``extract_read_columns(read, window_len,
stride, dtype)`` — so the pipeline's window kernel and stream paths run
it like any other extractor, and :class:`CombinedFeatureExtractor`
concatenates any number of extractors so the pipeline can run
statistical + spectral features together (ablated in
``benchmarks/bench_feature_ablation.py``).  Both also featurize window
cubes (``extract``/``extract_one``), as thin wrappers over the same
method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, DataShapeError
from ..sensors.channels import CHANNEL_INDEX, N_CHANNELS
from .features import DERIVED_SIGNALS, FeatureConfig
from .segmentation import window_count
from .streaming import StreamingFeatureExtractor

#: (name, lo_hz, hi_hz) energy bands; chosen to separate body motion,
#: fast motion, vehicle vibration and high-frequency content.
FREQUENCY_BANDS: Tuple[Tuple[str, float, float], ...] = (
    ("band_body", 0.5, 3.0),
    ("band_fast", 3.0, 8.0),
    ("band_vib", 8.0, 20.0),
    ("band_high", 20.0, 60.0),
)

#: Spectral statistics in extraction order.
SPECTRAL_STATS: Tuple[str, ...] = (
    "dom_freq",
    "dom_power",
    "centroid",
    "entropy",
) + tuple(name for name, _, _ in FREQUENCY_BANDS)

#: Default signals (motion magnitudes; environment channels carry little
#: frequency content).
DEFAULT_SPECTRAL_SIGNALS: Tuple[str, ...] = (
    "accel_mag",
    "gyro_mag",
    "linacc_mag",
)


@dataclass(frozen=True)
class SpectralConfig:
    """Which signals to analyze and at what sampling rate."""

    signals: Tuple[str, ...] = DEFAULT_SPECTRAL_SIGNALS
    sampling_hz: float = 120.0

    def __post_init__(self) -> None:
        if not self.signals:
            raise ConfigurationError("signals must be non-empty")
        if self.sampling_hz <= 0:
            raise ConfigurationError(
                f"sampling_hz must be > 0, got {self.sampling_hz}"
            )
        for sig in self.signals:
            if sig not in CHANNEL_INDEX and sig not in DERIVED_SIGNALS:
                raise ConfigurationError(
                    f"unknown signal {sig!r}; must be a channel name or one "
                    f"of {sorted(DERIVED_SIGNALS)}"
                )

    @property
    def n_features(self) -> int:
        return len(self.signals) * len(SPECTRAL_STATS)

    def to_dict(self) -> Dict:
        return {
            "signals": list(self.signals),
            "sampling_hz": self.sampling_hz,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SpectralConfig":
        return cls(
            signals=tuple(payload["signals"]),
            sampling_hz=float(payload["sampling_hz"]),
        )


class _WindowCubes:
    """``extract``/``extract_one`` of raw window cubes, for an extractor
    with ``read_channels`` and ``extract_read_columns``."""

    def extract(self, windows: np.ndarray) -> np.ndarray:
        """``(k, window_len, 22)`` raw windows -> ``(k, n_features)``: their
        read columns, stacked into the one signal they partition, through
        ``extract_read_columns``."""
        arr = np.asarray(windows, dtype=np.float64)
        if arr.ndim != 3:
            raise DataShapeError(
                f"windows must be 3-D (k, window_len, channels), got {arr.shape}"
            )
        if arr.shape[2] != N_CHANNELS:
            raise DataShapeError(
                f"windows must have {N_CHANNELS} channels, got {arr.shape[2]}"
            )
        k, window_len, _ = arr.shape
        read = arr[..., self.read_channels].reshape(k * window_len, -1)
        return self.extract_read_columns(read, window_len)

    def extract_one(self, window: np.ndarray) -> np.ndarray:
        """Features of a single window, shape ``(n_features,)``."""
        arr = np.asarray(window, dtype=np.float64)
        if arr.ndim != 2:
            raise DataShapeError(
                f"window must be 2-D (window_len, channels), got {arr.shape}"
            )
        return self.extract(arr[None, :, :])[0]


def _check_read(read: np.ndarray, read_channels: np.ndarray) -> np.ndarray:
    """``read`` as float64 ``(n, len(read_channels))``, else ``DataShapeError``."""
    arr = np.asarray(read, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(read_channels):
        raise DataShapeError(
            f"read columns must be 2-D (n, {len(read_channels)}), "
            f"got {arr.shape}"
        )
    return arr


class SpectralFeatureExtractor(_WindowCubes):
    """Frequency-domain features per configured signal.

    ``read_channels`` are the channels its signals read (9 for the
    default motion magnitudes), resolved by the statistical extractor's
    series plan; ``extract_read_columns`` builds that plan's series block
    and runs :meth:`_spectral_block` over each signal's windows, always
    in float64, casting the rows to the requested dtype.
    Linear-ithmic time (FFT) per window — still edge-friendly.
    """

    def __init__(self, config: SpectralConfig = None) -> None:
        self.config = config if config is not None else SpectralConfig()
        self._plan = StreamingFeatureExtractor(
            FeatureConfig(signals=self.config.signals)
        )
        self.read_channels = self._plan.read_channels

    @property
    def n_features(self) -> int:
        return self.config.n_features

    def feature_names(self) -> List[str]:
        return [
            f"{sig}:{stat}"
            for sig in self.config.signals
            for stat in SPECTRAL_STATS
        ]

    def _spectral_block(self, series: np.ndarray) -> np.ndarray:
        """All spectral stats for one (k, n) signal block -> (k, S)."""
        k, n = series.shape
        centered = series - series.mean(axis=1, keepdims=True)
        spectrum = np.abs(np.fft.rfft(centered, axis=1)) ** 2
        freqs = np.fft.rfftfreq(n, d=1.0 / self.config.sampling_hz)
        # Skip the DC bin (always ~0 after centering).
        spectrum = spectrum[:, 1:]
        freqs = freqs[1:]
        total = spectrum.sum(axis=1)
        safe_total = np.where(total > 0.0, total, 1.0)

        out = np.empty((k, len(SPECTRAL_STATS)))
        dom_idx = np.argmax(spectrum, axis=1)
        out[:, 0] = freqs[dom_idx]
        out[:, 1] = spectrum[np.arange(k), dom_idx] / safe_total
        out[:, 2] = (spectrum * freqs[None, :]).sum(axis=1) / safe_total
        probs = spectrum / safe_total[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_probs = np.where(probs > 0.0, np.log(probs), 0.0)
        n_bins = spectrum.shape[1]
        norm = np.log(n_bins) if n_bins > 1 else 1.0
        out[:, 3] = -(probs * log_probs).sum(axis=1) / norm
        for j, (_, lo, hi) in enumerate(FREQUENCY_BANDS):
            mask = (freqs >= lo) & (freqs < hi)
            out[:, 4 + j] = spectrum[:, mask].sum(axis=1) / safe_total
        # Silent signals carry no frequency information at all.
        silent = total == 0.0
        out[silent] = 0.0
        return out

    def extract_read_columns(
        self, read: np.ndarray, window_len: int, stride: int = None,
        dtype=None,
    ) -> np.ndarray:
        """Spectral rows of every window of ``read``, the ``(n,
        len(read_channels))`` columns of a signal, at ``stride``
        (default ``window_len``)."""
        arr = _check_read(read, self.read_channels)
        if window_len < 2:
            raise DataShapeError("windows need >= 2 samples for a spectrum")
        stride = window_len if stride is None else stride
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        n_windows = window_count(arr.shape[0], window_len, stride)
        if n_windows == 0:
            return np.empty((0, self.n_features), dtype=dtype)
        series = self._plan._read_series_block(arr)
        windows = np.lib.stride_tricks.sliding_window_view(
            series, window_len, axis=1
        )[:, : (n_windows - 1) * stride + 1 : stride]
        out = np.concatenate(
            [self._spectral_block(signal) for signal in windows], axis=1
        )
        return out if dtype is None else out.astype(dtype, copy=False)

    def to_dict(self) -> Dict:
        return {"kind": "spectral", "config": self.config.to_dict()}


class CombinedFeatureExtractor(_WindowCubes):
    """Concatenation of several extractors into one feature vector.

    Any extractor with ``read_channels``, ``extract_read_columns``,
    ``n_features`` and ``feature_names`` composes — the statistical and
    spectral extractors in particular.  The combination reads the union
    of its parts' channels; each part reads its own columns of it.
    """

    def __init__(self, extractors: Sequence) -> None:
        if not extractors:
            raise ConfigurationError("extractors must be non-empty")
        self.extractors = list(extractors)
        self.read_channels = np.unique(
            np.concatenate([e.read_channels for e in self.extractors])
        )
        self._part_columns = [
            np.searchsorted(self.read_channels, e.read_channels)
            for e in self.extractors
        ]

    @property
    def n_features(self) -> int:
        return sum(e.n_features for e in self.extractors)

    def feature_names(self) -> List[str]:
        names: List[str] = []
        for extractor in self.extractors:
            names.extend(extractor.feature_names())
        return names

    def extract_read_columns(
        self, read: np.ndarray, window_len: int, stride: int = None,
        dtype=None,
    ) -> np.ndarray:
        """Every part's rows of its own columns of ``read``, concatenated."""
        arr = _check_read(read, self.read_channels)
        return np.concatenate(
            [
                part.extract_read_columns(
                    arr[:, columns], window_len, stride=stride, dtype=dtype
                )
                for part, columns in zip(self.extractors, self._part_columns)
            ],
            axis=1,
        )
