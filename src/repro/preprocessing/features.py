"""The statistical feature grid: which signals, which statistics.

The paper extracts **80 statistical features** per one-second window using a
linear-time extractor.  We realize that as a configurable grid:

    features = |signals| x |statistics|

with the default configuration being **8 derived signals x 10 statistics =
80 features**, all computable in a single vectorized pass (O(window length)
per window).

Signals may be any named raw channel (see
:mod:`repro.sensors.channels`) or a derived magnitude: ``accel_mag``,
``gyro_mag``, ``mag_mag``, ``linacc_mag``, ``grav_mag`` — the Euclidean norm
across the group's axes, which is rotation-invariant and therefore robust to
phone placement.

Statistics (all linear-time): mean, std, min, max, median, iqr, rms, mad,
zero-crossing rate (of the de-meaned signal) and linear slope.

:data:`STATISTICS` holds each one's definition over a ``(k, n)`` block of
series; the extractor that computes the grid is
:class:`~repro.preprocessing.streaming.StreamingFeatureExtractor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..sensors.channels import CHANNEL_INDEX

#: Derived magnitude signals -> the channel group whose norm they take.
DERIVED_SIGNALS: Dict[str, str] = {
    "accel_mag": "accelerometer",
    "gyro_mag": "gyroscope",
    "mag_mag": "magnetometer",
    "linacc_mag": "linear_acceleration",
    "grav_mag": "gravity",
}


def _stat_mean(s: np.ndarray) -> np.ndarray:
    return s.mean(axis=1)


def _stat_std(s: np.ndarray) -> np.ndarray:
    return s.std(axis=1)


def _stat_min(s: np.ndarray) -> np.ndarray:
    return s.min(axis=1)


def _stat_max(s: np.ndarray) -> np.ndarray:
    return s.max(axis=1)


def _stat_median(s: np.ndarray) -> np.ndarray:
    return np.median(s, axis=1)


def _stat_iqr(s: np.ndarray) -> np.ndarray:
    q75, q25 = np.percentile(s, [75, 25], axis=1)
    return q75 - q25


def _stat_rms(s: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(s * s, axis=1))


def _stat_mad(s: np.ndarray) -> np.ndarray:
    med = np.median(s, axis=1, keepdims=True)
    return np.median(np.abs(s - med), axis=1)


def _stat_zcr(s: np.ndarray) -> np.ndarray:
    """Zero-crossing rate of the de-meaned signal, in crossings per sample."""
    n = s.shape[1]
    if n < 2:
        return np.zeros(s.shape[0])
    centered = s - s.mean(axis=1, keepdims=True)
    signs = np.sign(centered)
    # Treat exact zeros as positive so flat signals report zero crossings.
    signs[signs == 0] = 1.0
    crossings = (np.diff(signs, axis=1) != 0).sum(axis=1)
    return crossings / (n - 1)


def _stat_slope(s: np.ndarray) -> np.ndarray:
    """Least-squares linear slope per window (trend, e.g. barometric drift)."""
    n = s.shape[1]
    if n < 2:
        return np.zeros(s.shape[0])
    t = np.arange(n, dtype=np.float64)
    t_centered = t - t.mean()
    denom = float((t_centered * t_centered).sum())
    centered = s - s.mean(axis=1, keepdims=True)
    return (centered @ t_centered) / denom


#: Registry of statistic name -> vectorized implementation over (k, n).
STATISTICS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "mean": _stat_mean,
    "std": _stat_std,
    "min": _stat_min,
    "max": _stat_max,
    "median": _stat_median,
    "iqr": _stat_iqr,
    "rms": _stat_rms,
    "mad": _stat_mad,
    "zcr": _stat_zcr,
    "slope": _stat_slope,
}

#: Default 8 signals x 10 statistics = the paper's 80 features.
DEFAULT_SIGNALS: Tuple[str, ...] = (
    "accel_mag",
    "gyro_mag",
    "linacc_mag",
    "mag_mag",
    "grav_z",
    "gyro_z",
    "baro",
    "light",
)
DEFAULT_STATS: Tuple[str, ...] = (
    "mean",
    "std",
    "min",
    "max",
    "median",
    "iqr",
    "rms",
    "mad",
    "zcr",
    "slope",
)


@dataclass(frozen=True)
class FeatureConfig:
    """Which signals and statistics to extract.

    The default reproduces the paper's 80-dimensional feature vector.
    """

    signals: Tuple[str, ...] = DEFAULT_SIGNALS
    stats: Tuple[str, ...] = DEFAULT_STATS

    def __post_init__(self) -> None:
        if not self.signals:
            raise ConfigurationError("signals must be non-empty")
        if not self.stats:
            raise ConfigurationError("stats must be non-empty")
        for sig in self.signals:
            if sig not in CHANNEL_INDEX and sig not in DERIVED_SIGNALS:
                raise ConfigurationError(
                    f"unknown signal {sig!r}; must be a channel name or one of "
                    f"{sorted(DERIVED_SIGNALS)}"
                )
        for stat in self.stats:
            if stat not in STATISTICS:
                raise ConfigurationError(
                    f"unknown statistic {stat!r}; available: {sorted(STATISTICS)}"
                )

    @property
    def n_features(self) -> int:
        return len(self.signals) * len(self.stats)

    def to_dict(self) -> Dict:
        return {"signals": list(self.signals), "stats": list(self.stats)}

    @classmethod
    def from_dict(cls, payload: Dict) -> "FeatureConfig":
        return cls(
            signals=tuple(payload["signals"]),
            stats=tuple(payload["stats"]),
        )
