"""The plain statistical feature extractor, kept as the reference for parity tests.

The library featurizes through one implementation: the stacked pass of
:class:`~repro.preprocessing.streaming.StreamingFeatureExtractor`, fed by the
pipeline's window kernel.  The extractor below computes the same
``(k, n_features)`` matrix the obvious way — one ``(k, window_len)`` series per
configured signal, one :data:`~repro.preprocessing.features.STATISTICS` call
per statistic — and the parity tests hold the stacked pass to it (1e-9, most
statistics bit-exactly).

Only :class:`~repro.preprocessing.features.FeatureConfig`, ``STATISTICS`` and
``DERIVED_SIGNALS`` are shared with the library.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import DataShapeError
from repro.preprocessing.features import DERIVED_SIGNALS, STATISTICS, FeatureConfig
from repro.sensors.channels import CHANNEL_INDEX, N_CHANNELS, group_indices


class FeatureExtractor:
    """Vectorized extractor of statistical features from raw windows.

    ``extract`` maps ``(k, window_len, 22)`` raw windows to a ``(k,
    n_features)`` matrix; ``extract_one`` handles a single ``(window_len,
    22)`` window.  Feature order is ``signal-major``: all statistics of the
    first signal, then the second, etc. — see :meth:`feature_names`.
    """

    def __init__(self, config: FeatureConfig = None) -> None:
        self.config = config if config is not None else FeatureConfig()

    @property
    def n_features(self) -> int:
        return self.config.n_features

    def feature_names(self) -> List[str]:
        """Names like ``accel_mag:std`` in extraction order."""
        return [
            f"{sig}:{stat}"
            for sig in self.config.signals
            for stat in self.config.stats
        ]

    def _signal_series(self, windows: np.ndarray, signal: str) -> np.ndarray:
        """The (k, n) series for one configured signal."""
        if signal in DERIVED_SIGNALS:
            idx = group_indices(DERIVED_SIGNALS[signal])
            return np.linalg.norm(windows[:, :, idx], axis=2)
        return windows[:, :, CHANNEL_INDEX[signal]]

    def extract(self, windows: np.ndarray) -> np.ndarray:
        arr = np.asarray(windows, dtype=np.float64)
        if arr.ndim != 3:
            raise DataShapeError(
                f"windows must be 3-D (k, window_len, channels), got {arr.shape}"
            )
        if arr.shape[2] != N_CHANNELS:
            raise DataShapeError(
                f"windows must have {N_CHANNELS} channels, got {arr.shape[2]}"
            )
        if arr.shape[1] < 1:
            raise DataShapeError("windows must contain at least one sample")
        k = arr.shape[0]
        out = np.empty((k, self.n_features))
        col = 0
        for sig in self.config.signals:
            series = self._signal_series(arr, sig)
            for stat in self.config.stats:
                out[:, col] = STATISTICS[stat](series)
                col += 1
        return out

    def extract_one(self, window: np.ndarray) -> np.ndarray:
        """Features of a single window, shape ``(n_features,)``."""
        arr = np.asarray(window, dtype=np.float64)
        if arr.ndim != 2:
            raise DataShapeError(
                f"window must be 2-D (window_len, channels), got {arr.shape}"
            )
        return self.extract(arr[None, :, :])[0]
