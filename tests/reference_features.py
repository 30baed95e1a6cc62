"""The plain statistical feature extractor, kept as the reference for parity tests.

The library featurizes through one implementation: the stacked pass of
:class:`~repro.preprocessing.streaming.StreamingFeatureExtractor`, fed by the
pipeline's window kernel.  The extractor below computes the same
``(k, n_features)`` matrix the obvious way — one ``(k, window_len)`` series per
configured signal, one :data:`~repro.preprocessing.features.STATISTICS` call
per statistic — and the parity tests hold the stacked pass to it (1e-9, most
statistics bit-exactly).

:func:`stacked_features` is the stacked pass as it was before its reductions
were fused: one :class:`_StackedWindows` of rows, one vectorized call per
statistic (:data:`STACKED_STATISTICS`).  The library's fused pass must give
its bits exactly; ``tests/test_preprocessing_streaming.py`` asserts that.

Only :class:`~repro.preprocessing.features.FeatureConfig`, ``STATISTICS`` and
``DERIVED_SIGNALS`` are shared with the library.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Tuple

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


# ---------------------------------------------------------------------- #
# the per-statistic stacked pass: the bit-identity reference
# ---------------------------------------------------------------------- #


def _lerp_quantile(ctx, q: float) -> np.ndarray:
    """``np.percentile(..., method="linear")`` from the sorted rows.

    Replicates numpy's virtual-index arithmetic and its ``_lerp`` (including
    the ``t >= 0.5`` rewrite) so the result is bit-identical to
    ``np.percentile`` on the same windows.
    """
    window_len = ctx.window_len
    virtual = q * (window_len - 1)
    lo = int(np.floor(virtual))
    hi = min(lo + 1, window_len - 1)
    t = virtual - lo
    a = ctx.ordered[:, lo]
    b = ctx.ordered[:, hi]
    diff = b - a
    if t >= 0.5:
        return b - diff * (1.0 - t)
    return a + diff * t


def _middle(ordered: np.ndarray) -> np.ndarray:
    """Per-row median of row-sorted data — ``np.median``'s exact halving."""
    w = ordered.shape[1]
    if w % 2:
        return ordered[:, (w - 1) // 2]
    return (ordered[:, w // 2 - 1] + ordered[:, w // 2]) / 2.0


class _StackedWindows:
    """Lazy caches shared by the stacked statistics of one block of rows.

    ``rows`` is ``(windows * signals, window_len)``: one window of one
    signal per row.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self.window_len = rows.shape[1]
        self._means: Optional[np.ndarray] = None
        self._centered: Optional[np.ndarray] = None
        self._ordered: Optional[np.ndarray] = None
        self._medians: Optional[np.ndarray] = None

    @property
    def means(self) -> np.ndarray:
        if self._means is None:
            self._means = self.rows.sum(axis=1) / self.window_len
        return self._means

    @property
    def centered(self) -> np.ndarray:
        if self._centered is None:
            self._centered = self.rows - self.means[:, None]
        return self._centered

    @property
    def ordered(self) -> np.ndarray:
        if self._ordered is None:
            self._ordered = np.sort(self.rows, axis=1)
        return self._ordered

    @property
    def medians(self) -> np.ndarray:
        if self._medians is None:
            self._medians = _middle(self.ordered)
        return self._medians


def _stacked_std(ctx: _StackedWindows) -> np.ndarray:
    centered = ctx.centered
    return np.sqrt((centered * centered).sum(axis=1) / ctx.window_len)


def _stacked_rms(ctx: _StackedWindows) -> np.ndarray:
    return np.sqrt((ctx.rows * ctx.rows).sum(axis=1) / ctx.window_len)


def _stacked_iqr(ctx: _StackedWindows) -> np.ndarray:
    return _lerp_quantile(ctx, 0.75) - _lerp_quantile(ctx, 0.25)


def _stacked_mad(ctx: _StackedWindows) -> np.ndarray:
    deviations = ctx.rows - ctx.medians[:, None]
    np.abs(deviations, out=deviations)
    deviations.sort(axis=1)
    return _middle(deviations)


def _stacked_zcr(ctx: _StackedWindows) -> np.ndarray:
    w = ctx.window_len
    if w < 2:
        return np.zeros(ctx.rows.shape[0])
    # Exact zeros count as positive, like the plain definition's sign fix-up.
    positive = ctx.centered >= 0
    crossings = np.count_nonzero(positive[:, 1:] != positive[:, :-1], axis=1)
    return crossings / (w - 1)


@functools.lru_cache(maxsize=16)
def _slope_axis(window_len: int) -> Tuple[np.ndarray, float]:
    t_centered = np.arange(window_len, dtype=np.float64) - (window_len - 1) / 2.0
    return t_centered, float((t_centered * t_centered).sum())


def _stacked_slope(ctx: _StackedWindows) -> np.ndarray:
    w = ctx.window_len
    if w < 2:
        return np.zeros(ctx.rows.shape[0])
    t_centered, denom = _slope_axis(w)
    return (ctx.centered * t_centered).sum(axis=1) / denom


#: Statistic name -> stacked implementation over a :class:`_StackedWindows`.
STACKED_STATISTICS: Dict[str, Callable[[_StackedWindows], np.ndarray]] = {
    "mean": lambda ctx: ctx.means,
    "std": _stacked_std,
    "min": lambda ctx: ctx.ordered[:, 0],
    "max": lambda ctx: ctx.ordered[:, -1],
    "median": lambda ctx: ctx.medians,
    "iqr": _stacked_iqr,
    "rms": _stacked_rms,
    "mad": _stacked_mad,
    "zcr": _stacked_zcr,
    "slope": _stacked_slope,
}


def stacked_rows_features(rows: np.ndarray, stats) -> np.ndarray:
    """``(rows, len(stats))``: every statistic of every row of a contiguous
    ``(rows, window_len)`` block, one call per statistic; statistics
    without a stacked implementation run their ``STATISTICS`` entry."""
    ctx = _StackedWindows(rows)
    features = np.empty((rows.shape[0], len(stats)), dtype=rows.dtype)
    for col, stat in enumerate(stats):
        stacked = STACKED_STATISTICS.get(stat)
        features[:, col] = (
            STATISTICS[stat](rows) if stacked is None else stacked(ctx)
        )
    return features


def stacked_features(
    config: FeatureConfig, data: np.ndarray, window_len: int, stride: int,
    dtype=np.float64,
) -> np.ndarray:
    """The per-statistic stacked pass over every window of a continuous
    ``(n, 22)`` signal, in ``dtype``: each signal's series
    (``np.linalg.norm`` of a group's columns, or the raw channel), every
    window of every signal one row of a single block, then
    :func:`stacked_rows_features`."""
    arr = np.asarray(data, dtype=dtype)
    series = np.stack(
        [
            np.linalg.norm(arr[:, group_indices(DERIVED_SIGNALS[sig])], axis=1)
            if sig in DERIVED_SIGNALS
            else arr[:, CHANNEL_INDEX[sig]]
            for sig in config.signals
        ]
    )
    windows = np.lib.stride_tricks.sliding_window_view(
        series, window_len, axis=1
    )[:, ::stride]
    rows = np.ascontiguousarray(windows.transpose(1, 0, 2)).reshape(
        -1, window_len
    )
    return stacked_rows_features(rows, config.stats).reshape(
        windows.shape[1], config.n_features
    )
