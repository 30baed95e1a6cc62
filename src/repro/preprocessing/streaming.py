"""Streaming statistical feature extraction over continuous recordings.

:class:`~repro.preprocessing.features.FeatureExtractor` prices a continuous
recording per *window*: with 50% overlap every sample is featurized twice,
and at 90% overlap ten times, on top of the ``(k, window_len, channels)``
cube the segmentation copies out of the stride-tricks view.
:class:`StreamingFeatureExtractor` computes the same ``(k, n_features)``
matrix straight from the continuous ``(n, channels)`` signal, without ever
materializing the window cube, in one implementation: the *stacked* pass.
The constructor resolves the configured signals into ``read_channels``
(the sorted channels any signal reads: 15 of 22 for the default grid)
and a series plan in the coordinates of those columns.  ``extract``
takes the read columns of its 22-channel input first;
``extract_read_columns`` is the entry for a signal already cut to them
(the pipeline's, whose denoiser only ever filters those columns).  Each
call builds one ``(signals, n)`` series block (raw channel columns plus
the 3-axis groups whose norms are the derived magnitudes) and views its
windows — by a reshape at the non-overlapping stride, a strided view
otherwise; the windows are then walked in bounded groups
(:data:`_STACKED_BLOCK_SAMPLES`), each copied into one contiguous
``(windows * signals, window_len)`` block whose rows every statistic
reduces in a single vectorized call — one sort shared by min, max,
median and iqr.  What depends only on the configuration — the series
plan and slope's centred time axis — is resolved once, not per call.  Every reduction runs along its row only, so a feature
row reads nothing but its own window's samples: it is bit-identical
however the recording was chunked and whoever else shared the call, and
the scratch is bounded by the block, not by the window count.

Every statistic matches ``FeatureExtractor`` to 1e-9 (most bit-exactly);
``tests/test_preprocessing_streaming.py`` pins that contract across strides,
odd window lengths, constant signals and the empty case.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, DataShapeError
from ..sensors.channels import CHANNEL_INDEX, N_CHANNELS, group_indices
from .features import DERIVED_SIGNALS, STATISTICS, FeatureConfig
from .segmentation import window_count


def _lerp_quantile(ctx, q: float) -> np.ndarray:
    """``np.percentile(..., method="linear")`` from the shared partition.

    ``ctx`` is anything with ``window_len`` and ``part_col`` — a
    :class:`_StackedWindows`.

    Replicates numpy's virtual-index arithmetic and its ``_lerp`` (including
    the ``t >= 0.5`` rewrite) so the result is bit-identical to
    ``np.percentile`` on the same windows.
    """
    window_len = ctx.window_len
    virtual = q * (window_len - 1)
    lo = int(np.floor(virtual))
    hi = min(lo + 1, window_len - 1)
    t = virtual - lo
    a = ctx.part_col(lo)
    b = ctx.part_col(hi)
    diff = b - a
    if t >= 0.5:
        return b - diff * (1.0 - t)
    return a + diff * t


#: Float64 samples per stacked scratch block, i.e. a byte budget of
#: ``8 *`` this: the pass walks the call's windows in groups that fit it
#: (all signals counted; a float32 block holds twice the samples), so its
#: temporaries stay a few hundred kB whatever the window count.  At the
#: default grid (8 signals x 120) a block holds 25 float64 or 51 float32
#: windows, so a 40-window float32 tick is one block and pays the
#: per-block statistic overhead once.  A larger budget is not free: with
#: 250-500 kB temporaries some calls got 14-39% slower, their memory
#: mapped and unmapped by the allocator on every call
#: (docs/streaming.md, "What one tick costs").
_STACKED_BLOCK_SAMPLES: int = 3 << 13


def _middle(ordered: np.ndarray) -> np.ndarray:
    """Per-row median of row-sorted data — ``np.median``'s exact halving."""
    w = ordered.shape[1]
    if w % 2:
        return ordered[:, (w - 1) // 2]
    return (ordered[:, w // 2 - 1] + ordered[:, w // 2]) / 2.0


class _StackedWindows:
    """Lazy caches shared by the stacked statistics of one block of rows.

    ``rows`` is ``(windows * signals, window_len)``: one window of one
    signal per row.  Everything below reduces along the row only, so a
    result never depends on which other rows share the block.
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
        """Every row sorted: the one sort min, max, median and iqr share."""
        if self._ordered is None:
            self._ordered = np.sort(self.rows, axis=1)
        return self._ordered

    def part_col(self, i: int) -> np.ndarray:
        return self.ordered[:, i]

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
    # Exact zeros count as positive, like the reference's sign fix-up.
    positive = ctx.centered >= 0
    crossings = np.count_nonzero(positive[:, 1:] != positive[:, :-1], axis=1)
    return crossings / (w - 1)


@functools.lru_cache(maxsize=16)
def _slope_axis(window_len: int) -> Tuple[np.ndarray, float]:
    """Slope's centred time axis and its squared norm, built once per
    window length (read-only: every call shares it)."""
    t_centered = np.arange(window_len, dtype=np.float64) - (window_len - 1) / 2.0
    t_centered.flags.writeable = False
    return t_centered, float((t_centered * t_centered).sum())


def _stacked_slope(ctx: _StackedWindows) -> np.ndarray:
    w = ctx.window_len
    if w < 2:
        return np.zeros(ctx.rows.shape[0])
    # The time axis stays float64 on the float32 fast path too.  Multiply
    # and row-sum rather than a matrix product: BLAS picks its summation
    # order from the whole operand's shape, a row sum only from the row.
    t_centered, denom = _slope_axis(w)
    return (ctx.centered * t_centered).sum(axis=1) / denom


#: Statistic name -> stacked implementation over a :class:`_StackedWindows`.
_STACKED_STATISTICS: Dict[str, Callable[[_StackedWindows], np.ndarray]] = {
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


class StreamingFeatureExtractor:
    """Window features of a continuous recording without window cubes.

    ``extract`` maps a continuous ``(n, channels)`` signal straight to the
    ``(k, n_features)`` matrix that
    ``FeatureExtractor().extract(sliding_windows(signal, w, stride))`` would
    produce, in the same signal-major feature order.  Statistics without a
    stacked implementation (e.g. ones registered into
    :data:`~repro.preprocessing.features.STATISTICS` by users) transparently
    fall back to the batched implementation over each block's rows.
    """

    def __init__(self, config: FeatureConfig = None) -> None:
        self.config = config if config is not None else FeatureConfig()
        # The series plan: which row of the (signals, n) series block
        # comes straight from a raw channel, and which is the Euclidean
        # norm of a channel group — resolved once, not per call.
        raw = [
            (j, CHANNEL_INDEX[sig])
            for j, sig in enumerate(self.config.signals)
            if sig not in DERIVED_SIGNALS
        ]
        derived = [
            (j, group_indices(DERIVED_SIGNALS[sig]))
            for j, sig in enumerate(self.config.signals)
            if sig in DERIVED_SIGNALS
        ]
        raw_channels = np.array([c for _, c in raw], dtype=np.intp)
        # every derived signal is the norm of a 3-axis group
        group_channels = np.array(
            [idx for _, idx in derived], dtype=np.intp
        ).reshape(len(derived), 3)
        #: The sensor channels some configured signal reads, ascending
        #: (15 of 22 for the default config).  The plan below indexes the
        #: ``(n, len(read_channels))`` block of these columns.
        self.read_channels = np.union1d(raw_channels, group_channels)
        self._raw_slots = np.array([j for j, _ in raw], dtype=np.intp)
        self._raw_columns = np.searchsorted(self.read_channels, raw_channels)
        self._derived_slots = np.array([j for j, _ in derived], dtype=np.intp)
        self._derived_groups = np.searchsorted(
            self.read_channels, group_channels
        )

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

    def _read_series_block(self, read: np.ndarray) -> np.ndarray:
        """The ``(signals, n)`` block of every configured signal's series,
        from the ``(n, len(read_channels))`` block of the read columns.

        One gather for the raw channels, one for the derived groups, whose
        norm ``sqrt(add.reduce(g * g))`` is ``np.linalg.norm``'s own
        arithmetic — the same bits as a per-signal ``norm`` call.  Signal
        rows, not columns: each gather copies whole channels, and each
        series is contiguous for the windows cut from it.
        """
        channels = read.T
        series = np.empty(
            (len(self.config.signals), read.shape[0]), dtype=read.dtype
        )
        series[self._raw_slots] = channels[self._raw_columns]
        groups = channels[self._derived_groups]
        series[self._derived_slots] = np.sqrt(
            np.add.reduce(groups * groups, axis=1)
        )
        return series

    def _series_block(self, data: np.ndarray) -> np.ndarray:
        """The series block of a full ``(n, N_CHANNELS)`` signal: the read
        columns are taken first, then :meth:`_read_series_block`."""
        return self._read_series_block(data[:, self.read_channels])

    def extract(
        self, data: np.ndarray, window_len: int, stride: int = None,
        dtype=None,
    ) -> np.ndarray:
        """Features of every complete window of ``data``.

        ``data`` is a continuous ``(n, N_CHANNELS)`` signal; only its
        :attr:`read_channels` columns are ever read.  ``stride`` defaults
        to ``window_len`` (non-overlapping); the tail shorter than a full
        window is dropped, exactly like
        :func:`~repro.preprocessing.segmentation.sliding_windows`.

        ``dtype`` selects the compute (and output) dtype: ``None`` keeps
        the canonical ``float64`` math, ``np.float32`` runs the series
        block, the window blocks and their shared sort in 32 bits —
        halving the memory traffic of the order-statistics pass — except
        slope's centered time axis, which stays ``float64`` (see
        ``docs/precision.md`` for the stage-by-stage dtype flow).

        The series block is built once; its zero-copy ``(windows, signals,
        window_len)`` strided view is then walked in bounded groups of
        windows, each copied into one contiguous block whose rows every
        statistic reduces in a single vectorized call (module docstring).
        """
        return self._extract(
            data, N_CHANNELS, window_len, stride, dtype, self._series_block
        )

    def extract_read_columns(
        self, read: np.ndarray, window_len: int, stride: int = None,
        dtype=None,
    ) -> np.ndarray:
        """:meth:`extract` of a signal already cut to its read columns.

        ``read`` is ``(n, len(read_channels))``: column ``i`` is sensor
        channel ``read_channels[i]``.  This is the pipeline's entry, whose
        denoiser only ever sees those columns; the rows are the same bits
        :meth:`extract` returns on the full signal.
        """
        return self._extract(
            read, len(self.read_channels), window_len, stride, dtype,
            self._read_series_block,
        )

    def _extract(
        self, data, channels: int, window_len: int, stride, dtype,
        series_block: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Validate, build the series block, walk the windows."""
        target = np.float64 if dtype is None else np.dtype(dtype)
        if target not in (np.float32, np.float64):
            raise ConfigurationError(
                f"dtype must be float32 or float64, got {dtype!r}"
            )
        arr = np.asarray(data, dtype=target)
        if arr.ndim != 2:
            raise DataShapeError(
                f"data must be 2-D (n, channels), got {arr.shape}"
            )
        if arr.shape[1] != channels:
            raise DataShapeError(
                f"data must have {channels} channels, got {arr.shape[1]}"
            )
        if window_len < 1:
            raise ConfigurationError(
                f"window_len must be >= 1, got {window_len}"
            )
        if stride is None:
            stride = window_len
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")

        n_windows = window_count(arr.shape[0], window_len, stride)
        if n_windows == 0:
            return np.empty((0, self.n_features), dtype=target)
        return self._stacked(series_block(arr), n_windows, window_len, stride)

    def _stacked(
        self, series: np.ndarray, n_windows: int, window_len: int, stride: int
    ) -> np.ndarray:
        """The stacked pass over the first ``n_windows`` windows of a
        ``(signals, n)`` series block; rows come out in its dtype."""
        signals = series.shape[0]
        if stride == window_len:  # non-overlapping: a reshape cuts them
            windows = (
                series[:, : n_windows * window_len]
                .reshape(signals, n_windows, window_len)
                .transpose(1, 0, 2)
            )
        else:
            signal_step, sample_step = series.strides
            windows = np.lib.stride_tricks.as_strided(
                series,
                shape=(n_windows, signals, window_len),
                strides=(stride * sample_step, signal_step, sample_step),
                writeable=False,
            )
        out = np.empty((n_windows, self.n_features), dtype=series.dtype)
        step = max(
            1,
            _STACKED_BLOCK_SAMPLES * 8
            // (series.itemsize * signals * window_len),
        )
        stats = self.config.stats
        for first in range(0, n_windows, step):
            ctx = _StackedWindows(
                np.ascontiguousarray(windows[first : first + step]).reshape(
                    -1, window_len
                )
            )
            # signal-major feature order: one row per (window, signal)
            features = out[first : first + step].reshape(-1, len(stats))
            for col, stat in enumerate(stats):
                stacked = _STACKED_STATISTICS.get(stat)
                features[:, col] = (
                    STATISTICS[stat](ctx.rows) if stacked is None
                    else stacked(ctx)
                )
        return out
