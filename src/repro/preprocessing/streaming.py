"""The statistical feature extractor: every window of a continuous signal.

A per-window extractor prices a continuous recording per *window*: with
50% overlap every sample is featurized twice, and at 90% overlap ten
times, on top of the ``(k, window_len, channels)`` cube the segmentation
copies out.  :class:`StreamingFeatureExtractor` computes the same
``(k, n_features)`` matrix straight from the continuous ``(n, channels)``
signal, without ever materializing the window cube, in one
implementation: the *stacked* pass.  It is the pipeline's statistical
extractor, whatever the stride: non-overlapping windows are a reshape of
the signal they partition, so a window stack folds back into one.

The constructor resolves the configured signals into ``read_channels``
(the sorted channels any signal reads: 15 of 22 for the default grid)
and a series plan in the coordinates of those columns.  ``extract``
takes the read columns of its 22-channel input first;
``extract_read_columns`` is the entry for a signal already cut to them
(the pipeline's, whose denoiser only ever filters those columns).  Each
call builds one ``(signals, n)`` series block from a single gather of
the columns it needs (raw channels plus the 3-axis groups whose norms
are the derived magnitudes) and views its windows — by a reshape at the
non-overlapping stride, a strided view otherwise.  The windows are then
walked in bounded groups (:data:`_STACKED_BLOCK_SAMPLES`), each copied
into one contiguous ``(windows * signals, window_len)`` block of rows.
A one-window tick's cost is numpy's per-call overhead, not arithmetic,
so the statistics share their reductions rather than each making its
own: one row sum gives the means, which mean reports and std, zcr and
slope centre by; one sort and one take of its columns give min, max,
the median's halves and both quartiles' neighbours, whose lerps run as
one multiply-add; and each result is reduced or written straight into
its output column.  What depends only on the configuration — the series
plan, the sorted columns and lerp weights per window length, slope's
centred time axis — is resolved once, not per call.  Every reduction runs along its row only, so a feature row
reads nothing but its own window's samples: it is bit-identical however
the recording was chunked and whoever else shared the call, and the
scratch is bounded by the block, not by the window count.

Every statistic matches its plain per-window definition in
:data:`~repro.preprocessing.features.STATISTICS` to 1e-9 (most
bit-exactly); ``tests/test_preprocessing_streaming.py`` pins that contract
against the reference extractor of ``tests/reference_features.py`` across
strides, odd window lengths, constant signals and the empty case, and
pins the fused reductions to the exact bits of the per-statistic stacked
pass they replaced (kept there as ``stacked_features``).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, DataShapeError
from ..sensors.channels import CHANNEL_INDEX, N_CHANNELS, group_indices
from .features import DERIVED_SIGNALS, STATISTICS, FeatureConfig
from .segmentation import window_count


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


def _lerp_plan(q: float, window_len: int) -> Tuple[int, int, int, float]:
    """``np.percentile(..., method="linear")`` at ``q`` as one
    multiply-add: ``(lo, hi, base, weight)`` with the quantile
    ``sorted[base] + (sorted[hi] - sorted[lo]) * weight``.

    numpy's ``_lerp`` computes ``a + diff * t``, or ``b - diff * (1 - t)``
    for ``t >= 0.5``; IEEE subtraction is addition of the negation and
    rounding is sign-symmetric, so the second is ``b + diff * -(1 - t)``
    bit for bit, and either branch is the one expression.
    """
    virtual = q * (window_len - 1)
    lo = int(np.floor(virtual))
    hi = min(lo + 1, window_len - 1)
    t = virtual - lo
    if t >= 0.5:
        return lo, hi, hi, -(1.0 - t)
    return lo, hi, lo, t


@functools.lru_cache(maxsize=32)
def _order_plan(window_len: int, dtype: np.dtype) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted columns min, max, median and iqr read, and iqr's two
    lerp weights in ``dtype``, built once per window length and dtype.

    The columns are, in order: min, max, the median's lower and upper
    halves (one column twice at an odd length), the lower and the upper
    neighbours of the 25th and the 75th percentile, and the two
    percentiles' lerp bases (:func:`_lerp_plan`).
    """
    lo25, hi25, base25, weight25 = _lerp_plan(0.25, window_len)
    lo75, hi75, base75, weight75 = _lerp_plan(0.75, window_len)
    columns = np.array(
        [0, window_len - 1, (window_len - 1) // 2, window_len // 2,
         lo25, lo75, hi25, hi75, base25, base75],
        dtype=np.intp,
    )
    # a python float times a float32 array is a float32 multiply: the
    # weights are rounded to the rows' dtype the same way
    weights = np.array([weight25, weight75], dtype=dtype)
    columns.flags.writeable = False
    weights.flags.writeable = False
    return columns, weights


def _middle(
    lower: np.ndarray, upper: np.ndarray, odd: bool, out: np.ndarray
) -> None:
    """The per-row median of row-sorted data, from its two middle columns
    (the same one at an odd length), into ``out`` — ``np.median``'s
    exact halving."""
    if odd:
        out[...] = lower
    else:
        np.add(lower, upper, out=out)
        np.divide(out, 2.0, out=out)


@functools.lru_cache(maxsize=16)
def _slope_axis(window_len: int) -> Tuple[np.ndarray, float]:
    """Slope's centred time axis and its squared norm, built once per
    window length (read-only: every call shares it)."""
    t_centered = np.arange(window_len, dtype=np.float64) - (window_len - 1) / 2.0
    t_centered.flags.writeable = False
    return t_centered, float((t_centered * t_centered).sum())


class _StackedWindows:
    """One block of windows and the reductions its statistics share.

    ``rows`` is ``(windows * signals, window_len)``: one window of one
    signal per row, copied contiguous.  The shared results — the row
    means, the centred rows, the sorted rows' columns min, max, median
    and iqr read (one sort and one take), the medians — are computed the
    first time a statistic asks.  Everything reduces along the row only,
    so a result never depends on which other rows share the block.
    """

    def __init__(self, windows: np.ndarray) -> None:
        self.window_len = windows.shape[2]
        self.rows = np.ascontiguousarray(windows).reshape(-1, self.window_len)
        self._means: Optional[np.ndarray] = None
        self._centered: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None
        self._medians: Optional[np.ndarray] = None

    @property
    def means(self) -> np.ndarray:
        if self._means is None:
            means = np.add.reduce(self.rows, axis=1)
            self._means = np.divide(means, self.window_len, out=means)
        return self._means

    @property
    def centered(self) -> np.ndarray:
        if self._centered is None:
            self._centered = np.subtract(self.rows, self.means[:, None])
        return self._centered

    @property
    def order(self) -> np.ndarray:
        """``(rows, 10)``: the sorted rows' columns of :func:`_order_plan`."""
        if self._order is None:
            columns, _ = _order_plan(self.window_len, self.rows.dtype)
            self._order = np.sort(self.rows, axis=1).take(columns, axis=1)
        return self._order

    @property
    def medians(self) -> np.ndarray:
        if self._medians is None:
            order = self.order
            self._medians = np.empty(order.shape[0], order.dtype)
            _middle(
                order[:, 2], order[:, 3], self.window_len % 2, self._medians
            )
        return self._medians


def _stacked_mean(ctx: _StackedWindows, out: np.ndarray) -> None:
    out[...] = ctx.means


def _root_mean_square(rows: np.ndarray, out: np.ndarray) -> None:
    np.add.reduce(rows * rows, axis=1, out=out)
    np.divide(out, rows.shape[1], out=out)
    np.sqrt(out, out=out)


def _stacked_std(ctx: _StackedWindows, out: np.ndarray) -> None:
    _root_mean_square(ctx.centered, out)


def _stacked_rms(ctx: _StackedWindows, out: np.ndarray) -> None:
    _root_mean_square(ctx.rows, out)


def _stacked_min(ctx: _StackedWindows, out: np.ndarray) -> None:
    out[...] = ctx.order[:, 0]


def _stacked_max(ctx: _StackedWindows, out: np.ndarray) -> None:
    out[...] = ctx.order[:, 1]


def _stacked_median(ctx: _StackedWindows, out: np.ndarray) -> None:
    out[...] = ctx.medians


def _stacked_iqr(ctx: _StackedWindows, out: np.ndarray) -> None:
    _, weights = _order_plan(ctx.window_len, ctx.rows.dtype)
    order = ctx.order
    # both percentiles at once: (rows, 2) differences, weights and bases
    quartiles = np.subtract(order[:, 6:8], order[:, 4:6])
    np.multiply(quartiles, weights, out=quartiles)
    np.add(order[:, 8:10], quartiles, out=quartiles)
    np.subtract(quartiles[:, 1], quartiles[:, 0], out=out)


def _stacked_mad(ctx: _StackedWindows, out: np.ndarray) -> None:
    deviations = np.subtract(ctx.rows, ctx.medians[:, None])
    np.abs(deviations, out=deviations)
    deviations.sort(axis=1)
    w = ctx.window_len
    _middle(deviations[:, (w - 1) // 2], deviations[:, w // 2], w % 2, out)


def _stacked_zcr(ctx: _StackedWindows, out: np.ndarray) -> None:
    w = ctx.window_len
    if w < 2:
        out[...] = 0.0
        return
    # Exact zeros count as positive, like the reference's sign fix-up.
    positive = ctx.centered >= 0
    crossings = np.add.reduce(
        positive[:, 1:] != positive[:, :-1], axis=1, dtype=np.intp
    )
    np.divide(crossings, w - 1, out=out)


def _stacked_slope(ctx: _StackedWindows, out: np.ndarray) -> None:
    w = ctx.window_len
    if w < 2:
        out[...] = 0.0
        return
    # The time axis stays float64 on the float32 fast path too.  Multiply
    # and row-sum rather than a matrix product: BLAS picks its summation
    # order from the whole operand's shape, a row sum only from the row.
    t_centered, denom = _slope_axis(w)
    np.divide(np.add.reduce(ctx.centered * t_centered, axis=1), denom, out=out)


#: Statistic name -> stacked implementation: it writes the statistic of
#: every row of a :class:`_StackedWindows` into the given column.
_STACKED_STATISTICS: Dict[
    str, Callable[[_StackedWindows, np.ndarray], None]
] = {
    "mean": _stacked_mean,
    "std": _stacked_std,
    "min": _stacked_min,
    "max": _stacked_max,
    "median": _stacked_median,
    "iqr": _stacked_iqr,
    "rms": _stacked_rms,
    "mad": _stacked_mad,
    "zcr": _stacked_zcr,
    "slope": _stacked_slope,
}


class StreamingFeatureExtractor:
    """Window features of a continuous recording without window cubes.

    ``extract`` maps a continuous ``(n, channels)`` signal straight to the
    ``(k, n_features)`` matrix of the statistics of every window
    ``sliding_windows(signal, w, stride)`` cuts, in signal-major feature
    order (all statistics of the first signal, then the second; see
    :meth:`feature_names`).  Statistics without a
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
        # One gather takes every column the series block is built from:
        # the derived groups' axes, then the raw channels.
        self._gather = np.searchsorted(
            self.read_channels,
            np.concatenate([group_channels.ravel(), raw_channels]),
        )
        self._n_derived = len(derived)
        self._raw_slots = np.array([j for j, _ in raw], dtype=np.intp)
        self._derived_slots = np.array([j for j, _ in derived], dtype=np.intp)

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

        One gather takes the derived groups' axes and the raw channels;
        a group's norm ``sqrt(add.reduce(g * g))`` is ``np.linalg.norm``'s
        own arithmetic — the same bits as a per-signal ``norm`` call.
        Signal rows, not columns: the gather copies whole channels, and
        each series is contiguous for the windows cut from it.
        """
        axes = 3 * self._n_derived
        taken = read.T[self._gather]
        groups = taken[:axes].reshape(self._n_derived, 3, read.shape[0])
        series = np.empty(
            (len(self.config.signals), read.shape[0]), dtype=read.dtype
        )
        # squared in place: the gather's result is this call's own copy
        norms = np.add.reduce(np.multiply(groups, groups, out=groups), axis=1)
        series[self._derived_slots] = np.sqrt(norms, out=norms)
        series[self._raw_slots] = taken[axes:]
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
            ctx = _StackedWindows(windows[first : first + step])
            # signal-major feature order: one row per (window, signal)
            features = out[first : first + step].reshape(-1, len(stats))
            for col, stat in enumerate(stats):
                stacked = _STACKED_STATISTICS.get(stat)
                if stacked is None:
                    features[:, col] = STATISTICS[stat](ctx.rows)
                else:
                    stacked(ctx, features[:, col])
        return out
