"""Streaming O(n) statistical feature extraction over continuous recordings.

:class:`~repro.preprocessing.features.FeatureExtractor` prices a continuous
recording per *window*: with 50% overlap every sample is featurized twice,
and at 90% overlap ten times, on top of the ``(k, window_len, channels)``
cube the segmentation copies out of the stride-tricks view.
:class:`StreamingFeatureExtractor` computes the same ``(k, n_features)``
matrix straight from the continuous ``(n, channels)`` signal, without ever
materializing raw windows:

- ``mean``/``std``/``rms``/``slope`` come from cumulative sums of the
  (globally mean-shifted) signal, its square and its index-weighted value —
  O(n) total, O(1) per window.  The global shift keeps the prefix sums at
  the scale of the signal's *variation*, so catastrophic cancellation never
  eats the 1e-9 parity budget even for offset-heavy channels (barometer,
  gravity).
- ``min``/``max`` use a pooled (sparse-table) doubling scheme: O(n log
  window_len) comparisons, every window extremum the exact ``op`` of two
  precomputed power-of-two spans.
- ``median``/``iqr`` share one batched :func:`numpy.partition` over a
  zero-copy :func:`~numpy.lib.stride_tricks.sliding_window_view` of the 1-D
  series (one introselect pass instead of the three separate kths hidden in
  ``np.median`` + ``np.percentile``), with the interpolation replicating
  ``np.percentile``'s lerp bit for bit; ``mad`` and ``zcr`` fall back to the
  same view.  These stay O(k * window_len) — order statistics have no prefix
  structure — but with a far smaller constant than the per-window path.

That machinery is O(n)-optimal for a long recording and pure overhead for
the handful of windows one serving tick completes, so ``extract`` picks its
path from the call's own window count: up to :data:`_STACKED_MAX_WINDOWS`
windows take the *stacked* pass — every signal's windows as rows of one
contiguous ``(windows * signals, window_len)`` block, each statistic one
vectorized call over all of it, one sort shared by median and iqr —
where a feature row reads nothing but its own window's samples and is
therefore bit-identical however the recording was chunked and whoever else
shared the call.  Longer inputs take the prefix-sum path above.  Both
paths read one ``(signals, n)`` series block, built per call by a plan the
constructor resolves from the configured signals (raw channel columns plus
the 3-axis groups whose norms are the derived magnitudes).

Every statistic matches ``FeatureExtractor`` to 1e-9 (most bit-exactly) on
both paths; ``tests/test_preprocessing_streaming.py`` pins that contract
across strides, odd window lengths, constant signals and the empty case.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..exceptions import ConfigurationError, DataShapeError
from ..sensors.channels import CHANNEL_INDEX, N_CHANNELS, group_indices
from .features import DERIVED_SIGNALS, STATISTICS, FeatureConfig
from .segmentation import window_count


def _monotone_keys(values: np.ndarray) -> np.ndarray:
    """Bit-monotone ``uint32`` keys of a float32 array (exact order map).

    IEEE-754 floats compare like their sign-magnitude bit patterns:
    flipping the sign bit of non-negatives and complementing negatives
    yields unsigned keys whose integer order equals the float order.
    Integer introselect skips the NaN-aware float comparisons, which makes
    ``np.partition`` on the keys ~1.5x faster — the float32 fast path's
    order-statistics trick (finite inputs assumed; see docs/precision.md).
    """
    u = values.view(np.uint32)
    return np.where(u >> 31 == 0, u ^ np.uint32(0x80000000), ~u)


def _keys_to_float32(keys: np.ndarray) -> np.ndarray:
    """Invert :func:`_monotone_keys` (bit-exact)."""
    u = np.where(
        keys >> 31 == 1, keys ^ np.uint32(0x80000000), ~keys
    )
    return u.view(np.float32)


def _pooled_extrema(
    series: np.ndarray, window_len: int, starts: np.ndarray, op
) -> np.ndarray:
    """Per-window extremum via a sparse-table doubling scheme.

    After ``j`` doubling steps ``table[i]`` holds ``op`` over
    ``series[i : i + 2**j]``; each window ``[a, a + w)`` is then the ``op``
    of two (possibly overlapping) power-of-two spans covering it.  Exact —
    only comparisons, no arithmetic.
    """
    table = series
    span = 1
    while span * 2 <= window_len:
        table = op(table[: table.shape[0] - span], table[span:])
        span *= 2
    return op(table[starts], table[starts + window_len - span])


def _lerp_quantile(ctx, q: float) -> np.ndarray:
    """``np.percentile(..., method="linear")`` from the shared partition.

    ``ctx`` is either window context (:class:`_SignalWindows` or
    :class:`_StackedWindows`): anything with ``window_len`` and ``part_col``.

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


class _SignalWindows:
    """Lazy per-signal caches shared by the streaming statistics.

    Holds the continuous 1-D ``series`` plus the window geometry, and
    materializes each helper structure (prefix sums, zero-copy window view,
    shared partition) at most once no matter how many statistics need it.
    """

    def __init__(
        self, series: np.ndarray, window_len: int, stride: int, starts: np.ndarray
    ) -> None:
        self.series = series
        self.window_len = window_len
        self.stride = stride
        self.starts = starts
        self._shift: Optional[float] = None
        self._sum1: Optional[np.ndarray] = None  # windowed sums of s - shift
        self._sum2: Optional[np.ndarray] = None  # ... of (s - shift)**2
        self._means: Optional[np.ndarray] = None
        self._variances: Optional[np.ndarray] = None
        self._view: Optional[np.ndarray] = None
        self._partitioned: Optional[np.ndarray] = None
        self._part_cols: Dict[int, np.ndarray] = {}
        self._medians: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # prefix-sum substrate
    # ------------------------------------------------------------------ #

    def _windowed_sum(self, values: np.ndarray) -> np.ndarray:
        # Follows the series dtype: the float32 fast path accumulates its
        # prefix sums in 32 bits (the global mean shift keeps the running
        # values at the scale of the signal's variation, so float32's ~7
        # digits comfortably hold the documented verdict-flip budget).
        csum = np.empty(values.shape[0] + 1, dtype=values.dtype)
        csum[0] = 0.0
        np.cumsum(values, out=csum[1:])
        return csum[self.starts + self.window_len] - csum[self.starts]

    def _prefix(self) -> None:
        # Shift by the global mean so the running sums stay at the scale of
        # the signal's variation, not its offset (barometer ~1000 hPa would
        # otherwise burn the parity budget through cancellation).
        self._shift = float(self.series.mean()) if self.series.shape[0] else 0.0
        shifted = self.series - self._shift
        self._sum1 = self._windowed_sum(shifted)
        self._sum2 = self._windowed_sum(shifted * shifted)

    @property
    def shift(self) -> float:
        if self._shift is None:
            self._prefix()
        return self._shift

    @property
    def sum1(self) -> np.ndarray:
        if self._sum1 is None:
            self._prefix()
        return self._sum1

    @property
    def sum2(self) -> np.ndarray:
        if self._sum2 is None:
            self._prefix()
        return self._sum2

    @property
    def means(self) -> np.ndarray:
        if self._means is None:
            self._means = self.shift + self.sum1 / self.window_len
        return self._means

    @property
    def variances(self) -> np.ndarray:
        if self._variances is None:
            shifted_mean = self.sum1 / self.window_len
            var = self.sum2 / self.window_len - shifted_mean * shifted_mean
            self._variances = np.maximum(var, 0.0, out=var)
        return self._variances

    # ------------------------------------------------------------------ #
    # windowed-view substrate (order statistics, zcr)
    # ------------------------------------------------------------------ #

    @property
    def view(self) -> np.ndarray:
        """Read-only ``(k, window_len)`` zero-copy view of the windows."""
        if self._view is None:
            self._view = np.lib.stride_tricks.sliding_window_view(
                self.series, self.window_len
            )[:: self.stride]
        return self._view

    def _quartile_ranks(self) -> set:
        """The order-statistic ranks median/iqr read (lerp lo/hi pairs)."""
        w = self.window_len
        ranks = set()
        for q in (0.25, 0.5, 0.75):
            lo = int(np.floor(q * (w - 1)))
            ranks.add(lo)
            ranks.add(min(lo + 1, w - 1))
        return ranks

    @property
    def partitioned(self) -> np.ndarray:
        """One shared ``np.partition`` at every quartile/median index."""
        if self._partitioned is None:
            self._partitioned = np.partition(
                self.view, sorted(self._quartile_ranks()), axis=1
            )
        return self._partitioned

    def _fast_order_stats(self) -> None:
        """Populate :attr:`_part_cols` for float32 via keyed introselect.

        Two tricks over the canonical multi-kth ``np.partition``, exact by
        construction (see docs/precision.md):

        - partition bit-monotone ``uint32`` keys of the series instead of
          floats (order-preserving bijection, integer comparisons);
        - select each quantile's ``hi`` rank with a *scalar* in-place
          ``ndarray.partition`` on the not-yet-placed suffix — numpy's
          multi-kth path re-walks segments per kth and is ~5x slower —
          then recover ``lo = hi - 1`` as the max of the segment below
          ``hi``, which holds exactly the ranks in ``(prev_kth, hi)``.
        """
        keys = _monotone_keys(self.series)
        # .copy() (not ascontiguousarray): the strided window view is
        # read-only and the scalar selections below run in place.
        buf = np.lib.stride_tricks.sliding_window_view(
            keys, self.window_len
        )[:: self.stride].copy()
        ranks = sorted(self._quartile_ranks())
        kths: List[int] = []
        derived = {}  # rank -> (segment start, kth above it)
        prev = -1
        i = 0
        while i < len(ranks):
            r = ranks[i]
            if i + 1 < len(ranks) and ranks[i + 1] == r + 1:
                kths.append(r + 1)
                derived[r] = (prev + 1, r + 1)
                prev = r + 1
                i += 2
            else:
                kths.append(r)
                prev = r
                i += 1
        off = 0
        for kth in kths:
            buf[:, off:].partition(kth - off, axis=1)
            off = kth + 1
        for kth in kths:
            self._part_cols[kth] = _keys_to_float32(buf[:, kth])
        for r, (start, kth) in derived.items():
            self._part_cols[r] = _keys_to_float32(
                buf[:, start:kth].max(axis=1)
            )

    def part_col(self, i: int) -> np.ndarray:
        """Float-valued order statistic (rank ``i``) of every window."""
        col = self._part_cols.get(i)
        if col is not None:
            return col
        if self.series.dtype == np.float32:
            self._fast_order_stats()
            col = self._part_cols.get(i)
            if col is None:
                # A rank outside the standard quartile set (custom stats):
                # one-off scalar selection on a fresh key buffer.
                keys = _monotone_keys(self.series)
                buf = np.lib.stride_tricks.sliding_window_view(
                    keys, self.window_len
                )[:: self.stride].copy()
                buf.partition(i, axis=1)
                col = _keys_to_float32(buf[:, i])
                self._part_cols[i] = col
        else:
            col = self.partitioned[:, i]
            self._part_cols[i] = col
        return col

    @property
    def medians(self) -> np.ndarray:
        if self._medians is None:
            w = self.window_len
            if w % 2:
                self._medians = self.part_col((w - 1) // 2).copy()
            else:
                # (a + b) / 2 over the two middle order statistics — the
                # same exact halving np.median performs for the even case.
                self._medians = (
                    self.part_col(w // 2 - 1) + self.part_col(w // 2)
                ) / 2.0
        return self._medians


def _stream_mean(ctx: _SignalWindows) -> np.ndarray:
    return ctx.means.copy()


def _stream_std(ctx: _SignalWindows) -> np.ndarray:
    return np.sqrt(ctx.variances)


def _stream_rms(ctx: _SignalWindows) -> np.ndarray:
    means = ctx.means
    return np.sqrt(np.maximum(ctx.variances + means * means, 0.0))


def _stream_min(ctx: _SignalWindows) -> np.ndarray:
    return _pooled_extrema(ctx.series, ctx.window_len, ctx.starts, np.minimum)


def _stream_max(ctx: _SignalWindows) -> np.ndarray:
    return _pooled_extrema(ctx.series, ctx.window_len, ctx.starts, np.maximum)


def _stream_median(ctx: _SignalWindows) -> np.ndarray:
    return ctx.medians.copy()


def _stream_iqr(ctx: _SignalWindows) -> np.ndarray:
    return _lerp_quantile(ctx, 0.75) - _lerp_quantile(ctx, 0.25)


def _stream_mad(ctx: _SignalWindows) -> np.ndarray:
    if ctx.series.dtype == np.float32:
        # Non-negative float32 values already compare like their raw bit
        # patterns, so the median selection runs straight over the uint32
        # view of the (owned, contiguous) deviations buffer: scalar
        # in-place introselect at the upper middle rank, lower middle as
        # the max of the segment below it.  Exact vs np.median — same
        # order statistics, same (a + b) / 2 halving.
        w = ctx.window_len
        dev = ctx.view - ctx.medians[:, None]
        np.abs(dev, out=dev)
        keys = dev.view(np.uint32)
        if w % 2:
            mid = (w - 1) // 2
            keys.partition(mid, axis=1)
            return dev[:, mid].copy()
        hi = w // 2
        keys.partition(hi, axis=1)
        # raw bits, not mapped keys: a plain view restores the floats
        lo_vals = keys[:, :hi].max(axis=1).view(np.float32)
        return (lo_vals + dev[:, hi]) / 2.0
    deviations = np.abs(ctx.view - ctx.medians[:, None])
    return np.median(deviations, axis=1)


def _stream_zcr(ctx: _SignalWindows) -> np.ndarray:
    return STATISTICS["zcr"](ctx.view)


def _stream_slope(ctx: _SignalWindows) -> np.ndarray:
    w = ctx.window_len
    if w < 2:
        return np.zeros(ctx.starts.shape[0], dtype=ctx.series.dtype)
    t_mean = (w - 1) / 2.0
    t_centered = np.arange(w, dtype=np.float64) - t_mean
    denom = float((t_centered * t_centered).sum())
    shifted = ctx.series - ctx.shift
    # The index-weighted sum stays float64 even on the float32 fast path:
    # its running values grow with the absolute sample index, so a 32-bit
    # prefix sum would cancel catastrophically on long recordings.
    weighted = ctx._windowed_sum(
        shifted.astype(np.float64, copy=False)
        * np.arange(ctx.series.shape[0], dtype=np.float64)
    )
    # sum_i s[a+i] * (i - t_mean)  ==  sum_j s[j]*j over the window minus
    # (a + t_mean) * windowed sum; the global shift drops out because the
    # centered time axis sums to zero.
    num = weighted - (ctx.starts + t_mean) * ctx.sum1
    return num / denom


#: Prefix-sum statistics lose their accuracy edge for very short windows:
#: a w-sample windowed difference of an n-sample running sum carries O(eps*n)
#: noise that only the 1/w averaging washes out.  Below this window length
#: the batched per-window implementations are just as fast (the view is
#: O(k*w) with tiny w) and bit-exact, so extraction falls back to them.
MIN_PREFIX_WINDOW_LEN: int = 8

#: The statistics whose streaming implementations rest on prefix sums (and
#: are therefore gated on :data:`MIN_PREFIX_WINDOW_LEN`).
_PREFIX_SUM_STATS = frozenset({"mean", "std", "rms", "slope"})

#: Statistic name -> streaming implementation over a :class:`_SignalWindows`.
STREAMING_STATISTICS: Dict[str, Callable[[_SignalWindows], np.ndarray]] = {
    "mean": _stream_mean,
    "std": _stream_std,
    "min": _stream_min,
    "max": _stream_max,
    "median": _stream_median,
    "iqr": _stream_iqr,
    "rms": _stream_rms,
    "mad": _stream_mad,
    "zcr": _stream_zcr,
    "slope": _stream_slope,
}

#: Calls completing at most this many windows take the stacked pass; longer
#: ones keep the prefix-sum path.  Measured crossover (docs/streaming.md):
#: stacked wins 7-14x on one window, 3-5x at 40 and 1.4-3.5x here; in
#: float32 the two tie at thousands of windows, which stay on this side.
_STACKED_MAX_WINDOWS: int = 256

#: Samples per stacked scratch block.  The pass walks the call's windows in
#: groups of this many samples (all signals counted), so its temporaries
#: stay a few hundred kB — cache-resident — whatever the window count.
_STACKED_BLOCK_SAMPLES: int = 1 << 15


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
        """Every row sorted: the one sort median and iqr share."""
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


def _stacked_slope(ctx: _StackedWindows) -> np.ndarray:
    w = ctx.window_len
    if w < 2:
        return np.zeros(ctx.rows.shape[0])
    # The time axis stays float64 on the float32 fast path too.  Multiply
    # and row-sum rather than a matrix product: BLAS picks its summation
    # order from the whole operand's shape, a row sum only from the row.
    t_centered = np.arange(w, dtype=np.float64) - (w - 1) / 2.0
    denom = float((t_centered * t_centered).sum())
    return (ctx.centered * t_centered).sum(axis=1) / denom


#: Statistic name -> stacked implementation over a :class:`_StackedWindows`.
_STACKED_STATISTICS: Dict[str, Callable[[_StackedWindows], np.ndarray]] = {
    "mean": lambda ctx: ctx.means,
    "std": _stacked_std,
    "min": lambda ctx: ctx.rows.min(axis=1),
    "max": lambda ctx: ctx.rows.max(axis=1),
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
    streaming implementation (e.g. ones registered into
    :data:`~repro.preprocessing.features.STATISTICS` by users) transparently
    fall back to the batched implementation over the zero-copy window view.
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
        self._raw_slots = np.array([j for j, _ in raw], dtype=np.intp)
        self._raw_channels = np.array([c for _, c in raw], dtype=np.intp)
        self._derived_slots = np.array([j for j, _ in derived], dtype=np.intp)
        # every derived signal is the norm of a 3-axis group
        self._derived_groups = np.array(
            [idx for _, idx in derived], dtype=np.intp
        ).reshape(len(derived), 3)

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

    def _series_block(self, data: np.ndarray) -> np.ndarray:
        """The ``(signals, n)`` block of every configured signal's series.

        One gather for the raw channels, one for the derived groups, whose
        norm ``sqrt(add.reduce(g * g))`` is ``np.linalg.norm``'s own
        arithmetic — the same bits as a per-signal ``norm`` call.  Signal
        rows, not columns: each gather copies whole channels, and each
        series is contiguous for the windows cut from it.
        """
        channels = data.T
        series = np.empty(
            (len(self.config.signals), data.shape[0]), dtype=data.dtype
        )
        series[self._raw_slots] = channels[self._raw_channels]
        groups = channels[self._derived_groups]
        series[self._derived_slots] = np.sqrt(
            np.add.reduce(groups * groups, axis=1)
        )
        return series

    def _extract_stacked(
        self, data: np.ndarray, window_len: int, stride: int, out: np.ndarray
    ) -> None:
        """Fill ``out`` with the features of ``out.shape[0]`` windows.

        The stacked pass: build the series block once, then walk its
        zero-copy ``(windows, signals, window_len)`` strided view in
        bounded groups of windows, each copied into one contiguous block
        whose rows every statistic reduces in a single vectorized call.
        """
        signals, stats = self.config.signals, self.config.stats
        series = self._series_block(data)
        signal_step, sample_step = series.strides
        windows = np.lib.stride_tricks.as_strided(
            series,
            shape=(out.shape[0], len(signals), window_len),
            strides=(stride * sample_step, signal_step, sample_step),
            writeable=False,
        )
        step = max(1, _STACKED_BLOCK_SAMPLES // (len(signals) * window_len))
        for first in range(0, out.shape[0], step):
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

    def extract(
        self, data: np.ndarray, window_len: int, stride: int = None,
        dtype=None,
    ) -> np.ndarray:
        """Features of every complete window of ``data``.

        ``stride`` defaults to ``window_len`` (non-overlapping); the tail
        shorter than a full window is dropped, exactly like
        :func:`~repro.preprocessing.segmentation.sliding_windows`.

        ``dtype`` selects the compute (and output) dtype: ``None`` keeps
        the canonical ``float64`` math, ``np.float32`` runs the per-signal
        series, prefix sums, pooled extrema and the shared partition in 32
        bits — halving the memory traffic of the order-statistics pass —
        except the index-weighted slope sum, which stays ``float64`` (see
        ``docs/precision.md`` for the stage-by-stage dtype flow).

        Calls completing at most :data:`_STACKED_MAX_WINDOWS` windows — a
        serving tick — take the stacked pass instead of the prefix sums
        (module docstring); the selection reads nothing but ``data``'s own
        window count.
        """
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
        if arr.shape[1] != N_CHANNELS:
            raise DataShapeError(
                f"data must have {N_CHANNELS} channels, got {arr.shape[1]}"
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
        out = np.empty((n_windows, self.n_features), dtype=target)
        if n_windows <= _STACKED_MAX_WINDOWS:
            self._extract_stacked(arr, window_len, stride, out)
            return out

        starts = np.arange(n_windows) * stride
        col = 0
        for series in self._series_block(arr):
            ctx = _SignalWindows(series, window_len, stride, starts)
            for stat in self.config.stats:
                streaming = STREAMING_STATISTICS.get(stat)
                if streaming is None or (
                    stat in _PREFIX_SUM_STATS
                    and window_len < MIN_PREFIX_WINDOW_LEN
                ):
                    out[:, col] = STATISTICS[stat](ctx.view)
                else:
                    out[:, col] = streaming(ctx)
                col += 1
        return out
