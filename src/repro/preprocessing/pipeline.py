"""The serializable pre-processing pipeline shipped from Cloud to Edge.

The paper's transfer package item (1) is "the pre-processing function":
denoising, segmentation, normalization and the statistical feature
extractor.  :class:`PreprocessingPipeline` composes those stages behind four
entry points:

- :meth:`process_recording` — a recording -> :meth:`process_stream`'s
  rows at the pipeline's stride, the Edge's recording flow (learning and
  calibrating an activity), so the device learns from the rows it serves;
- :meth:`process_windows` — already-segmented raw windows -> features:
  the Cloud campaign processing and pre-segmented inference;
- :meth:`process_stream` — continuous raw samples -> feature matrix: no
  window cube is ever materialized, and at the default non-overlapping
  stride the rows are :meth:`process_windows`'s on the segmented
  recording, bit for bit;
- :meth:`open_stream` / :meth:`process_chunk` / :meth:`finish_stream` — the
  *chunked* twin of :meth:`process_stream` for unbounded recordings that
  arrive tick by tick: a :class:`StreamState` carries the sample tail that
  has not yet completed a window (plus the denoiser's lookahead context)
  across chunks, so no window straddling a chunk boundary is ever lost and
  no buffered sample is ever re-featurized.

Every extractor speaks one protocol: ``read_channels`` (the sensor
channels its features read, 15 of 22 for the default statistical grid)
and ``extract_read_columns(read, window_len, stride, dtype)`` over a
signal cut to them.  Every entry point takes those columns *before*
denoising, so no channel that no feature reads is ever filtered, and a
stream's denoiser state holds those columns only.  Inputs are still
validated (streams and chunks finiteness-checked) on the full
22-channel layout.  Denoisers act column-wise (the denoiser contract), so the
features are those of denoising every channel: the same bits, except
that the Butterworth window operator's last bits may depend on how many
columns it multiplies (within its 1e-9 contract).

Every windowed featurization — :meth:`process_windows`, the normalizer's
fit and non-overlapping stream ticks — runs through :meth:`window_kernel`:
the input is checked once, by its entry point, and the windows then go
through read columns -> denoise -> extract -> normalize with
no stage re-checking the one before; the kernel holds what depends only
on configuration and is rebuilt when a stage is replaced.
Everything up to the normalizer is keyed by configuration
(``_WindowKernel.key``), so pipelines configured alike — every cohort
loaded from one package — can featurize their windows in one call.

The normalizer is fitted exactly once (on the Cloud) via
:meth:`fit_normalizer`; the fitted pipeline round-trips through
``to_dict``/``from_dict`` and reports its transfer size.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional

import numpy as np

from ..exceptions import (
    ConfigurationError,
    DataShapeError,
    NotFittedError,
    SerializationError,
)
from ..utils import check_3d
from ..sensors.channels import N_CHANNELS
from ..sensors.device import Recording
from .denoise import (
    ButterworthLowpass,
    IdentityFilter,
    MedianFilter,
    MovingAverageFilter,
    denoiser_from_dict,
)
from .features import FeatureConfig
from .normalization import ZScoreNormalizer, normalizer_from_dict
from .segmentation import window_count
from .spectral import (
    CombinedFeatureExtractor,
    SpectralConfig,
    SpectralFeatureExtractor,
)
from .streaming import StreamingFeatureExtractor


def extractor_to_dict(extractor) -> Dict:
    """Serialize any supported feature extractor to a plain dict."""
    if isinstance(extractor, StreamingFeatureExtractor):
        return {"kind": "statistical", "config": extractor.config.to_dict()}
    if isinstance(extractor, SpectralFeatureExtractor):
        return {"kind": "spectral", "config": extractor.config.to_dict()}
    if isinstance(extractor, CombinedFeatureExtractor):
        return {
            "kind": "combined",
            "parts": [extractor_to_dict(part) for part in extractor.extractors],
        }
    raise SerializationError(
        f"cannot serialize extractor of type {type(extractor).__name__}"
    )


def extractor_from_dict(payload: Dict):
    """Rebuild a feature extractor serialized by :func:`extractor_to_dict`."""
    try:
        kind = payload["kind"]
    except (KeyError, TypeError):
        raise SerializationError(f"invalid extractor payload: {payload!r}") from None
    if kind == "statistical":
        return StreamingFeatureExtractor(
            FeatureConfig.from_dict(payload["config"])
        )
    if kind == "spectral":
        return SpectralFeatureExtractor(
            SpectralConfig.from_dict(payload["config"])
        )
    if kind == "combined":
        return CombinedFeatureExtractor(
            [extractor_from_dict(part) for part in payload["parts"]]
        )
    raise SerializationError(f"unknown extractor kind {kind!r}")


def resolve_feature_dtype(dtype):
    """Canonicalize a feature-dtype selector.

    ``None``/``float64`` (the canonical path) map to ``None``; ``float32``
    (by any spelling: ``np.float32``, ``"float32"``, ``np.dtype``) maps to
    ``np.float32``.  Anything else raises — the pipeline's reduced
    precision is a two-point switch, not a general dtype knob.
    """
    if dtype is None:
        return None
    dt = np.dtype(dtype)
    if dt == np.float64:
        return None
    if dt == np.float32:
        return np.float32
    raise ConfigurationError(
        f"dtype must be float32 or float64, got {dtype!r}"
    )


class StreamState:
    """Carry-over state of one chunked stream through the pipeline.

    Created by :meth:`PreprocessingPipeline.open_stream` and advanced by
    :meth:`PreprocessingPipeline.process_chunk`: holds the sample tail that
    has not yet completed a window (at most ``window_len - 1`` samples —
    the ``window_len - stride`` carry shared with the next window plus the
    unconsumed remainder), the running sample offset, and the denoiser's
    chunked state, so an unbounded recording streams through the pipeline
    in O(chunk) work per tick with no window lost at chunk boundaries and
    no buffered sample ever re-featurized.

    A stream at the non-overlapping stride is *windowed*: it has no
    ``denoiser_stream`` and denoises each window in isolation.

    ``chunk_invariant`` records that the feature stream is independent of
    how the recording was split into chunks, and is always ``True``:
    windowed streams denoise each window in isolation, bounded-context
    denoisers stream through
    :class:`~repro.preprocessing.denoise.LocalDenoiserStream`, and the
    Butterworth low-pass streams through
    :class:`~repro.preprocessing.denoise.ZeroPhaseIIRStream` (zi carry-over
    forward, block-truncated backward — emitted values are identical for
    every chunking).

    ``dtype`` is ``None`` for the canonical ``float64`` feature stream or
    ``np.float32`` for the reduced-precision fast path (feature extraction
    and normalization run in 32 bits; denoising always stays ``float64``).
    """

    def __init__(
        self,
        window_len: int,
        stride: int,
        denoiser_stream=None,
        dtype=None,
    ) -> None:
        self.window_len = int(window_len)
        self.stride = int(stride)
        self.denoiser_stream = denoiser_stream
        self.chunk_invariant = True
        self.dtype = dtype
        # raw chunk samples (windowed) / denoised read columns (stream)
        self.buffer: Optional[np.ndarray] = None
        self.n_channels: Optional[int] = None  # locked by the first chunk
        self.samples_in = 0  # raw samples received across all chunks
        self.windows_out = 0  # windows emitted across all chunks
        self.finished = False
        self._skip = 0  # samples to drop before the next window (stride > w)

    @property
    def pending_samples(self) -> int:
        """Buffered samples awaiting enough data to complete a window."""
        return 0 if self.buffer is None else int(self.buffer.shape[0])

    @property
    def next_window_start(self) -> int:
        """Sample offset (into the whole recording) of the next window."""
        return self.windows_out * self.stride


#: Stage types whose ``to_dict`` payload is everything they compute from.
_SERIALIZED_STAGES = (
    ButterworthLowpass,
    IdentityFilter,
    MedianFilter,
    MovingAverageFilter,
    SpectralFeatureExtractor,
)


def _stage_config(stage):
    """What a denoiser or extractor computes, as JSON-able data.

    A built-in stage is its exact type and configuration, so two equal
    but distinct objects (the pipelines of two packages loaded from one
    file) give equal data.  Any other object, subclasses included, is
    its own identity: nothing says what else it reads.
    """
    kind = type(stage)
    if kind is StreamingFeatureExtractor:
        return [kind.__name__, stage.config.to_dict()]
    if kind is CombinedFeatureExtractor:
        return [kind.__name__, [_stage_config(part) for part in stage.extractors]]
    if kind in _SERIALIZED_STAGES:
        return [kind.__name__, stage.to_dict()]
    return [kind.__qualname__, "object", id(stage)]


class _WindowKernel:
    """One pipeline's window featurize pass, resolved for one dtype.

    Built by :meth:`PreprocessingPipeline.window_kernel`.  Holds every
    configuration-only piece of the pass — the read-column index, the
    denoiser's window-stack kernel, the normalizer's row transform — and
    the stages it was built from, so the pipeline can tell when one of
    them has been replaced.  The features are the extractor's
    ``extract_read_columns``, whose few scalar checks are all the
    checking the pass still does.

    ``key`` names the configuration-only half, :meth:`raw` (denoiser and
    extractor configuration, window length, compute dtype): kernels with
    equal keys compute the same raw rows, row by row, so one of them may
    featurize the stacked windows of all and each apply its own
    :meth:`normalize` to its share.  Equal by configuration, not
    identity; see :func:`_stage_config`.
    """

    __slots__ = (
        "denoiser", "extractor", "normalizer", "window_len", "key", "_dtype",
        "_n_features", "_denoise", "_normalize", "_empty",
    )

    def __init__(self, pipeline: "PreprocessingPipeline", dtype) -> None:
        self.denoiser = pipeline.denoiser
        self.extractor = pipeline.extractor
        self.normalizer = pipeline.normalizer
        self.window_len = pipeline.window_len
        self._dtype = dtype or np.float64
        self.key = json.dumps(
            [
                _stage_config(self.denoiser),
                _stage_config(self.extractor),
                self.window_len,
                np.dtype(self._dtype).name,
            ],
            sort_keys=True,
        )
        self._n_features = pipeline.n_features
        self._denoise = pipeline._windows_denoiser()
        self._normalize = getattr(
            self.normalizer, "transform_rows", self.normalizer.transform
        )
        self._empty: Optional[np.ndarray] = None

    def raw(self, windows: np.ndarray) -> np.ndarray:
        """*Unnormalized* feature rows of checked windows."""
        if windows.shape[0] == 0:
            return np.empty((0, self._n_features), dtype=self._dtype)
        # The read columns are gathered C-contiguous: an F-ordered stack
        # (what ``windows[..., read]`` returns) takes BLAS off its
        # contiguous path in the operator product, at twice the cost.
        # Non-overlapping windows partition a signal, so the denoised
        # stack folds back into one continuous block.
        denoised = self._denoise(
            np.take(windows, self.extractor.read_channels, axis=2)
        )
        return self.extractor.extract_read_columns(
            denoised.reshape(-1, denoised.shape[2]),
            self.window_len,
            stride=self.window_len,
            dtype=self._dtype,
        )

    def normalize(self, rows: np.ndarray) -> np.ndarray:
        """Normalized feature rows of :meth:`raw` rows (of this kernel or
        of any kernel with an equal ``key``)."""
        if self._empty is None:
            # The checked transform of an empty block: it checks the
            # normalizer (fitted, as wide as the rows) once, and a copy of
            # it is every window-less tick's result from then on.
            self._empty = self.normalizer.transform(
                np.empty((0, self._n_features), dtype=self._dtype)
            )
        if rows.shape[0] == 0:
            return self._empty.copy()
        return self._normalize(rows)

    def serves(self, pipeline: "PreprocessingPipeline") -> bool:
        """Whether ``pipeline`` still holds the stages this was built from."""
        return (
            pipeline.denoiser is self.denoiser
            and pipeline.extractor is self.extractor
            and pipeline.normalizer is self.normalizer
            and pipeline.window_len == self.window_len
        )

    def __call__(self, windows: np.ndarray) -> np.ndarray:
        """Normalized feature rows of checked windows."""
        return self.normalize(self.raw(windows))


class PreprocessingPipeline:
    """Denoise -> segment -> extract features -> normalize.

    Parameters
    ----------
    denoiser:
        Any object with ``apply(data) -> data`` and ``to_dict`` that acts
        column-wise (output channel ``j`` depends on input channel ``j``
        only; see :mod:`repro.preprocessing.denoise`); defaults to a 30 Hz
        Butterworth low-pass at 120 Hz sampling.
    window_len:
        Samples per window (120 = one second at the paper's rate).
    stride:
        Segmentation stride; defaults to ``window_len`` (non-overlapping).
    feature_config:
        The statistical feature grid; defaults to the paper's 80 features.
        Ignored when ``extractor`` is given.
    extractor:
        Any feature extractor (statistical, spectral or combined; anything
        with ``read_channels`` and ``extract_read_columns``) — the paper's
        "more advanced feature extractors can be ... integrated" hook.
        Defaults to the statistical extractor built from
        ``feature_config``.
    normalizer:
        A fit/transform normalizer; defaults to z-score.
    """

    def __init__(
        self,
        denoiser=None,
        window_len: int = 120,
        stride: Optional[int] = None,
        feature_config: Optional[FeatureConfig] = None,
        extractor=None,
        normalizer=None,
    ) -> None:
        if window_len < 1:
            raise ConfigurationError(f"window_len must be >= 1, got {window_len}")
        if stride is not None and stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        if extractor is not None and feature_config is not None:
            raise ConfigurationError(
                "pass either feature_config or extractor, not both"
            )
        self.denoiser = denoiser if denoiser is not None else ButterworthLowpass()
        self.window_len = int(window_len)
        self.stride = int(stride) if stride is not None else self.window_len
        self.extractor = (
            extractor
            if extractor is not None
            else StreamingFeatureExtractor(feature_config)
        )
        self.normalizer = normalizer if normalizer is not None else ZScoreNormalizer()
        # dtype -> _WindowKernel, rebuilt when a stage it holds is replaced
        self._window_kernels: Dict[object, _WindowKernel] = {}

    def __getstate__(self) -> Dict:
        # Window kernels are closures over this pipeline's stages: a copy
        # builds its own on first use.
        return dict(self.__dict__, _window_kernels={})

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def n_features(self) -> int:
        return self.extractor.n_features

    @property
    def is_fitted(self) -> bool:
        return getattr(self.normalizer, "is_fitted", False)

    @property
    def expected_channels(self) -> int:
        """The channel count of every input: the sensor layout the
        extractor's ``read_channels`` index."""
        return N_CHANNELS

    @property
    def streaming_extractor(self):
        """The configured extractor, under the name stream code reads it."""
        return self.extractor

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(
                "pipeline normalizer is not fitted; call fit_normalizer() "
                "on the Cloud before processing"
            )

    # ------------------------------------------------------------------ #
    # windows (the Cloud's fit and pre-segmented inference)
    # ------------------------------------------------------------------ #

    def _windows_denoiser(self) -> Callable[[np.ndarray], np.ndarray]:
        """Denoise a ``(k, window_len, channels)`` stack window by window:
        the denoiser's ``batch_kernel`` for the pipeline's window length,
        else a per-window loop."""
        batch_kernel = getattr(self.denoiser, "batch_kernel", None)
        if batch_kernel is not None:
            return batch_kernel(self.window_len)
        apply = self.denoiser.apply
        return lambda windows: np.stack([apply(w) for w in windows], axis=0)

    def _check_windows(self, windows: np.ndarray) -> np.ndarray:
        """``windows`` as a float64 ``(k, window_len, N_CHANNELS)`` cube,
        else ``DataShapeError``."""
        arr = check_3d("windows", windows)
        if arr.shape[2] != N_CHANNELS:
            raise DataShapeError(
                f"windows must have {N_CHANNELS} channels, got {arr.shape[2]}"
            )
        if arr.shape[1] != self.window_len:
            raise DataShapeError(
                f"windows must be {self.window_len} samples long, "
                f"got {arr.shape[1]}"
            )
        return arr

    def raw_features_of_windows(self, windows: np.ndarray) -> np.ndarray:
        """Denoise each window independently and extract *unnormalized*
        float64 features."""
        return self.window_kernel().raw(self._check_windows(windows))

    def fit_normalizer(self, windows: np.ndarray) -> "PreprocessingPipeline":
        """Fit the normalizer on raw windows (the Cloud campaign data)."""
        self.normalizer.fit(self.raw_features_of_windows(windows))
        return self

    def process_windows(self, windows: np.ndarray, dtype=None) -> np.ndarray:
        """Raw windows ``(k, window_len, 22)`` -> normalized features ``(k, d)``.

        Each window is denoised in isolation, so the rows are bit for bit
        those of a non-overlapping stream through the same windows.
        ``dtype=np.float32`` extracts and normalizes in 32 bits (see
        :func:`resolve_feature_dtype`).
        """
        self._require_fitted()
        arr = self._check_windows(windows)
        return self.window_kernel(resolve_feature_dtype(dtype))(arr)

    def process_window(self, window: np.ndarray) -> np.ndarray:
        """One raw window -> one normalized feature vector ``(d,)``."""
        return self.process_windows(np.asarray(window)[None])[0]

    # ------------------------------------------------------------------ #
    # streams (both sides)
    # ------------------------------------------------------------------ #

    def _resolve_stride(self, stride: Optional[int]) -> int:
        """The stride of a stream entry point: the pipeline's by default."""
        stride = self.stride if stride is None else int(stride)
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        return stride

    def raw_stream_features(
        self, data: np.ndarray, stride: Optional[int] = None, dtype=None,
    ) -> np.ndarray:
        """Continuous ``(n, channels)`` samples -> *unnormalized* features.

        The fast path: no window cube is materialized.  At the
        non-overlapping stride the windows go through :meth:`window_kernel`
        (exactly :meth:`process_windows` on ``sliding_windows(data)``); a
        smaller stride denoises the read columns once, continuously, then
        extracts every window.  ``dtype=np.float32`` runs feature extraction
        in 32 bits (denoising always stays ``float64``); the returned
        matrix is then ``float32``.
        """
        arr, stride, dtype = self._stream_input(data, stride, dtype)
        if stride == self.window_len:
            return self.window_kernel(dtype).raw(self._cut_windows(arr))
        return self._span_features(arr, stride, dtype)

    def _stream_input(self, data, stride, dtype):
        """The checks of the whole-stream entry points: ``(arr, stride,
        dtype)`` with ``arr`` a finite float64 ``(n, channels)`` array."""
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise DataShapeError(
                f"data must be 2-D (n, channels), got {arr.shape}"
            )
        # Validate channels up front so short malformed inputs fail the
        # same way long ones do, instead of slipping through the
        # zero-window early return.
        if arr.shape[1] != N_CHANNELS:
            raise DataShapeError(
                f"data must have {N_CHANNELS} channels, got {arr.shape[1]}"
            )
        # Refused here, as process_chunk refuses a chunk: a NaN sorts last
        # and silently corrupts median/iqr/mad.
        finite = np.isfinite(arr).all(axis=1)
        if not finite.all():
            raise DataShapeError(
                f"non-finite values in {int((~finite).sum())} of "
                f"{finite.size} rows"
            )
        return arr, self._resolve_stride(stride), resolve_feature_dtype(dtype)

    def _cut_windows(self, data: np.ndarray) -> np.ndarray:
        """The complete non-overlapping windows of ``(n, channels)`` data,
        ``(k, window_len, channels)``: a reshape, a view when ``data`` is
        contiguous."""
        k = data.shape[0] // self.window_len
        return data[: k * self.window_len].reshape(
            k, self.window_len, data.shape[1]
        )

    def _span_features(self, data: np.ndarray, stride: int, dtype) -> np.ndarray:
        """Stream-denoise features of a whole signal: its read columns are
        denoised once, then every window at ``stride`` is extracted."""
        return self._extract_span(
            self.denoiser.apply(data[:, self.extractor.read_channels]),
            stride,
            dtype,
        )

    def window_kernel(self, dtype=None) -> "_WindowKernel":
        """The pipeline's one window featurizer, resolved once per dtype.

        Calling the returned kernel maps raw windows, ``(k, window_len,
        channels)`` float64 that the caller has already checked (what
        :meth:`fold_chunk` hands out, or :meth:`process_windows` checks),
        to normalized feature rows: read columns -> denoise each window
        -> extract -> normalize, with no stage re-checking what the one
        before produced.  Its ``raw`` method stops before normalizing and
        its ``normalize`` method is the rest; kernels of distinct
        pipelines whose ``key`` is equal may share ``raw`` rows (what a
        fleet tick does across cohorts).  ``dtype`` is ``None`` or
        ``np.float32`` (see :func:`resolve_feature_dtype`).  The kernel is
        built on first use and rebuilt when a stage is replaced.  Its
        first normalize checks the normalizer (fitted, as wide as the
        extractor's rows) through ``transform``.
        """
        kernel = self._window_kernels.get(dtype)
        if kernel is None or not kernel.serves(self):
            kernel = _WindowKernel(self, dtype)
            self._window_kernels[dtype] = kernel
        return kernel

    def process_stream(
        self, data: np.ndarray, stride: Optional[int] = None, dtype=None,
    ) -> np.ndarray:
        """Continuous raw samples -> normalized features in one pass.

        ``dtype=np.float32`` selects the reduced-precision fast path:
        features extract and normalize in 32 bits (see
        :meth:`raw_stream_features`).
        """
        self._require_fitted()
        arr, stride, dtype = self._stream_input(data, stride, dtype)
        if stride == self.window_len:
            return self.window_kernel(dtype)(self._cut_windows(arr))
        return self.normalizer.transform(
            self._span_features(arr, stride, dtype)
        )

    # ------------------------------------------------------------------ #
    # chunked streaming (carry-over across ticks)
    # ------------------------------------------------------------------ #

    def open_stream(
        self, stride: Optional[int] = None, dtype=None
    ) -> StreamState:
        """Open a chunked stream: per-session state for :meth:`process_chunk`.

        ``stride`` picks the path as in :meth:`raw_stream_features`: the
        non-overlapping stride denoises per window (exact
        :meth:`process_windows` semantics at any chunking) and overlapping
        strides denoise the continuous signal through the denoiser's
        chunk-exact applicator (``make_stream``; every shipped denoiser
        has one — the Butterworth low-pass streams via
        :class:`~repro.preprocessing.denoise.ZeroPhaseIIRStream`'s zi
        carry-over).  Streams are always chunk-invariant; a user denoiser
        without ``make_stream`` raises here instead of silently degrading
        to chunk-dependent output.  ``dtype=np.float32`` is remembered on
        the state: every chunk's features extract and normalize in 32 bits.
        """
        stride = self._resolve_stride(stride)
        dtype = resolve_feature_dtype(dtype)
        if stride == self.window_len:
            return StreamState(self.window_len, stride, dtype=dtype)
        make_stream = getattr(self.denoiser, "make_stream", None)
        if make_stream is None:
            raise ConfigurationError(
                f"denoiser {type(self.denoiser).__name__} has no "
                f"make_stream(): stream-mode chunked processing requires a "
                f"chunk-exact denoiser stream (every built-in denoiser "
                f"provides one).  Use the non-overlapping stride for "
                f"windowed denoising, or implement make_stream() on the "
                f"denoiser"
            )
        return StreamState(
            self.window_len,
            stride,
            denoiser_stream=make_stream(),
            dtype=dtype,
        )

    def _check_chunk(
        self, state: StreamState, chunk: np.ndarray, validated: bool = False
    ) -> np.ndarray:
        """Validate one chunk against the stream's locked geometry.

        ``validated=True``: the caller has made these very checks (see
        :meth:`process_chunk`); only the stream's channel count is locked.
        """
        if validated:
            state.n_channels = int(chunk.shape[1])
            return chunk
        if state.finished:
            raise ConfigurationError(
                "stream is finished; open_stream() a new session"
            )
        arr = np.asarray(chunk, dtype=np.float64)
        if arr.ndim != 2:
            raise DataShapeError(
                f"chunk must be 2-D (samples, channels), got {arr.shape}"
            )
        if arr.shape[1] != N_CHANNELS:
            raise DataShapeError(
                f"chunk must have {N_CHANNELS} channels, got {arr.shape[1]}"
            )
        # Refused before any state moves: a NaN sorts last and silently
        # corrupts median/iqr/mad, and once inside the carried IIR ``zi``
        # it poisons every later sample of the stream.
        if not np.isfinite(arr).all():
            raise DataShapeError("chunk holds non-finite samples (NaN or inf)")
        state.n_channels = int(arr.shape[1])
        return arr

    def _extract_span(
        self, span: np.ndarray, stride: int, dtype=None
    ) -> np.ndarray:
        """Unnormalized features of every window of a denoised span of the
        extractor's read columns."""
        return self.extractor.extract_read_columns(
            span, self.window_len, stride=stride, dtype=dtype
        )

    def _consume_denoised(
        self, state: StreamState, emitted: np.ndarray
    ) -> np.ndarray:
        """Fold newly-denoised samples into the buffer; emit window features."""
        if state._skip and emitted.shape[0]:
            drop = min(state._skip, emitted.shape[0])
            emitted = emitted[drop:]
            state._skip -= drop
        if state.buffer is None or state.buffer.shape[0] == 0:
            buffer = emitted
        elif emitted.shape[0]:
            buffer = np.concatenate([state.buffer, emitted], axis=0)
        else:
            buffer = state.buffer
        w, s = self.window_len, state.stride
        k = window_count(buffer.shape[0], w, s)
        if k == 0:
            # < window_len samples; copy so the carried tail never aliases
            # a caller array that may be reused for the next tick.
            state.buffer = buffer.copy()
            return np.empty((0, self.n_features), dtype=state.dtype or np.float64)
        features = self._extract_span(
            buffer[: (k - 1) * s + w], s, dtype=state.dtype
        )
        # Keep everything from the next window's start on; with
        # stride > window_len that start may lie beyond the received
        # samples, in which case the gap is skipped off future chunks.
        cut = min(k * s, buffer.shape[0])
        state._skip = k * s - cut
        state.buffer = buffer[cut:].copy()
        state.windows_out += k
        return features

    def fold_chunk(
        self, state: StreamState, chunk: np.ndarray, validated: bool = False
    ) -> np.ndarray:
        """Fold a chunk into a windowed stream's carry-over.

        Returns the raw windows the chunk completed, ``(k, window_len,
        channels)`` with ``k`` possibly zero — a read-only view, valid until
        the caller's chunk array is reused.  :meth:`window_kernel` turns
        them into feature rows; windows of several streams of one pipeline
        may be stacked into a single such call (what a fleet tick does).
        Only windowed streams have raw windows to hand out.

        ``validated`` is :meth:`process_chunk`'s.
        """
        if state.denoiser_stream is not None:
            raise ConfigurationError(
                "fold_chunk() serves windowed streams; an "
                "overlapping-stride session goes through process_chunk()"
            )
        arr = self._check_chunk(state, chunk, validated)
        state.samples_in += arr.shape[0]
        if state.buffer is None or state.buffer.shape[0] == 0:
            buffer = arr
        elif arr.shape[0]:
            buffer = np.concatenate([state.buffer, arr], axis=0)
        else:
            buffer = state.buffer
        w = self.window_len
        k = buffer.shape[0] // w
        # Copy so the carried tail never aliases a caller array that may
        # be reused for the next tick.
        state.buffer = buffer[k * w :].copy()
        state.windows_out += k
        windows = buffer[: k * w].reshape(k, w, buffer.shape[1])
        windows.flags.writeable = False
        return windows

    def _chunk_raw_features(
        self,
        state: StreamState,
        chunk: np.ndarray,
        final: bool = False,
        validated: bool = False,
    ) -> np.ndarray:
        """An overlapping-stride stream: push the read columns through the
        denoiser, emit features."""
        arr = self._check_chunk(state, chunk, validated)
        state.samples_in += arr.shape[0]
        emitted = state.denoiser_stream.push(arr[:, self.extractor.read_channels])
        features = self._consume_denoised(state, emitted)
        if final:
            tail = self._consume_denoised(state, state.denoiser_stream.finish())
            if tail.shape[0]:
                features = np.concatenate([features, tail], axis=0)
        return features

    def process_chunk(
        self, state: StreamState, chunk: np.ndarray, validated: bool = False
    ) -> np.ndarray:
        """One chunk of continuous raw samples -> normalized features.

        Returns the feature rows of every window *completed* by this chunk
        (possibly zero rows — the buffer simply keeps filling), including
        windows straddling the previous chunk boundary.  Across any split
        of a recording into chunks the concatenated rows equal
        :meth:`process_stream` over the whole recording (exactly the same
        windows; values to the streaming parity budget when
        ``state.chunk_invariant``), in O(chunk) work per call.  A chunk
        holding non-finite samples is refused with ``DataShapeError``
        before the stream state moves.

        ``validated=True`` is for a caller that has already checked the
        chunk exactly as this method would — a float64 2-D array of the
        stream's channel count, every sample finite, on an open stream —
        as a fleet tick does for all its chunks before any stream moves;
        the chunk is then not checked a second time.
        """
        self._require_fitted()
        if state.denoiser_stream is None:
            return self.window_kernel(state.dtype)(
                self.fold_chunk(state, chunk, validated)
            )
        return self.normalizer.transform(
            self._chunk_raw_features(state, chunk, validated=validated)
        )

    def finish_stream(self, state: StreamState) -> np.ndarray:
        """Close a chunked stream; returns the last windows' features.

        Flushes the denoiser's lookahead tail (bounded-context continuous
        denoising holds back its last few samples until the true signal
        end is known) and featurizes any windows those samples complete.
        The incomplete tail window, if any, is dropped — exactly like
        :meth:`process_stream` on the whole recording.  The state is
        closed: further :meth:`process_chunk` calls raise.
        """
        self._require_fitted()
        if state.finished:
            raise ConfigurationError(
                "stream is finished; open_stream() a new session"
            )
        empty = np.empty((0, N_CHANNELS))
        if state.denoiser_stream is None:
            features = self.process_chunk(state, empty)
        else:
            features = self.normalizer.transform(
                self._chunk_raw_features(state, empty, final=True)
            )
        state.finished = True
        return features

    def process_recording(self, recording: Recording) -> np.ndarray:
        """A recording -> :meth:`process_stream`'s rows of its samples.

        Learning and serving featurize alike: at the non-overlapping
        stride these are :meth:`process_windows`'s rows of the segmented
        recording, bit for bit.
        """
        if recording.n_samples < self.window_len:
            return np.empty((0, self.n_features))
        return self.process_stream(recording.data)

    # ------------------------------------------------------------------ #
    # serialization / footprint
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict:
        if not self.is_fitted:
            raise NotFittedError("cannot serialize an unfitted pipeline")
        return {
            "denoiser": self.denoiser.to_dict(),
            "window_len": self.window_len,
            "stride": self.stride,
            "extractor": extractor_to_dict(self.extractor),
            "normalizer": self.normalizer.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PreprocessingPipeline":
        try:
            if "extractor" in payload:
                extractor = extractor_from_dict(payload["extractor"])
            else:  # legacy payloads carried the statistical config directly
                extractor = StreamingFeatureExtractor(
                    FeatureConfig.from_dict(payload["feature_config"])
                )
            pipeline = cls(
                denoiser=denoiser_from_dict(payload["denoiser"]),
                window_len=int(payload["window_len"]),
                stride=int(payload["stride"]),
                extractor=extractor,
                normalizer=normalizer_from_dict(payload["normalizer"]),
            )
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"invalid pipeline payload: {exc}") from exc
        return pipeline

    def size_bytes(self) -> int:
        """Serialized size of the pipeline (JSON encoding), for footprint
        accounting in the transfer package."""
        return len(json.dumps(self.to_dict()).encode("utf-8"))
