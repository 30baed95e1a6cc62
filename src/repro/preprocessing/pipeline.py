"""The serializable pre-processing pipeline shipped from Cloud to Edge.

The paper's transfer package item (1) is "the pre-processing function":
denoising, segmentation, normalization and the statistical feature
extractor.  :class:`PreprocessingPipeline` composes those stages behind four
entry points:

- :meth:`process_recording` — continuous raw recording -> feature matrix
  (denoise once, then features at the pipeline's stride, then normalize),
  the Edge's recording flow (learning and calibrating an activity);
- :meth:`process_windows` — already-segmented raw windows -> features
  through the reference extractor on all channels: the Cloud campaign
  processing and pre-segmented inference;
- :meth:`process_stream` — continuous raw samples -> feature matrix through
  the :class:`~repro.preprocessing.streaming.StreamingFeatureExtractor`
  path: no window cube is ever materialized, and at the default
  non-overlapping stride the per-window verdicts match
  :meth:`process_windows` on the segmented recording exactly;
- :meth:`open_stream` / :meth:`process_chunk` / :meth:`finish_stream` — the
  *chunked* twin of :meth:`process_stream` for unbounded recordings that
  arrive tick by tick: a :class:`StreamState` carries the sample tail that
  has not yet completed a window (plus the denoiser's lookahead context)
  across chunks, so no window straddling a chunk boundary is ever lost and
  no buffered sample is ever re-featurized.

Every entry point but :meth:`process_windows` (and its
:meth:`fit_normalizer` twin) takes only the channels the streaming
extractor reads (its ``read_channels``, 15 of 22 for the default config)
*before* denoising, so no channel that no feature reads is ever filtered,
and a stream's denoiser state holds those columns only.  Chunks are still
validated, finiteness-checked and channel-locked on the full 22-channel
layout.  Denoisers act column-wise (the denoiser contract), so the
features are the same bits as denoising every channel.  Extractors
without a streaming twin (spectral, combined, subclassed) keep all 22.

Windowed (non-overlapping) ticks run through :meth:`window_kernel`: the
chunk is checked once, by :meth:`process_chunk`, and its completed
windows then go through read columns -> denoise -> stacked statistics ->
normalize with no stage re-checking the one before; the kernel holds what
depends only on configuration and is rebuilt when a stage is replaced.

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
    denoiser_from_dict,
)
from .features import FeatureConfig, FeatureExtractor
from .normalization import ZScoreNormalizer, normalizer_from_dict
from .segmentation import sliding_windows, window_count
from .spectral import (
    CombinedFeatureExtractor,
    SpectralConfig,
    SpectralFeatureExtractor,
)
from .streaming import StreamingFeatureExtractor


def extractor_to_dict(extractor) -> Dict:
    """Serialize any supported feature extractor to a plain dict."""
    if isinstance(extractor, FeatureExtractor):
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
        return FeatureExtractor(FeatureConfig.from_dict(payload["config"]))
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

    ``chunk_invariant`` records that the feature stream is independent of
    how the recording was split into chunks, and is always ``True``:
    windowed denoising denoises each window in isolation, bounded-context
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
        denoise: str,
        denoiser_stream=None,
        dtype=None,
    ) -> None:
        self.window_len = int(window_len)
        self.stride = int(stride)
        self.denoise = denoise
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


class _WindowKernel:
    """One pipeline's window featurize pass, resolved for one dtype.

    Built by :meth:`PreprocessingPipeline.window_kernel`.  Holds every
    configuration-only piece of the pass — the read-column index, the
    denoiser's batch kernel, the normalizer's row transform — and the
    stages it was built from, so the pipeline can tell when one of them
    has been replaced.  The stacked statistics are the streaming
    extractor's ``extract_read_columns``, whose few scalar checks are all
    the checking the pass still does.
    """

    __slots__ = (
        "denoiser", "extractor", "normalizer", "window_len", "_dtype",
        "_n_features", "_raw", "_normalize", "_empty",
    )

    def __init__(self, pipeline: "PreprocessingPipeline", dtype) -> None:
        self.denoiser = pipeline.denoiser
        self.extractor = pipeline.extractor
        self.normalizer = pipeline.normalizer
        self.window_len = pipeline.window_len
        self._dtype = dtype or np.float64
        self._n_features = pipeline.n_features
        denoise = pipeline._windows_denoiser()
        streaming = pipeline.streaming_extractor
        if streaming is None:
            extractor = self.extractor

            def raw(windows: np.ndarray) -> np.ndarray:
                return PreprocessingPipeline._cast_features(
                    extractor.extract(denoise(windows)), dtype
                )
        else:
            columns = streaming.read_channels
            window_len = self.window_len

            def raw(windows: np.ndarray) -> np.ndarray:
                # Non-overlapping windows partition a signal, so the
                # denoised stack folds back into one continuous block.
                denoised = denoise(windows[..., columns])
                return streaming.extract_read_columns(
                    denoised.reshape(-1, denoised.shape[2]),
                    window_len,
                    stride=window_len,
                    dtype=dtype,
                )

        self._raw = raw
        self._normalize = getattr(
            self.normalizer, "transform_rows", self.normalizer.transform
        )
        self._empty: Optional[np.ndarray] = None

    def raw(self, windows: np.ndarray) -> np.ndarray:
        """*Unnormalized* feature rows of checked windows."""
        if windows.shape[0] == 0:
            return np.empty((0, self._n_features), dtype=self._dtype)
        return self._raw(windows)

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
        if self._empty is None:
            # The checked transform of an empty block: it checks the
            # normalizer (fitted, as wide as the rows) once, and a copy of
            # it is every window-less tick's result from then on.
            self._empty = self.normalizer.transform(
                np.empty((0, self._n_features), dtype=self._dtype)
            )
        if windows.shape[0] == 0:
            return self._empty.copy()
        return self._normalize(self._raw(windows))


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
        Any feature extractor (statistical, spectral or combined) — the
        paper's "more advanced feature extractors can be ... integrated"
        hook.  Defaults to the statistical extractor built from
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
            extractor if extractor is not None else FeatureExtractor(feature_config)
        )
        self.normalizer = normalizer if normalizer is not None else ZScoreNormalizer()
        self._streaming_extractor: Optional[StreamingFeatureExtractor] = None
        self._streaming_source = None  # the extractor the memo was built from
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
    def expected_channels(self) -> Optional[int]:
        """The channel count the configured extractor requires, if known.

        All built-in extractors (statistical, spectral, combined) operate
        on the fixed sensor layout; user-supplied extractor types return
        ``None`` (unknown) and validate their own inputs.
        """
        if isinstance(
            self.extractor,
            (FeatureExtractor, SpectralFeatureExtractor, CombinedFeatureExtractor),
        ):
            return N_CHANNELS
        return None

    @property
    def streaming_extractor(self) -> Optional[StreamingFeatureExtractor]:
        """The streaming twin of the configured extractor.

        Only the plain statistical :class:`FeatureExtractor` has a streaming
        implementation (subclasses may override statistics, so they fall
        back too); spectral/combined extractors return ``None`` and the
        stream entry points degrade to the zero-copy windowed path.  The
        memo is keyed on the extractor object's identity, so reassigning
        ``self.extractor`` re-derives it.
        """
        if self._streaming_source is not self.extractor:
            self._streaming_source = self.extractor
            self._streaming_extractor = (
                StreamingFeatureExtractor(self.extractor.config)
                if type(self.extractor) is FeatureExtractor
                else None
            )
        return self._streaming_extractor

    # ------------------------------------------------------------------ #
    # fitting (Cloud side)
    # ------------------------------------------------------------------ #

    def _denoise_windows(self, windows: np.ndarray) -> np.ndarray:
        """Denoise a ``(k, window_len, channels)`` stack window by window.

        Denoisers that support a batch axis (``apply_batch``) filter the
        whole stack in one vectorized call; others fall back to a
        per-window loop.
        """
        if windows.shape[0] == 0:
            return windows
        batch_apply = getattr(self.denoiser, "apply_batch", None)
        if batch_apply is not None:
            return batch_apply(windows)
        return np.stack([self.denoiser.apply(w) for w in windows], axis=0)

    def _windows_denoiser(self) -> Callable[[np.ndarray], np.ndarray]:
        """:meth:`_denoise_windows` resolved for the pipeline's window
        length, for denoisers that offer a ``batch_kernel``."""
        batch_kernel = getattr(self.denoiser, "batch_kernel", None)
        if batch_kernel is None:
            return self._denoise_windows
        return batch_kernel(self.window_len)

    def raw_features_of_windows(self, windows: np.ndarray) -> np.ndarray:
        """Denoise each window independently and extract *unnormalized* features."""
        arr = check_3d("windows", windows)
        return self.extractor.extract(self._denoise_windows(arr))

    def fit_normalizer(self, windows: np.ndarray) -> "PreprocessingPipeline":
        """Fit the normalizer on raw windows (the Cloud campaign data)."""
        self.normalizer.fit(self.raw_features_of_windows(windows))
        return self

    # ------------------------------------------------------------------ #
    # processing (both sides)
    # ------------------------------------------------------------------ #

    def process_windows(self, windows: np.ndarray) -> np.ndarray:
        """Raw windows ``(k, window_len, 22)`` -> normalized features ``(k, d)``."""
        if not self.is_fitted:
            raise NotFittedError(
                "pipeline normalizer is not fitted; call fit_normalizer() "
                "on the Cloud before processing"
            )
        return self.normalizer.transform(self.raw_features_of_windows(windows))

    def process_window(self, window: np.ndarray) -> np.ndarray:
        """One raw window -> one normalized feature vector ``(d,)``."""
        return self.process_windows(np.asarray(window)[None, :, :])[0]

    def _resolve_stream_args(
        self, stride: Optional[int], denoise: str
    ) -> "tuple[int, str]":
        """Shared stride/denoise-mode resolution of the stream entry points.

        One implementation keeps :meth:`raw_stream_features` and
        :meth:`open_stream` accepting exactly the same combinations.
        """
        stride = self.stride if stride is None else int(stride)
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        if denoise == "auto":
            denoise = "windowed" if stride == self.window_len else "stream"
        if denoise not in ("windowed", "stream"):
            raise ConfigurationError(
                f"denoise must be 'auto', 'windowed' or 'stream', "
                f"got {denoise!r}"
            )
        if denoise == "windowed" and stride != self.window_len:
            raise ConfigurationError(
                "windowed denoising requires the non-overlapping stride "
                f"(window_len={self.window_len}), got stride={stride}"
            )
        return stride, denoise

    def raw_stream_features(
        self, data: np.ndarray, stride: Optional[int] = None,
        denoise: str = "auto", dtype=None,
    ) -> np.ndarray:
        """Continuous ``(n, channels)`` samples -> *unnormalized* features.

        The fast path: no window cube is materialized.  ``denoise``
        picks where the denoiser runs:

        - ``"windowed"`` — segment first (zero-copy view), denoise the
          window batch, then stream features over it.  Exactly what
          :meth:`process_windows` computes on ``sliding_windows(data)``;
          only valid for the non-overlapping stride (overlapping windows
          denoised independently are not a continuous signal).
        - ``"stream"`` — denoise the continuous signal once, then stream
          features at any stride.  Cheaper for overlapping strides (shared
          samples are filtered once) and free of per-window filter edge
          artifacts, but for non-local denoisers (Butterworth) the features
          differ slightly from the per-window path.
        - ``"auto"`` (default) — ``"windowed"`` when ``stride ==
          window_len`` so the canonical per-window verdicts are reproduced
          exactly, ``"stream"`` otherwise.

        ``dtype=np.float32`` runs feature extraction in 32 bits (denoising
        always stays ``float64``); the returned matrix is then ``float32``.
        """
        arr, stride, denoise, dtype = self._stream_input(
            data, stride, denoise, dtype
        )
        if denoise == "windowed":
            return self.window_kernel(dtype).raw(self._cut_windows(arr))
        return self._span_features(arr, stride, dtype)

    def _stream_input(self, data, stride, denoise: str, dtype):
        """The checks of the whole-stream entry points: ``(arr, stride,
        denoise, dtype)`` with ``arr`` a float64 ``(n, channels)`` array."""
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise DataShapeError(
                f"data must be 2-D (n, channels), got {arr.shape}"
            )
        # Validate channels up front so short malformed inputs fail the
        # same way long ones do, instead of slipping through the
        # zero-window early return.
        expected = self.expected_channels
        if expected is not None and arr.shape[1] != expected:
            raise DataShapeError(
                f"data must have {expected} channels, got {arr.shape[1]}"
            )
        stride, denoise = self._resolve_stream_args(stride, denoise)
        return arr, stride, denoise, resolve_feature_dtype(dtype)

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
            self.denoiser.apply(self._read_columns(data)), stride, dtype
        )

    def _read_columns(self, data: np.ndarray) -> np.ndarray:
        """The channels (last axis) of raw ``data`` the features read.

        The streaming extractor reads only its ``read_channels`` (15 of 22
        for the default config), so those columns are taken *before*
        denoising and nothing else is ever filtered.  A denoiser acts
        column-wise — the interface contract every shipped one meets — so
        the taken columns denoise to the same bits.  Extractors without a
        streaming twin keep every channel.
        """
        streaming = self.streaming_extractor
        if streaming is None:
            return data
        return data[..., streaming.read_channels]

    def window_kernel(self, dtype=None) -> "_WindowKernel":
        """The featurize half of a windowed tick, resolved once per dtype.

        Calling the returned kernel maps raw non-overlapping windows,
        ``(k, window_len, channels)`` float64 that the caller has already
        checked (what :meth:`fold_chunk` hands out), to normalized
        feature rows: read columns -> denoise each window -> stacked
        statistics -> normalize, with no stage re-checking what the one
        before produced.  Its ``raw`` method stops before normalizing.
        ``dtype`` is ``None`` or ``np.float32`` (see
        :func:`resolve_feature_dtype`).  The kernel is built on first use
        and rebuilt when the denoiser, extractor, normalizer or window
        length is replaced.  Its first call checks the normalizer (fitted,
        as wide as the extractor's rows) through ``transform``.
        """
        kernel = self._window_kernels.get(dtype)
        if kernel is None or not kernel.serves(self):
            kernel = _WindowKernel(self, dtype)
            self._window_kernels[dtype] = kernel
        return kernel

    @staticmethod
    def _cast_features(features: np.ndarray, dtype) -> np.ndarray:
        """Cast a fallback (windowed-extractor) feature block to ``dtype``.

        The batched extractor computes in ``float64``; the reduced-precision
        stream contract is only about the *emitted* dtype for extractors
        without a streaming twin.
        """
        if dtype is None:
            return features
        return np.asarray(features, dtype=dtype)

    def process_stream(
        self, data: np.ndarray, stride: Optional[int] = None,
        denoise: str = "auto", dtype=None,
    ) -> np.ndarray:
        """Continuous raw samples -> normalized features in one pass.

        ``dtype=np.float32`` selects the reduced-precision fast path:
        features extract and normalize in 32 bits (see
        :meth:`raw_stream_features`).
        """
        if not self.is_fitted:
            raise NotFittedError(
                "pipeline normalizer is not fitted; call fit_normalizer() "
                "on the Cloud before processing"
            )
        arr, stride, denoise, dtype = self._stream_input(
            data, stride, denoise, dtype
        )
        if denoise == "windowed":
            return self.window_kernel(dtype)(self._cut_windows(arr))
        return self.normalizer.transform(
            self._span_features(arr, stride, dtype)
        )

    # ------------------------------------------------------------------ #
    # chunked streaming (carry-over across ticks)
    # ------------------------------------------------------------------ #

    def open_stream(
        self, stride: Optional[int] = None, denoise: str = "auto",
        dtype=None,
    ) -> StreamState:
        """Open a chunked stream: per-session state for :meth:`process_chunk`.

        ``stride``/``denoise`` follow :meth:`raw_stream_features` — with
        ``"auto"`` the non-overlapping stride denoises per window (exact
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
        stride, denoise = self._resolve_stream_args(stride, denoise)
        dtype = resolve_feature_dtype(dtype)
        if denoise == "windowed":
            return StreamState(self.window_len, stride, denoise, dtype=dtype)
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
            denoise,
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
        expected = self.expected_channels
        if expected is not None and arr.shape[1] != expected:
            raise DataShapeError(
                f"chunk must have {expected} channels, got {arr.shape[1]}"
            )
        if state.n_channels is not None and arr.shape[1] != state.n_channels:
            raise DataShapeError(
                f"chunk has {arr.shape[1]} channels, stream started with "
                f"{state.n_channels}"
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
        :meth:`_read_columns`."""
        streaming = self.streaming_extractor
        if streaming is None:
            return self._cast_features(
                self.extractor.extract(
                    sliding_windows(span, self.window_len, stride, copy=False)
                ),
                dtype,
            )
        return streaming.extract_read_columns(
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
        the caller's chunk array is reused.  :meth:`window_features` turns
        them into feature rows; windows of several streams of one pipeline
        may be stacked into a single such call (what a fleet tick does).
        Only windowed-denoise streams have raw windows to hand out.

        ``validated`` is :meth:`process_chunk`'s.
        """
        if state.denoise != "windowed":
            raise ConfigurationError(
                "fold_chunk() serves windowed-denoise streams; a "
                "stream-denoise session goes through process_chunk()"
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

    def window_features(self, windows: np.ndarray, dtype=None) -> np.ndarray:
        """Raw non-overlapping windows -> normalized stream-path features.

        Batch denoise (each window in isolation) -> streaming extract ->
        normalize: the second half of a windowed :meth:`process_chunk`, so
        the rows are chunk-invariant by construction.  The windows are
        checked here, then run through :meth:`window_kernel`.
        """
        arr = check_3d("windows", windows)
        if arr.shape[1] != self.window_len:
            raise DataShapeError(
                f"windows must be {self.window_len} samples long, "
                f"got {arr.shape[1]}"
            )
        return self.window_kernel(resolve_feature_dtype(dtype))(arr)

    def _chunk_raw_features(
        self,
        state: StreamState,
        chunk: np.ndarray,
        final: bool = False,
        validated: bool = False,
    ) -> np.ndarray:
        """Stream-denoise mode: push the read columns through the
        denoiser, emit features."""
        arr = self._check_chunk(state, chunk, validated)
        state.samples_in += arr.shape[0]
        emitted = state.denoiser_stream.push(self._read_columns(arr))
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
        if not self.is_fitted:
            raise NotFittedError(
                "pipeline normalizer is not fitted; call fit_normalizer() "
                "on the Cloud before processing"
            )
        if state.denoise == "windowed":
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
        if not self.is_fitted:
            raise NotFittedError(
                "pipeline normalizer is not fitted; call fit_normalizer() "
                "on the Cloud before processing"
            )
        if state.finished:
            raise ConfigurationError(
                "stream is finished; open_stream() a new session"
            )
        channels = state.n_channels
        if channels is None:  # no chunk ever arrived; satisfy validation
            channels = self.expected_channels or 0
        empty = np.empty((0, channels))
        if state.denoise == "windowed":
            features = self.process_chunk(state, empty)
        else:
            features = self.normalizer.transform(
                self._chunk_raw_features(state, empty, final=True)
            )
        state.finished = True
        return features

    def process_recording(self, recording: Recording) -> np.ndarray:
        """Continuous recording -> normalized feature matrix.

        The denoiser runs once over the continuous signal (cheaper and
        avoids per-window edge artifacts), then features stream out of the
        streaming extractor without materializing windows.
        """
        if recording.n_samples < self.window_len:
            return np.empty((0, self.n_features))
        if not self.is_fitted:
            raise NotFittedError(
                "pipeline normalizer is not fitted; call fit_normalizer() "
                "on the Cloud before processing"
            )
        features = self.raw_stream_features(
            recording.data, stride=self.stride, denoise="stream"
        )
        return self.normalizer.transform(features)

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
                extractor = FeatureExtractor(
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
