"""The batched inference engine: one vectorized window->verdict path.

Every layer of the reproduction used to re-implement the same hot path —
``EdgeDevice.infer_window`` for the GUI, ``IncrementalStrategy.classify``
for the evaluation protocol, the benchmarks with their own pipeline/NCM
plumbing.  :class:`InferenceEngine` is the single shared implementation:

    denoise -> features -> normalize -> embed -> NCM distance
            -> open-set rejection -> (optional per-session smoothing)

fused into one vectorized pass over ``(k, window_len, channels)`` arrays.
Distances use the Gram trick ``d^2 = |x|^2 - 2 x.p + |p|^2``.

Inputs are checked once, where they enter.  A chunk is checked by the
pipeline's ``process_chunk`` (or, in a fleet tick, by the server before
any stream moves); from there the pipeline's window kernel and the
engine's model kernel (embed -> Gram distances -> verdicts) run the
stages back to back, each trusting what the previous one produced.

The engine keeps one model kernel per precision, ``None`` (float64) or
``np.float32`` (:func:`~repro.preprocessing.pipeline.resolve_feature_dtype`;
any other dtype raises).  It holds the served prototypes with their
squared norms, the embed step and the feature check, and is rebuilt when
an object it was built from is replaced: the prototype array (a re-fit
assigns a fresh one), pipeline, embedder, classifier, network, and the
weight arrays a float32 replica was cast from.  The float64 kernel reads
the weights on every call, so in-place training is seen at once; other
in-place changes need :meth:`InferenceEngine.refresh`.

Multi-device serving on top of the engine is
:class:`~repro.serving.fleet.FleetServer`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError, DataShapeError, NotFittedError
from ..nn.compress import quantize_tensor
from ..preprocessing.pipeline import resolve_feature_dtype
from ..utils import Timer, check_2d
from .ncm import NCMClassifier, softmax_of_distances
from .openset import UNKNOWN_LABEL, UNKNOWN_NAME, OpenSetNCM, accept_rows


def _gram_distances(
    emb: np.ndarray, protos: np.ndarray, proto_sq: np.ndarray
) -> np.ndarray:
    """Euclidean distances of checked embeddings (in ``protos``' dtype and
    width) to every prototype, by the Gram trick."""
    emb_sq = np.einsum("ij,ij->i", emb, emb)
    two = protos.dtype.type(2.0)
    d2 = emb_sq[:, None] - two * (emb @ protos.T) + proto_sq[None, :]
    zero = protos.dtype.type(0.0)
    np.maximum(d2, zero, out=d2)  # clamp tiny negatives from cancellation
    return np.sqrt(d2, out=d2)


def _weight_arrays(network) -> Tuple[np.ndarray, ...]:
    """Every array a float32 replica of ``network`` is cast from: the
    parameters and any batch-norm running statistics."""
    return tuple(network.state_arrays().values())


def _same_arrays(a: Tuple[np.ndarray, ...], b: Tuple[np.ndarray, ...]) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _float32_replica(network):
    """``network`` rebuilt around its weights cast to float32, so the
    reduced-precision forward pass runs in 32 bits end to end: one float32
    array per weight, no init drawn, no gradient."""
    return type(network).from_state(
        network.to_config(), network.state_arrays(), dtype=np.float32
    )


@dataclass(frozen=True, slots=True)
class BatchInference:
    """The vectorized verdict of one engine call over ``k`` windows.

    All arrays are indexed by window.  A verdict holds three arrays —
    ``nearest``, ``distances`` and ``accepted`` — and the engine's softmax
    ``temperature``; ``labels``, ``confidences`` and ``proba`` are derived
    from them on every access (not cached), with the same arithmetic and
    bits the engine call would have produced.  ``labels[i]`` is
    :data:`~repro.core.openset.UNKNOWN_LABEL` where window ``i`` was
    rejected by the open-set tests (closed-set engines accept everything,
    so there ``labels`` equals ``nearest``).  Slotted: a caller that keeps
    every tick's verdict keeps no per-instance ``__dict__`` with it.
    """

    class_names: Tuple[str, ...]
    nearest: np.ndarray  # (k,) int64 nearest prototype, rejection ignored
    distances: np.ndarray  # (k, n_classes), in the engine's compute dtype
    accepted: np.ndarray  # (k,) bool
    temperature: float  # softmax temperature of the confidence proxy
    latency_ms: float  # wall-clock of the whole batch

    def __len__(self) -> int:
        return int(self.nearest.shape[0])

    @property
    def labels(self) -> np.ndarray:
        """``(k,)`` int64: ``nearest``, ``UNKNOWN_LABEL`` where rejected."""
        return np.where(self.accepted, self.nearest, UNKNOWN_LABEL).astype(
            np.int64, copy=False
        )

    @property
    def proba(self) -> np.ndarray:
        """``(k, n_classes)`` float64 softmax over the negative distances."""
        return softmax_of_distances(
            self.distances.astype(np.float64, copy=False), self.temperature
        )

    @property
    def confidences(self) -> np.ndarray:
        """``(k,)`` softmax probability of each window's nearest class."""
        return self.proba[np.arange(self.nearest.shape[0]), self.nearest]

    @property
    def names(self) -> List[str]:
        """Per-window class names, :data:`UNKNOWN_NAME` where rejected."""
        class_names = self.class_names
        return [
            UNKNOWN_NAME if label == UNKNOWN_LABEL else class_names[label]
            for label in self.labels.tolist()
        ]

    def distances_of(self, i: int) -> Dict[str, float]:
        """Window ``i``'s distance to every prototype, keyed by class name."""
        return {
            name: float(d)
            for name, d in zip(self.class_names, self.distances[i])
        }


class _ModelKernel:
    """An engine's features -> distances pass in one precision.

    Built by :meth:`InferenceEngine._model_kernel` for ``dtype`` ``None``
    (float64) or ``np.float32``.  It owns the served prototypes
    (``protos``: dequantized under ``quantize_prototypes``, cast to its
    precision) with their squared norms (``proto_sq``), the embed step
    and ``check_features``, the input check of
    :meth:`InferenceEngine.infer_features`.  ``embed`` is the network's
    own inference pass (a float32 replica of the network on the float32
    path), or the embedder's ``embed`` with its output checked on every
    call for embedders without such a network.  Building it checks that
    the engine's parts fit together — the pipeline's feature count
    against the embedder's input width, the embedding width against the
    prototypes' — so a misconfigured engine raises
    :class:`~repro.exceptions.DataShapeError` at its first call and no
    per-call check is needed.  :meth:`serves` decides when it is rebuilt.
    """

    __slots__ = (
        "pipeline", "embedder", "network", "classifier", "source", "weights",
        "protos", "proto_sq", "embed", "check_features",
    )

    def __init__(self, engine: "InferenceEngine", dtype) -> None:
        self.pipeline = engine.pipeline
        self.embedder = embedder = engine.embedder
        self.network = network = getattr(embedder, "network", None)
        self.classifier = engine.classifier
        self.source = base = engine.ncm.prototypes_
        if engine.quantize_prototypes:
            base = quantize_tensor(base).dequantize()
        self.protos = protos = np.asarray(base, dtype=dtype or np.float64)
        self.proto_sq = np.einsum("ij,ij->i", protos, protos)
        input_dim = getattr(embedder, "input_dim", None)
        if (
            self.pipeline is not None
            and input_dim is not None
            and self.pipeline.n_features != input_dim
        ):
            raise DataShapeError(
                f"engine pipeline emits {self.pipeline.n_features} features, "
                f"its embedder takes {input_dim}"
            )
        embed = self.weights = None  # weights: what a float32 replica is cast from
        if dtype is not None and hasattr(network, "state_arrays"):
            self.weights = _weight_arrays(network)
            embed = _float32_replica(network).infer
        elif dtype is None and hasattr(network, "infer"):
            embed = network.infer
        self.check_features = _unchecked
        if embed is not None:
            self.check_features = functools.partial(
                check_2d, "features", n_cols=input_dim, dtype=protos.dtype
            )
        width = getattr(embedder, "embedding_dim", None)
        if embed is None or width is None:
            # An opaque embedder: its embeddings are checked on every call.
            self.embed = self._checked_embed(
                embedder.embed if embed is None else embed, protos
            )
            return
        if width != protos.shape[1]:
            raise DataShapeError(
                f"engine embedder emits {width}-d embeddings, its prototypes "
                f"are {protos.shape[1]}-d"
            )
        self.embed = embed

    @staticmethod
    def _checked_embed(embed, protos: np.ndarray):
        def checked(features: np.ndarray) -> np.ndarray:
            return check_2d(
                "embeddings", embed(features), n_cols=protos.shape[1],
                dtype=protos.dtype,
            )
        return checked

    def serves(self, engine: "InferenceEngine") -> bool:
        """Whether ``engine`` still holds what this kernel was built from:
        the same pipeline, embedder, classifier, network and prototype
        array, and for a float32 replica the same weight arrays."""
        return (
            engine.pipeline is self.pipeline
            and engine.embedder is self.embedder
            and engine.classifier is self.classifier
            and getattr(self.embedder, "network", None) is self.network
            and engine.ncm.prototypes_ is self.source
            and (
                self.weights is None
                or _same_arrays(self.weights, _weight_arrays(self.network))
            )
        )


def _unchecked(features: np.ndarray) -> np.ndarray:
    return features


class InferenceEngine:
    """Batched, allocation-lean inference shared by every serving layer.

    Parameters
    ----------
    embedder:
        The Siamese embedder mapping feature rows to embeddings.
    classifier:
        Either a fitted :class:`~repro.core.ncm.NCMClassifier` (closed-set:
        every window is assigned its nearest prototype) or a fitted
        :class:`~repro.core.openset.OpenSetNCM` (windows beyond the
        calibrated radii are labeled unknown).
    pipeline:
        The preprocessing pipeline; optional — engines built for
        feature-level evaluation (the protocol runner) omit it, in which
        case only the ``*_features``/``*_embeddings`` entry points work.
    temperature:
        Softmax temperature of the confidence proxy.
    quantize_prototypes:
        When true, distances are computed against the int8
        affine-quantized prototypes (dequantized once per model kernel)
        instead of the raw float64 matrix — the serving-side twin of
        shipping a :func:`~repro.nn.compress.quantize_tensor` package.  The
        induced per-coordinate error is bounded by half the quantization
        step (see ``docs/precision.md``).
    """

    def __init__(
        self,
        embedder,
        classifier: Union[NCMClassifier, OpenSetNCM],
        pipeline=None,
        temperature: float = 1.0,
        quantize_prototypes: bool = False,
    ) -> None:
        if temperature <= 0:
            raise ConfigurationError(
                f"temperature must be > 0, got {temperature}"
            )
        self.embedder = embedder
        self.classifier = classifier
        self.pipeline = pipeline
        self.temperature = float(temperature)
        self.quantize_prototypes = bool(quantize_prototypes)
        # precision (None or np.float32) -> _ModelKernel (see _model_kernel)
        self._kernels: Dict[object, _ModelKernel] = {}

    def __getstate__(self) -> Dict:
        # Model kernels are caches holding closures: a copy builds its own
        # on first use.
        return dict(self.__dict__, _kernels={})

    # ------------------------------------------------------------------ #
    # classifier plumbing
    # ------------------------------------------------------------------ #

    @property
    def open_set(self) -> Optional[OpenSetNCM]:
        """The open-set wrapper when rejection is active, else ``None``."""
        if isinstance(self.classifier, OpenSetNCM):
            return self.classifier
        return None

    @property
    def ncm(self) -> NCMClassifier:
        """The underlying prototype classifier."""
        open_set = self.open_set
        ncm = open_set.ncm if open_set is not None else self.classifier
        if ncm is None or not ncm.is_fitted:
            raise NotFittedError("engine classifier is not fitted")
        return ncm

    @property
    def class_names(self) -> Tuple[str, ...]:
        return self.ncm.class_names_

    def refresh(self) -> None:
        """Drop the model kernels explicitly.

        Normally unnecessary — a re-fit of the classifier assigns a fresh
        prototype array and the kernels are rebuilt — but exposed for
        callers that mutate ``prototypes_`` (or the embedder's parameters)
        in place.
        """
        self._kernels = {}

    # ------------------------------------------------------------------ #
    # the fused batch stages
    # ------------------------------------------------------------------ #

    def distances_from_embeddings(
        self, embeddings: np.ndarray, dtype=None
    ) -> np.ndarray:
        """Euclidean distances ``(k, n_classes)`` via the Gram trick.

        ``dtype`` selects the compute dtype of the distance matrix:
        ``None`` (or ``float64``) keeps the canonical ``float64`` math;
        ``np.float32`` casts the embeddings once and runs the whole Gram
        computation — and everything derived from it — in 32 bits against
        the float32 kernel's prototypes.  Any other dtype raises
        :class:`~repro.exceptions.ConfigurationError`.
        """
        kernel = self._model_kernel(resolve_feature_dtype(dtype))
        protos = kernel.protos
        emb = check_2d(
            "embeddings", embeddings, n_cols=protos.shape[1], dtype=protos.dtype
        )
        return _gram_distances(emb, protos, kernel.proto_sq)

    def _assemble(self, dists: np.ndarray, timer: Timer) -> BatchInference:
        """argmin and open-set accept from one distance matrix.

        ``dists`` is the engine's own Gram result, so nothing is
        re-checked; acceptance runs on its float64 values, like the
        verdict's derived ``proba``.
        """
        nearest = np.argmin(dists, axis=1).astype(np.int64, copy=False)
        open_set = self.open_set
        if open_set is not None:
            accepted = accept_rows(
                dists.astype(np.float64, copy=False),
                np.asarray(open_set.thresholds_, dtype=np.float64),
                open_set.ratio,
                nearest,
            )
        else:
            accepted = np.ones(dists.shape[0], dtype=bool)
        timer.__exit__()
        return BatchInference(
            class_names=self.class_names,
            nearest=nearest,
            distances=dists,
            accepted=accepted,
            temperature=self.temperature,
            latency_ms=timer.elapsed_ms,
        )

    def _model_kernel(self, dtype) -> _ModelKernel:
        """The model kernel of precision ``dtype`` (``None`` or
        ``np.float32``), rebuilt when it no longer serves this engine
        (see :meth:`_ModelKernel.serves`)."""
        kernel = self._kernels.get(dtype)
        if kernel is None or not kernel.serves(self):
            kernel = self._kernels[dtype] = _ModelKernel(self, dtype)
        return kernel

    def _run_model(
        self, features: np.ndarray, dtype, timer: Timer, check: bool = False
    ) -> BatchInference:
        """Feature rows -> batch verdicts through the model kernel.

        Rows the engine's own pipeline produced are trusted as they are;
        ``check=True`` first applies :meth:`infer_features`' input check.
        """
        kernel = self._model_kernel(dtype)
        if check:
            features = kernel.check_features(features)
        emb = kernel.embed(features)
        return self._assemble(
            _gram_distances(emb, kernel.protos, kernel.proto_sq), timer
        )

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #

    def _require_pipeline(self, purpose: str) -> None:
        if self.pipeline is None:
            raise ConfigurationError(
                f"engine has no pipeline; construct with pipeline= to "
                f"{purpose}"
            )

    def infer_windows(self, windows: np.ndarray) -> BatchInference:
        """Raw windows ``(k, window_len, channels)`` -> batch verdicts.

        The canonical inference entry point: one fused vectorized pass
        through denoise, features, normalize, embed, distances, rejection.
        """
        self._require_pipeline("infer raw windows, or use infer_features()")
        timer = Timer().__enter__()
        features = self.pipeline.process_windows(windows)
        return self._run_model(features, None, timer)

    def infer_stream(
        self,
        data: np.ndarray,
        stride: Optional[int] = None,
        dtype=None,
    ) -> BatchInference:
        """Continuous raw samples ``(n, channels)`` -> batch verdicts.

        The streaming fast path for continuous recordings: denoise once,
        featurize with the stacked pass, normalize, embed and NCM distances
        fused in one pass — no ``(k, window_len, channels)`` cube is ever
        materialized, only bounded blocks of windows.  ``stride`` defaults
        to the pipeline's stride (``window_len``, non-overlapping); pass a
        smaller stride for overlapping windows, denoised once over the
        continuous signal instead of once per window.

        At the default non-overlapping stride the verdicts are identical to
        ``infer_windows(sliding_windows(data, window_len))`` — distances to
        1e-9, labels/accepts exactly.  For overlapping strides the denoiser
        runs once over the continuous signal (shared samples are filtered
        once), which for non-local denoisers differs marginally from
        denoising each overlapping window in isolation.

        ``dtype=np.float32`` selects the reduced-precision fast path:
        feature extraction, normalization, the embedder forward pass (via
        the float32 model kernel's parameter replica) and the distance
        matrix all run in 32 bits, halving memory bandwidth end to end;
        verdicts flip only for windows already sitting on a decision
        boundary (see ``docs/precision.md``).  ``None`` or ``float64``
        keeps the canonical path; any other dtype raises
        :class:`~repro.exceptions.ConfigurationError`.

        For recordings that arrive tick by tick rather than all at once,
        use the chunked twin — :meth:`open_stream` + :meth:`infer_chunk` —
        which carries the unconsumed sample tail across calls and yields
        the same verdict sequence without buffering the whole recording.
        """
        self._require_pipeline("infer a raw stream, or use infer_features()")
        dtype = resolve_feature_dtype(dtype)
        timer = Timer().__enter__()
        features = self.pipeline.process_stream(data, stride=stride, dtype=dtype)
        return self._run_model(features, dtype, timer)

    def open_stream(
        self, stride: Optional[int] = None, dtype=None
    ) -> "StreamSession":
        """Open a chunked streaming-inference session.

        The carry-over twin of :meth:`infer_stream` for unbounded
        recordings that arrive tick by tick: feed each raw chunk to
        :meth:`infer_chunk` and the session's pipeline state buffers the
        tail that has not yet completed a window, so across any chunking
        the concatenated verdicts equal one :meth:`infer_stream` call over
        the whole recording (exactly the same windows; labels/accepts
        identical and distances to the streaming parity budget when the
        pipeline's denoiser is chunk-capable — see
        :meth:`~repro.preprocessing.pipeline.PreprocessingPipeline.open_stream`).
        ``dtype`` is resolved once and remembered on the session's state;
        ``np.float32`` runs every chunk's features, embedding and
        distances in 32 bits (see :meth:`infer_stream`), and any dtype but
        float32 and float64 raises
        :class:`~repro.exceptions.ConfigurationError`.
        """
        self._require_pipeline("stream raw chunks")
        return StreamSession(
            self, self.pipeline.open_stream(stride=stride, dtype=dtype)
        )

    def infer_chunk(
        self, session: "StreamSession", chunk: np.ndarray
    ) -> BatchInference:
        """One raw chunk ``(n, channels)`` -> verdicts of completed windows.

        Returns a (possibly empty) batch covering every window the chunk
        completed, including windows straddling the previous chunk
        boundary; O(chunk) work — buffered samples are never re-featurized.
        """
        self._require_pipeline("stream raw chunks")
        timer = Timer().__enter__()
        features = self.pipeline.process_chunk(session.state, chunk)
        batch = self._run_model(features, session.dtype, timer)
        session.windows_inferred += len(batch)
        return batch

    def finish_stream(self, session: "StreamSession") -> BatchInference:
        """Close a chunked session; verdicts of the flushed last windows.

        Bounded-lookahead denoisers hold back their final samples until the
        signal end is known; this flushes them and classifies any windows
        they complete.  The session is closed afterwards.
        """
        self._require_pipeline("stream raw chunks")
        timer = Timer().__enter__()
        features = self.pipeline.finish_stream(session.state)
        batch = self._run_model(features, session.dtype, timer)
        session.windows_inferred += len(batch)
        return batch

    def infer_features(self, features: np.ndarray, dtype=None) -> BatchInference:
        """Normalized feature rows ``(k, d)`` -> batch verdicts.

        ``dtype=np.float32`` selects the reduced-precision path: float32
        embedder replica plus float32 distance matrix (see
        :meth:`distances_from_embeddings`); any dtype but float32 and
        float64 raises :class:`~repro.exceptions.ConfigurationError`.
        """
        dtype = resolve_feature_dtype(dtype)
        timer = Timer().__enter__()
        return self._run_model(features, dtype, timer, check=True)

    def infer_embeddings(self, embeddings: np.ndarray) -> BatchInference:
        """Pre-embedded rows ``(k, dim)`` -> batch verdicts."""
        timer = Timer().__enter__()
        dists = self.distances_from_embeddings(embeddings)
        return self._assemble(dists, timer)

    def predict_features(self, features: np.ndarray) -> np.ndarray:
        """Integer labels of feature rows (the protocol runner's path)."""
        return self.infer_features(features).labels


class StreamSession:
    """Carry-over state of one chunked streaming-inference session.

    Pairs the engine with one
    :class:`~repro.preprocessing.pipeline.StreamState`: the pipeline-level
    buffer (sample tail, running offset, denoiser context, compute dtype)
    plus the engine-level counters.  Created by
    :meth:`InferenceEngine.open_stream`; advanced by
    :meth:`InferenceEngine.infer_chunk`; closed by
    :meth:`InferenceEngine.finish_stream`.
    """

    def __init__(self, engine: InferenceEngine, state) -> None:
        self.engine = engine
        self.state = state
        self.windows_inferred = 0

    @property
    def dtype(self):
        """The session's compute dtype: ``None`` (float64) or ``np.float32``."""
        return self.state.dtype

    @property
    def stride(self) -> int:
        return self.state.stride

    @property
    def samples_in(self) -> int:
        """Raw samples received across all chunks."""
        return self.state.samples_in

    @property
    def pending_samples(self) -> int:
        """Buffered samples awaiting enough data to complete a window."""
        return self.state.pending_samples

    @property
    def chunk_invariant(self) -> bool:
        """Whether verdicts are independent of the chunking (see pipeline)."""
        return self.state.chunk_invariant

    @property
    def finished(self) -> bool:
        return self.state.finished

    def infer(self, chunk: np.ndarray) -> BatchInference:
        """Sugar for :meth:`InferenceEngine.infer_chunk`."""
        return self.engine.infer_chunk(self, chunk)

    def finish(self) -> BatchInference:
        """Sugar for :meth:`InferenceEngine.finish_stream`."""
        return self.engine.finish_stream(self)
