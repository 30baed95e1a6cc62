"""The batched inference engine: one vectorized window->verdict path.

Every layer of the reproduction used to re-implement the same hot path —
``EdgeDevice.infer_window`` for the GUI, ``IncrementalStrategy.classify``
for the evaluation protocol, the benchmarks with their own pipeline/NCM
plumbing.  :class:`InferenceEngine` is the single shared implementation:

    denoise -> features -> normalize -> embed -> NCM distance
            -> open-set rejection -> (optional per-session smoothing)

fused into one vectorized pass over ``(k, window_len, channels)`` arrays.
Distances use the Gram trick ``d^2 = |x|^2 - 2 x.p + |p|^2`` with the
prototype squared-norms cached; the cache is keyed on the prototype array's
identity, so it invalidates automatically whenever the classifier is
re-fitted after a support-set rebuild.

Inputs are checked once, where they enter.  A chunk is checked by the
pipeline's ``process_chunk`` (or, in a fleet tick, by the server before
any stream moves); from there the pipeline's window kernel and the
engine's model kernel (embed -> Gram distances -> verdicts) run the
stages back to back, each trusting what the previous one produced.  The
kernels hold what depends only on configuration — the embed step (the
network's ``infer`` or its float32 replica's), normalizer casts, the
consistency of feature, input and embedding widths — and are rebuilt when an object they were built from is
replaced; learned arrays (weights, prototypes, thresholds) are read on
every call, so in-place training is seen at once.

On top of the engine, :class:`FleetServer` multiplexes many
:class:`EdgeSession`\\ s — per-user temporal-smoothing and rejection state —
through shared batched engine calls, simulating thousands of concurrent
devices at the cost of one forward pass per distinct model per tick.  A
server built from a bare engine serves the whole fleet from that one model;
built from a :class:`~repro.serving.registry.ModelRegistry` it binds every
session to a *cohort* (device class, sampling rate, enrollment size) and
groups each tick's traffic by the engine serving that cohort.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..exceptions import (
    ConfigurationError,
    DataShapeError,
    NotFittedError,
    UnknownCohortError,
)
from ..nn.compress import quantize_tensor
from ..preprocessing.pipeline import resolve_feature_dtype
from ..utils import Timer, check_2d, check_3d
from .ncm import NCMClassifier, softmax_of_distances
from .openset import UNKNOWN_LABEL, UNKNOWN_NAME, OpenSetNCM, accept_rows
from .smoothing import HysteresisSmoother


def _feature_dtype(dtype):
    """Map an engine compute dtype to the pipeline feature dtype.

    Only ``float32`` engages the reduced-precision *feature* path (window
    statistics, normalization, embedding all in 32 bits); every other dtype keeps
    float64 features and only changes the distance-matrix dtype, which
    preserves the historical distance-only semantics of e.g. ``float16``.
    """
    if dtype is not None and np.dtype(dtype) == np.float32:
        return np.float32
    return None


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
    """Every array a float32 replica of ``network`` copies: the parameters
    and any batch-norm running statistics."""
    arrays = [param.data for param in network.parameters()]
    for layer in getattr(network, "layers", ()):
        if hasattr(layer, "running_mean"):
            arrays += (layer.running_mean, layer.running_var)
    return tuple(arrays)


def _same_arrays(a: Tuple[np.ndarray, ...], b: Tuple[np.ndarray, ...]) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


@dataclass(frozen=True, slots=True)
class BatchInference:
    """The vectorized verdict of one engine call over ``k`` windows.

    All arrays are indexed by window; ``labels[i]`` is
    :data:`~repro.core.openset.UNKNOWN_LABEL` where window ``i`` was
    rejected by the open-set tests (closed-set engines accept everything,
    so there ``labels`` equals ``nearest``).  Slotted: a caller that keeps
    every tick's verdict keeps no per-instance ``__dict__`` with it.
    """

    class_names: Tuple[str, ...]
    labels: np.ndarray  # (k,) int64, UNKNOWN_LABEL where rejected
    nearest: np.ndarray  # (k,) int64 nearest prototype, rejection ignored
    confidences: np.ndarray  # (k,) softmax probability of the nearest class
    distances: np.ndarray  # (k, n_classes)
    proba: np.ndarray  # (k, n_classes)
    accepted: np.ndarray  # (k,) bool
    latency_ms: float  # wall-clock of the whole batch

    def __len__(self) -> int:
        return int(self.labels.shape[0])

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
    """An engine's features -> embeddings pass for one compute dtype.

    Built by :meth:`InferenceEngine._model_kernel` from the engine's
    pipeline, embedder, classifier and served prototype matrix, and
    rebuilt when any of them is replaced.  Building it checks that they
    fit together — the pipeline's feature count against the embedder's
    input width, the embedding width against the prototypes' — so a
    misconfigured engine raises :class:`~repro.exceptions.DataShapeError`
    at its first call and no per-call check is needed.  ``embed`` is the
    network's own inference pass (its float32 replica on the reduced
    path), or the embedder's checked ``embed`` for embedders without a
    network; ``check_features`` is the input check of
    :meth:`InferenceEngine.infer_features`.
    """

    __slots__ = (
        "pipeline", "embedder", "network", "classifier", "protos", "embed",
        "check_features",
    )

    def __init__(self, engine: "InferenceEngine", dtype, protos: np.ndarray):
        self.pipeline = engine.pipeline
        self.embedder = embedder = engine.embedder
        self.network = network = getattr(embedder, "network", None)
        self.classifier = engine.classifier
        self.protos = protos
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
        self.check_features = _unchecked
        if _feature_dtype(dtype) is np.float32:
            if network is not None and hasattr(network, "clone"):
                embed = self._replica_embed(engine)
                embed_dtype = np.float32
                self.check_features = functools.partial(
                    check_2d, "features", n_cols=input_dim, dtype=np.float32
                )
            else:
                def embed(features: np.ndarray) -> np.ndarray:
                    return np.asarray(embedder.embed(features), dtype=np.float32)
                embed_dtype = None
        elif network is not None and hasattr(network, "infer"):
            embed = network.infer
            embed_dtype = np.float64
            self.check_features = functools.partial(
                check_2d, "features", n_cols=input_dim
            )
        else:
            embed = embedder.embed
            embed_dtype = None
        width = getattr(embedder, "embedding_dim", None)
        if embed_dtype is None or width is None:
            # An opaque embedder: its embeddings are checked on every call.
            self.embed = self._checked_embed(embed, protos)
            return
        if width != protos.shape[1]:
            raise DataShapeError(
                f"engine embedder emits {width}-d embeddings, its prototypes "
                f"are {protos.shape[1]}-d"
            )
        if protos.dtype != embed_dtype:  # a distance-only dtype (float16)
            self.embed = self._cast_embed(embed, protos.dtype)
        else:
            self.embed = embed

    @staticmethod
    def _replica_embed(engine: "InferenceEngine"):
        def embed(features: np.ndarray) -> np.ndarray:
            return engine._float32_embedder().infer(features)
        return embed

    @staticmethod
    def _checked_embed(embed, protos: np.ndarray):
        def checked(features: np.ndarray) -> np.ndarray:
            return check_2d(
                "embeddings", embed(features), n_cols=protos.shape[1],
                dtype=protos.dtype,
            )
        return checked

    @staticmethod
    def _cast_embed(embed, dtype):
        def cast(features: np.ndarray) -> np.ndarray:
            return np.asarray(embed(features), dtype=dtype)
        return cast

    def serves(self, engine: "InferenceEngine", protos: np.ndarray) -> bool:
        """Whether ``engine`` still holds what this kernel was built from."""
        return (
            protos is self.protos
            and engine.pipeline is self.pipeline
            and engine.embedder is self.embedder
            and engine.classifier is self.classifier
            and getattr(self.embedder, "network", None) is self.network
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
        affine-quantized prototypes (dequantized once and cached) instead
        of the raw float64 matrix — the serving-side twin of shipping a
        :func:`~repro.nn.compress.quantize_tensor` package.  The induced
        per-coordinate error is bounded by half the quantization step
        (see ``docs/precision.md``).
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
        # Prototype squared-norm cache, keyed on the prototype array object:
        # NCM fits always assign a fresh array, so identity comparison
        # invalidates the cache on every support-set rebuild.  Reduced
        # compute dtypes (float32 distance matrices) keep their own cast of
        # the prototypes in ``_cached_casts``.  ``_cached_base`` is the
        # matrix distances are actually served from: the raw prototypes, or
        # their dequantized int8 reconstruction under
        # ``quantize_prototypes``.
        self._cached_protos: Optional[np.ndarray] = None
        self._cached_base: Optional[np.ndarray] = None
        self._cached_sq_norms: Optional[np.ndarray] = None
        self._cached_casts: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        # Lazily-built float32 replica of the embedder network for the
        # reduced-precision feature path: (network, the weight arrays it
        # was cast from, replica), so a swapped network or a
        # ``load_state_dict`` (fresh arrays) rebuilds it.
        self._float32_embedder_cache: Optional[Tuple[object, tuple, object]] = None
        # compute dtype -> _ModelKernel (see _model_kernel)
        self._kernels: Dict[object, _ModelKernel] = {}

    def __getstate__(self) -> Dict:
        # Model kernels are closures over this engine: a copy builds its
        # own on first use.
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
        """Drop the prototype-norm and replica caches explicitly.

        Normally unnecessary — re-fitting the classifier replaces the
        prototype array and the identity check invalidates the cache —
        but exposed for callers that mutate ``prototypes_`` (or the
        embedder's parameters) in place.
        """
        self._cached_protos = None
        self._cached_base = None
        self._cached_sq_norms = None
        self._cached_casts = {}
        self._float32_embedder_cache = None
        self._kernels = {}

    def _prototype_norms(self, dtype=None) -> Tuple[np.ndarray, np.ndarray]:
        """The served prototype matrix with its cached squared norms.

        ``dtype=None`` is the canonical ``float64`` pair; any other compute
        dtype gets (and caches) its own cast of the prototypes so repeated
        reduced-precision calls pay the conversion once.  Under
        ``quantize_prototypes`` the served matrix is the dequantized int8
        reconstruction, rebuilt whenever the classifier is re-fitted.
        """
        protos = self.ncm.prototypes_
        if protos is not self._cached_protos:
            self._cached_protos = protos
            if self.quantize_prototypes:
                base = quantize_tensor(protos).dequantize()
            else:
                base = protos
            self._cached_base = base
            self._cached_sq_norms = np.einsum("ij,ij->i", base, base)
            self._cached_casts = {}
            self._float32_embedder_cache = None
        if dtype is None or np.dtype(dtype) == np.float64:
            return self._cached_base, self._cached_sq_norms
        key = np.dtype(dtype).name
        entry = self._cached_casts.get(key)
        if entry is None:
            cast = np.asarray(self._cached_base, dtype=dtype)
            entry = (cast, np.einsum("ij,ij->i", cast, cast))
            self._cached_casts[key] = entry
        return entry

    # ------------------------------------------------------------------ #
    # the fused batch stages
    # ------------------------------------------------------------------ #

    def distances_from_embeddings(
        self, embeddings: np.ndarray, dtype=None
    ) -> np.ndarray:
        """Euclidean distances ``(k, n_classes)`` via the Gram trick.

        ``dtype`` selects the compute dtype of the distance matrix:
        ``None`` keeps the canonical ``float64`` math; ``np.float32`` casts
        the embeddings and (cached) prototypes once and runs the whole
        Gram computation — and everything derived from it — in 32 bits,
        halving the matmul bandwidth for fleet-scale batches.
        """
        protos, proto_sq = self._prototype_norms(dtype)
        emb = check_2d(
            "embeddings",
            embeddings,
            n_cols=protos.shape[1],
            dtype=protos.dtype,
        )
        return _gram_distances(emb, protos, proto_sq)

    def _verdicts(self, dists: np.ndarray):
        """argmin / softmax / open-set accept, all from one distance matrix.

        ``dists`` is the engine's own Gram result, so nothing is
        re-checked; softmax and acceptance run on its float64 values.
        """
        k = dists.shape[0]
        nearest = np.argmin(dists, axis=1).astype(np.int64, copy=False)
        if dists.dtype != np.float64:
            dists = dists.astype(np.float64)
        proba = softmax_of_distances(dists, self.temperature)
        confidences = proba[np.arange(k), nearest]
        open_set = self.open_set
        if open_set is not None:
            accepted = accept_rows(
                dists,
                np.asarray(open_set.thresholds_, dtype=np.float64),
                open_set.ratio,
                nearest,
            )
            labels = np.where(accepted, nearest, UNKNOWN_LABEL).astype(np.int64)
        else:
            accepted = np.ones(k, dtype=bool)
            labels = nearest
        return labels, nearest, confidences, proba, accepted

    def _assemble(self, dists: np.ndarray, timer: Timer) -> BatchInference:
        labels, nearest, confidences, proba, accepted = self._verdicts(dists)
        timer.__exit__()
        return BatchInference(
            class_names=self.class_names,
            labels=labels,
            nearest=nearest,
            confidences=confidences,
            distances=dists,
            proba=proba,
            accepted=accepted,
            latency_ms=timer.elapsed_ms,
        )

    def _model_kernel(self, dtype):
        """``(kernel, protos, proto_sq)`` for one compute dtype.

        The prototypes are resolved first — a re-fit drops the float32
        replica there — and the kernel is rebuilt when it no longer
        serves this engine (see :class:`_ModelKernel`).
        """
        protos, proto_sq = self._prototype_norms(dtype)
        kernel = self._kernels.get(dtype)
        if kernel is None or not kernel.serves(self, protos):
            kernel = _ModelKernel(self, dtype, protos)
            self._kernels[dtype] = kernel
        return kernel, protos, proto_sq

    def _run_model(
        self, features: np.ndarray, dtype, timer: Timer, check: bool = False
    ) -> BatchInference:
        """Feature rows -> batch verdicts through the model kernel.

        Rows the engine's own pipeline produced are trusted as they are;
        ``check=True`` first applies :meth:`infer_features`' input check.
        """
        kernel, protos, proto_sq = self._model_kernel(dtype)
        if check:
            features = kernel.check_features(features)
        dists = _gram_distances(kernel.embed(features), protos, proto_sq)
        return self._assemble(dists, timer)

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
        arr = check_3d("windows", windows)
        timer = Timer().__enter__()
        features = self.pipeline.process_windows(arr)
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
        runs once over the continuous signal (the
        :meth:`~repro.preprocessing.pipeline.PreprocessingPipeline.process_recording`
        semantics: shared samples are filtered once, with no per-window
        filter edge artifacts), which for non-local denoisers differs
        marginally from denoising each overlapping window in isolation.

        ``dtype=np.float32`` selects the reduced-precision fast path:
        feature extraction, normalization, the embedder forward pass (via
        a cached float32 parameter replica) and the distance matrix all
        run in 32 bits, halving memory bandwidth end to end; verdicts flip
        only for windows already sitting on a decision boundary (see
        ``docs/precision.md``).  Other dtypes change the distance-matrix
        dtype only (see :meth:`distances_from_embeddings`).

        For recordings that arrive tick by tick rather than all at once,
        use the chunked twin — :meth:`open_stream` + :meth:`infer_chunk` —
        which carries the unconsumed sample tail across calls and yields
        the same verdict sequence without buffering the whole recording.
        """
        self._require_pipeline("infer a raw stream, or use infer_features()")
        arr = check_2d("data", data)
        timer = Timer().__enter__()
        features = self.pipeline.process_stream(
            arr, stride=stride, dtype=_feature_dtype(dtype)
        )
        return self._run_model(features, dtype, timer)

    def open_stream(
        self,
        stride: Optional[int] = None,
        denoise: str = "auto",
        dtype=None,
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
        ``dtype`` is remembered on the session; ``np.float32`` runs every
        chunk's features, embedding and distances in 32 bits (see
        :meth:`infer_stream`).
        """
        self._require_pipeline("stream raw chunks")
        return StreamSession(
            self,
            self.pipeline.open_stream(
                stride=stride, denoise=denoise, dtype=_feature_dtype(dtype)
            ),
            dtype=dtype,
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

    def _float32_embedder(self):
        """The cached float32 parameter replica of the embedder network.

        Built lazily from ``embedder.network`` (clone + cast every
        parameter, and any batch-norm running statistics, to float32) so
        the reduced-precision path runs its forward pass in 32 bits end to
        end.  Returns ``None`` for embedders without a clonable network —
        those fall back to a float64 forward cast down afterwards.  The
        replica is rebuilt when the network object or any of its weight
        arrays is replaced (``load_state_dict``), and dropped whenever the
        prototype cache rebuilds (a classifier re-fit follows in-place
        retraining) or :meth:`refresh` is called.
        """
        network = getattr(self.embedder, "network", None)
        if network is None or not hasattr(network, "clone"):
            return None
        weights = _weight_arrays(network)
        cache = self._float32_embedder_cache
        if cache is not None and cache[0] is network and _same_arrays(
            cache[1], weights
        ):
            return cache[2]
        replica = network.clone()
        for param in replica.parameters():
            param.data = param.data.astype(np.float32)
        for layer in getattr(replica, "layers", []):
            if hasattr(layer, "running_mean"):
                layer.running_mean = layer.running_mean.astype(np.float32)
                layer.running_var = layer.running_var.astype(np.float32)
        self._float32_embedder_cache = (network, weights, replica)
        return replica

    def infer_features(self, features: np.ndarray, dtype=None) -> BatchInference:
        """Normalized feature rows ``(k, d)`` -> batch verdicts.

        ``dtype=np.float32`` selects the reduced-precision path: float32
        embedder replica plus float32 distance matrix (see
        :meth:`distances_from_embeddings`).
        """
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
    buffer (sample tail, running offset, denoiser context) plus the
    engine-level knobs (distance dtype) and counters.  Created by
    :meth:`InferenceEngine.open_stream`; advanced by
    :meth:`InferenceEngine.infer_chunk`; closed by
    :meth:`InferenceEngine.finish_stream`.
    """

    def __init__(self, engine: InferenceEngine, state, dtype=None) -> None:
        self.engine = engine
        self.state = state
        self.dtype = dtype
        self.windows_inferred = 0

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


# ---------------------------------------------------------------------- #
# fleet serving
# ---------------------------------------------------------------------- #

#: The cohort served when the caller never names one (single-engine fleets
#: and registry defaults).
DEFAULT_COHORT = "default"


class _SingleEngineRegistry:
    """Adapter presenting one engine as a single-cohort registry.

    Lets :class:`FleetServer` run one code path whether it was built from
    a bare engine (the classic single-model fleet) or a real
    :class:`~repro.serving.registry.ModelRegistry`.
    """

    def __init__(self, engine: InferenceEngine) -> None:
        self._engine = engine
        self.default_cohort = DEFAULT_COHORT

    def has_cohort(self, cohort_id: str) -> bool:
        return str(cohort_id) == self.default_cohort

    def engine_for(self, cohort_id: Optional[str] = None) -> InferenceEngine:
        key = self.default_cohort if cohort_id is None else str(cohort_id)
        if key != self.default_cohort:
            raise UnknownCohortError(
                f"cohort {key!r}: this fleet serves a single engine under "
                f"the {self.default_cohort!r} cohort; construct the "
                f"FleetServer from a ModelRegistry for multi-model serving"
            )
        return self._engine


class _WindowTickGroup:
    """One distinct model's share of a windowed ``step`` tick."""

    __slots__ = ("engine", "ids", "arrays")

    def __init__(self, engine: InferenceEngine) -> None:
        self.engine = engine
        self.ids: List[str] = []
        self.arrays: List[np.ndarray] = []

    def run(self) -> BatchInference:
        """The group's one batched engine call, featurization included."""
        return self.engine.infer_windows(np.stack(self.arrays, axis=0))


class _StreamTickGroup:
    """One distinct model's share of a ``step_stream`` tick.

    Collects the sessions served by one engine this tick (with their
    validated chunks and resolved strides) through the validation pass,
    then their featurized blocks, so the inference pass can issue one
    batched call per group.
    """

    __slots__ = (
        "engine",
        "dtype",
        "ids",
        "arrays",
        "strides",
        "n_channels",
        "blocks",
    )

    def __init__(self, engine: InferenceEngine, dtype=None) -> None:
        self.engine = engine
        self.dtype = dtype  # per-session compute dtype (float32 fast path)
        self.ids: List[str] = []
        self.arrays: List[np.ndarray] = []
        self.strides: List[int] = []
        self.n_channels: Optional[int] = None  # locked by the first chunk
        self.blocks: List[np.ndarray] = []  # per-session feature rows

    @property
    def counts(self) -> List[int]:
        return [block.shape[0] for block in self.blocks]

    def run(self) -> BatchInference:
        """The group's one batched engine call over its feature rows.

        ``dtype`` is forwarded only when set, so engines whose
        ``infer_features`` takes no ``dtype`` keep working.
        """
        features = np.concatenate(self.blocks, axis=0)
        if self.dtype is None:
            return self.engine.infer_features(features)
        return self.engine.infer_features(features, dtype=self.dtype)


@dataclass(frozen=True)
class SessionVerdict:
    """One session's verdict for one served window."""

    session_id: str
    activity: str  # raw engine verdict (may be UNKNOWN_NAME)
    display: str  # temporally smoothed verdict shown to the user
    confidence: float
    accepted: bool


class EdgeSession:
    """Per-user serving state: identity, cohort, smoother, counters.

    The engine itself is stateless across calls; everything a simulated
    device accumulates over time (the debounced display verdict, rejection
    counts) lives here.  ``cohort`` names the model package the session is
    served from — the :class:`FleetServer` resolves it through its
    registry every windowed tick, while an open chunk stream pins the
    engine it started on (``self.stream.engine``) until the stream
    finishes.
    """

    def __init__(
        self,
        session_id: str,
        smoother=None,
        cohort: str = DEFAULT_COHORT,
        dtype=None,
    ) -> None:
        self.session_id = str(session_id)
        self.smoother = smoother
        self.cohort = str(cohort)
        self.dtype = dtype  # compute dtype of this session's chunk streams
        self.stream: Optional[StreamSession] = None  # chunk carry-over state
        self.windows_seen = 0
        self.rejected_windows = 0
        self.last_verdict: Optional[SessionVerdict] = None

    def observe(
        self, activity: str, confidence: float, accepted: bool
    ) -> SessionVerdict:
        """Fold one engine verdict into the session's smoothed state."""
        self.windows_seen += 1
        if not accepted:
            self.rejected_windows += 1
        display = (
            self.smoother.update(activity)
            if self.smoother is not None
            else activity
        )
        verdict = SessionVerdict(
            session_id=self.session_id,
            activity=activity,
            display=display,
            confidence=float(confidence),
            accepted=bool(accepted),
        )
        self.last_verdict = verdict
        return verdict

    def reset(self) -> None:
        if self.smoother is not None:
            self.smoother.reset()
        self.stream = None
        self.windows_seen = 0
        self.rejected_windows = 0
        self.last_verdict = None


class FleetServer:
    """Serve a fleet of edge sessions through shared batched engine calls.

    Each :meth:`step` gathers at most one raw window per connected session,
    groups the windows by the model serving each session's *cohort*, runs
    one fused engine pass per distinct model, and demultiplexes the
    verdicts back through each session's temporal smoother — the serving
    pattern that lets a handful of model packages shadow thousands of
    simulated devices.

    Built from a bare :class:`InferenceEngine`, the server behaves exactly
    like the classic single-model fleet: every session lands in the
    :data:`DEFAULT_COHORT` and every tick is one batched call.  Built from
    a :class:`~repro.serving.registry.ModelRegistry` (anything with
    ``engine_for``/``has_cohort``/``default_cohort``), sessions bind to
    cohorts at :meth:`connect` time and a mixed-cohort tick issues exactly
    one batched call per distinct engine — cohorts published with the same
    engine object share a batch, while distinct engines get a call each
    even when their packages share a backbone.

    Every entry point is one tick core: *plan* (validate, group by model,
    featurize), *run* (each group's ``run()``, inline here in
    :meth:`_run_groups`), *fold* (smoothers, counters, then the first
    failure re-raised).
    :class:`~repro.serving.async_fleet.AsyncFleetServer` awaits this same
    core, run inline on the event loop.
    """

    def __init__(
        self,
        engine: "Union[InferenceEngine, object]",
        smoother_factory: Optional[Callable[[], object]] = HysteresisSmoother,
    ) -> None:
        if hasattr(engine, "engine_for"):
            self.registry = engine
        else:
            if engine.pipeline is None:
                raise ConfigurationError(
                    "FleetServer needs an engine with a pipeline "
                    "(raw windows in)"
                )
            self.registry = _SingleEngineRegistry(engine)
        self.smoother_factory = smoother_factory
        self.sessions: Dict[str, EdgeSession] = {}
        self.ticks = 0
        self.windows_served = 0
        self.windows_rejected = 0
        self.serve_ms = 0.0
        # Per-cohort rollups of the two exact counters (latency is shared
        # across cohorts within a batched call, so it stays fleet-level).
        self.cohort_windows_served: Dict[str, int] = {}
        self.cohort_windows_rejected: Dict[str, int] = {}

    @property
    def engine(self) -> InferenceEngine:
        """The default cohort's engine (the classic single-model view)."""
        return self.registry.engine_for(self.registry.default_cohort)

    def _serving_engine(self, session: EdgeSession) -> InferenceEngine:
        """The engine currently serving a session's cohort."""
        engine = self.registry.engine_for(session.cohort)
        if engine.pipeline is None:  # engines are mutable; re-check per tick
            raise ConfigurationError(
                f"cohort {session.cohort!r} engine has no pipeline "
                f"(raw windows/chunks in)"
            )
        return engine

    # ------------------------------------------------------------------ #
    # session management
    # ------------------------------------------------------------------ #

    @property
    def n_sessions(self) -> int:
        return len(self.sessions)

    def connect(
        self,
        session_id: str,
        cohort: Optional[str] = None,
        dtype=None,
    ) -> EdgeSession:
        """Register a new device session; ids must be unique.

        ``cohort`` picks the model package serving this session (the
        registry's default cohort when ``None``); a cohort the registry
        cannot serve raises
        :class:`~repro.exceptions.UnknownCohortError` immediately, before
        any traffic flows.  ``dtype`` selects the session's chunk-stream
        compute dtype: ``np.float32`` (or ``"float32"``) runs the
        session's features, embedding and distances in 32 bits (see
        :meth:`InferenceEngine.infer_stream`); ``None``/``float64`` keeps
        the canonical math.  Anything else raises
        :class:`~repro.exceptions.ConfigurationError` before any traffic
        flows.
        """
        key = str(session_id)
        if key in self.sessions:
            raise ConfigurationError(f"session {key!r} already connected")
        cohort_key = (
            self.registry.default_cohort if cohort is None else str(cohort)
        )
        if not self.registry.has_cohort(cohort_key):
            raise UnknownCohortError(
                f"cannot connect session {key!r}: cohort {cohort_key!r} "
                f"is not in the registry"
            )
        dtype_key = resolve_feature_dtype(dtype)
        smoother = (
            self.smoother_factory() if self.smoother_factory is not None else None
        )
        session = EdgeSession(
            key, smoother=smoother, cohort=cohort_key, dtype=dtype_key
        )
        self.sessions[key] = session
        return session

    def connect_many(
        self, session_ids, cohort: Optional[str] = None, dtype=None
    ) -> List[EdgeSession]:
        return [
            self.connect(session_id, cohort=cohort, dtype=dtype)
            for session_id in session_ids
        ]

    def disconnect(self, session_id: str) -> None:
        try:
            del self.sessions[str(session_id)]
        except KeyError:
            raise ConfigurationError(
                f"session {session_id!r} is not connected"
            ) from None

    def session(self, session_id: str) -> EdgeSession:
        try:
            return self.sessions[str(session_id)]
        except KeyError:
            raise ConfigurationError(
                f"session {session_id!r} is not connected"
            ) from None

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def _charge_windows(self, cohort: str, served: int, rejected: int) -> None:
        """Fold one demuxed slice into the fleet and per-cohort counters."""
        self.windows_served += served
        self.windows_rejected += rejected
        self.cohort_windows_served[cohort] = (
            self.cohort_windows_served.get(cohort, 0) + served
        )
        self.cohort_windows_rejected[cohort] = (
            self.cohort_windows_rejected.get(cohort, 0) + rejected
        )

    def step(
        self, windows_by_session: Mapping[str, np.ndarray]
    ) -> Dict[str, SessionVerdict]:
        """Serve one window per session; one batched pass per distinct model.

        ``windows_by_session`` maps connected session ids to raw 2-D
        windows; sessions absent from the mapping simply skip this tick.
        Sessions are grouped by the engine currently serving their cohort
        and every group is classified in a single fused engine call, so a
        mixed-cohort tick costs one forward pass per distinct model — not
        one per session.  Window shapes must agree *within* each model's
        batch (cohorts may legitimately differ, e.g. different window
        lengths per device class).  All windows are validated before any
        engine runs.  Returns the per-session verdicts in input order.

        Failure isolation and tick accounting mirror :meth:`step_stream`
        exactly: if a model raises, the other models' batched calls still
        complete and their verdicts fold into their sessions before the
        first failure is re-raised, and ``ticks``/``serve_ms``/
        ``windows_served`` only move when at least one model's call
        succeeded — a tick on which *every* model failed leaves all
        serving counters untouched.
        """
        if not windows_by_session:
            return {}
        groups = self._group_windows(windows_by_session)
        results, failure = self._run_groups(groups.values())
        return self._demux_window_results(windows_by_session, results, failure)

    def _run_groups(self, groups) -> "Tuple[list, Optional[Exception]]":
        """Run each group's batched call inline; collect ``(group, batch)``.

        A failing call must not discard the other models' verdicts: the
        successes are kept with the first failure, which the fold
        re-raises only after the healthy groups demux.
        """
        results = []
        failure: Optional[Exception] = None
        for group in groups:
            try:
                results.append((group, group.run()))
            except Exception as exc:  # reprolint: disable=broad-except — failure isolation: one failing model loses only its own sessions' windows; the first failure is re-raised after healthy models demux
                if failure is None:
                    failure = exc
        return results, failure

    def _finish_tick(
        self,
        results: "List[Tuple[object, BatchInference]]",
        failure: Optional[Exception],
        extra_ms: float,
        tick: bool = True,
    ) -> None:
        """The accounting every fold ends with; re-raises the failure.

        Each successful call's latency is charged.  The tick counts (a
        flush passes ``tick=False``) and ``extra_ms`` — the plan's
        featurize wall-clock — is charged unless every call failed, so a
        tick on which every model raised leaves all counters untouched.
        """
        for _, batch in results:
            self.serve_ms += batch.latency_ms
        if failure is None or results:
            if tick:
                self.ticks += 1
            self.serve_ms += extra_ms
        if failure is not None:
            raise failure

    def _group_windows(
        self, windows_by_session: Mapping[str, np.ndarray]
    ) -> Dict[int, _WindowTickGroup]:
        """Validate a windowed tick and group it by serving engine.

        Nothing mutates: unknown sessions/cohorts, shape mismatches and
        non-finite samples raise before any engine runs.  Keyed by engine
        identity; insertion order preserves the first-seen order of
        models within the tick.
        """
        groups: Dict[int, _WindowTickGroup] = {}
        for session_id, window in windows_by_session.items():
            session = self.session(session_id)  # raises for unknown ids
            engine = self._serving_engine(session)  # raises unknown cohorts
            arr = np.asarray(window, dtype=np.float64)
            if arr.ndim != 2:
                raise DataShapeError(
                    f"session {session.session_id!r} window must be 2-D "
                    f"(samples, channels), got {arr.shape}"
                )
            group = groups.setdefault(id(engine), _WindowTickGroup(engine))
            if group.arrays and arr.shape != group.arrays[0].shape:
                raise DataShapeError(
                    f"session {session.session_id!r} window shape {arr.shape} "
                    f"differs from the batch shape {group.arrays[0].shape} "
                    f"(session {group.ids[0]!r})"
                )
            if not np.isfinite(arr).all():
                raise DataShapeError(
                    f"session {session.session_id!r} window holds non-finite "
                    f"samples (NaN or inf)"
                )
            group.ids.append(session.session_id)
            group.arrays.append(arr)
        return groups

    def _demux_window_results(
        self,
        windows_by_session: Mapping[str, np.ndarray],
        results: "List[Tuple[_WindowTickGroup, BatchInference]]",
        failure: Optional[Exception],
    ) -> Dict[str, SessionVerdict]:
        """Fold windowed batches into sessions/counters; re-raise failures."""
        verdicts: Dict[str, SessionVerdict] = {}
        for group, batch in results:
            for session_id, name, confidence, accepted in zip(
                group.ids,
                batch.names,
                batch.confidences.tolist(),
                batch.accepted.tolist(),
            ):
                session = self.sessions[session_id]
                verdicts[session_id] = session.observe(
                    name, confidence, accepted
                )
                self._charge_windows(session.cohort, 1, int(not accepted))
        self._finish_tick(results, failure, 0.0)
        return {str(sid): verdicts[str(sid)] for sid in windows_by_session}

    def _stream_engine(self, session: EdgeSession) -> InferenceEngine:
        """The engine a chunk tick serves this session from.

        A session with an open stream stays *pinned* to the engine that
        opened it (so a registry hot-swap mid-stream cannot change the
        model under a half-filled window buffer); otherwise the cohort is
        resolved through the registry, picking up the latest published
        package.
        """
        if session.stream is not None:
            engine = session.stream.engine
            if engine.pipeline is None:
                raise ConfigurationError(
                    f"cohort {session.cohort!r} engine has no pipeline "
                    f"(raw windows/chunks in)"
                )
            return engine
        return self._serving_engine(session)

    def _resolve_stride(self, session: EdgeSession, stride, pipeline) -> int:
        """Per-session stride: pinned > explicit (int or cohort map) > pipeline."""
        if session.stream is not None:
            locked = session.stream.stride
        else:
            locked = None
        default = pipeline.stride if locked is None else locked
        if stride is None:
            value = default
        elif isinstance(stride, Mapping):
            # A cohort absent from the map keeps its open stream's stride
            # (continuing, like stride=None) rather than erroring it out.
            value = int(stride.get(session.cohort, default))
        else:
            value = int(stride)
        if locked is not None and locked != value:
            raise ConfigurationError(
                f"session {session.session_id!r} streams at stride "
                f"{locked}, cannot switch to {value} mid-stream "
                f"(reset() the session to restart)"
            )
        return value

    def step_stream(
        self,
        chunks_by_session: Mapping[str, np.ndarray],
        stride: "Optional[Union[int, Mapping[str, int]]]" = None,
    ) -> Dict[str, List[SessionVerdict]]:
        """Serve raw continuous sample chunks with per-session carry-over.

        Where :meth:`step` takes one pre-cut window per session,
        ``step_stream`` takes a raw ``(n_samples, channels)`` chunk of any
        length per session — the natural payload of a device that just
        uploads its sensor buffer every tick.  Each session owns a
        :class:`StreamSession`: the chunk is folded into the session's
        carry-over buffer and every window it *completes* — including
        windows straddling the previous tick's boundary — is featurized
        once through the O(chunk) chunked pipeline path.  Every window of
        every session then flows through a single batched call *per
        distinct model* (sessions are grouped by the engine serving their
        cohort — one call total for a single-model fleet), and each
        session's verdicts fold through its smoother in window order.
        Across any tick sizes (ragged, even 1-sample) a session's
        concatenated verdicts equal one
        :meth:`InferenceEngine.infer_stream` call over its whole
        recording: no sample is ever dropped at a chunk boundary.

        A session's stream opens against the engine its cohort resolves to
        *at that moment* and stays pinned to it: hot-swapping the cohort's
        package in the registry mid-stream only affects sessions whose
        next chunk opens a fresh stream (after :meth:`finish_stream` or
        :meth:`EdgeSession.reset`).  ``stride`` may be a single int for
        the whole fleet or a ``{cohort: stride}`` mapping (cohorts absent
        from the mapping use their pipeline's stride); ``None`` uses each
        cohort's pipeline stride (an already-open stream simply continues
        at the stride it was opened with).

        Returns the per-session verdict lists in input order; a chunk too
        short to complete a window yields an empty list for that session
        (no complete window yet — the buffer keeps filling and the pending
        tail is classified by a later tick, or flushed by
        :meth:`finish_stream` when the recording ends).  Sessions absent
        from the mapping skip the tick; their buffers are untouched.  All
        chunks are validated up front (shape, channel count against both
        the model's batch this tick and the session's earlier chunks)
        before any session's stream state advances, and the serving
        counters (``ticks``/``serve_ms``/``windows_served``) only move for
        models whose batched call succeeds.  If a model raises mid-tick,
        the other models' verdicts are still folded into their sessions
        (their stream buffers were already consumed; dropping them would
        desynchronize smoother and stream state) and the first failure is
        re-raised afterwards — the failing model's windows for this tick
        are lost, so callers should ``finish_stream``/``reset`` its
        sessions before continuing.
        """
        if not chunks_by_session:
            return {}
        groups, featurize_ms = self._plan_stream_tick(chunks_by_session, stride)
        results, failure = self._run_groups(groups)
        return self._demux_stream_results(
            chunks_by_session, results, failure, featurize_ms
        )

    def _plan_stream_tick(
        self,
        chunks_by_session: Mapping[str, np.ndarray],
        stride: "Optional[Union[int, Mapping[str, int]]]" = None,
    ) -> "Tuple[List[_StreamTickGroup], float]":
        """Validate and featurize a stream tick: the groups to run + ms.

        Nothing mutates until every chunk is checked.  Sessions are
        grouped by serving engine identity and compute dtype (a float32
        session cannot share a batched call with float64 sessions of the
        same engine).  Groups whose chunks completed no window this tick
        make no call.
        """
        groups: Dict[Tuple[int, Optional[str]], _StreamTickGroup] = {}
        for session_id, chunk in chunks_by_session.items():
            self._check_stream_chunk(session_id, chunk, stride, groups)
        with Timer() as timer:
            self._featurize_stream_groups(groups)
        runnable = [group for group in groups.values() if sum(group.counts)]
        return runnable, timer.elapsed_ms

    def check_chunk(
        self,
        session_id: str,
        chunk: np.ndarray,
        stride: "Optional[Union[int, Mapping[str, int]]]" = None,
    ) -> np.ndarray:
        """Check one session's chunk on its own, as :meth:`step_stream` would.

        Raises what a tick holding this chunk would raise for it — an
        unknown session or cohort, a stride switch mid-stream, a chunk
        that is not 2-D, has the wrong channel count for its cohort or
        its open stream, or holds non-finite samples — and returns the
        chunk as float64.  Nothing moves.  A front end that parks chunks
        for a shared tick calls this on arrival, so a bad chunk is
        answered alone and never costs the sessions it would have
        shared the tick with their chunks.
        """
        return self._check_stream_chunk(session_id, chunk, stride)

    def _check_stream_chunk(
        self,
        session_id: str,
        chunk: np.ndarray,
        stride,
        groups: "Optional[Dict[Tuple[int, Optional[str]], _StreamTickGroup]]" = None,
    ) -> np.ndarray:
        """Every check of one session's chunk; with ``groups`` (a tick's
        validation pass) the chunk also joins its group, after the check
        against the group's channel count."""
        session = self.session(session_id)  # raises for unknown ids
        engine = self._stream_engine(session)  # pinned or registry
        pipeline = engine.pipeline
        stride_val = self._resolve_stride(session, stride, pipeline)
        # An open stream keeps the dtype it was opened with even if the
        # session attribute were mutated mid-stream.
        dtype_val = (
            session.stream.dtype if session.stream is not None else session.dtype
        )
        arr = np.asarray(chunk, dtype=np.float64)
        if arr.ndim != 2:
            raise DataShapeError(
                f"session {session.session_id!r} chunk must be 2-D "
                f"(samples, channels), got {arr.shape}"
            )
        group = None
        if groups is not None:
            dtype_key = None if dtype_val is None else np.dtype(dtype_val).name
            group = groups.setdefault(
                (id(engine), dtype_key),
                _StreamTickGroup(engine, dtype=dtype_val),
            )
            if group.n_channels is None:
                group.n_channels = int(arr.shape[1])
            elif arr.shape[1] != group.n_channels:
                raise DataShapeError(
                    f"session {session.session_id!r} chunk has "
                    f"{arr.shape[1]} channels, differs from the batch's "
                    f"{group.n_channels} (session {group.ids[0]!r})"
                )
        expected = pipeline.expected_channels
        if expected is not None and arr.shape[1] != expected:
            raise DataShapeError(
                f"session {session.session_id!r} chunk has "
                f"{arr.shape[1]} channels, cohort "
                f"{session.cohort!r} expects {expected}"
            )
        if session.stream is not None:
            locked = session.stream.state.n_channels
            if locked is not None and arr.shape[1] != locked:
                raise DataShapeError(
                    f"session {session.session_id!r} chunk has "
                    f"{arr.shape[1]} channels, its stream started with "
                    f"{locked}"
                )
        if not np.isfinite(arr).all():
            raise DataShapeError(
                f"session {session.session_id!r} chunk holds non-finite "
                f"samples (NaN or inf)"
            )
        if group is not None:
            group.ids.append(session.session_id)
            group.arrays.append(arr)
            group.strides.append(stride_val)
        return arr

    def _featurize_stream_groups(
        self, groups: "Dict[Tuple[int, Optional[str]], _StreamTickGroup]"
    ) -> None:
        """Featurize pass: fold chunks into each session's carry-over.

        Opens a :class:`StreamSession` (pinning the group's engine) for
        sessions without one, consumes every chunk into its stream state
        and fills each group's per-session feature blocks.  Carry-over is
        per session (the chunks were checked by the validation pass, so
        the pipeline does not check them again); the windows the group's
        windowed-denoise sessions completed are then stacked and
        featurized in *one* call of the pipeline's window kernel (denoise,
        extract, normalize once per group, not once per session) and
        split back by count — the same two halves ``process_chunk``
        composes, so a session's rows do not depend on who shared its
        tick.  Overlapping-stride sessions
        denoise their continuous signal and keep their own
        ``process_chunk``.  From here on the tick's completed windows
        only exist in those blocks — which is why a later per-model
        failure must not discard the other models' blocks (see
        :meth:`_demux_stream_results`).
        """
        for group in groups.values():
            pipeline = group.engine.pipeline
            stacked: List[Tuple[int, np.ndarray]] = []  # (block slot, windows)
            for session_id, arr, stride_val in zip(
                group.ids, group.arrays, group.strides
            ):
                session = self.sessions[session_id]
                if session.stream is None:
                    session.stream = group.engine.open_stream(
                        stride=stride_val, dtype=group.dtype
                    )
                state = session.stream.state
                if state.denoise == "windowed":
                    stacked.append(
                        (
                            len(group.blocks),
                            pipeline.fold_chunk(state, arr, validated=True),
                        )
                    )
                    group.blocks.append(None)
                else:
                    group.blocks.append(
                        pipeline.process_chunk(state, arr, validated=True)
                    )
            if not stacked:
                continue
            features = pipeline.window_kernel(_feature_dtype(group.dtype))(
                np.concatenate([windows for _, windows in stacked], axis=0)
            )
            offset = 0
            for slot, windows in stacked:
                count = windows.shape[0]
                group.blocks[slot] = features[offset : offset + count]
                offset += count

    def _demux_stream_results(
        self,
        session_ids,
        results: "List[Tuple[_StreamTickGroup, BatchInference]]",
        failure: Optional[Exception],
        featurize_ms: float,
        tick: bool = True,
    ) -> Dict[str, List[SessionVerdict]]:
        """Fold a stream tick's batches into sessions; re-raise failures.

        Serving stats move only for models whose batched call succeeded,
        so an engine exception mid-tick cannot leave the counters claiming
        service that never happened.  The failing model's windows for this
        tick are lost with the exception — callers should
        ``finish_stream()``/``reset()`` its sessions — while healthy
        sessions' observed verdicts stay consistent with their stream
        state (visible via ``EdgeSession.last_verdict`` even though the
        tick's return value is lost to the raise).  Featurization is part
        of serving — charged to ``serve_ms`` so the summary throughput
        stays comparable with :meth:`step`'s fused timing; a tick whose
        chunks completed no window still counts, charged that time alone.
        """
        verdicts: Dict[str, List[SessionVerdict]] = {
            str(sid): [] for sid in session_ids
        }
        for group, batch in results:
            # Python scalars, read once per batch rather than per window.
            names = batch.names
            confidences = batch.confidences.tolist()
            accepted = batch.accepted.tolist()
            offset = 0
            for session_id, count in zip(group.ids, group.counts):
                session = self.sessions[session_id]
                session.stream.windows_inferred += count
                rejected = 0
                for i in range(offset, offset + count):
                    verdicts[session_id].append(
                        session.observe(names[i], confidences[i], accepted[i])
                    )
                    rejected += not accepted[i]
                self._charge_windows(session.cohort, count, rejected)
                offset += count
        self._finish_tick(results, failure, featurize_ms, tick=tick)
        return verdicts

    def finish_stream(self, session_id: str) -> List[SessionVerdict]:
        """Flush and close one session's chunk stream at end of recording.

        Classifies any windows only completable once the signal end is
        known (bounded-lookahead continuous denoisers hold back their last
        samples until then) and folds them through the session's smoother;
        the incomplete tail window is dropped, exactly like one monolithic
        ``infer_stream`` call.  The session stays connected and keeps its
        smoother state — the next :meth:`step_stream` chunk starts a fresh
        stream.  A session with no open stream returns an empty list.
        """
        session = self.session(session_id)
        groups, featurize_ms = self._plan_flush(session)
        results, failure = self._run_groups(groups)
        return self._demux_flush(session, results, failure, featurize_ms)

    def _plan_flush(
        self, session: EdgeSession
    ) -> "Tuple[List[_StreamTickGroup], float]":
        """Featurize a session's held-back windows: the group to run + ms.

        Featurized from the *pinned* stream, so a hot-swapped cohort still
        closes its held-back windows against the model that buffered them.
        """
        stream = session.stream
        if stream is None:
            return [], 0.0
        group = _StreamTickGroup(stream.engine, dtype=stream.dtype)
        group.ids.append(session.session_id)
        with Timer() as timer:
            features = stream.engine.pipeline.finish_stream(stream.state)
        group.blocks.append(features)
        return ([group] if group.counts[0] else []), timer.elapsed_ms

    def _demux_flush(
        self,
        session: EdgeSession,
        results: "List[Tuple[_StreamTickGroup, BatchInference]]",
        failure: Optional[Exception],
        featurize_ms: float,
    ) -> List[SessionVerdict]:
        """Fold a flush like a stream tick that is not counted as one, then
        close the session's stream whether or not its call succeeded."""
        try:
            return self._demux_stream_results(
                [session.session_id], results, failure, featurize_ms,
                tick=False,
            )[session.session_id]
        finally:
            session.stream = None

    def summary(self) -> Dict[str, float]:
        """Fleet-level serving statistics."""
        throughput = (
            self.windows_served / (self.serve_ms / 1e3)
            if self.serve_ms > 0
            else 0.0
        )
        # Cumulative, like windows_served — survives disconnects and resets.
        return {
            "sessions": float(self.n_sessions),
            "ticks": float(self.ticks),
            "windows_served": float(self.windows_served),
            "serve_ms": self.serve_ms,
            "windows_per_sec": throughput,
            "rejected_windows": float(self.windows_rejected),
        }

    def cohort_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-cohort serving rollups.

        Keys are every cohort that has connected sessions or served
        windows; values carry the session count plus the cumulative
        windows served/rejected (latency is shared across cohorts inside
        a batched call, so it stays fleet-level in :meth:`summary`).
        """
        sessions_by_cohort: Dict[str, int] = {}
        for session in self.sessions.values():
            sessions_by_cohort[session.cohort] = (
                sessions_by_cohort.get(session.cohort, 0) + 1
            )
        cohorts = (
            set(sessions_by_cohort)
            | set(self.cohort_windows_served)
            | set(self.cohort_windows_rejected)
        )
        return {
            cohort: {
                "sessions": float(sessions_by_cohort.get(cohort, 0)),
                "windows_served": float(
                    self.cohort_windows_served.get(cohort, 0)
                ),
                "rejected_windows": float(
                    self.cohort_windows_rejected.get(cohort, 0)
                ),
            }
            for cohort in sorted(cohorts)
        }
