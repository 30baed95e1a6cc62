"""Evaluation protocols: incremental learning and continuous streams.

The incremental protocol reproduces the paper's demonstration flow as a
measurable experiment: start from the pre-trained base classes, add new
activities one at a time, and after every step evaluate on a *growing* test
set (base classes + every class learned so far).  Records per-class
accuracy, overall accuracy, the accuracy on the newly learned class, and
forgetting relative to the pre-update state.

The stream protocol (:func:`run_stream_protocol`) evaluates window-level
recognition over *continuous* recordings through the engine's
``infer_stream`` fast path — one fused pass per labeled segment instead of
per-window calls, so high-overlap evaluation sweeps stay tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.engine import InferenceEngine
from ..exceptions import ConfigurationError, DataShapeError
from ..utils import check_2d
from .baselines import IncrementalStrategy
from .metrics import accuracy, accuracy_by_class_name, average_forgetting


@dataclass(frozen=True)
class ClassData:
    """Train/test features for one activity to be learned incrementally."""

    name: str
    train_features: np.ndarray
    test_features: np.ndarray

    def __post_init__(self) -> None:
        check_2d(f"{self.name} train_features", self.train_features)
        check_2d(f"{self.name} test_features", self.test_features)


@dataclass
class StepRecord:
    """Evaluation snapshot after one protocol step.

    ``step`` 0 is the pre-trained base state; step ``k`` follows learning
    the ``k``-th new activity.
    """

    step: int
    learned_class: str  # "" for the base step
    overall_accuracy: float
    new_class_accuracy: float  # NaN for the base step
    per_class_accuracy: Dict[str, float]
    forgetting: float  # mean drop on pre-existing classes vs previous step
    mean_confidence: float = float("nan")  # mean softmax confidence, engine path


@dataclass
class ProtocolResult:
    """All step records for one strategy."""

    strategy: str
    steps: List[StepRecord] = field(default_factory=list)

    def final_overall(self) -> float:
        return self.steps[-1].overall_accuracy

    def mean_forgetting(self) -> float:
        """Mean forgetting over the incremental steps (step >= 1)."""
        drops = [s.forgetting for s in self.steps[1:]]
        if not drops:
            raise DataShapeError("protocol has no incremental steps")
        return float(np.mean(drops))

    def final_base_class_accuracy(self, base_names: Sequence[str]) -> float:
        """Mean final accuracy over the original base classes."""
        last = self.steps[-1].per_class_accuracy
        values = [last[name] for name in base_names if name in last]
        if not values:
            raise DataShapeError("no base class present in final evaluation")
        return float(np.mean(values))


def _evaluate(
    strategy: IncrementalStrategy,
    test_sets: Dict[str, np.ndarray],
) -> Tuple[float, Dict[str, float], float]:
    """Overall + per-class accuracy (and mean confidence) on named test sets.

    The whole evaluation set is classified in one batched
    :class:`~repro.core.engine.InferenceEngine` pass, which also yields
    the softmax confidences without recomputing any distances.
    """
    names = strategy.class_names
    features = []
    labels = []
    for name, feats in test_sets.items():
        if name not in names:
            raise ConfigurationError(
                f"test class {name!r} unknown to strategy (has {names})"
            )
        features.append(feats)
        labels.append(np.full(feats.shape[0], names.index(name), dtype=np.int64))
    X = np.concatenate(features, axis=0)
    y = np.concatenate(labels)
    batch = strategy.engine.infer_features(X)
    pred = batch.labels
    mean_confidence = float(np.mean(batch.confidences)) if len(batch) else float("nan")
    return accuracy(y, pred), accuracy_by_class_name(y, pred, names), mean_confidence


def run_incremental_protocol(
    strategy: IncrementalStrategy,
    base_test_sets: Dict[str, np.ndarray],
    increments: Sequence[ClassData],
) -> ProtocolResult:
    """Run the add-one-class-at-a-time protocol for a prepared strategy.

    Parameters
    ----------
    strategy:
        An :class:`IncrementalStrategy` already ``prepare()``-d with the
        transfer package.
    base_test_sets:
        Test features per base class name.
    increments:
        The new activities, in learning order.
    """
    if strategy.ncm is None:
        raise ConfigurationError("strategy must be prepared before the protocol")
    for name in base_test_sets:
        if name not in strategy.class_names:
            raise ConfigurationError(
                f"base test class {name!r} missing from strategy classes"
            )

    result = ProtocolResult(strategy=strategy.name)
    test_sets: Dict[str, np.ndarray] = dict(base_test_sets)

    overall, per_class, mean_confidence = _evaluate(strategy, test_sets)
    result.steps.append(
        StepRecord(
            step=0,
            learned_class="",
            overall_accuracy=overall,
            new_class_accuracy=float("nan"),
            per_class_accuracy=per_class,
            forgetting=0.0,
            mean_confidence=mean_confidence,
        )
    )

    for k, increment in enumerate(increments, start=1):
        previous_per_class = result.steps[-1].per_class_accuracy
        strategy.add_class(increment.name, increment.train_features)
        test_sets[increment.name] = increment.test_features
        overall, per_class, mean_confidence = _evaluate(strategy, test_sets)
        old_before = {
            name: acc
            for name, acc in previous_per_class.items()
        }
        old_after = {
            name: acc
            for name, acc in per_class.items()
            if name in old_before
        }
        result.steps.append(
            StepRecord(
                step=k,
                learned_class=increment.name,
                overall_accuracy=overall,
                new_class_accuracy=per_class.get(increment.name, float("nan")),
                per_class_accuracy=per_class,
                forgetting=average_forgetting(old_before, old_after),
                mean_confidence=mean_confidence,
            )
        )
    return result


# ---------------------------------------------------------------------- #
# continuous-stream evaluation
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class StreamEvalResult:
    """Window-level metrics of one continuous-stream evaluation run."""

    n_windows: int
    overall_accuracy: float
    per_activity_accuracy: Dict[str, float]
    mean_confidence: float
    rejected_fraction: float
    latency_ms: float  # summed engine wall-clock over all segments
    #: Windows evaluated per activity label — the weights that make
    #: per-activity accuracies mergeable across runs/cohorts.
    per_activity_windows: Dict[str, int] = field(default_factory=dict)


class _StreamAccumulator:
    """Window-level counting shared by the stream protocols.

    Keeping raw counts (not ratios) is what lets the cohort protocol merge
    per-cohort results into an exact combined rollup.
    """

    def __init__(self) -> None:
        self.correct_by: Dict[str, int] = {}
        self.total_by: Dict[str, int] = {}
        self.n_windows = 0
        self.n_correct = 0
        self.n_rejected = 0
        self.confidence_sum = 0.0
        self.latency_ms = 0.0

    def add(self, batch, label: str) -> None:
        """Fold one engine batch of a ``label``-segment into the counts."""
        self.latency_ms += batch.latency_ms
        k = len(batch)
        if k == 0:
            return
        names = batch.names
        hits = sum(name == label for name in names)
        self.n_windows += k
        self.n_correct += hits
        self.n_rejected += int(np.count_nonzero(~batch.accepted))
        self.confidence_sum += float(batch.confidences.sum())
        self.correct_by[label] = self.correct_by.get(label, 0) + hits
        self.total_by[label] = self.total_by.get(label, 0) + k

    def result(self) -> StreamEvalResult:
        if self.n_windows == 0:
            raise DataShapeError(
                "no segment was long enough for a complete window"
            )
        return StreamEvalResult(
            n_windows=self.n_windows,
            overall_accuracy=self.n_correct / self.n_windows,
            per_activity_accuracy={
                label: self.correct_by[label] / self.total_by[label]
                for label in self.total_by
            },
            mean_confidence=self.confidence_sum / self.n_windows,
            rejected_fraction=self.n_rejected / self.n_windows,
            latency_ms=self.latency_ms,
            per_activity_windows=dict(self.total_by),
        )


def _segment_batches(
    engine: InferenceEngine,
    samples: np.ndarray,
    stride: Optional[int],
    chunk_len: Optional[int],
):
    """Yield the engine batches covering one labeled segment.

    One fused ``infer_stream`` pass when ``chunk_len`` is ``None``;
    otherwise the chunked path — a fresh
    :class:`~repro.core.engine.StreamSession` fed ``chunk_len``-sample
    ticks and flushed, exercising exactly what a serving tick loop runs.
    """
    if chunk_len is None:
        yield engine.infer_stream(samples, stride=stride)
        return
    arr = np.asarray(samples, dtype=np.float64)
    session = engine.open_stream(stride=stride)
    for start in range(0, arr.shape[0], chunk_len):
        yield engine.infer_chunk(session, arr[start : start + chunk_len])
    yield engine.finish_stream(session)


def run_stream_protocol(
    engine: InferenceEngine,
    segments: Sequence[Tuple[str, np.ndarray]],
    stride: Optional[int] = None,
    chunk_len: Optional[int] = None,
) -> StreamEvalResult:
    """Evaluate continuous labeled recordings through ``infer_stream``.

    ``segments`` is a sequence of ``(true_activity, samples)`` pairs, each
    ``samples`` a continuous ``(n, channels)`` array (e.g. one
    :class:`~repro.sensors.device.Recording`'s data, or a stretch of a
    :class:`~repro.sensors.stream.SensorStream`).  Every segment is
    classified in ONE fused streaming engine pass; a window counts as
    correct when its (possibly open-set-rejected) verdict name equals the
    segment label, so passing
    :data:`~repro.core.openset.UNKNOWN_NAME` as a label scores rejection
    of out-of-set segments.

    ``chunk_len`` switches to the chunked serving path: each segment is
    fed to a per-segment :class:`~repro.core.engine.StreamSession` in
    ``chunk_len``-sample ticks (then flushed), evaluating the same windows
    through ``infer_chunk`` exactly as a fleet tick loop would see them —
    the metrics match the monolithic pass, the wall-clock reflects
    chunked serving.

    Segments too short for a complete window contribute zero windows; the
    protocol raises if *no* segment produced a window.
    """
    if not segments:
        raise ConfigurationError("segments must be non-empty")
    if chunk_len is not None and chunk_len < 1:
        raise ConfigurationError(f"chunk_len must be >= 1, got {chunk_len}")
    acc = _StreamAccumulator()
    for label, samples in segments:
        for batch in _segment_batches(engine, samples, stride, chunk_len):
            acc.add(batch, label)
    return acc.result()


# ---------------------------------------------------------------------- #
# per-cohort stream evaluation
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class CohortStreamEvalResult:
    """Per-cohort window-level metrics plus the exact combined rollup."""

    per_cohort: Dict[str, StreamEvalResult]
    combined: StreamEvalResult

    def cohort(self, cohort_id: str) -> StreamEvalResult:
        try:
            return self.per_cohort[cohort_id]
        except KeyError:
            raise ConfigurationError(
                f"no evaluation result for cohort {cohort_id!r} "
                f"(has {sorted(self.per_cohort)})"
            ) from None


def run_cohort_stream_protocol(
    registry,
    segments_by_cohort: Mapping[str, Sequence[Tuple[str, np.ndarray]]],
    stride: Optional[Union[int, Mapping[str, int]]] = None,
    chunk_len: Optional[int] = None,
) -> CohortStreamEvalResult:
    """Evaluate continuous recordings per cohort through a model registry.

    The multi-model twin of :func:`run_stream_protocol`: each cohort's
    labeled segments are classified by the engine its registry entry
    resolves to (:meth:`~repro.serving.registry.ModelRegistry.engine_for`
    — lazily registered cohorts load here), producing one
    :class:`StreamEvalResult` per cohort *and* an exact combined rollup
    (raw window counts are merged, so the combined accuracies are the
    true fleet-level numbers, not averages of averages).

    ``stride`` may be one int for every cohort or a ``{cohort: stride}``
    mapping (cohorts absent from the mapping use their pipeline stride),
    mirroring :meth:`~repro.serving.fleet.FleetServer.step_stream`;
    ``chunk_len`` switches every cohort to the chunked serving path.
    Unknown cohorts raise :class:`~repro.exceptions.UnknownCohortError`;
    a cohort whose segments never complete a window raises
    :class:`~repro.exceptions.DataShapeError`, like the single-model
    protocol.
    """
    if not segments_by_cohort:
        raise ConfigurationError("segments_by_cohort must be non-empty")
    if chunk_len is not None and chunk_len < 1:
        raise ConfigurationError(f"chunk_len must be >= 1, got {chunk_len}")
    per_cohort: Dict[str, StreamEvalResult] = {}
    combined = _StreamAccumulator()
    for cohort_id, segments in segments_by_cohort.items():
        cohort_key = str(cohort_id)
        if not segments:
            raise ConfigurationError(
                f"cohort {cohort_key!r} has no segments"
            )
        engine = registry.engine_for(cohort_key)
        cohort_stride = (
            stride.get(cohort_key) if isinstance(stride, Mapping) else stride
        )
        acc = _StreamAccumulator()
        for label, samples in segments:
            for batch in _segment_batches(
                engine, samples, cohort_stride, chunk_len
            ):
                acc.add(batch, label)
                combined.add(batch, label)
        per_cohort[cohort_key] = acc.result()
    return CohortStreamEvalResult(
        per_cohort=per_cohort, combined=combined.result()
    )
