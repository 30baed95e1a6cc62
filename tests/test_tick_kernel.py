"""The window -> verdict kernels are dropped whenever what they hold changes.

A tick checks its chunk once and then runs the pipeline's window kernel
(read columns -> denoise -> stacked statistics -> normalize) and the
engine's model kernel (layers -> Gram distances -> verdicts) with no
re-checks in between.  Both are built on first use and kept, so every way
a model changes under a live engine must reach the next tick: after each
change below, an engine that has already served ticks answers exactly —
``np.array_equal`` on distances, probabilities, confidences, labels and
accepts — what a freshly built engine on the same objects answers.  The
engine variants are the closed-set default, an ``OpenSetNCM`` engine, a
``quantize_prototypes`` engine and a float32 session.
"""

import numpy as np
import pytest

from repro.core import InferenceEngine, OpenSetNCM
from repro.exceptions import DataShapeError
from repro.preprocessing import FeatureConfig, PreprocessingPipeline
from repro.serving import FleetServer, ModelRegistry

W = 120
VARIANTS = ("closed", "open_set", "quantized", "float32")


def _make(edge, variant):
    """A fresh engine of ``variant`` over the edge's current objects, and
    the compute dtype its sessions use."""
    if variant == "open_set":
        classifier = OpenSetNCM(quantile=0.9, slack=1.0, ratio=0.2)
        classifier.fit_from_support_set(edge.embedder, edge.support_set)
    else:
        classifier = edge.ncm
    engine = InferenceEngine(
        edge.embedder,
        classifier,
        pipeline=edge.pipeline,
        quantize_prototypes=variant == "quantized",
    )
    return engine, (np.float32 if variant == "float32" else None)


def _rebind(engine, edge, variant):
    """What a device does to its live engine after re-learning: rebind
    the fresh classifier (an open-set head is re-fitted in place)."""
    engine.embedder = edge.embedder
    engine.pipeline = edge.pipeline
    if variant == "open_set":
        engine.classifier.fit_from_support_set(edge.embedder, edge.support_set)
    else:
        engine.classifier = edge.ncm


def _ticks(engine, dtype, data):
    """One-window ticks over ``data`` on a new stream, plus the flush."""
    session = engine.open_stream(dtype=dtype)
    batches = [
        engine.infer_chunk(session, data[start : start + W])
        for start in range(0, data.shape[0] - W + 1, W)
    ]
    batches.append(engine.finish_stream(session))
    return batches


def _assert_same_verdicts(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.class_names == b.class_names
        for field in ("distances", "proba", "confidences", "labels", "accepted"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert sum(len(b) for b in got) > 0


@pytest.fixture
def walk(scenario):
    return scenario.sensor_device.record("walk", 6.0).data


@pytest.mark.parametrize("variant", VARIANTS)
class TestKernelFollowsTheModel:
    def _served_then(self, edge, variant, walk, change):
        """Serve ticks on a live engine, apply ``change``, then compare the
        live engine's next ticks with a fresh engine's."""
        engine, dtype = _make(edge, variant)
        _ticks(engine, dtype, walk)  # builds and keeps the kernels
        change(engine)
        fresh, _ = _make(edge, variant)
        if variant == "open_set":  # the same head, not a re-fit of it
            fresh.classifier = engine.classifier
        _assert_same_verdicts(
            _ticks(engine, dtype, walk), _ticks(fresh, dtype, walk)
        )

    def test_learn_activity(self, edge, scenario, variant, walk):
        recording = scenario.sensor_device.record("gesture_hi", 20.0)

        def change(engine):
            edge.learn_activity("gesture_hi", recording)
            _rebind(engine, edge, variant)

        self._served_then(edge, variant, walk, change)

    def test_calibrate_activity(self, edge, scenario, variant, walk):
        recording = scenario.sensor_device.record("walk", 20.0)

        def change(engine):
            edge.calibrate_activity("walk", recording)
            _rebind(engine, edge, variant)

        self._served_then(edge, variant, walk, change)

    def test_load_state_dict(self, edge, variant, walk):
        network = edge.embedder.network
        state = {
            key: value * 0.5 if key.endswith("weight") else value
            for key, value in network.state_dict().items()
        }
        self._served_then(
            edge, variant, walk, lambda engine: network.load_state_dict(state)
        )

    def test_refresh_after_in_place_changes(self, edge, variant, walk):
        def change(engine):
            for param in edge.embedder.network.parameters():
                param.data *= 1.25
            engine.ncm.prototypes_ *= 1.5
            engine.refresh()

        self._served_then(edge, variant, walk, change)


@pytest.mark.parametrize("variant", ("closed", "float32"))
def test_publish_hot_swap_keeps_open_streams_pinned(
    edge, scenario, variant, walk
):
    """Streams opened before a hot-swap stay on the old engine, streams
    opened after it use the new one; both serve what fresh engines of
    their model serve."""
    dtype = np.float32 if variant == "float32" else None
    old_engine, _ = _make(edge, "closed")
    learned = scenario.fresh_edge(rng=11)
    learned.learn_activity(
        "gesture_hi", scenario.sensor_device.record("gesture_hi", 20.0)
    )
    new_engine, _ = _make(learned, "closed")
    registry = ModelRegistry(default_cohort="c")
    registry.publish("c", old_engine)
    server = FleetServer(registry, smoother_factory=None)
    server.connect("pinned", dtype=dtype)
    chunks = [walk[start : start + W] for start in range(0, 5 * W, W)]
    server.step_stream({"pinned": chunks[0]})
    registry.publish("c", new_engine)
    server.connect("late", dtype=dtype)
    served = {"pinned": [], "late": []}
    for chunk in chunks[1:]:
        for sid, verdicts in server.step_stream(
            {"pinned": chunk, "late": chunk}
        ).items():
            served[sid].extend(verdicts)
    for sid, model in (("pinned", edge), ("late", learned)):
        fresh, _ = _make(model, "closed")
        session = fresh.open_stream(dtype=dtype)
        if sid == "pinned":
            fresh.infer_chunk(session, chunks[0])
        want = [fresh.infer_chunk(session, chunk) for chunk in chunks[1:]]
        assert [(v.activity, v.confidence, v.accepted) for v in served[sid]] == [
            (name, confidence, accepted)
            for batch in want
            for name, confidence, accepted in zip(
                batch.names, batch.confidences.tolist(), batch.accepted.tolist()
            )
        ]
    assert server.session("pinned").stream.engine is old_engine
    assert server.session("late").stream.engine is new_engine


def test_a_misfit_engine_raises_a_typed_error_at_its_first_tick(edge, walk):
    """A pipeline whose feature count is not the embedder's input width is
    refused with ``DataShapeError``, tick after tick — never a bare numpy
    ``ValueError`` from inside the layers."""
    pipeline = PreprocessingPipeline(
        feature_config=FeatureConfig(stats=("mean", "std", "min", "max"))
    )
    pipeline.fit_normalizer(walk[: 4 * W].reshape(4, W, walk.shape[1]))
    assert pipeline.n_features != edge.embedder.input_dim
    engine = InferenceEngine(edge.embedder, edge.ncm, pipeline=pipeline)
    session = engine.open_stream()
    for start in (0, W):
        with pytest.raises(DataShapeError):
            engine.infer_chunk(session, walk[start : start + W])


class TestKernelsAreBuiltOnce:
    def test_pipeline_window_kernel_is_kept_until_a_stage_is_replaced(
        self, edge, walk
    ):
        pipeline = PreprocessingPipeline(
            denoiser=edge.pipeline.denoiser,
            extractor=edge.pipeline.extractor,
            normalizer=edge.pipeline.normalizer,
        )
        windows = walk[: 3 * W].reshape(3, W, walk.shape[1])
        kernel = pipeline.window_kernel()
        assert pipeline.window_kernel() is kernel
        rows = pipeline.process_windows(windows)
        assert np.array_equal(kernel(windows), rows)
        pipeline.normalizer = type(edge.pipeline.normalizer).from_dict(
            edge.pipeline.normalizer.to_dict()
        )
        assert pipeline.window_kernel() is not kernel
        assert np.array_equal(pipeline.process_windows(windows), rows)

    def test_engine_model_kernel_is_kept_across_ticks(self, edge, walk):
        engine, _ = _make(edge, "closed")
        _ticks(engine, None, walk)
        kernel = engine._model_kernel(None)[0]
        _ticks(engine, None, walk)
        assert engine._model_kernel(None)[0] is kernel
        engine.refresh()
        assert engine._model_kernel(None)[0] is not kernel


def test_pipelines_and_engines_pickle_after_serving(edge, walk):
    """The kernels are caches, not state: a copy made after ticks were
    served builds its own and answers the same bits."""
    import pickle

    engine, _ = _make(edge, "closed")
    served = _ticks(engine, None, walk)
    for dtype in (None, np.float32):
        _ticks(engine, dtype, walk)
    copy = pickle.loads(pickle.dumps(engine))
    _assert_same_verdicts(_ticks(copy, None, walk), served)
    windows = walk[: 2 * W].reshape(2, W, walk.shape[1])
    pipeline = pickle.loads(pickle.dumps(engine.pipeline))
    assert np.array_equal(
        pipeline.process_windows(windows),
        engine.pipeline.process_windows(windows),
    )
