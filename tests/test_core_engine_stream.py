"""InferenceEngine.infer_stream: parity with the windowed engine path.

The streaming entry point's contract: at the non-overlapping stride its
verdicts are *identical* (distances to 1e-9, labels/accepts exactly) to
``segment_recording`` + ``infer_windows`` on the same recording; at
overlapping strides it matches the continuous-denoise batch oracle
(the recording denoised once, then cut into windows).  Plus the
serving/accounting layers rewired through it: ``FleetServer.step_stream``,
device accounting, ``run_stream_protocol`` and the reduced-precision
distance path.
"""

import numpy as np
import pytest

from reference_features import FeatureExtractor
from repro.core import HysteresisSmoother, InferenceEngine
from repro.edge_runtime import ResourceAccountant
from repro.eval import run_stream_protocol
from repro.exceptions import ConfigurationError, DataShapeError
from repro.preprocessing import segment_recording, sliding_windows
from repro.serving import FleetServer

PARITY = dict(rtol=0.0, atol=1e-9)


@pytest.fixture
def recording(scenario):
    return scenario.sensor_device.record("walk", 6.0)


class TestInferStreamParity:
    def test_matches_segment_plus_infer_windows(self, edge, recording):
        """The acceptance contract, with the default Butterworth denoiser."""
        ref = edge.infer_windows(segment_recording(recording))
        got = edge.infer_stream(recording.data)
        np.testing.assert_allclose(got.distances, ref.distances, **PARITY)
        np.testing.assert_allclose(got.proba, ref.proba, **PARITY)
        np.testing.assert_allclose(got.confidences, ref.confidences, **PARITY)
        assert np.array_equal(got.labels, ref.labels)
        assert np.array_equal(got.nearest, ref.nearest)
        assert np.array_equal(got.accepted, ref.accepted)
        assert got.names == ref.names

    @pytest.mark.parametrize("stride", [60, 30, 17])
    def test_overlapping_stride_matches_continuous_denoise_oracle(
        self, edge, recording, stride
    ):
        """Overlap: denoise once over the stream, then per-window batch."""
        pipeline = edge.pipeline
        denoised = pipeline.denoiser.apply(recording.data)
        windows = sliding_windows(denoised, pipeline.window_len, stride)
        features = pipeline.normalizer.transform(
            FeatureExtractor().extract(windows)
        )
        ref = edge.engine.infer_features(features)
        got = edge.infer_stream(recording.data, stride=stride)
        assert len(got) == windows.shape[0] > len(segment_recording(recording))
        np.testing.assert_allclose(got.distances, ref.distances, **PARITY)
        assert np.array_equal(got.labels, ref.labels)
        assert np.array_equal(got.accepted, ref.accepted)

    def test_stream_too_short_yields_empty_batch(self, edge):
        batch = edge.infer_stream(np.zeros((50, 22)))
        assert len(batch) == 0
        assert batch.distances.shape == (0, len(edge.classes))

    def test_engine_without_pipeline_rejects_stream(self, edge):
        engine = InferenceEngine(edge.embedder, edge.ncm)
        with pytest.raises(ConfigurationError):
            engine.infer_stream(np.zeros((240, 22)))

    def test_rejects_non_2d_input(self, edge):
        with pytest.raises(DataShapeError):
            edge.infer_stream(np.zeros((2, 120, 22)))

    def test_infer_recording_majority_via_stream(self, edge, recording):
        majority, names = edge.infer_recording(recording)
        batch = edge.infer_stream(recording.data)
        assert names == batch.names
        assert majority in names


class TestReducedPrecisionDistances:
    def test_float32_distance_matrix(self, edge, recording):
        ref = edge.infer_stream(recording.data)
        got = edge.infer_stream(recording.data, dtype=np.float32)
        assert got.distances.dtype == np.float32
        assert np.array_equal(got.labels, ref.labels)
        # float32 now runs the whole path (features, embedding, distances)
        # in 32 bits, so the budget covers the accumulated forward-pass
        # error — dominated by raw-cast quantization of offset-heavy
        # channels (barometer ~1000 hPa), see docs/precision.md.
        np.testing.assert_allclose(
            got.distances, ref.distances, rtol=0.1, atol=0.1
        )

    def test_per_dtype_prototype_cache(self, edge, recording):
        engine = edge.engine
        edge.infer_stream(recording.data, dtype=np.float32)
        assert engine._cached_sq_norms is not None
        cast, cast_sq = engine._prototype_norms(np.float32)
        assert cast.dtype == np.float32
        # repeated calls reuse the cached cast
        assert engine._prototype_norms(np.float32)[0] is cast
        engine.refresh()
        assert engine._cached_casts == {}

    def test_float64_path_untouched_by_dtype_plumbing(self, edge, recording):
        windows = segment_recording(recording)
        a = edge.engine.distances_from_embeddings(
            edge.embedder.embed(edge.pipeline.process_windows(windows))
        )
        assert a.dtype == np.float64


class TestFleetStreamServing:
    def test_step_stream_matches_per_session_stream(self, edge, scenario):
        server = FleetServer(edge.engine)
        server.connect_many(["a", "b", "c"])
        chunks = {
            "a": scenario.sensor_device.record("walk", 3.0).data,
            "b": scenario.sensor_device.record("still", 2.0).data,
            "c": scenario.sensor_device.record("run", 1.0).data,
        }
        verdicts = server.step_stream(chunks)
        assert set(verdicts) == {"a", "b", "c"}
        assert [len(verdicts[s]) for s in ("a", "b", "c")] == [3, 2, 1]
        for session_id, chunk in chunks.items():
            ref = edge.engine.infer_stream(chunk)
            smoother = HysteresisSmoother()
            for verdict, name, confidence, accepted in zip(
                verdicts[session_id], ref.names, ref.confidences, ref.accepted
            ):
                assert verdict.activity == name
                assert verdict.display == smoother.update(name)
                assert verdict.confidence == pytest.approx(float(confidence))
                assert verdict.accepted == bool(accepted)
        assert server.windows_served == 6
        assert server.ticks == 1

    def test_step_stream_overlap_produces_more_windows(self, edge, scenario):
        server = FleetServer(edge.engine)
        server.connect("a")
        chunk = scenario.sensor_device.record("walk", 2.0).data
        dense = server.step_stream({"a": chunk}, stride=30)
        # The zero-phase denoiser stream holds back its bounded lookahead
        # until the flush, so the overlap windows arrive across
        # step_stream + finish_stream.
        flushed = server.finish_stream("a")
        assert (
            len(dense["a"]) + len(flushed)
            == (chunk.shape[0] - 120) // 30 + 1
        )

    def test_step_stream_short_chunk_yields_no_verdicts(self, edge):
        server = FleetServer(edge.engine)
        server.connect("a")
        verdicts = server.step_stream({"a": np.zeros((50, 22))})
        assert verdicts == {"a": []}
        assert server.windows_served == 0
        assert server.ticks == 1

    def test_step_stream_unknown_session_raises(self, edge):
        server = FleetServer(edge.engine)
        with pytest.raises(ConfigurationError):
            server.step_stream({"ghost": np.zeros((240, 22))})

    def test_step_stream_rejects_bad_shape(self, edge):
        server = FleetServer(edge.engine)
        server.connect("a")
        with pytest.raises(DataShapeError):
            server.step_stream({"a": np.zeros(240)})


class TestRuntimeAndProtocol:
    def test_runtime_charges_streamed_windows(self, edge, recording):
        edge.accountant = ResourceAccountant()
        batch = edge.infer_stream(recording.data)
        assert edge.accountant.stats.inferences == len(batch) == 6
        assert edge.accountant.stats.compute_energy_joules > 0.0

    def test_runtime_empty_stream_charges_nothing(self, edge):
        edge.accountant = ResourceAccountant()
        edge.infer_stream(np.zeros((50, 22)))
        assert edge.accountant.stats.inferences == 0

    def test_run_stream_protocol_bookkeeping(self, edge, scenario):
        segments = [
            ("walk", scenario.sensor_device.record("walk", 3.0).data),
            ("still", scenario.sensor_device.record("still", 2.0).data),
            ("walk", scenario.sensor_device.record("walk", 1.0).data),
        ]
        result = run_stream_protocol(edge.engine, segments)
        assert result.n_windows == 6
        assert set(result.per_activity_accuracy) == {"walk", "still"}
        assert 0.0 <= result.overall_accuracy <= 1.0
        assert 0.0 <= result.rejected_fraction <= 1.0
        # overall accuracy is the window-weighted mean of the per-activity ones
        weighted = (
            result.per_activity_accuracy["walk"] * 4
            + result.per_activity_accuracy["still"] * 2
        ) / 6
        assert result.overall_accuracy == pytest.approx(weighted)

    def test_run_stream_protocol_errors(self, edge):
        with pytest.raises(ConfigurationError):
            run_stream_protocol(edge.engine, [])
        with pytest.raises(DataShapeError):
            run_stream_protocol(
                edge.engine, [("walk", np.zeros((10, 22)))]
            )
