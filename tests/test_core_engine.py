"""Batched InferenceEngine + FleetServer: parity with the legacy path.

The engine's contract is that one fused vectorized pass over ``(k,
window_len, channels)`` produces *exactly* what the seed's per-window code
produced: same labels, confidences within 1e-9, same distances, same
open-set verdicts.  These tests pin that contract on both random tensors
and real scenario data, plus the serving semantics of the fleet layer.
"""

import numpy as np
import pytest

from reference_features import FeatureExtractor
from repro.core import (
    HysteresisSmoother,
    InferenceEngine,
    NCMClassifier,
    OpenSetNCM,
    UNKNOWN_LABEL,
    UNKNOWN_NAME,
)
from repro.core.engine import BatchInference
from repro.core.ncm import softmax_of_distances
from repro.core.openset import accept_from_distances, accept_rows
from repro.edge_runtime import ResourceAccountant
from repro.exceptions import ConfigurationError, DataShapeError
from repro.preprocessing import (
    ButterworthLowpass,
    IdentityFilter,
    MovingAverageFilter,
    PreprocessingPipeline,
)
from repro.serving import EdgeSession, FleetServer

PARITY = dict(rtol=0.0, atol=1e-9)


def legacy_window_results(edge, windows):
    """The seed's per-window inference loop, kept verbatim as the oracle."""
    distances, probas = [], []
    for window in windows:
        features = edge.pipeline.process_window(window)
        embedding = edge.embedder.embed(features[None, :])
        distances.append(edge.ncm.distances(embedding)[0])
        probas.append(edge.ncm.predict_proba(embedding)[0])
    return np.asarray(distances), np.asarray(probas)


@pytest.fixture
def windows(scenario):
    return scenario.base_test.windows[:20]


class TestBatchedParity:
    def test_scenario_distances_labels_confidences(self, edge, windows):
        ref_dists, ref_proba = legacy_window_results(edge, windows)
        batch = edge.infer_windows(windows)
        np.testing.assert_allclose(batch.distances, ref_dists, **PARITY)
        np.testing.assert_allclose(batch.proba, ref_proba, **PARITY)
        ref_labels = np.argmin(ref_dists, axis=1)
        assert np.array_equal(batch.labels, ref_labels)
        assert np.array_equal(batch.nearest, ref_labels)
        np.testing.assert_allclose(
            batch.confidences,
            ref_proba[np.arange(len(windows)), ref_labels],
            **PARITY,
        )

    def test_single_window_wrapper_matches_batch(self, edge, windows):
        batch = edge.infer_windows(windows)
        for i, window in enumerate(windows[:5]):
            result = edge.infer_window(window)
            assert result.activity == batch.names[i]
            assert result.confidence == pytest.approx(
                float(batch.confidences[i]), abs=1e-9
            )
            for name, dist in result.distances.items():
                assert dist == pytest.approx(
                    batch.distances_of(i)[name], abs=1e-9
                )

    def test_random_embedding_distance_parity(self, rng):
        ncm = NCMClassifier().fit(
            rng.normal(size=(40, 16)),
            rng.integers(0, 4, size=40),
            ["a", "b", "c", "d"],
        )

        class _Identity:
            def embed(self, features):
                return np.asarray(features, dtype=np.float64)

        engine = InferenceEngine(_Identity(), ncm)
        emb = rng.normal(size=(64, 16))
        np.testing.assert_allclose(
            engine.distances_from_embeddings(emb), ncm.distances(emb), **PARITY
        )
        batch = engine.infer_embeddings(emb)
        assert np.array_equal(batch.labels, ncm.predict(emb))
        np.testing.assert_allclose(
            batch.proba, ncm.predict_proba(emb), **PARITY
        )

    def test_infer_features_matches_legacy_predict(self, edge, scenario):
        feats = edge.pipeline.process_windows(scenario.base_test.windows)
        legacy = edge.ncm.predict(edge.embedder.embed(feats))
        assert np.array_equal(edge.infer_features(feats), legacy)
        assert np.array_equal(edge.engine.predict_features(feats), legacy)

    def test_open_set_verdict_parity(self, edge, scenario, rng):
        open_ncm = OpenSetNCM(quantile=0.9, slack=1.0, ratio=0.2)
        open_ncm.fit_from_support_set(edge.embedder, edge.support_set)
        engine = InferenceEngine(
            edge.embedder, open_ncm, pipeline=edge.pipeline
        )
        # scenario windows plus garbage windows that should be rejected
        windows = np.concatenate(
            [scenario.base_test.windows[:10], rng.normal(size=(10, 120, 22)) * 40.0]
        )
        batch = engine.infer_windows(windows)
        feats = edge.pipeline.process_windows(windows)
        legacy = open_ncm.predict(edge.embedder.embed(feats))
        assert np.array_equal(batch.labels, legacy)
        assert np.array_equal(batch.accepted, legacy != UNKNOWN_LABEL)
        names = batch.names
        for i, label in enumerate(legacy):
            expected = (
                UNKNOWN_NAME if label == UNKNOWN_LABEL
                else open_ncm.class_names_[label]
            )
            assert names[i] == expected

    def test_empty_batch(self, edge):
        batch = edge.infer_windows(np.empty((0, 120, 22)))
        assert len(batch) == 0
        assert batch.names == []

    def test_non_3d_batch_rejected(self, edge):
        with pytest.raises(DataShapeError):
            edge.infer_windows(np.zeros((120, 22)))

    def test_engine_without_pipeline_rejects_raw_windows(self, edge):
        engine = InferenceEngine(edge.embedder, edge.ncm)
        with pytest.raises(ConfigurationError):
            engine.infer_windows(np.zeros((1, 120, 22)))


class TestDerivedVerdictFields:
    """A verdict stores ``nearest``, ``distances`` and ``accepted``;
    ``labels``, ``confidences`` and ``proba`` are recomputed from them on
    each access, with the engine's own arithmetic, bit for bit."""

    @pytest.fixture(params=["closed-set", "open-set"])
    def engine(self, request, edge):
        if request.param == "closed-set":
            return InferenceEngine(
                edge.embedder, edge.ncm, pipeline=edge.pipeline
            )
        open_ncm = OpenSetNCM(quantile=0.9, slack=1.0, ratio=0.2)
        open_ncm.fit_from_support_set(edge.embedder, edge.support_set)
        return InferenceEngine(
            edge.embedder, open_ncm, pipeline=edge.pipeline, temperature=0.7
        )

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_derived_fields_are_the_engine_arithmetic(
        self, engine, scenario, rng, dtype
    ):
        # scenario windows, then garbage the open-set engine rejects
        data = np.concatenate(
            [
                scenario.base_test.windows[:10].reshape(-1, 22),
                rng.normal(size=(1200, 22)) * 40.0,
            ]
        )
        batch = engine.infer_stream(data, stride=60, dtype=dtype)
        assert batch.distances.dtype == (dtype or np.float64)
        assert batch.temperature == engine.temperature
        dists = batch.distances.astype(np.float64)
        proba = softmax_of_distances(dists, engine.temperature)
        assert np.array_equal(batch.proba, proba)
        assert np.array_equal(
            batch.confidences, proba[np.arange(len(batch)), batch.nearest]
        )
        assert np.array_equal(
            batch.nearest, np.argmin(batch.distances, axis=1)
        )
        open_set = engine.open_set
        if open_set is None:
            assert batch.accepted.all()
        else:
            assert np.array_equal(
                batch.accepted,
                accept_rows(
                    dists, open_set.thresholds_, open_set.ratio, batch.nearest
                ),
            )
            assert not batch.accepted.all()  # the garbage is rejected
        labels = batch.labels
        assert labels.dtype == np.int64
        assert np.array_equal(
            labels, np.where(batch.accepted, batch.nearest, UNKNOWN_LABEL)
        )

    def test_derived_fields_are_not_cached(self, engine, windows):
        batch = engine.infer_windows(windows)
        for name in ("labels", "confidences", "proba"):
            assert getattr(batch, name) is not getattr(batch, name)

    def test_a_verdict_holds_three_arrays(self, engine, windows):
        batch = engine.infer_windows(windows)
        assert not hasattr(batch, "__dict__")
        held = {
            name
            for name in BatchInference.__slots__
            if isinstance(getattr(batch, name), np.ndarray)
        }
        assert held == {"nearest", "distances", "accepted"}


class TestPrototypeCache:
    def test_cache_invalidates_on_refit(self, edge, scenario, rng):
        feats = edge.pipeline.process_windows(scenario.base_test.windows[:8])
        engine = edge.engine
        before = engine.infer_features(feats).distances
        assert engine._cached_sq_norms is not None
        # learning a new class refits the NCM -> fresh prototype array
        new_feats = edge.pipeline.process_windows(
            scenario.sensor_device.record("gesture_hi", 20.0).data[None, :120, :]
        )
        edge.support_set.add_class(
            "gesture_hi", np.tile(new_feats, (4, 1)), embedder=edge.embedder
        )
        edge.ncm.fit_from_support_set(edge.embedder, edge.support_set)
        after = engine.infer_features(feats).distances
        assert after.shape[1] == before.shape[1] + 1
        np.testing.assert_allclose(
            after, edge.ncm.distances(edge.embedder.embed(feats)), **PARITY
        )

    def test_edge_keeps_one_engine_across_learning(self, edge, scenario):
        """External engine holders must observe incremental updates."""
        engine = edge.engine
        server = FleetServer(engine)
        server.connect("a")
        rec = scenario.sensor_device.record("gesture_hi", 20.0)
        edge.learn_activity("gesture_hi", rec)
        assert edge.engine is engine
        assert "gesture_hi" in server.engine.class_names
        window = scenario.sensor_device.record("gesture_hi", 1.0).data[
            : edge.pipeline.window_len
        ]
        verdict = server.step({"a": window})["a"]
        assert verdict.activity == edge.infer_window(window).activity

    def test_refresh_recomputes_for_inplace_mutation(self, rng):
        ncm = NCMClassifier().fit(
            rng.normal(size=(10, 4)), rng.integers(0, 2, size=10), ["a", "b"]
        )

        class _Identity:
            def embed(self, features):
                return np.asarray(features, dtype=np.float64)

        engine = InferenceEngine(_Identity(), ncm)
        emb = rng.normal(size=(3, 4))
        engine.distances_from_embeddings(emb)  # prime the cache
        ncm.prototypes_ *= 2.0  # in-place: identity check cannot see it
        engine.refresh()
        np.testing.assert_allclose(
            engine.distances_from_embeddings(emb), ncm.distances(emb), **PARITY
        )


class TestProbaFromDistances:
    def test_predict_proba_derives_from_distance_row(self, rng):
        ncm = NCMClassifier().fit(
            rng.normal(size=(20, 8)), rng.integers(0, 3, size=20),
            ["a", "b", "c"],
        )
        emb = rng.normal(size=(6, 8))
        dists = ncm.distances(emb)
        np.testing.assert_allclose(
            NCMClassifier.proba_from_distances(dists),
            ncm.predict_proba(emb),
            rtol=0.0,
            atol=0.0,
        )

    def test_temperature_validation(self):
        with pytest.raises(DataShapeError):
            NCMClassifier.proba_from_distances(np.ones((2, 3)), temperature=0.0)

    def test_accept_from_distances_shape_check(self):
        with pytest.raises(ConfigurationError):
            accept_from_distances(np.ones((2, 3)), np.ones(2), ratio=0.0)


class TestBatchDenoise:
    def test_butterworth_batch_matches_per_window(self, rng):
        windows = rng.normal(size=(7, 120, 22))
        filt = ButterworthLowpass()
        batched = filt.apply_batch(windows)
        looped = np.stack([filt.apply(w) for w in windows], axis=0)
        np.testing.assert_allclose(batched, looped, **PARITY)

    def test_identity_batch_matches_per_window(self, rng):
        windows = rng.normal(size=(5, 30, 22))
        filt = IdentityFilter()
        np.testing.assert_array_equal(filt.apply_batch(windows), windows)

    def test_short_windows_fall_back_to_identity(self, rng):
        windows = rng.normal(size=(3, 10, 22))  # below filtfilt's min length
        filt = ButterworthLowpass()
        batched = filt.apply_batch(windows)
        looped = np.stack([filt.apply(w) for w in windows], axis=0)
        np.testing.assert_array_equal(batched, looped)

    def test_batch_rejects_non_3d(self):
        with pytest.raises(DataShapeError):
            ButterworthLowpass().apply_batch(np.zeros((120, 22)))
        with pytest.raises(DataShapeError):
            IdentityFilter().apply_batch(np.zeros((120, 22)))

    def test_pipeline_loop_fallback_for_other_denoisers(self, tiny_campaign, rng):
        windows = tiny_campaign.windows[:6]
        batched = PreprocessingPipeline(denoiser=MovingAverageFilter(5))
        reference = PreprocessingPipeline(denoiser=MovingAverageFilter(5))
        np.testing.assert_allclose(
            batched.raw_features_of_windows(windows),
            np.stack(
                [
                    FeatureExtractor().extract_one(
                        reference.denoiser.apply(w)
                    )
                    for w in windows
                ]
            ),
            **PARITY,
        )

    def test_pipeline_batch_denoise_parity(self, fitted_pipeline, tiny_campaign):
        windows = tiny_campaign.windows[:8]
        looped = np.stack(
            [fitted_pipeline.denoiser.apply(w) for w in windows], axis=0
        )
        expected = fitted_pipeline.normalizer.transform(
            FeatureExtractor().extract(looped)
        )
        np.testing.assert_allclose(
            fitted_pipeline.process_windows(windows), expected, **PARITY
        )

    def test_raw_features_rejects_non_3d(self, fitted_pipeline):
        with pytest.raises(DataShapeError):
            fitted_pipeline.raw_features_of_windows(np.zeros((120, 22)))


class TestFleetServer:
    @pytest.fixture
    def server(self, edge):
        return FleetServer(edge.engine)

    def test_requires_pipeline_engine(self, edge):
        with pytest.raises(ConfigurationError):
            FleetServer(InferenceEngine(edge.embedder, edge.ncm))

    def test_connect_and_duplicate(self, server):
        session = server.connect("alice")
        assert isinstance(session, EdgeSession)
        assert server.n_sessions == 1
        with pytest.raises(ConfigurationError):
            server.connect("alice")

    def test_step_unknown_session_rejected(self, server, windows):
        with pytest.raises(ConfigurationError):
            server.step({"ghost": windows[0]})

    def test_step_matches_engine_batch(self, edge, server, windows):
        ids = [f"u{i}" for i in range(6)]
        server.connect_many(ids)
        verdicts = server.step(
            {sid: windows[i] for i, sid in enumerate(ids)}
        )
        batch = edge.infer_windows(windows[:6])
        names = batch.names
        for i, sid in enumerate(ids):
            assert verdicts[sid].activity == names[i]
            assert verdicts[sid].confidence == pytest.approx(
                float(batch.confidences[i]), abs=1e-9
            )

    def test_smoothing_state_is_per_session(self, edge, server, windows):
        server.connect_many(["a", "b"])
        # hysteresis: the first observed label sticks until debounced away
        first = server.step({"a": windows[0], "b": windows[1]})
        for _ in range(3):
            later = server.step({"a": windows[0], "b": windows[1]})
        assert later["a"].display == first["a"].display
        assert server.session("a").windows_seen == 4
        assert server.session("b").windows_seen == 4

    def test_partial_tick_and_empty_step(self, server, windows):
        server.connect_many(["a", "b"])
        assert server.step({}) == {}
        verdicts = server.step({"b": windows[0]})
        assert list(verdicts) == ["b"]
        assert server.session("a").windows_seen == 0

    def test_non_2d_window_rejected(self, server, windows):
        server.connect("a")
        with pytest.raises(DataShapeError):
            server.step({"a": windows[:2]})

    def test_mismatched_window_lengths_name_the_session(self, server, windows):
        server.connect_many(["a", "b"])
        with pytest.raises(DataShapeError, match="session 'b'"):
            server.step({"a": windows[0], "b": windows[1][:60]})

    def test_disconnect(self, server):
        server.connect("a")
        server.disconnect("a")
        assert server.n_sessions == 0
        with pytest.raises(ConfigurationError):
            server.disconnect("a")

    def test_summary_counts(self, server, windows):
        server.connect_many(["a", "b", "c"])
        for i in range(2):
            server.step({sid: windows[i] for sid in ["a", "b", "c"]})
        summary = server.summary()
        assert summary["sessions"] == 3.0
        assert summary["ticks"] == 2.0
        assert summary["windows_served"] == 6.0
        assert summary["windows_per_sec"] > 0.0
        # cumulative counters survive disconnects
        server.disconnect("a")
        after = server.summary()
        assert after["windows_served"] == 6.0
        assert after["rejected_windows"] == summary["rejected_windows"]

    def test_session_reset(self, server, windows):
        server.connect("a")
        server.step({"a": windows[0]})
        session = server.session("a")
        session.reset()
        assert session.windows_seen == 0
        assert session.last_verdict is None

    def test_no_smoother_factory(self, edge, windows):
        server = FleetServer(edge.engine, smoother_factory=None)
        server.connect("a")
        verdict = server.step({"a": windows[0]})["a"]
        assert verdict.display == verdict.activity


class TestDeviceBatchAccounting:
    def test_infer_windows_charges_per_window(self, edge, windows):
        edge.accountant = ResourceAccountant()
        batch = edge.infer_windows(windows[:8])
        assert len(batch) == 8
        assert edge.accountant.stats.inferences == 8
        assert edge.accountant.stats.compute_energy_joules > 0.0
        assert edge.accountant.stats.wall_clock_ms > 0.0

    def test_empty_batch_charges_nothing(self, edge):
        edge.accountant = ResourceAccountant()
        edge.infer_windows(np.empty((0, 120, 22)))
        assert edge.accountant.stats.inferences == 0
