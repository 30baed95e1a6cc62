"""Tests for cohort-aware fleet serving through a ModelRegistry.

The acceptance bar: a mixed-cohort ``FleetServer.step_stream`` produces
verdicts identical (1e-9) to routing each session through its cohort's
engine individually, while issuing exactly one batched engine call per
distinct model per tick; held sessions keep their pinned package across a
hot-swap until ``finish_stream``.
"""

import numpy as np
import pytest

from repro.core import EdgeDevice, InferenceEngine
from repro.eval import run_cohort_stream_protocol, run_stream_protocol
from repro.exceptions import (
    ConfigurationError,
    DataShapeError,
    UnknownCohortError,
)
from repro.preprocessing import PreprocessingPipeline
from repro.sensors import SensorDevice
from repro.serving import DEFAULT_COHORT, FleetServer, ModelRegistry

PARITY = dict(rtol=0.0, atol=1e-9)


def _network_bytes(engine):
    """An engine's network as bytes: its config plus every weight array's
    key, shape, dtype and raw bytes (equal only for identical networks)."""
    state = engine.embedder.network.state_dict()
    return engine.embedder.network.to_config(), {
        key: (value.shape, value.dtype.str, value.tobytes())
        for key, value in state.items()
    }


@pytest.fixture
def engines(scenario):
    """Two distinct engines: the base package and a 6-class variant."""
    edge_a = scenario.fresh_edge(rng=1)
    edge_b = scenario.fresh_edge(rng=2)
    edge_b.learn_activity(
        "gesture_hi", scenario.sensor_device.record("gesture_hi", 20.0)
    )
    assert len(edge_b.engine.class_names) == len(edge_a.engine.class_names) + 1
    return edge_a.engine, edge_b.engine


@pytest.fixture
def registry(engines):
    engine_a, engine_b = engines
    reg = ModelRegistry(default_cohort="a")
    reg.publish("a", engine_a)
    reg.publish("b", engine_b)
    return reg


def _count_calls(monkeypatch, engine, counter, key):
    original = engine.infer_features

    def counted(features):
        counter[key] += 1
        return original(features)

    monkeypatch.setattr(engine, "infer_features", counted)


class TestMixedCohortStepStream:
    def test_acceptance_parity_with_individual_routing(
        self, registry, engines, scenario, monkeypatch
    ):
        """Mixed-cohort serving == each session on its own cohort engine."""
        engine_a, engine_b = engines
        calls = {"a": 0, "b": 0}
        _count_calls(monkeypatch, engine_a, calls, "a")
        _count_calls(monkeypatch, engine_b, calls, "b")
        server = FleetServer(registry)
        server.connect_many(["a1", "a2"], cohort="a")
        server.connect("b1", cohort="b")
        recordings = {
            "a1": scenario.sensor_device.record("walk", 5.0).data,
            "a2": scenario.sensor_device.record("run", 5.0).data,
            "b1": scenario.sensor_device.record("gesture_hi", 5.0).data,
        }
        got = {sid: [] for sid in recordings}
        ticks = 0
        for start in range(0, 600, 100):
            tick = {
                sid: data[start : start + 100]
                for sid, data in recordings.items()
            }
            ticks += 1
            for sid, verdicts in server.step_stream(tick).items():
                got[sid].extend(verdicts)
        # one batched call per distinct model per tick; ticks where a
        # model completed no window skip that model's call entirely
        assert calls["a"] <= ticks and calls["b"] <= ticks
        assert calls["a"] == calls["b"] == 5  # 600 samples -> 5 windows
        by_cohort = {"a1": engine_a, "a2": engine_a, "b1": engine_b}
        for sid, data in recordings.items():
            ref = by_cohort[sid].infer_stream(data)
            assert [v.activity for v in got[sid]] == ref.names
            assert [v.accepted for v in got[sid]] == list(ref.accepted)
            np.testing.assert_allclose(
                [v.confidence for v in got[sid]], ref.confidences, **PARITY
            )

    def test_cohorts_sharing_an_engine_share_a_batch(
        self, engines, scenario, monkeypatch
    ):
        engine_a, _ = engines
        registry = ModelRegistry(default_cohort="x")
        registry.publish("x", engine_a)
        registry.publish("y", engine_a)  # same engine object, two cohorts
        calls = {"n": 0}
        _count_calls(monkeypatch, engine_a, calls, "n")
        server = FleetServer(registry)
        server.connect("sx", cohort="x")
        server.connect("sy", cohort="y")
        data = scenario.sensor_device.record("walk", 2.0).data
        verdicts = server.step_stream({"sx": data, "sy": data})
        assert calls["n"] == 1
        assert len(verdicts["sx"]) == len(verdicts["sy"]) == 2

    def test_per_cohort_stride_mapping(self, registry, scenario):
        server = FleetServer(registry)
        server.connect("a1", cohort="a")
        server.connect("b1", cohort="b")
        data = scenario.sensor_device.record("walk", 2.0).data
        verdicts = server.step_stream(
            {"a1": data, "b1": data}, stride={"a": 60, "b": 120}
        )
        assert server.session("a1").stream.stride == 60
        assert server.session("b1").stream.stride == 120
        # Cohort "a" streams at an overlapping stride: the zero-phase
        # denoiser stream holds back its lookahead until the flush.
        flushed_a = server.finish_stream("a1")
        assert len(verdicts["a1"]) + len(flushed_a) == 3  # (240-120)//60 + 1
        assert len(verdicts["b1"]) == 2

    def test_stride_map_omitting_a_cohort_continues_open_streams(
        self, registry, scenario
    ):
        """A cohort absent from the stride map keeps its locked stride."""
        server = FleetServer(registry)
        server.connect("a1", cohort="a")
        data = scenario.sensor_device.record("walk", 3.0).data
        server.step_stream({"a1": data[:200]}, stride={"a": 60})
        # next tick's map names only the other cohort: a1 just continues
        verdicts = server.step_stream(
            {"a1": data[200:360]}, stride={"b": 120}
        )
        assert server.session("a1").stream.stride == 60
        assert len(verdicts["a1"]) > 0

    def test_failing_model_does_not_discard_healthy_cohorts(
        self, registry, engines, scenario, monkeypatch
    ):
        """Cohort B's engine raising mid-tick must not desync cohort A."""
        engine_a, engine_b = engines
        server = FleetServer(registry)
        server.connect("a1", cohort="a")
        server.connect("b1", cohort="b")
        data = scenario.sensor_device.record("walk", 4.0).data
        server.step_stream({"a1": data[:200], "b1": data[:200]})

        def boom(features):
            raise RuntimeError("model fell over")

        monkeypatch.setattr(engine_b, "infer_features", boom)
        with pytest.raises(RuntimeError, match="fell over"):
            server.step_stream({"a1": data[200:360], "b1": data[200:360]})
        # a1's verdicts were folded (smoother/stream stay consistent)...
        a1 = server.session("a1")
        assert a1.windows_seen == 3
        assert a1.last_verdict is not None
        assert server.cohort_summary()["a"]["windows_served"] == 3.0
        # ...and after resetting the failed session, serving continues
        monkeypatch.undo()
        server.session("b1").reset()
        more = server.step_stream({"a1": data[360:480], "b1": data[:240]})
        assert len(more["a1"]) == 1 and len(more["b1"]) == 2
        # a1's full observed sequence still equals the monolithic pass
        ref = engine_a.infer_stream(data)
        assert a1.windows_seen == len(ref.names)

    def test_empty_tick_and_unknown_session_still_guarded(self, registry):
        server = FleetServer(registry)
        assert server.step_stream({}) == {}
        with pytest.raises(ConfigurationError, match="not connected"):
            server.step_stream({"ghost": np.zeros((10, 22))})


class TestTickAccountingConsistency:
    """step and step_stream agree on failure isolation + tick accounting."""

    def test_step_failing_model_does_not_discard_healthy_cohorts(
        self, registry, engines, scenario, monkeypatch
    ):
        """Like step_stream: healthy cohorts fold, then the error re-raises."""
        _, engine_b = engines
        server = FleetServer(registry)
        server.connect("a1", cohort="a")
        server.connect("b1", cohort="b")
        window = scenario.sensor_device.record("walk", 1.0).data[:120]

        def boom(windows):
            raise RuntimeError("model fell over")

        monkeypatch.setattr(engine_b, "infer_features", boom)
        with pytest.raises(RuntimeError, match="fell over"):
            server.step({"a1": window, "b1": window})
        a1 = server.session("a1")
        assert a1.windows_seen == 1 and a1.last_verdict is not None
        assert server.ticks == 1  # the tick served cohort a
        assert server.summary()["windows_served"] == 1.0
        assert server.cohort_summary()["a"]["windows_served"] == 1.0
        assert server.cohort_summary()["b"]["windows_served"] == 0.0

    def test_step_all_models_failing_leaves_counters_untouched(
        self, registry, engines, scenario, monkeypatch
    ):
        """A tick on which every model failed never happened, counter-wise."""
        engine_a, engine_b = engines
        server = FleetServer(registry)
        server.connect("a1", cohort="a")
        server.connect("b1", cohort="b")
        window = scenario.sensor_device.record("walk", 1.0).data[:120]

        def boom(windows):
            raise RuntimeError("model fell over")

        monkeypatch.setattr(engine_a, "infer_features", boom)
        monkeypatch.setattr(engine_b, "infer_features", boom)
        with pytest.raises(RuntimeError):
            server.step({"a1": window, "b1": window})
        assert server.ticks == 0
        assert server.serve_ms == 0.0
        assert server.summary()["windows_served"] == 0.0
        assert server.session("a1").windows_seen == 0

    def test_step_stream_all_models_failing_matches_step_accounting(
        self, registry, engines, scenario, monkeypatch
    ):
        engine_a, engine_b = engines
        server = FleetServer(registry)
        server.connect("a1", cohort="a")
        server.connect("b1", cohort="b")
        data = scenario.sensor_device.record("walk", 2.0).data

        def boom(features):
            raise RuntimeError("model fell over")

        monkeypatch.setattr(engine_a, "infer_features", boom)
        monkeypatch.setattr(engine_b, "infer_features", boom)
        with pytest.raises(RuntimeError):
            server.step_stream({"a1": data, "b1": data})
        assert server.ticks == 0
        assert server.serve_ms == 0.0
        assert server.summary()["windows_served"] == 0.0


class TestCohortBinding:
    def test_connect_unknown_cohort_rejected_up_front(self, registry):
        server = FleetServer(registry)
        with pytest.raises(UnknownCohortError, match="'pocket'"):
            server.connect("s", cohort="pocket")
        assert server.n_sessions == 0

    def test_default_cohort_binding(self, registry):
        server = FleetServer(registry)
        session = server.connect("s")
        assert session.cohort == "a"

    def test_single_engine_server_serves_default_cohort(self, edge):
        server = FleetServer(edge.engine)
        assert server.connect("s").cohort == DEFAULT_COHORT
        with pytest.raises(UnknownCohortError, match="'wrist'"):
            server.connect("t", cohort="wrist")

    def test_unpublished_cohort_fails_on_step(
        self, registry, scenario
    ):
        """Unknown cohort at serve time (unpublished after connect)."""
        server = FleetServer(registry)
        server.connect("b1", cohort="b")
        window = scenario.sensor_device.record("walk", 1.0).data[:120]
        registry.unpublish("b")
        with pytest.raises(UnknownCohortError, match="'b'"):
            server.step({"b1": window})
        with pytest.raises(UnknownCohortError, match="'b'"):
            server.step_stream({"b1": window})

    def test_open_stream_outlives_unpublish(self, registry, scenario):
        """A held session keeps serving from its pinned engine."""
        server = FleetServer(registry)
        server.connect("b1", cohort="b")
        data = scenario.sensor_device.record("gesture_hi", 3.0).data
        server.step_stream({"b1": data[:200]})
        registry.unpublish("b")
        verdicts = server.step_stream({"b1": data[200:360]})  # still pinned
        assert len(verdicts["b1"]) == 2
        assert server.finish_stream("b1") == []


class TestHotSwap:
    def test_held_sessions_keep_pinned_package_until_finish(
        self, engines, scenario
    ):
        engine_v1, engine_v2 = engines
        registry = ModelRegistry(default_cohort="a")
        registry.publish("a", engine_v1)
        server = FleetServer(registry)
        session = server.connect("s")
        data = scenario.sensor_device.record("walk", 4.0).data
        server.step_stream({"s": data[:100]})
        assert session.stream.engine is engine_v1
        registry.publish("a", engine_v2)  # hot-swap mid-stream
        got = server.step_stream({"s": data[100:300]})["s"]
        assert session.stream.engine is engine_v1  # pinned
        ref = engine_v1.infer_stream(data[:240])
        assert [v.activity for v in got] == ref.names[-len(got):]
        server.finish_stream("s")
        server.step_stream({"s": data[:100]})  # fresh stream
        assert session.stream.engine is engine_v2

    def test_windowed_step_swaps_immediately(self, engines, scenario):
        engine_v1, engine_v2 = engines
        registry = ModelRegistry(default_cohort="a")
        registry.publish("a", engine_v1)
        server = FleetServer(registry)
        server.connect("s")
        window = scenario.sensor_device.record("walk", 1.0).data[:120]
        server.step({"s": window})
        registry.publish("a", engine_v2)
        verdict = server.step({"s": window})["s"]
        ref = engine_v2.infer_windows(window[None, :, :])
        assert verdict.activity == ref.names[0]


class TestBackboneFusion:
    """Same-backbone cohorts, the layout fusion once merged into one pass.

    Fusion is gone: distinct engines over one backbone get one batched
    call each per tick, and each fails or hot-swaps on its own.
    """

    @pytest.fixture
    def shared_engines(self, scenario):
        """Two cohort engines over byte-identical network clones."""
        engine_x = scenario.fresh_edge(rng=1).engine
        engine_y = scenario.fresh_edge(rng=3).engine
        assert engine_x is not engine_y
        assert _network_bytes(engine_x) == _network_bytes(engine_y)
        return engine_x, engine_y

    @pytest.fixture
    def shared_registry(self, shared_engines):
        engine_x, engine_y = shared_engines
        reg = ModelRegistry(default_cohort="x")
        reg.publish("x", engine_x)
        reg.publish("y", engine_y)
        return reg

    def test_step_stream_one_call_per_engine_and_parity(
        self, shared_registry, shared_engines, scenario, monkeypatch
    ):
        engine_x, engine_y = shared_engines
        data = SensorDevice(user=scenario.edge_user, rng=2701).record(
            "walk", 3.0
        ).data
        refs = {"sx": engine_x.infer_stream(data),
                "sy": engine_y.infer_stream(data)}
        calls = {"x": 0, "y": 0}
        _count_calls(monkeypatch, engine_x, calls, "x")
        _count_calls(monkeypatch, engine_y, calls, "y")
        server = FleetServer(shared_registry)
        server.connect("sx", cohort="x")
        server.connect("sy", cohort="y")
        got = server.step_stream({"sx": data, "sy": data})
        assert calls == {"x": 1, "y": 1}
        for sid in ("sx", "sy"):
            assert [v.activity for v in got[sid]] == refs[sid].names
            np.testing.assert_allclose(
                [v.confidence for v in got[sid]],
                refs[sid].confidences,
                **PARITY,
            )

    def test_step_one_call_per_engine(
        self, shared_registry, shared_engines, scenario, monkeypatch
    ):
        engine_x, engine_y = shared_engines
        window = SensorDevice(user=scenario.edge_user, rng=2702).record(
            "walk", 1.0
        ).data[:120]
        refs = {"sx": engine_x.infer_windows(window[None, :, :]),
                "sy": engine_y.infer_windows(window[None, :, :])}
        calls = {"x": 0, "y": 0}
        for engine, key in ((engine_x, "x"), (engine_y, "y")):
            original = engine.infer_features

            def counted(features, _original=original, _key=key):
                calls[_key] += 1
                return _original(features)

            monkeypatch.setattr(engine, "infer_features", counted)
        server = FleetServer(shared_registry)
        server.connect("sx", cohort="x")
        server.connect("sy", cohort="y")
        got = server.step({"sx": window, "sy": window})
        assert calls == {"x": 1, "y": 1}
        for sid in ("sx", "sy"):
            assert got[sid].activity == refs[sid].names[0]
            assert got[sid].confidence == pytest.approx(
                refs[sid].confidences[0], abs=1e-9
            )

    def test_hot_swap_head_does_not_rebind_sibling_streams(
        self, shared_registry, shared_engines, scenario
    ):
        """A new head for one cohort leaves its siblings pinned."""
        engine_x, engine_y = shared_engines
        new_y = scenario.fresh_edge(rng=4).engine
        server = FleetServer(shared_registry)
        server.connect("sx", cohort="x")
        server.connect("sy", cohort="y")
        data = SensorDevice(user=scenario.edge_user, rng=2703).record(
            "walk", 4.0
        ).data
        got_x = list(
            server.step_stream({"sx": data[:200], "sy": data[:200]})["sx"]
        )
        shared_registry.publish("y", new_y)  # same backbone, new head
        more = server.step_stream({"sx": data[200:440], "sy": data[200:440]})
        got_x.extend(more["sx"])
        assert server.session("sx").stream.engine is engine_x  # sibling
        assert server.session("sy").stream.engine is engine_y  # pinned
        server.finish_stream("sy")
        server.step_stream({"sy": data[:240]})  # fresh stream rebinds
        assert server.session("sy").stream.engine is new_y
        # the sibling's verdicts equal its monolithic pass
        ref = engine_x.infer_stream(data[:440])
        assert [v.activity for v in got_x] == ref.names
        np.testing.assert_allclose(
            [v.confidence for v in got_x], ref.confidences, **PARITY
        )

    def test_publishing_new_backbone_splits_group(
        self, shared_registry, shared_engines, engines, scenario, monkeypatch
    ):
        """A retrained backbone is served like any other engine."""
        engine_x, _ = shared_engines
        _, engine_b = engines  # fine-tuned backbone: distinct weights
        assert _network_bytes(engine_b) != _network_bytes(engine_x)
        shared_registry.publish("y", engine_b)
        calls = {"x": 0, "b": 0}
        _count_calls(monkeypatch, engine_x, calls, "x")
        _count_calls(monkeypatch, engine_b, calls, "b")
        server = FleetServer(shared_registry)
        server.connect("sx", cohort="x")
        server.connect("sy", cohort="y")
        data = SensorDevice(user=scenario.edge_user, rng=2706).record(
            "walk", 2.0
        ).data
        got = server.step_stream({"sx": data, "sy": data})
        assert calls == {"x": 1, "b": 1}
        for sid, engine in (("sx", engine_x), ("sy", engine_b)):
            ref = engine.infer_stream(data)
            assert [v.activity for v in got[sid]] == ref.names
            np.testing.assert_allclose(
                [v.confidence for v in got[sid]], ref.confidences, **PARITY
            )

    def test_step_cohorts_sharing_an_engine_share_a_call(
        self, shared_engines, scenario, monkeypatch
    ):
        """``step`` groups by engine object, not by cohort or backbone."""
        engine_x, _ = shared_engines
        registry = ModelRegistry(default_cohort="x")
        registry.publish("x", engine_x)
        registry.publish("z", engine_x)  # same engine object, two cohorts
        calls = []
        original = engine_x.infer_features

        def counted(features):
            calls.append(features.shape[0])
            return original(features)

        monkeypatch.setattr(engine_x, "infer_features", counted)
        server = FleetServer(registry)
        server.connect("sx", cohort="x")
        server.connect("sz", cohort="z")
        window = SensorDevice(user=scenario.edge_user, rng=2707).record(
            "walk", 1.0
        ).data[:120]
        got = server.step({"sx": window, "sz": window})
        assert calls == [2]  # one call carrying both cohorts' windows
        assert got["sx"].activity == got["sz"].activity
        assert server.cohort_summary()["z"]["windows_served"] == 1.0

    def test_zero_window_group_makes_no_call(
        self, shared_registry, shared_engines, scenario, monkeypatch
    ):
        """A model whose sessions completed no window this tick is skipped."""
        engine_x, engine_y = shared_engines
        data = SensorDevice(user=scenario.edge_user, rng=2708).record(
            "walk", 3.0
        ).data
        calls = {"x": 0, "y": 0}
        _count_calls(monkeypatch, engine_x, calls, "x")
        _count_calls(monkeypatch, engine_y, calls, "y")
        server = FleetServer(shared_registry)
        server.connect("sx", cohort="x")
        server.connect("sy", cohort="y")
        first = server.step_stream({"sx": data[:240], "sy": data[:50]})
        assert calls == {"x": 1, "y": 0}
        assert first["sy"] == [] and len(first["sx"]) == 2
        # the short chunk stayed buffered: the next tick completes it
        more = server.step_stream({"sy": data[50:360]})
        assert calls == {"x": 1, "y": 1}
        got_y = first["sy"] + more["sy"]
        ref = engine_y.infer_stream(data[:360])
        assert [v.activity for v in got_y] == ref.names
        np.testing.assert_allclose(
            [v.confidence for v in got_y], ref.confidences, **PARITY
        )

    def test_float32_session_gets_its_own_call(
        self, shared_engines, scenario, monkeypatch
    ):
        """One engine, two compute dtypes: one call per ``(engine, dtype)``."""
        engine_x, _ = shared_engines
        dtypes = []
        original = engine_x.infer_features

        def counted(features, dtype=None):
            dtypes.append(dtype)
            return original(features, dtype=dtype)

        monkeypatch.setattr(engine_x, "infer_features", counted)
        server = FleetServer(engine_x)
        server.connect("s64")
        server.connect("s32", dtype=np.float32)
        data = SensorDevice(user=scenario.edge_user, rng=2709).record(
            "walk", 3.0
        ).data
        got = server.step_stream({"s64": data, "s32": data})
        assert dtypes == [None, np.float32]
        for sid, dtype, atol in (("s64", None, 1e-9), ("s32", np.float32, 1e-5)):
            ref = engine_x.infer_stream(data, dtype=dtype)
            assert [v.activity for v in got[sid]] == ref.names
            np.testing.assert_allclose(
                [v.confidence for v in got[sid]],
                ref.confidences,
                rtol=0.0,
                atol=atol,
            )

    def test_failing_head_loses_only_its_own_group(
        self, shared_registry, shared_engines, scenario, monkeypatch
    ):
        """One cohort's engine raising leaves its same-backbone sibling whole."""
        engine_x, engine_y = shared_engines
        data = SensorDevice(user=scenario.edge_user, rng=2710).record(
            "walk", 2.0
        ).data

        def boom(features):
            raise RuntimeError("model fell over")

        monkeypatch.setattr(engine_y, "infer_features", boom)
        server = FleetServer(shared_registry)
        server.connect("sx", cohort="x")
        server.connect("sy", cohort="y")
        with pytest.raises(RuntimeError, match="fell over"):
            server.step_stream({"sx": data, "sy": data})
        ref = engine_x.infer_stream(data)
        sx = server.session("sx")
        assert sx.windows_seen == len(ref.names) == 2
        assert sx.last_verdict.activity == ref.names[-1]
        assert server.session("sy").windows_seen == 0
        assert server.ticks == 1
        assert server.cohort_summary()["x"]["windows_served"] == 2.0
        assert server.cohort_summary()["y"]["windows_served"] == 0.0

    def test_step_failing_head_loses_only_its_own_group(
        self, shared_registry, shared_engines, scenario, monkeypatch
    ):
        engine_x, engine_y = shared_engines
        window = SensorDevice(user=scenario.edge_user, rng=2711).record(
            "walk", 1.0
        ).data[:120]

        def boom(windows):
            raise RuntimeError("model fell over")

        monkeypatch.setattr(engine_y, "infer_features", boom)
        server = FleetServer(shared_registry)
        server.connect("sx", cohort="x")
        server.connect("sy", cohort="y")
        with pytest.raises(RuntimeError, match="fell over"):
            server.step({"sx": window, "sy": window})
        ref = engine_x.infer_windows(window[None, :, :])
        sx = server.session("sx")
        assert sx.windows_seen == 1
        assert sx.last_verdict.activity == ref.names[0]
        assert server.session("sy").windows_seen == 0
        assert server.ticks == 1


class TestMixedCohortStep:
    def test_window_shapes_may_differ_across_cohorts(
        self, scenario, edge
    ):
        """Device classes with different window lengths share a tick."""
        short_pipeline = PreprocessingPipeline(window_len=60)
        short_pipeline.fit_normalizer(scenario.campaign.windows[:, :60])
        short_engine = InferenceEngine(
            edge.embedder, edge.ncm, pipeline=short_pipeline
        )
        registry = ModelRegistry(default_cohort="long")
        registry.publish("long", edge.engine)
        registry.publish("short", short_engine)
        server = FleetServer(registry)
        server.connect("l", cohort="long")
        server.connect("s", cohort="short")
        data = scenario.sensor_device.record("walk", 1.0).data
        verdicts = server.step({"l": data[:120], "s": data[:60]})
        assert set(verdicts) == {"l", "s"}
        # within one cohort's batch, shapes must still agree
        server.connect("l2", cohort="long")
        with pytest.raises(DataShapeError, match="session 'l2'"):
            server.step({"l": data[:120], "l2": data[:60]})

    def test_step_refuses_a_window_of_another_sensor_layout(
        self, registry, scenario
    ):
        """Every cohort reads the one sensor layout, ``N_CHANNELS`` wide."""
        server = FleetServer(registry)
        server.connect("s", cohort="a")
        data = scenario.sensor_device.record("walk", 1.0).data
        with pytest.raises(DataShapeError, match=r"\(120, 22\)"):
            server.step({"s": data[:120, :21]})
        assert server.ticks == 0

    def test_per_cohort_rollups(self, registry, scenario):
        server = FleetServer(registry)
        server.connect_many(["a1", "a2"], cohort="a")
        server.connect("b1", cohort="b")
        window = scenario.sensor_device.record("walk", 1.0).data[:120]
        server.step({"a1": window, "a2": window, "b1": window})
        server.step({"a1": window})
        rollup = server.cohort_summary()
        assert rollup["a"]["sessions"] == 2.0
        assert rollup["a"]["windows_served"] == 3.0
        assert rollup["b"]["sessions"] == 1.0
        assert rollup["b"]["windows_served"] == 1.0
        total = server.summary()
        assert total["windows_served"] == 4.0
        assert (
            rollup["a"]["rejected_windows"] + rollup["b"]["rejected_windows"]
            == total["rejected_windows"]
        )


class TestCohortEvalProtocol:
    def test_per_cohort_rollups_match_single_model_protocol(
        self, registry, engines, scenario
    ):
        engine_a, engine_b = engines
        segments = {
            "a": [
                ("walk", scenario.sensor_device.record("walk", 3.0).data),
                ("run", scenario.sensor_device.record("run", 3.0).data),
            ],
            "b": [
                (
                    "gesture_hi",
                    scenario.sensor_device.record("gesture_hi", 3.0).data,
                ),
            ],
        }
        result = run_cohort_stream_protocol(registry, segments)
        for cohort, engine in (("a", engine_a), ("b", engine_b)):
            ref = run_stream_protocol(engine, segments[cohort])
            got = result.cohort(cohort)
            assert got.n_windows == ref.n_windows
            assert got.overall_accuracy == pytest.approx(ref.overall_accuracy)
            assert got.per_activity_windows == ref.per_activity_windows
        combined = result.combined
        assert combined.n_windows == sum(
            r.n_windows for r in result.per_cohort.values()
        )
        # exact weighted combination, not an average of averages
        expected = sum(
            r.overall_accuracy * r.n_windows
            for r in result.per_cohort.values()
        ) / combined.n_windows
        assert combined.overall_accuracy == pytest.approx(expected)

    def test_unknown_cohort_and_empty_inputs(self, registry):
        with pytest.raises(ConfigurationError):
            run_cohort_stream_protocol(registry, {})
        with pytest.raises(ConfigurationError, match="chunk_len"):
            run_cohort_stream_protocol(
                registry,
                {"a": [("walk", np.zeros((240, 22)))]},
                chunk_len=0,
            )
        with pytest.raises(UnknownCohortError):
            run_cohort_stream_protocol(
                registry, {"ghost": [("walk", np.zeros((240, 22)))]}
            )
        with pytest.raises(ConfigurationError, match="no segments"):
            run_cohort_stream_protocol(registry, {"a": []})

    def test_missing_cohort_lookup_names_cohorts(self, registry, scenario):
        segments = {
            "a": [("walk", scenario.sensor_device.record("walk", 2.0).data)]
        }
        result = run_cohort_stream_protocol(registry, segments)
        with pytest.raises(ConfigurationError, match="'b'"):
            result.cohort("b")


class TestCohortProvisioning:
    """A device is provisioned from a cohort with
    ``EdgeDevice().install(registry.package_for(cohort))``."""

    def test_provisions_from_registry(self, scenario):
        registry = ModelRegistry(default_cohort="wrist")
        registry.publish("wrist", scenario.package)
        device = EdgeDevice()
        device.install(registry.package_for())
        assert device.is_ready
        assert device.footprint_bytes() > 0

    def test_bare_engine_raises(self, edge):
        registry = ModelRegistry(default_cohort="wrist")
        registry.publish("wrist", edge.engine)
        with pytest.raises(ConfigurationError, match="bare engine"):
            registry.package_for("wrist")

    def test_unknown_cohort_raises(self, scenario):
        registry = ModelRegistry()
        registry.publish(DEFAULT_COHORT, scenario.package)
        with pytest.raises(UnknownCohortError):
            registry.package_for("ghost")

    def test_learning_on_a_provisioned_device_leaves_the_cohort(
        self, scenario
    ):
        """``install`` takes ownership of its package; ``package_for``
        hands out a copy, so personalising the device changes nothing the
        registry serves."""
        registry = ModelRegistry(default_cohort="wrist")
        registry.publish("wrist", scenario.package)
        engine = registry.engine_for("wrist")
        windows = SensorDevice(rng=5).record("walk", 6.0).data.reshape(6, 120, 22)
        before = engine.infer_windows(windows)
        package = scenario.package

        def published():
            return [
                {name: arr.tobytes() for name, arr in arrays.items()}
                for arrays in (
                    package.support_set.to_arrays(),
                    package.embedder.network.state_dict(),
                )
            ]

        support_and_weights = published()
        device = EdgeDevice(rng=3)
        device.install(registry.package_for("wrist"))
        recorder = SensorDevice(user=scenario.edge_user, rng=2024)
        device.learn_activity("gesture_hi", recorder.record("gesture_hi", 20.0))
        assert "gesture_hi" in device.classes
        after = registry.engine_for("wrist").infer_windows(windows)
        assert registry.engine_for("wrist") is engine
        assert after.names == before.names
        assert np.array_equal(after.distances, before.distances)
        assert "gesture_hi" not in engine.class_names
        assert published() == support_and_weights

    def test_provisioned_device_matches_the_cohort_engine(self, scenario):
        registry = ModelRegistry(default_cohort="wrist")
        registry.publish("wrist", scenario.package)
        device = EdgeDevice()
        device.install(registry.package_for("wrist"))
        windows = SensorDevice(rng=5).record("walk", 6.0).data.reshape(6, 120, 22)
        ours = device.infer_windows(windows[:6])
        theirs = registry.engine_for("wrist").infer_windows(windows[:6])
        assert ours.names == theirs.names
        np.testing.assert_array_equal(ours.distances, theirs.distances)
