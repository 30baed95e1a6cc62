"""Tests for async fleet serving (AsyncFleetServer, ticks on the loop).

The acceptance bar: ``await step_stream``/``await step`` produce verdicts
identical (1e-9) to the synchronous ``FleetServer`` at any stride/chunking
— with every batched engine call on the event-loop thread — and the
serving semantics hold: gathered ticks of one session serve in call
order, hot-swap ``publish`` leaves open streams pinned, one model failing
never loses another cohort's windows, and the deprecated ``workers`` /
``max_inflight`` keywords warn and change nothing.
"""

import asyncio
import copy
import inspect
import threading
import warnings
from collections import Counter

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    DataShapeError,
    UnknownCohortError,
)
from repro.sensors import SensorDevice
from repro.serving import AsyncFleetServer, FleetServer, ModelRegistry

PARITY = dict(rtol=0.0, atol=1e-9)
WINDOW = 120  # the default pipeline window length


@pytest.fixture
def engines(scenario):
    """Two distinct engines: the base package and a 6-class variant."""
    edge_a = scenario.fresh_edge(rng=1)
    edge_b = scenario.fresh_edge(rng=2)
    edge_b.learn_activity(
        "gesture_hi", scenario.sensor_device.record("gesture_hi", 20.0)
    )
    return edge_a.engine, edge_b.engine


@pytest.fixture
def registry(engines):
    engine_a, engine_b = engines
    reg = ModelRegistry(default_cohort="a")
    reg.publish("a", engine_a)
    reg.publish("b", engine_b)
    return reg


def drive(coro):
    """Run one async test body with a safety timeout."""
    async def bounded():
        return await asyncio.wait_for(coro, timeout=60)

    return asyncio.run(bounded())


def _verdict_tuples(verdicts):
    return [
        (v.activity, v.display, round(v.confidence, 12), v.accepted)
        for v in verdicts
    ]


class TestVerdictParity:
    @pytest.mark.parametrize("stride_map", [None, {"a": WINDOW, "b": 60}])
    def test_step_stream_parity_with_sync_server_ragged_ticks(
        self, registry, engines, scenario, stride_map
    ):
        """Async == sync at strides {w, w/2}, ragged 1-sample ticks incl."""
        data = scenario.sensor_device.record("walk", 8.0).data
        session_ids = ["a1", "a2", "b1"]
        cohorts = {"a1": "a", "a2": "a", "b1": "b"}
        # ragged tick sizes, including 1-sample ticks straddling windows
        sizes = [1, 119, 1, 179, 240, 60, 1, 1, 358]

        def ticks():
            start = 0
            for size in sizes:
                yield data[start : start + size]
                start += size

        sync_server = FleetServer(registry)
        for sid in session_ids:
            sync_server.connect(sid, cohort=cohorts[sid])
        sync_got = {sid: [] for sid in session_ids}
        for chunk in ticks():
            tick = sync_server.step_stream(
                {sid: chunk for sid in session_ids}, stride=stride_map
            )
            for sid, verdicts in tick.items():
                sync_got[sid].extend(verdicts)
        for sid in session_ids:
            sync_got[sid].extend(sync_server.finish_stream(sid))

        async def run():
            got = {sid: [] for sid in session_ids}
            async with AsyncFleetServer(registry) as server:
                for sid in session_ids:
                    server.connect(sid, cohort=cohorts[sid])
                for chunk in ticks():
                    tick = await server.step_stream(
                        {sid: chunk for sid in session_ids},
                        stride=stride_map,
                    )
                    for sid, verdicts in tick.items():
                        got[sid].extend(verdicts)
                for sid in session_ids:
                    got[sid].extend(await server.finish_stream(sid))
                return got, server.summary(), server.cohort_summary()

        async_got, summary, cohort_summary = drive(run())
        for sid in session_ids:
            assert _verdict_tuples(async_got[sid]) == _verdict_tuples(
                sync_got[sid]
            )
            np.testing.assert_allclose(
                [v.confidence for v in async_got[sid]],
                [v.confidence for v in sync_got[sid]],
                **PARITY,
            )
        sync_summary = sync_server.summary()
        assert summary["windows_served"] == sync_summary["windows_served"]
        assert summary["ticks"] == sync_summary["ticks"]
        assert (
            cohort_summary["a"]["windows_served"]
            == sync_server.cohort_summary()["a"]["windows_served"]
        )

    def test_step_parity_with_sync_server(self, registry, scenario):
        window = scenario.sensor_device.record("walk", 1.0).data[:WINDOW]
        sync_server = FleetServer(registry)
        sync_server.connect_many(["a1", "a2"], cohort="a")
        sync_server.connect("b1", cohort="b")
        sync_tick = sync_server.step(
            {"a1": window, "a2": window, "b1": window}
        )

        async def run():
            async with AsyncFleetServer(registry) as server:
                server.connect_many(["a1", "a2"], cohort="a")
                server.connect("b1", cohort="b")
                return await server.step(
                    {"a1": window, "a2": window, "b1": window}
                )

        async_tick = drive(run())
        assert set(async_tick) == set(sync_tick)
        for sid, verdict in async_tick.items():
            assert verdict.activity == sync_tick[sid].activity
            assert verdict.accepted == sync_tick[sid].accepted
            assert verdict.confidence == pytest.approx(
                sync_tick[sid].confidence, abs=1e-9
            )


def _tick_tasks(*coros):
    """Schedule ticks as tasks, in this order, before any of them runs."""
    return [asyncio.ensure_future(coro) for coro in coros]


class TestOneTickInFlight:
    """A tick never suspends, so ticks cannot overlap: no admission queue,
    no per-session locks, and call order is serving order."""

    def test_gathered_ticks_of_one_session_serve_in_call_order(
        self, registry, engines, scenario
    ):
        data = scenario.sensor_device.record("walk", 5.0).data

        async def run():
            async with AsyncFleetServer(registry) as server:
                server.connect("s", cohort="a")
                ticks = await asyncio.gather(*_tick_tasks(
                    server.step_stream({"s": data[:300]}),
                    server.step_stream({"s": data[300:600]}),
                    server.finish_stream("s"),
                ))
                return ticks[0]["s"] + ticks[1]["s"] + ticks[2], server.ticks

        got, ticks = drive(run())
        ref = engines[0].infer_stream(data[:600])
        assert ticks == 2
        assert [v.activity for v in got] == ref.names
        np.testing.assert_allclose(
            [v.confidence for v in got], ref.confidences, **PARITY
        )

    def test_gathered_ticks_overflow_nothing(self, registry, scenario):
        """Twelve ticks at once: every one served, nothing refused."""
        data = scenario.sensor_device.record("walk", 2.0).data
        sids = [f"s{i}" for i in range(12)]

        async def run():
            async with AsyncFleetServer(registry) as server:
                for i, sid in enumerate(sids):
                    server.connect(sid, cohort="ab"[i % 2])
                ticks = await asyncio.gather(*_tick_tasks(
                    *(server.step_stream({sid: data}) for sid in sids)
                ))
                return ticks, server.summary()

        ticks, summary = drive(run())
        assert [len(tick[sid]) for tick, sid in zip(ticks, sids)] == [2] * 12
        assert summary["ticks"] == 12 and summary["windows_served"] == 24

    def test_disconnect_between_gathered_ticks_is_clean(
        self, registry, scenario
    ):
        """A session disconnected before its scheduled tick runs is simply
        not connected: that tick raises, the next session's tick serves."""
        data = scenario.sensor_device.record("walk", 2.0).data

        async def run():
            async with AsyncFleetServer(registry) as server:
                server.connect("gone", cohort="a")
                server.connect("kept", cohort="b")
                doomed, kept = _tick_tasks(
                    server.step_stream({"gone": data}),
                    server.step_stream({"kept": data}),
                )
                server.disconnect("gone")  # neither tick has started yet
                with pytest.raises(ConfigurationError, match="not connected"):
                    await doomed
                return (await kept)["kept"], set(server.sessions)

        kept, sessions = drive(run())
        assert len(kept) == 2 and sessions == {"kept"}


class TestDeprecatedKnobs:
    """``workers`` / ``max_inflight`` outlive the pool by one release."""

    @pytest.mark.parametrize("knobs", [
        {"workers": 2},
        {"max_inflight": 8},
        {"workers": 2, "max_inflight": 8},
    ])
    def test_knobs_warn_and_serve_the_same_verdicts(
        self, registry, scenario, knobs
    ):
        data = scenario.sensor_device.record("walk", 3.0).data

        async def serve(server):
            async with server:
                server.connect("a1", cohort="a")
                server.connect("b1", cohort="b")
                got = await server.step_stream({"a1": data, "b1": data})
                got["a1"] += await server.finish_stream("a1")
                return {sid: _verdict_tuples(v) for sid, v in got.items()}

        expected = drive(serve(AsyncFleetServer(registry)))
        with pytest.warns(DeprecationWarning, match="no effect"):
            server = AsyncFleetServer(registry, **knobs)
        assert drive(serve(server)) == expected

    def test_knobs_are_keyword_only(self, registry):
        with pytest.raises(TypeError):
            AsyncFleetServer(registry, None, 2)

    def test_no_knob_no_warning(self, registry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            AsyncFleetServer(registry)


class TestHotSwapRace:
    def test_windowed_step_resolves_latest_publication(
        self, engines, scenario
    ):
        engine_v1, engine_v2 = engines
        registry = ModelRegistry(default_cohort="a")
        registry.publish("a", engine_v1)
        window = scenario.sensor_device.record("walk", 1.0).data[:WINDOW]

        async def run():
            async with AsyncFleetServer(registry) as server:
                server.connect("s")
                await server.step({"s": window})
                registry.publish("a", engine_v2)
                return await server.step({"s": window})

        verdict = drive(run())["s"]
        ref = engine_v2.infer_windows(window[None, :, :])
        assert verdict.activity == ref.names[0]

    def test_registry_handles_track_publications(
        self, registry, engines, scenario
    ):
        """A stream opened after ``publish`` binds the new version's engine."""
        engine_a, engine_b = engines
        data = scenario.sensor_device.record("walk", 3.0).data

        async def run():
            async with AsyncFleetServer(registry) as server:
                session = server.connect("s", cohort="a")
                await server.step_stream({"s": data})
                assert session.stream.engine is engine_a
                await server.finish_stream("s")
                registry.publish("a", engine_b)
                got = await server.step_stream({"s": data})
                assert session.stream.engine is engine_b
                with pytest.raises(UnknownCohortError):
                    server.connect("g", cohort="ghost")
                return got["s"], server.n_sessions

        verdicts, n_sessions = drive(run())
        assert registry.version("a") == 2 and registry.version("b") == 1
        assert [v.activity for v in verdicts] == (
            engine_b.infer_stream(data).names
        )
        assert n_sessions == 1


class TestFailureIsolation:
    def test_failing_model_keeps_other_cohorts_and_accounting(
        self, registry, engines, scenario, monkeypatch
    ):
        engine_a, engine_b = engines
        data = scenario.sensor_device.record("walk", 4.0).data

        def boom(features):
            raise RuntimeError("model fell over")

        async def run():
            async with AsyncFleetServer(registry) as server:
                server.connect("a1", cohort="a")
                server.connect("b1", cohort="b")
                await server.step_stream({"a1": data[:200], "b1": data[:200]})
                monkeypatch.setattr(engine_b, "infer_features", boom)
                with pytest.raises(RuntimeError, match="fell over"):
                    await server.step_stream(
                        {"a1": data[200:360], "b1": data[200:360]}
                    )
                # cohort a's verdicts were folded before the re-raise
                a1 = server.session("a1")
                assert a1.windows_seen == 3
                assert server.cohort_summary()["a"]["windows_served"] == 3.0
                assert server.ticks == 2  # the failing tick still served a
                monkeypatch.undo()
                server.session("b1").reset()
                more = await server.step_stream(
                    {"a1": data[360:480], "b1": data[:240]}
                )
                assert len(more["a1"]) == 1 and len(more["b1"]) == 2
                return a1.windows_seen

        assert drive(run()) == 4

    def test_all_models_failing_leaves_tick_counters_untouched(
        self, registry, engines, scenario, monkeypatch
    ):
        engine_a, engine_b = engines
        data = scenario.sensor_device.record("walk", 2.0).data

        def boom(features):
            raise RuntimeError("model fell over")

        async def run():
            async with AsyncFleetServer(registry) as server:
                server.connect("a1", cohort="a")
                server.connect("b1", cohort="b")
                monkeypatch.setattr(engine_a, "infer_features", boom)
                monkeypatch.setattr(engine_b, "infer_features", boom)
                with pytest.raises(RuntimeError):
                    await server.step_stream({"a1": data, "b1": data})
                assert server.ticks == 0
                assert server.serve_ms == 0.0
                assert server.summary()["windows_served"] == 0.0
                return True

        assert drive(run())


async def _settle(result):
    """A sync server's return value, or an async server's awaited one."""
    return await result if inspect.isawaitable(result) else result


def _drive_either(kind, registry, body):
    """Run ``async body(server)`` against a sync or an async server."""
    async def run():
        if kind == "sync":
            return await body(FleetServer(registry))
        async with AsyncFleetServer(registry) as server:
            return await body(server)

    return drive(run())


def _serving_state(server):
    """Everything a served window moves: counters, rollups, sessions."""
    return (
        server.summary(),
        server.cohort_summary(),
        {
            sid: (s.windows_seen, s.rejected_windows, s.last_verdict)
            for sid, s in server.sessions.items()
        },
    )


class _FeaturizeFails:
    """A pipeline whose windowed featurize raises; all else delegates."""

    def __init__(self, pipeline):
        self._pipeline = pipeline

    def __getattr__(self, name):
        return getattr(self._pipeline, name)

    def process_windows(self, windows):
        raise RuntimeError("featurize fell over")


class _NormalizerFails:
    """A fitted normalizer whose ``fail_on``-th row transform raises."""

    def __init__(self, normalizer, fail_on):
        self._normalizer = normalizer
        self._fail_on = fail_on
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._normalizer, name)

    def transform_rows(self, rows):
        self.calls += 1
        if self.calls == self._fail_on:
            raise RuntimeError("featurize fell over")
        return self._normalizer.transform_rows(rows)


@pytest.mark.parametrize("kind", ["sync", "async"])
class TestOneTickCore:
    """Both servers plan, run and fold a tick with the same code."""

    def test_step_refuses_non_finite_windows(self, kind, registry, scenario):
        window = scenario.sensor_device.record("walk", 1.0).data[:WINDOW]
        poisoned = window.copy()
        poisoned[3, 5] = np.nan

        async def body(server):
            server.connect("a", cohort="a")
            server.connect("b", cohort="b")
            await _settle(server.step({"a": window, "b": window}))
            before = _serving_state(server)
            with pytest.raises(DataShapeError, match="'b'.*non-finite"):
                await _settle(server.step({"a": window, "b": poisoned}))
            assert _serving_state(server) == before

        _drive_either(kind, registry, body)

    def test_step_featurize_failure_loses_only_its_own_group(
        self, kind, registry, engines, scenario, monkeypatch
    ):
        engine_a, engine_b = engines
        window = scenario.sensor_device.record("walk", 1.0).data[:WINDOW]
        monkeypatch.setattr(
            engine_b, "pipeline", _FeaturizeFails(engine_b.pipeline)
        )

        async def body(server):
            server.connect("a1", cohort="a")
            server.connect("b1", cohort="b")
            with pytest.raises(RuntimeError, match="featurize fell over"):
                await _settle(server.step({"a1": window, "b1": window}))
            assert server.ticks == 1
            return server.session("a1"), server.session("b1")

        a1, b1 = _drive_either(kind, registry, body)
        ref = engine_a.infer_windows(window[None, :, :])
        assert a1.windows_seen == 1
        assert a1.last_verdict.activity == ref.names[0]
        assert b1.windows_seen == 0

    def test_step_stream_featurize_failure_keeps_other_cohorts_whole(
        self, kind, registry, engines, scenario, monkeypatch
    ):
        """Cohort b's featurize raises on tick 4 of 10: the tick re-raises
        it, yet cohort a's verdicts over the whole recording are still its
        ``infer_stream`` — its window of that tick was not dropped."""
        engine_a, engine_b = engines
        pipeline_b = copy.deepcopy(engine_b.pipeline)  # b's alone
        pipeline_b.normalizer = _NormalizerFails(pipeline_b.normalizer, 4)
        monkeypatch.setattr(engine_b, "pipeline", pipeline_b)
        data = scenario.sensor_device.record("walk", 10.0).data
        chunks = [data[i * WINDOW : (i + 1) * WINDOW] for i in range(10)]

        async def body(server):
            server.connect("a1", cohort="a")
            server.connect("b1", cohort="b")
            a1 = server.session("a1")
            got, raised = [], []
            for tick, chunk in enumerate(chunks):
                seen = a1.windows_seen
                try:
                    served = await _settle(
                        server.step_stream({"a1": chunk, "b1": chunk})
                    )
                except RuntimeError as exc:
                    raised.append((tick, str(exc)))
                    # the re-raise loses the tick's return value, not
                    # what a1 observed: every window it consumed
                    stream = a1.stream
                    assert stream.windows_inferred == stream.state.windows_out
                    if a1.windows_seen > seen:
                        got.append(a1.last_verdict)
                    continue
                got.extend(served["a1"])
            got.extend(await _settle(server.finish_stream("a1")))
            return got, raised, server.session("b1").windows_seen, server.ticks

        got, raised, b_seen, ticks = _drive_either(kind, registry, body)
        ref = engine_a.infer_stream(data)
        assert raised == [(3, "featurize fell over")]
        assert np.array_equal([v.activity for v in got], ref.names)
        assert np.array_equal([v.accepted for v in got], ref.accepted)
        np.testing.assert_allclose(
            [v.confidence for v in got], ref.confidences, **PARITY
        )
        assert b_seen == 9  # b lost only the failing tick's window
        assert ticks == 10  # the failing tick still served cohort a


def _recording_threads(monkeypatch, engines, threads):
    """Append the calling thread of every batched engine call to ``threads``."""
    for engine in engines:
        for method in ("infer_features", "infer_windows"):
            original = getattr(engine, method)

            def recorded(array, _original=original):
                threads.append(threading.current_thread())
                return _original(array)

            monkeypatch.setattr(engine, method, recorded)


class TestEngineCallsOnTheLoop:
    """Every engine call of a tick runs inline on the event-loop thread."""

    def test_engine_calls_run_on_the_loop_thread(
        self, registry, engines, scenario, monkeypatch
    ):
        """step/step_stream/finish_stream call the engines on the loop."""
        data = scenario.sensor_device.record("walk", 3.0).data
        window = data[:WINDOW]

        async def serve(server):
            server.connect("a1", cohort="a")
            server.connect("b1", cohort="b")
            windowed = await _settle(server.step({"a1": window, "b1": window}))
            streamed = await _settle(
                server.step_stream({"a1": data, "b1": data})
            )
            flushed = await _settle(server.finish_stream("a1"))
            return (
                {sid: _verdict_tuples([v]) for sid, v in windowed.items()},
                {sid: _verdict_tuples(v) for sid, v in streamed.items()},
                _verdict_tuples(flushed),
            )

        expected = _drive_either("sync", registry, serve)
        threads = []
        _recording_threads(monkeypatch, engines, threads)
        assert _drive_either("async", registry, serve) == expected
        assert len(threads) >= 4  # one call per model on step + step_stream
        assert set(threads) == {threading.current_thread()}


def _counting_submit(monkeypatch, engines, submitted):
    """Record ``(engine, method, dtype)`` for every batched engine call.

    A tick's calls run one per group in plan order; the tests compare a
    tick's calls as a ``Counter`` where that order is not the point.
    """
    for engine in engines:
        for method in ("infer_features", "infer_windows"):
            original = getattr(engine, method)

            def counted(array, dtype=None, _engine=engine, _method=method,
                        _original=original):
                submitted.append((_engine, _method, dtype))
                if dtype is None:
                    return _original(array)
                return _original(array, dtype=dtype)

            monkeypatch.setattr(engine, method, counted)


class TestBackboneFusionAsync:
    """Same-backbone cohorts, the layout thread-mode fusion once merged.

    Fusion is gone: distinct engines over one backbone fan out one call
    each per tick, and each fails or hot-swaps alone.
    """

    @pytest.fixture
    def shared_engines(self, scenario):
        """Two cohort heads over byte-identical backbone clones."""
        engine_x = scenario.fresh_edge(rng=1).engine
        engine_y = scenario.fresh_edge(rng=3).engine
        assert engine_x is not engine_y
        assert (
            engine_x.embedder.backbone().fingerprint
            == engine_y.embedder.backbone().fingerprint
        )
        return engine_x, engine_y

    @pytest.fixture
    def shared_registry(self, shared_engines):
        engine_x, engine_y = shared_engines
        reg = ModelRegistry(default_cohort="x")
        reg.publish("x", engine_x)
        reg.publish("y", engine_y)
        return reg

    @staticmethod
    def _assert_one_call_per_engine_and_parity(
        registry, engines, scenario, monkeypatch
    ):
        """Each tick submits one batched call per engine."""
        engine_x, engine_y = engines
        device = SensorDevice(user=scenario.edge_user, rng=2704)
        data = device.record("walk", 3.0).data
        window = device.record("run", 1.0).data[:WINDOW]
        refs = {"sx": engine_x.infer_stream(data),
                "sy": engine_y.infer_stream(data)}
        window_refs = {"sx": engine_x.infer_windows(window[None, :, :]),
                       "sy": engine_y.infer_windows(window[None, :, :])}
        submitted = []

        async def run():
            async with AsyncFleetServer(registry) as server:
                _counting_submit(monkeypatch, engines, submitted)
                server.connect("sx", cohort="x")
                server.connect("sy", cohort="y")
                streamed = await server.step_stream({"sx": data, "sy": data})
                stream_calls = list(submitted)
                submitted.clear()
                windowed = await server.step({"sx": window, "sy": window})
                return streamed, stream_calls, windowed

        got, stream_calls, windowed = drive(run())
        assert Counter(stream_calls) == Counter([
            (engine_x, "infer_features", None),
            (engine_y, "infer_features", None),
        ])
        assert Counter(submitted) == Counter([
            (engine_x, "infer_windows", None),
            (engine_y, "infer_windows", None),
        ])
        for sid in ("sx", "sy"):
            assert [v.activity for v in got[sid]] == refs[sid].names
            np.testing.assert_allclose(
                [v.confidence for v in got[sid]],
                refs[sid].confidences,
                **PARITY,
            )
            assert windowed[sid].activity == window_refs[sid].names[0]
            assert windowed[sid].confidence == pytest.approx(
                window_refs[sid].confidences[0], abs=1e-9
            )

    def test_one_call_per_engine_and_parity(
        self, shared_registry, shared_engines, scenario, monkeypatch
    ):
        self._assert_one_call_per_engine_and_parity(
            shared_registry, shared_engines, scenario, monkeypatch
        )

    def test_cohorts_sharing_an_engine_share_one_submission(
        self, shared_engines, scenario, monkeypatch
    ):
        """Both async entry points group by engine object, not by cohort."""
        engine_x, _ = shared_engines
        registry = ModelRegistry(default_cohort="x")
        registry.publish("x", engine_x)
        registry.publish("z", engine_x)  # same engine object, two cohorts
        device = SensorDevice(user=scenario.edge_user, rng=2712)
        data = device.record("walk", 2.0).data
        window = device.record("walk", 1.0).data[:WINDOW]
        submitted = []

        async def run():
            async with AsyncFleetServer(registry) as server:
                _counting_submit(monkeypatch, [engine_x], submitted)
                server.connect("sx", cohort="x")
                server.connect("sz", cohort="z")
                streamed = await server.step_stream({"sx": data, "sz": data})
                windowed = await server.step({"sx": window, "sz": window})
                return streamed, windowed, server.cohort_summary()

        streamed, windowed, rollups = drive(run())
        assert submitted == [
            (engine_x, "infer_features", None),
            (engine_x, "infer_windows", None),
        ]
        assert len(streamed["sx"]) == len(streamed["sz"]) == 2
        assert windowed["sx"].activity == windowed["sz"].activity
        assert rollups["z"]["windows_served"] == 3.0

    def test_zero_window_group_makes_no_submission(
        self, shared_registry, shared_engines, scenario, monkeypatch
    ):
        """A model whose sessions completed no window this tick is skipped."""
        engine_x, engine_y = shared_engines
        data = SensorDevice(user=scenario.edge_user, rng=2713).record(
            "walk", 3.0
        ).data
        submitted = []

        async def run():
            async with AsyncFleetServer(shared_registry) as server:
                _counting_submit(monkeypatch, shared_engines, submitted)
                server.connect("sx", cohort="x")
                server.connect("sy", cohort="y")
                first = await server.step_stream(
                    {"sx": data[:240], "sy": data[:50]}
                )
                first_calls = list(submitted)
                more = await server.step_stream({"sy": data[50:360]})
                return first, first_calls, more

        first, first_calls, more = drive(run())
        assert first_calls == [(engine_x, "infer_features", None)]
        assert submitted == first_calls + [(engine_y, "infer_features", None)]
        assert first["sy"] == [] and len(first["sx"]) == 2
        got_y = first["sy"] + more["sy"]
        ref = engine_y.infer_stream(data[:360])
        assert [v.activity for v in got_y] == ref.names
        np.testing.assert_allclose(
            [v.confidence for v in got_y], ref.confidences, **PARITY
        )

    def test_float32_session_gets_its_own_submission(
        self, shared_engines, scenario, monkeypatch
    ):
        """One engine, two compute dtypes: one call per ``(engine, dtype)``."""
        engine_x, _ = shared_engines
        data = SensorDevice(user=scenario.edge_user, rng=2714).record(
            "walk", 3.0
        ).data
        submitted = []

        async def run():
            async with AsyncFleetServer(engine_x) as server:
                _counting_submit(monkeypatch, [engine_x], submitted)
                server.connect("s64")
                server.connect("s32", dtype=np.float32)
                return await server.step_stream({"s64": data, "s32": data})

        got = drive(run())
        assert Counter(submitted) == Counter([
            (engine_x, "infer_features", None),
            (engine_x, "infer_features", np.float32),
        ])
        for sid, dtype, atol in (("s64", None, 1e-9), ("s32", np.float32, 1e-5)):
            ref = engine_x.infer_stream(data, dtype=dtype)
            assert [v.activity for v in got[sid]] == ref.names
            np.testing.assert_allclose(
                [v.confidence for v in got[sid]],
                ref.confidences,
                rtol=0.0,
                atol=atol,
            )

    @pytest.mark.parametrize("entry", ["step_stream", "step"])
    def test_failing_head_loses_only_its_own_group(
        self, entry, shared_registry, shared_engines, scenario, monkeypatch
    ):
        """One cohort's engine raising leaves its same-backbone sibling whole."""
        engine_x, engine_y = shared_engines
        data = SensorDevice(user=scenario.edge_user, rng=2715).record(
            "walk", 2.0
        ).data
        tick = (
            {"sx": data, "sy": data}
            if entry == "step_stream"
            else {"sx": data[:WINDOW], "sy": data[:WINDOW]}
        )
        ref = (
            engine_x.infer_stream(data)
            if entry == "step_stream"
            else engine_x.infer_windows(data[None, :WINDOW, :])
        )

        def boom(features):
            raise RuntimeError("model fell over")

        async def run():
            async with AsyncFleetServer(shared_registry) as server:
                server.connect("sx", cohort="x")
                server.connect("sy", cohort="y")
                monkeypatch.setattr(
                    engine_y,
                    "infer_features" if entry == "step_stream"
                    else "infer_windows",
                    boom,
                )
                with pytest.raises(RuntimeError, match="fell over"):
                    await getattr(server, entry)(tick)
                assert server.ticks == 1
                return server.session("sx"), server.session("sy")

        sx, sy = drive(run())
        assert sx.windows_seen == len(ref.names)
        assert sx.last_verdict.activity == ref.names[-1]
        assert sy.windows_seen == 0

    def test_hot_swap_head_does_not_rebind_sibling_streams(
        self, shared_registry, shared_engines, scenario
    ):
        """A new head for one cohort leaves its siblings pinned."""
        engine_x, engine_y = shared_engines
        new_y = scenario.fresh_edge(rng=4).engine
        data = SensorDevice(user=scenario.edge_user, rng=2705).record(
            "walk", 4.0
        ).data

        async def run():
            got_x = []
            async with AsyncFleetServer(shared_registry) as server:
                server.connect("sx", cohort="x")
                server.connect("sy", cohort="y")
                first = await server.step_stream(
                    {"sx": data[:200], "sy": data[:200]}
                )
                got_x.extend(first["sx"])
                shared_registry.publish("y", new_y)  # same backbone
                more = await server.step_stream(
                    {"sx": data[200:440], "sy": data[200:440]}
                )
                got_x.extend(more["sx"])
                assert server.session("sx").stream.engine is engine_x
                assert server.session("sy").stream.engine is engine_y
                await server.finish_stream("sy")
                await server.step_stream({"sy": data[:240]})
                assert server.session("sy").stream.engine is new_y
            return got_x

        got_x = drive(run())
        ref = engine_x.infer_stream(data[:440])
        assert [v.activity for v in got_x] == ref.names
        np.testing.assert_allclose(
            [v.confidence for v in got_x], ref.confidences, **PARITY
        )
