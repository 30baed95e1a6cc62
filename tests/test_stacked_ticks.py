"""Stacked ticks: one featurize pass per group, the same rows as alone.

Two contracts on top of the 1e-9 chunked-stream parity of
``test_chunked_stream.py``:

- **Bit-identity.**  Features come from the stacked pass of
  :class:`~repro.preprocessing.streaming.StreamingFeatureExtractor`, where a
  row reads nothing but its own window's samples, however many windows
  the call holds.  The feature rows of a
  stream are therefore ``np.array_equal`` across every chunk schedule
  (ragged, 1-sample) in both denoise modes, and between a session served
  alone and the same session inside a stacked fleet group — sync fleet,
  async fleet and a live TCP gateway.  Verdict scores keep the 1e-9
  budget (the embedder's matrix product does see the batch).
- **One featurize call across cohorts configured alike.**  Cohorts that
  load one package hold distinct but equal pipelines; a tick stacks their
  windows into one denoise + statistics call, and each cohort's rows and
  verdicts are exactly what it is served alone.  A different window
  length, denoiser or dtype gets a call of its own, and a failing shared
  call fails exactly the cohorts that shared it.
- **Non-finite refusal.**  A chunk holding NaN/inf is refused with
  ``DataShapeError`` before any stream state moves: the pipeline state is
  byte-identical after the refusal, a fleet tick refuses whole, and the
  next good chunk continues an uninterrupted stream.
"""

import asyncio
import pickle
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InferenceEngine
from repro.exceptions import ConfigurationError, DataShapeError
from repro.preprocessing import (
    ButterworthLowpass,
    CombinedFeatureExtractor,
    PreprocessingPipeline,
    SpectralFeatureExtractor,
    StreamingFeatureExtractor,
)
from repro.sensors import SensorDevice
from repro.serving import AsyncFleetServer, FleetServer, ModelRegistry
from repro.serving.gateway import GatewayClient, GatewayServer

PARITY = dict(rtol=0.0, atol=1e-9)
W = 120  # the default window length of every pipeline in these tests


def drive(coro):
    """Run one async test body with a safety timeout."""

    async def bounded():
        return await asyncio.wait_for(coro, timeout=60)

    return asyncio.run(bounded())


def _chunks(data, sizes):
    """``data`` cut by ``sizes`` (cycled), the remainder as the last chunk."""
    out, start, i = [], 0, 0
    while start < data.shape[0]:
        size = sizes[i % len(sizes)]
        out.append(data[start : start + size])
        start += size
        i += 1
    return out


def _stream_rows(pipeline, data, sizes, stride, dtype=None):
    """Normalized feature rows of one chunked stream, concatenated."""
    state = pipeline.open_stream(stride=stride, dtype=dtype)
    rows = [pipeline.process_chunk(state, c) for c in _chunks(data, sizes)]
    rows.append(pipeline.finish_stream(state))
    return np.concatenate(rows, axis=0)


@pytest.fixture(scope="module")
def walk():
    """Three devices' recordings, each from its own seeded generator."""
    return [
        np.concatenate(
            [
                SensorDevice(rng=900 + i).record(activity, 3.0).data
                for activity in ("walk", "run", "still")
            ],
            axis=0,
        )
        for i in range(3)
    ]


@pytest.fixture
def served_rows(monkeypatch):
    """Every feature block a fleet tick hands to inference, by session.

    Also records each tick's group sizes under ``"#groups"`` so a test
    can tell that sessions really shared a stacked call.
    """
    rows = defaultdict(list)
    original = FleetServer._featurize_stream_groups

    def recording(self, groups):
        original(self, groups)
        for group in groups.values():
            rows["#groups"].append(len(group.ids))
            for session_id, block in zip(group.ids, group.blocks):
                rows[session_id].append(np.array(block))

    monkeypatch.setattr(FleetServer, "_featurize_stream_groups", recording)
    return rows


# ---------------------------------------------------------------------- #
# bit-identity across chunk schedules
# ---------------------------------------------------------------------- #


class TestRowsAcrossChunkSchedules:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        sizes=st.lists(st.integers(1, 400), min_size=1, max_size=12),
        stride=st.sampled_from([W, 60, 30]),
        dtype=st.sampled_from([None, np.float32]),
    )
    def test_ragged_schedules_are_bit_identical(
        self, fitted_pipeline, seed, sizes, stride, dtype
    ):
        """stride == w denoises per window, stride < w the continuous
        signal: both feed the stacked pass the same samples however the
        recording was cut."""
        data = np.random.default_rng(seed).normal(size=(900, 22))
        data[:, 19] += 1013.25
        whole = _stream_rows(fitted_pipeline, data, [900], stride, dtype)
        ragged = _stream_rows(fitted_pipeline, data, sizes, stride, dtype)
        assert whole.shape[0] > 0
        assert np.array_equal(ragged, whole)

    @pytest.mark.parametrize("stride", [W, 40])
    def test_one_sample_ticks_are_bit_identical(self, fitted_pipeline, rng, stride):
        data = rng.normal(size=(500, 22))
        whole = _stream_rows(fitted_pipeline, data, [500], stride)
        drip = _stream_rows(fitted_pipeline, data, [1], stride)
        assert np.array_equal(drip, whole)

    def test_chunked_rows_equal_the_monolithic_stream(self, fitted_pipeline, rng):
        """...and, per-window denoising being what it is, the
        recording's ``process_stream`` rows bit for bit."""
        data = rng.normal(size=(1000, 22))
        chunked = _stream_rows(fitted_pipeline, data, [77, 1, 300], W)
        assert np.array_equal(chunked, fitted_pipeline.process_stream(data))

    def test_process_chunk_is_fold_then_process_windows(self, fitted_pipeline, rng):
        """The windowed tick is literally the composition the fleet uses."""
        data = rng.normal(size=(400, 22))
        a = fitted_pipeline.open_stream()
        b = fitted_pipeline.open_stream()
        for chunk in _chunks(data, [150, 1, 95]):
            windows = fitted_pipeline.fold_chunk(b, chunk)
            assert windows.shape[1:] == (W, 22)
            assert np.array_equal(
                fitted_pipeline.process_chunk(a, chunk),
                fitted_pipeline.process_windows(windows),
            )
            assert a.samples_in == b.samples_in
            assert a.windows_out == b.windows_out
            assert np.array_equal(a.buffer, b.buffer)

    def test_fold_chunk_refuses_stream_denoise_sessions(self, fitted_pipeline, rng):
        state = fitted_pipeline.open_stream(stride=60)
        with pytest.raises(ConfigurationError):
            fitted_pipeline.fold_chunk(state, rng.normal(size=(W, 22)))


# ---------------------------------------------------------------------- #
# a session alone vs inside a stacked group
# ---------------------------------------------------------------------- #

TICKS = [W, 1, 2 * W - 1, 50, 3 * W, 70]  # ragged, windows straddle ticks


def _tick_schedule(recordings):
    return {
        f"s{i}": _chunks(data, TICKS) for i, data in enumerate(recordings)
    }


def _serve_sync(engine, schedule, **connect):
    server = FleetServer(engine)
    for sid in schedule:
        server.connect(sid, **connect)
    got = {sid: [] for sid in schedule}
    for tick in range(max(len(c) for c in schedule.values())):
        chunks = {
            sid: c[tick] for sid, c in schedule.items() if tick < len(c)
        }
        for sid, verdicts in server.step_stream(chunks).items():
            got[sid].extend(verdicts)
    for sid in schedule:
        got[sid].extend(server.finish_stream(sid))
    return got


async def _serve_async(engine, schedule):
    got = {sid: [] for sid in schedule}
    async with AsyncFleetServer(engine) as server:
        for sid in schedule:
            server.connect(sid)
        for tick in range(max(len(c) for c in schedule.values())):
            chunks = {
                sid: c[tick] for sid, c in schedule.items() if tick < len(c)
            }
            for sid, verdicts in (await server.step_stream(chunks)).items():
                got[sid].extend(verdicts)
        for sid in schedule:
            got[sid].extend(await server.finish_stream(sid))
    return got


async def _serve_gateway(engine, schedule):
    registry = ModelRegistry(default_cohort="a")
    registry.publish("a", engine)
    got = {}
    # Closed-loop clients answer within a tick, so the flusher waits for
    # each of them (for at most the window) and they share every tick.
    async with GatewayServer(registry, batch_window_s=0.05) as gateway:

        async def one(sid, chunk_list):
            async with GatewayClient(gateway.host, gateway.port) as client:
                await client.connect(sid)
                verdicts = []
                for chunk in chunk_list:
                    verdicts.extend(await client.send_chunk(chunk))
                verdicts.extend(await client.finish())
                got[sid] = verdicts

        await asyncio.gather(*(one(s, c) for s, c in schedule.items()))
        ticks = gateway.summary()["ticks"]
    assert ticks == max(len(c) for c in schedule.values())
    return got


def _assert_same_service(
    alone, grouped, rows_alone, rows_grouped, sid="s0", atol=1e-9
):
    assert np.array_equal(
        np.concatenate(rows_grouped[sid]), np.concatenate(rows_alone[sid])
    )
    assert len(alone[sid]) == len(grouped[sid]) > 0
    assert [v.activity for v in alone[sid]] == [v.activity for v in grouped[sid]]
    assert [v.display for v in alone[sid]] == [v.display for v in grouped[sid]]
    assert [v.accepted for v in alone[sid]] == [v.accepted for v in grouped[sid]]
    np.testing.assert_allclose(
        [v.confidence for v in alone[sid]],
        [v.confidence for v in grouped[sid]],
        rtol=0.0,
        atol=atol,
    )


def _alone_then_grouped(serve, walk, served_rows):
    """Serve ``s0`` alone, then inside the three-session schedule."""
    schedule = _tick_schedule(walk)
    alone = serve({"s0": schedule["s0"]})
    rows_alone = {k: list(v) for k, v in served_rows.items()}
    served_rows.clear()
    return alone, serve(schedule), rows_alone


def _assert_rows_equal_process_chunk(edge, schedule, served_rows):
    _serve_sync(edge.engine, schedule)
    for sid, chunk_list in schedule.items():
        state = edge.pipeline.open_stream()
        expect = [edge.pipeline.process_chunk(state, c) for c in chunk_list]
        assert len(served_rows[sid]) == len(expect)
        for got, want in zip(served_rows[sid], expect):
            assert np.array_equal(got, want)


class TestAloneVersusStackedGroup:
    """``s0``'s feature rows do not change when ``s1``/``s2`` share its ticks."""

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_sync_fleet(self, edge, walk, served_rows, dtype):
        alone, grouped, rows_alone = _alone_then_grouped(
            lambda schedule: _serve_sync(edge.engine, schedule, dtype=dtype),
            walk, served_rows,
        )
        assert max(served_rows["#groups"]) == 3
        # the rows are exact in either dtype; the scores then carry the
        # embedder's batch-shaped matrix product at that dtype's epsilon
        _assert_same_service(
            alone, grouped, rows_alone, served_rows,
            atol=1e-9 if dtype is None else 1e-5,
        )

    def test_async_fleet(self, edge, walk, served_rows):
        alone, grouped, rows_alone = _alone_then_grouped(
            lambda schedule: drive(_serve_async(edge.engine, schedule)),
            walk, served_rows,
        )
        assert max(served_rows["#groups"]) == 3
        _assert_same_service(alone, grouped, rows_alone, served_rows)

    def test_live_gateway(self, edge, walk, served_rows):
        alone, grouped, rows_alone = _alone_then_grouped(
            lambda schedule: drive(_serve_gateway(edge.engine, schedule)),
            walk, served_rows,
        )
        assert max(served_rows["#groups"]) >= 2  # ticks really were shared
        _assert_same_service(alone, grouped, rows_alone, served_rows)

    def test_group_rows_equal_per_session_process_chunk(
        self, edge, walk, served_rows
    ):
        """The stacked tick serves what per-session calls would have."""
        _assert_rows_equal_process_chunk(
            edge, _tick_schedule(walk), served_rows
        )

    def test_long_group_rows_equal_per_session_process_chunk(
        self, edge, served_rows
    ):
        """...also when one tick's group completes 3 x 100 windows."""
        schedule = {
            f"s{i}": [SensorDevice(rng=910 + i).record("walk", 100.0).data]
            for i in range(3)
        }
        _assert_rows_equal_process_chunk(edge, schedule, served_rows)
        assert served_rows["#groups"][0] == 3
        assert sum(len(served_rows[sid][0]) for sid in schedule) == 300

    def test_one_featurize_call_per_group(self, edge, walk, monkeypatch):
        """Eight windowed sessions, one tick: one extract call, not eight."""
        calls = []
        streaming = edge.pipeline.streaming_extractor
        original = streaming.extract_read_columns

        def spy(data, window_len, **kwargs):
            out = original(data, window_len, **kwargs)
            calls.append(out.shape[0])
            return out

        monkeypatch.setattr(streaming, "extract_read_columns", spy)
        server = FleetServer(edge.engine)
        server.connect_many([f"d{i}" for i in range(8)])
        out = server.step_stream(
            {f"d{i}": walk[i % 3][: W + i] for i in range(8)}
        )
        assert calls == [8]
        assert all(len(v) == 1 for v in out.values())


# ---------------------------------------------------------------------- #
# mixed groups
# ---------------------------------------------------------------------- #


class TestMixedGroups:
    def test_windowed_and_overlapping_sessions_with_empty_ticks(
        self, edge, walk, served_rows
    ):
        """One engine, one tick: windowed sessions stack, overlapping-stride
        sessions keep their own pass, a chunk too short to complete a
        window contributes zero rows — every block lands in its slot."""
        registry = ModelRegistry(default_cohort="win")
        registry.publish("win", edge.engine)
        registry.publish("hop", edge.engine)  # same engine, other stride
        server = FleetServer(registry)
        server.connect("w0", cohort="win")
        server.connect("h0", cohort="hop")
        server.connect("w1", cohort="win")
        server.connect("w2", cohort="win")
        data = walk[0]
        feeds = {
            "w0": _chunks(data, [W, 2 * W, 10]),
            "h0": _chunks(data, [W + 5, 200]),
            "w1": _chunks(data, [30, W, 1]),  # first tick: no window yet
            "w2": _chunks(data, [3 * W]),
        }
        stride = {"win": W, "hop": 30}
        got = {sid: [] for sid in feeds}
        for tick in range(4):
            chunks = {sid: c[tick] for sid, c in feeds.items() if tick < len(c)}
            for sid, verdicts in server.step_stream(chunks, stride=stride).items():
                got[sid].extend(verdicts)
        assert max(served_rows["#groups"]) == 4  # one (engine, dtype) group
        for sid, chunk_list in feeds.items():
            state = edge.pipeline.open_stream(
                stride=stride["hop" if sid == "h0" else "win"]
            )
            for block, chunk in zip(served_rows[sid], chunk_list[:4]):
                assert np.array_equal(
                    block, edge.pipeline.process_chunk(state, chunk)
                )
            rows = sum(b.shape[0] for b in served_rows[sid])
            assert rows == len(got[sid]) > 0
        assert served_rows["w1"][0].shape == (0, edge.pipeline.n_features)

    @pytest.mark.parametrize("kind", ["spectral", "combined"])
    def test_spectral_and_combined_extractors(self, edge, walk, kind, served_rows):
        """Group stacking runs any extractor: spectral and combined go
        through the window kernel with their own read channels."""
        extractor = SpectralFeatureExtractor()
        if kind == "combined":
            extractor = CombinedFeatureExtractor(
                [StreamingFeatureExtractor(), extractor]
            )
        pipeline = PreprocessingPipeline(extractor=extractor)
        windows = np.stack([d[:W] for d in walk] * 4, axis=0)
        pipeline.fit_normalizer(windows + np.arange(12)[:, None, None])
        assert pipeline.window_kernel().extractor is extractor
        assert len(extractor.read_channels) == (15 if kind == "combined" else 9)
        dim = pipeline.n_features

        class Projection:
            input_dim = dim

            def embed(self, features):
                return np.asarray(features)[:, : edge.ncm.prototypes_.shape[1]]

        engine = InferenceEngine(Projection(), edge.ncm, pipeline=pipeline)
        schedule = _tick_schedule(walk)
        grouped = _serve_sync(engine, schedule)
        for sid, chunk_list in schedule.items():
            state = pipeline.open_stream()
            rows = [pipeline.process_chunk(state, c) for c in chunk_list]
            np.testing.assert_allclose(
                np.concatenate(served_rows[sid]), np.concatenate(rows), **PARITY
            )
            assert len(grouped[sid]) == np.concatenate(rows).shape[0] > 0


# ---------------------------------------------------------------------- #
# one featurize pass across cohorts configured alike
# ---------------------------------------------------------------------- #

COHORTS = ("c0", "c1", "c2")


@pytest.fixture(scope="module")
def package_path(scenario, tmp_path_factory):
    path = tmp_path_factory.mktemp("package") / "package.npz"
    scenario.package.save(path)
    return path


def _package_registry(package_path, cohorts=COHORTS):
    """Every cohort loads its own engine (and pipeline) from one file."""
    registry = ModelRegistry(default_cohort=cohorts[0])
    for cohort in cohorts:
        registry.register_lazy(cohort, package_path)
    return registry


def _spy_calls(monkeypatch, cls, method):
    """Record the row count of every ``cls.method`` call, on any instance."""
    calls = []
    original = getattr(cls, method)

    def spy(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        calls.append(out.shape[0])
        return out

    monkeypatch.setattr(cls, method, spy)
    return calls


def _serve_ticks(server, schedule, calls=None):
    """Serve ``schedule`` tick by tick; with ``calls`` (a spy's list),
    also the number of featurize calls each tick made."""
    got = {sid: [] for sid in schedule}
    per_tick = []
    for tick in range(max(len(c) for c in schedule.values())):
        chunks = {sid: c[tick] for sid, c in schedule.items() if tick < len(c)}
        before = len(calls) if calls is not None else 0
        for sid, verdicts in server.step_stream(chunks).items():
            got[sid].extend(verdicts)
        if calls is not None:
            per_tick.append(len(calls) - before)
    return got, per_tick


def _verdict_rows(verdicts):
    return [(v.activity, v.display, v.accepted, v.confidence) for v in verdicts]


class TestCrossCohortShare:
    """Cohorts whose pipelines are configured alike share one ``raw`` call
    per tick; everything else about their service is what it is alone."""

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_cohorts_of_one_package_share_one_call_and_serve_as_alone(
        self, package_path, walk, served_rows, monkeypatch, dtype
    ):
        registry = _package_registry(package_path)
        pipelines = [registry.engine_for(c).pipeline for c in COHORTS]
        assert len({id(p) for p in pipelines}) == 3
        keys = {p.window_kernel(dtype).key for p in pipelines}
        assert len(keys) == 1
        cohort_of = {f"s{i}": COHORTS[i % 3] for i in range(6)}
        schedule = {
            sid: _chunks(walk[i % 3][i * 7 :], TICKS)
            for i, sid in enumerate(cohort_of)
        }

        def fleet(sids):
            server = FleetServer(registry)
            for sid in sids:
                server.connect(sid, cohort=cohort_of[sid], dtype=dtype)
            return server

        calls = _spy_calls(
            monkeypatch, StreamingFeatureExtractor, "extract_read_columns"
        )
        shared, per_tick = _serve_ticks(fleet(list(schedule)), schedule, calls)
        completed = [
            any(
                served_rows[sid][tick].shape[0]
                for sid in schedule
                if tick < len(served_rows[sid])
            )
            for tick in range(len(per_tick))
        ]
        assert per_tick == [int(done) for done in completed]
        assert sum(per_tick) >= 4
        rows_shared = {sid: list(served_rows[sid]) for sid in schedule}
        for cohort in COHORTS:
            sids = [sid for sid in schedule if cohort_of[sid] == cohort]
            served_rows.clear()
            alone, _ = _serve_ticks(
                fleet(sids), {sid: schedule[sid] for sid in sids}
            )
            for sid in sids:
                assert len(served_rows[sid]) == len(rows_shared[sid])
                for got, want in zip(rows_shared[sid], served_rows[sid]):
                    assert np.array_equal(got, want)
                assert _verdict_rows(shared[sid]) == _verdict_rows(alone[sid])
                assert len(shared[sid]) > 0

    @pytest.mark.parametrize("differs", ["window_len", "denoiser", "float32"])
    def test_a_different_configuration_makes_its_own_call(
        self, package_path, walk, served_rows, monkeypatch, differs
    ):
        registry = _package_registry(package_path)
        odd = registry.engine_for("c2").pipeline
        if differs == "window_len":
            odd.window_len = odd.stride = 100
        elif differs == "denoiser":
            odd.denoiser = ButterworthLowpass(cutoff_hz=20.0)
        server = FleetServer(registry)
        for cohort in COHORTS:
            dtype = np.float32 if differs == "float32" and cohort == "c2" else None
            server.connect(cohort, cohort=cohort, dtype=dtype)
        keys = {
            cohort: server.registry.engine_for(cohort).pipeline.window_kernel(
                np.float32 if differs == "float32" and cohort == "c2" else None
            ).key
            for cohort in COHORTS
        }
        assert keys["c0"] == keys["c1"] != keys["c2"]
        calls = _spy_calls(
            monkeypatch, StreamingFeatureExtractor, "extract_read_columns"
        )
        chunks = {cohort: walk[i][: 2 * W] for i, cohort in enumerate(COHORTS)}
        server.step_stream(chunks)
        assert sorted(calls) == [2, 4]  # c0 + c1 stacked, c2 on its own
        for cohort in COHORTS:
            pipeline = server.session(cohort).stream.engine.pipeline
            state = pipeline.open_stream(dtype=server.session(cohort).dtype)
            want = pipeline.process_chunk(state, chunks[cohort])
            assert np.array_equal(served_rows[cohort][0], want)

    def test_combined_extractors_share_too(
        self, edge, walk, served_rows, monkeypatch
    ):
        """Keys of extractors with no ``config`` (combined) are built from
        their parts: two equal combined pipelines share one call."""
        extractor = CombinedFeatureExtractor(
            [StreamingFeatureExtractor(), SpectralFeatureExtractor()]
        )
        fitted = PreprocessingPipeline(extractor=extractor)
        windows = np.stack([d[:W] for d in walk] * 4, axis=0)
        fitted.fit_normalizer(windows + np.arange(12)[:, None, None])
        dim = fitted.n_features

        class Projection:
            input_dim = dim

            def embed(self, features):
                return np.asarray(features)[:, : edge.ncm.prototypes_.shape[1]]

        registry = ModelRegistry(default_cohort="x")
        pipelines = {}
        for cohort in ("x", "y"):
            pipelines[cohort] = PreprocessingPipeline.from_dict(fitted.to_dict())
            registry.publish(
                cohort,
                InferenceEngine(Projection(), edge.ncm, pipeline=pipelines[cohort]),
            )
        assert (
            pipelines["x"].window_kernel().key
            == pipelines["y"].window_kernel().key
        )
        calls = _spy_calls(
            monkeypatch, CombinedFeatureExtractor, "extract_read_columns"
        )
        server = FleetServer(registry)
        server.connect("x", cohort="x")
        server.connect("y", cohort="y")
        chunks = {"x": walk[0][: W + 5], "y": walk[1][: 3 * W]}
        out = server.step_stream(chunks)
        assert calls == [4]
        assert len(out["x"]) == 1 and len(out["y"]) == 3
        for cohort, chunk in chunks.items():
            state = pipelines[cohort].open_stream()
            np.testing.assert_allclose(
                served_rows[cohort][0],
                pipelines[cohort].process_chunk(state, chunk),
                **PARITY,
            )

    def test_a_failing_shared_call_fails_exactly_the_groups_that_shared_it(
        self, package_path, walk, monkeypatch
    ):
        registry = _package_registry(package_path)
        registry.engine_for("c2").pipeline.denoiser = ButterworthLowpass(
            cutoff_hz=20.0
        )

        def boom(*args, **kwargs):
            raise RuntimeError("statistics fell over")

        server = FleetServer(registry)
        for cohort in COHORTS:
            server.connect(cohort, cohort=cohort)
        for cohort in ("c0", "c1"):
            streaming = registry.engine_for(cohort).pipeline.streaming_extractor
            monkeypatch.setattr(streaming, "extract_read_columns", boom)
        chunks = {cohort: walk[i][:W] for i, cohort in enumerate(COHORTS)}
        verdicts, failures = server.stream_tick(chunks)
        assert list(failures) == ["c0", "c1"]
        assert failures["c0"] is failures["c1"]
        assert str(failures["c0"]) == "statistics fell over"
        assert len(verdicts["c2"]) == 1 and verdicts["c0"] == verdicts["c1"] == []
        assert server.session("c2").windows_seen == 1
        assert server.ticks == 1
        with pytest.raises(RuntimeError, match="statistics fell over"):
            server.step_stream(
                {cohort: walk[i][W : 2 * W] for i, cohort in enumerate(COHORTS)}
            )
        assert server.session("c2").windows_seen == 2

    def test_a_gateway_flush_makes_one_call_across_cohorts(
        self, package_path, walk, monkeypatch
    ):
        """Lockstep clients of three cohorts: one fleet tick and one
        featurize call per flush."""
        registry = _package_registry(package_path)
        calls = _spy_calls(
            monkeypatch, StreamingFeatureExtractor, "extract_read_columns"
        )
        signal = np.concatenate(walk, axis=0)

        async def body():
            async with GatewayServer(registry, batch_window_s=0.05) as gateway:

                async def one(i):
                    async with GatewayClient(gateway.host, gateway.port) as c:
                        await c.connect(f"d{i}", cohort=COHORTS[i % 3])
                        for k in range(8):
                            start = (i + k) * W
                            await c.send_chunk(signal[start : start + W])
                        await c.finish()

                await asyncio.gather(*(one(i) for i in range(6)))
                return gateway.summary()

        summary = drive(body())
        assert summary["ticks"] == summary["flushes"] == len(calls)
        assert summary["windows_served"] == 6 * 8 == sum(calls)


# ---------------------------------------------------------------------- #
# non-finite samples
# ---------------------------------------------------------------------- #


def _state_bytes(state):
    """Everything a refused chunk must leave untouched, as bytes."""
    stream = state.denoiser_stream
    carry = b""
    if stream is not None:
        carry = b"".join(
            value.tobytes() if isinstance(value, np.ndarray)
            else repr(value).encode()
            for _, value in sorted(vars(stream).items())
        )
    buffer = b"" if state.buffer is None else state.buffer.tobytes()
    return (
        buffer, carry, state.samples_in, state.windows_out,
        state.n_channels, state._skip, state.finished,
    )


def _same(chunk):
    return chunk


def _poisoned(chunk, value, column=7):
    bad = chunk.copy()
    bad[chunk.shape[0] // 2, column] = value
    return bad


#: Channels no default feature reads, so never denoised: a non-finite
#: sample there must be refused all the same.
UNREAD = {"rot_w": 15, "prox": 21}


def _assert_refusals_leave_the_stream(
    pipeline, rng, stride, bad_chunk, match="non-finite"
):
    """Each chunk is first sent as ``bad_chunk(chunk)`` and refused with the
    state byte-identical; the clean chunk then continues the stream."""
    data = rng.normal(size=(700, 22))
    chunks = _chunks(data, [130, 200, 90])
    reference = pipeline.open_stream(stride=stride)
    state = pipeline.open_stream(stride=stride)
    for i, chunk in enumerate(chunks):
        want = pipeline.process_chunk(reference, chunk)
        before = _state_bytes(state)
        with pytest.raises(DataShapeError, match=match):
            pipeline.process_chunk(state, bad_chunk(chunk))
        assert _state_bytes(state) == before
        got = pipeline.process_chunk(state, chunk)
        assert np.array_equal(got, want), i
    assert np.array_equal(
        pipeline.finish_stream(state), pipeline.finish_stream(reference)
    )
    return state


def _assert_fleet_tick_refused_whole(edge, walk, column, stride=None):
    """A tick with one poisoned session refuses whole: no session moves,
    and the clean tick then serves what an untouched fleet serves."""
    server = FleetServer(edge.engine)
    reference = FleetServer(edge.engine)
    for fleet in (server, reference):
        fleet.connect_many(["a", "b", "c"])
    first = {sid: walk[i][:170] for i, sid in enumerate("abc")}
    second = {sid: walk[i][170:400] for i, sid in enumerate("abc")}
    server.step_stream(first, stride=stride)
    reference.step_stream(first, stride=stride)
    bad = dict(second, b=_poisoned(second["b"], np.nan, column))
    before = {
        sid: _state_bytes(server.session(sid).stream.state) for sid in "abc"
    }
    ticks, served = server.ticks, server.windows_served
    with pytest.raises(DataShapeError, match="'b'.*non-finite"):
        server.step_stream(bad, stride=stride)
    assert (server.ticks, server.windows_served) == (ticks, served)
    for sid in "abc":
        assert _state_bytes(server.session(sid).stream.state) == before[sid]
    got = server.step_stream(second, stride=stride)
    want = reference.step_stream(second, stride=stride)
    for sid in "abc":
        assert [v.activity for v in got[sid]] == [v.activity for v in want[sid]]
        assert [v.confidence for v in got[sid]] == [
            v.confidence for v in want[sid]
        ]
        assert len(got[sid]) > 0


class TestNonFiniteRefusal:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stride", [W, 40])
    def test_pipeline_state_is_untouched_and_the_stream_continues(
        self, fitted_pipeline, rng, stride, value
    ):
        _assert_refusals_leave_the_stream(
            fitted_pipeline, rng, stride, lambda c: _poisoned(c, value)
        )

    @pytest.mark.parametrize("column", UNREAD.values(), ids=list(UNREAD))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stride", [W, 40])
    def test_unread_channels_are_refused_too(
        self, fitted_pipeline, rng, stride, value, column
    ):
        assert column not in fitted_pipeline.streaming_extractor.read_channels
        _assert_refusals_leave_the_stream(
            fitted_pipeline, rng, stride,
            lambda c: _poisoned(c, value, column),
        )

    @pytest.mark.parametrize("width", [21, 23])
    def test_wrong_width_is_refused_by_a_15_column_stream(
        self, fitted_pipeline, rng, width
    ):
        """The denoiser stream holds only the 15 read columns, yet the
        stream stays locked to the 22-channel layout it was opened on."""
        state = _assert_refusals_leave_the_stream(
            fitted_pipeline, rng, 40,
            lambda c: np.resize(c, (c.shape[0], width)), match="channels",
        )
        assert state.n_channels == 22
        assert state.buffer.shape[1] == 15

    def test_a_pickled_15_column_stream_continues(self, fitted_pipeline, rng):
        data = rng.normal(size=(900, 22))
        state = fitted_pipeline.open_stream(stride=40)
        fitted_pipeline.process_chunk(state, data[:400])
        copy = pickle.loads(pickle.dumps(state))
        for chunk in (data[400:650], data[650:]):
            assert np.array_equal(
                fitted_pipeline.process_chunk(copy, chunk),
                fitted_pipeline.process_chunk(state, chunk),
            )
        assert np.array_equal(
            fitted_pipeline.finish_stream(copy),
            fitted_pipeline.finish_stream(state),
        )

    def test_first_chunk_refusal_does_not_lock_the_channel_count(
        self, fitted_pipeline, rng
    ):
        state = fitted_pipeline.open_stream()
        with pytest.raises(DataShapeError):
            fitted_pipeline.process_chunk(
                state, _poisoned(rng.normal(size=(50, 22)), np.nan)
            )
        assert state.n_channels is None and state.samples_in == 0

    def test_fleet_tick_refuses_whole_before_any_session_advances(
        self, edge, walk
    ):
        _assert_fleet_tick_refused_whole(edge, walk, column=7)

    @pytest.mark.parametrize("column", UNREAD.values(), ids=list(UNREAD))
    @pytest.mark.parametrize("stride", [None, 40])
    def test_fleet_tick_refuses_unread_channels_whole(
        self, edge, walk, stride, column
    ):
        _assert_fleet_tick_refused_whole(edge, walk, column, stride)

    def test_gateway_answers_a_non_fatal_error_frame(self, edge, walk):
        """The poisoned chunk costs one ERROR reply; the connection and
        the session's stream carry on as if it had never been sent."""
        registry = ModelRegistry(default_cohort="a")
        registry.publish("a", edge.engine)
        chunks = _chunks(walk[0][:600], [170, 230, 200])

        async def body():
            async with GatewayServer(registry) as gateway:
                async with GatewayClient(gateway.host, gateway.port) as client:
                    await client.connect("dev")
                    verdicts = list(await client.send_chunk(chunks[0]))
                    with pytest.raises(DataShapeError, match="non-finite"):
                        await client.send_chunk(_poisoned(chunks[1], np.inf))
                    for chunk in chunks[1:]:
                        verdicts.extend(await client.send_chunk(chunk))
                    verdicts.extend(await client.finish())
                    return verdicts

        served = drive(body())
        want = _serve_sync(edge.engine, {"dev": chunks})["dev"]
        assert [v.activity for v in served] == [v.activity for v in want]
        np.testing.assert_allclose(
            [v.confidence for v in served],
            [v.confidence for v in want],
            **PARITY,
        )
        assert len(served) > 0

    def test_a_bad_gateway_client_costs_its_tick_mates_nothing(
        self, edge, walk
    ):
        """Two lockstep clients share one cohort, one stride and so every
        flush; ``b`` poisons 4 of its 20 chunks.  Each bad chunk is refused
        when it arrives: ``b`` gets exactly those 4 ERROR frames, and ``a``
        gets none and is served what it is served alone."""
        registry = ModelRegistry(default_cohort="cohort-0")
        registry.publish("cohort-0", edge.engine)
        signal = np.concatenate(walk, axis=0)
        a_chunks = [signal[i * W : (i + 1) * W] for i in range(20)]
        b_chunks = [signal[(i + 3) * W : (i + 4) * W] for i in range(20)]
        poison = {
            2: lambda c: _poisoned(c, np.nan),
            7: lambda c: _poisoned(c, np.inf),
            11: lambda c: _poisoned(c, -np.inf, column=UNREAD["prox"]),
            16: lambda c: c[:, :21],
        }
        refused = []

        async def body():
            async with GatewayServer(registry, batch_window_s=0.05) as gateway:

                async def client_a():
                    async with GatewayClient(gateway.host, gateway.port) as a:
                        await a.connect("a", stride=W)
                        verdicts = []
                        for chunk in a_chunks:
                            verdicts.extend(await a.send_chunk(chunk))
                        return verdicts + list(await a.finish())

                async def client_b():
                    async with GatewayClient(gateway.host, gateway.port) as b:
                        await b.connect("b", stride=W)
                        for i, chunk in enumerate(b_chunks):
                            try:
                                await b.send_chunk(poison.get(i, _same)(chunk))
                            except DataShapeError as exc:
                                refused.append((i, str(exc)))
                        await b.finish()

                served, _ = await asyncio.gather(client_a(), client_b())
                return served, gateway.summary()["ticks"]

        served, ticks = drive(body())
        assert [i for i, _ in refused] == sorted(poison)
        assert all("session 'b'" in message for _, message in refused)
        assert ticks < 2 * len(a_chunks)  # the clients really shared flushes
        want = _serve_sync(edge.engine, {"a": a_chunks})["a"]
        assert len(served) == len(want) == len(a_chunks)
        assert [(v.activity, v.display, v.accepted) for v in served] == [
            (v.activity, v.display, v.accepted) for v in want
        ]
        np.testing.assert_allclose(
            [v.confidence for v in served],
            [v.confidence for v in want],
            **PARITY,
        )

    def test_check_chunk_raises_what_a_tick_would_and_moves_nothing(
        self, edge, walk
    ):
        server = FleetServer(edge.engine)
        server.connect_many(["a", "b"])
        server.step_stream({"a": walk[0][:170], "b": walk[1][:170]})
        state = server.session("a").stream.state
        before = _state_bytes(state)
        chunk = walk[0][170:400]
        bad_chunks = {
            "non-finite": _poisoned(chunk, np.nan),
            "2-D": chunk[:, 0],
            "expects 22": chunk[:, :21],
        }
        for match, bad in bad_chunks.items():
            with pytest.raises(DataShapeError, match=f"'a'.*{match}"):
                server.check_chunk("a", bad)
            with pytest.raises(DataShapeError, match=f"'a'.*{match}"):
                server.step_stream({"a": bad, "b": walk[1][170:400]})
            assert _state_bytes(state) == before
        with pytest.raises(ConfigurationError, match="mid-stream"):
            server.check_chunk("a", chunk, stride=60)
        checked = server.check_chunk("a", chunk.astype(np.float32))
        assert checked.dtype == np.float64 and checked.shape == chunk.shape
        assert _state_bytes(state) == before
