"""Chunked streaming sessions: carry-over across ticks, zero windows lost.

The contract under test: across *any* split of a recording into chunks —
aligned ticks, ragged ticks, 1-sample ticks — the chunked path
(``pipeline.process_chunk`` / ``engine.infer_chunk`` /
``FleetServer.step_stream``) produces exactly the windows one monolithic
``infer_stream`` call produces, with identical names/labels/accepts and
distances/confidences inside the streaming parity budget.  Plus the
satellite fixes: up-front chunk validation in ``step_stream``, serving
counters only mutated after the batched call succeeds, channel validation
on the zero-window early return, and ``window_count`` argument checks.
"""

import numpy as np
import pytest

from repro.core import HysteresisSmoother, InferenceEngine, StreamSession
from repro.edge_runtime import ResourceAccountant
from repro.eval import run_stream_protocol
from repro.exceptions import ConfigurationError, DataShapeError, NotFittedError
from repro.preprocessing import (
    ButterworthLowpass,
    IdentityFilter,
    MedianFilter,
    MovingAverageFilter,
    PreprocessingPipeline,
    ZeroPhaseIIRStream,
    window_count,
)
from repro.serving import FleetServer

PARITY = dict(rtol=0.0, atol=1e-9)
W = 120  # the default window length of every pipeline in these tests


@pytest.fixture
def recording(scenario):
    return scenario.sensor_device.record("walk", 6.0)


@pytest.fixture
def identity_engine(edge):
    """The edge engine with an identity denoiser (chunk-exact at any stride)."""
    return _engine_with_denoiser(edge, IdentityFilter())


def _engine_with_denoiser(edge, denoiser) -> InferenceEngine:
    pipeline = PreprocessingPipeline(
        denoiser=denoiser,
        extractor=edge.pipeline.extractor,
        normalizer=edge.pipeline.normalizer,
    )
    return InferenceEngine(edge.embedder, edge.ncm, pipeline=pipeline)


def _splits(n_total, rng, lo=1, hi=300):
    """Random chunk sizes summing exactly to ``n_total``."""
    sizes = []
    remaining = n_total
    while remaining:
        size = min(int(rng.integers(lo, hi + 1)), remaining)
        sizes.append(size)
        remaining -= size
    return sizes


def _feed_chunks(engine, data, sizes, stride=None):
    """Concatenated chunked verdicts (names, confidences, accepted)."""
    session = engine.open_stream(stride=stride)
    names, confidences, accepted = [], [], []
    pos = 0
    for size in sizes:
        batch = engine.infer_chunk(session, data[pos : pos + size])
        names += batch.names
        confidences += list(batch.confidences)
        accepted += list(batch.accepted)
        pos += size
    assert pos == data.shape[0]
    batch = engine.finish_stream(session)
    names += batch.names
    confidences += list(batch.confidences)
    accepted += list(batch.accepted)
    return names, np.asarray(confidences), accepted, session


# ---------------------------------------------------------------------- #
# denoiser streams
# ---------------------------------------------------------------------- #


class TestDenoiserStreams:
    @pytest.mark.parametrize(
        "denoiser",
        [IdentityFilter(), MovingAverageFilter(5), MedianFilter(7)],
        ids=["identity", "moving_average", "median"],
    )
    def test_chunked_apply_is_bit_identical(self, denoiser, rng):
        data = rng.normal(size=(400, 3))
        ref = denoiser.apply(data)
        for sizes in ([400], [1] * 400, _splits(400, rng, hi=37)):
            stream = denoiser.make_stream()
            parts = []
            pos = 0
            for size in sizes:
                parts.append(stream.push(data[pos : pos + size]))
                pos += size
            parts.append(stream.finish())
            got = np.concatenate(parts, axis=0)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref), sizes[:5]

    def test_butterworth_stream_matches_filtfilt(self, rng):
        """The zero-phase IIR stream reproduces filtfilt bit-for-bit.

        The backward pass is truncated to a bounded lookahead; the
        truncation error (``rho**T``) sits below one float64 ulp of the
        signal, so emitted blocks equal the monolithic ``apply()``.
        """
        denoiser = ButterworthLowpass()
        stream = denoiser.make_stream()
        assert stream.error_bound < 1e-15
        assert stream.lookahead == stream.block + stream.truncation
        for n in (3, 15, 16, 100, 500, 2000):
            data = rng.normal(size=(n, 2))
            ref = denoiser.apply(data)
            s = denoiser.make_stream()
            got = np.concatenate([s.push(data), s.finish()], axis=0)
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    def test_butterworth_stream_is_chunking_invariant(self, rng):
        """Every chunking of the signal yields bit-identical output."""
        denoiser = ButterworthLowpass()
        data = rng.normal(size=(400, 3))
        ref_stream = denoiser.make_stream()
        ref = np.concatenate(
            [ref_stream.push(data), ref_stream.finish()], axis=0
        )
        for sizes in ([1] * 400, _splits(400, rng, hi=37)):
            stream = denoiser.make_stream()
            parts = []
            pos = 0
            for size in sizes:
                parts.append(stream.push(data[pos : pos + size]))
                pos += size
            parts.append(stream.finish())
            got = np.concatenate(parts, axis=0)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref), sizes[:5]

    @pytest.mark.parametrize(
        "sizes", [[1], [5], [15], [300, 5, 1, 15]],
        ids=["1", "5", "15", "mixed"],
    )
    def test_butterworth_short_chunks_keep_the_exact_tail(self, rng, sizes):
        """Chunks shorter than the raw tail the stream keeps for
        ``finish()`` (``padlen + 1`` = 16 rows) extend the old tail instead
        of replacing it: the stream still equals the one-push stream, and
        the flushed tail is ``apply``'s bits."""
        denoiser = ButterworthLowpass()
        data = rng.normal(size=(400, 3))
        ref_stream = denoiser.make_stream()
        ref = np.concatenate(
            [ref_stream.push(data), ref_stream.finish()], axis=0
        )
        stream = denoiser.make_stream()
        parts, pos, i = [], 0, 0
        while pos < data.shape[0]:
            size = sizes[i % len(sizes)]
            parts.append(stream.push(data[pos : pos + size]))
            pos, i = pos + size, i + 1
        held = data.shape[0] - stream.samples_out
        tail = stream.finish()
        assert np.array_equal(np.concatenate(parts + [tail], axis=0), ref)
        assert tail.shape[0] == held > 0
        assert np.array_equal(tail, denoiser.apply(data)[-held:])

    def test_stream_rejects_use_after_finish(self, rng):
        stream = MovingAverageFilter(5).make_stream()
        stream.push(rng.normal(size=(10, 2)))
        stream.finish()
        with pytest.raises(ConfigurationError):
            stream.push(np.zeros((4, 2)))
        with pytest.raises(ConfigurationError):
            stream.finish()

    def test_stream_rejects_channel_change(self, rng):
        stream = MedianFilter(5).make_stream()
        stream.push(rng.normal(size=(10, 3)))
        with pytest.raises(DataShapeError):
            stream.push(np.zeros((4, 2)))

    def test_lookahead_delays_emission(self, rng):
        stream = MovingAverageFilter(5).make_stream()  # lookahead 2
        out = stream.push(rng.normal(size=(10, 1)))
        assert out.shape[0] == 8
        assert stream.finish().shape[0] == 2

    def test_caller_may_reuse_chunk_arrays(self, rng):
        """The stream must not alias caller memory (ring-buffer producers)."""
        data = rng.normal(size=(8, 2))
        ref_stream = MovingAverageFilter(5).make_stream()
        ref = np.concatenate(
            [ref_stream.push(data[i : i + 1].copy()) for i in range(8)]
            + [ref_stream.finish()]
        )
        stream = MovingAverageFilter(5).make_stream()
        reused = np.empty((1, 2))
        parts = []
        for i in range(8):
            reused[:] = data[i : i + 1]
            parts.append(stream.push(reused))
            reused[:] = -1e9  # caller overwrites its buffer between ticks
        parts.append(stream.finish())
        assert np.array_equal(np.concatenate(parts), ref)


# ---------------------------------------------------------------------- #
# pipeline chunking
# ---------------------------------------------------------------------- #


class TestPipelineChunking:
    def _feed(self, pipeline, data, sizes, stride=None):
        state = pipeline.open_stream(stride=stride)
        blocks = []
        pos = 0
        for size in sizes:
            blocks.append(pipeline.process_chunk(state, data[pos : pos + size]))
            pos += size
        blocks.append(pipeline.finish_stream(state))
        return np.concatenate(blocks, axis=0), state

    def test_windowed_mode_parity_default_denoiser(self, edge, recording, rng):
        pipeline = edge.pipeline
        ref = pipeline.process_stream(recording.data)
        for sizes in ([100] * 7 + [20], _splits(recording.data.shape[0], rng)):
            got, state = self._feed(pipeline, recording.data, sizes)
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, **PARITY)
            assert state.chunk_invariant
            assert state.windows_out == ref.shape[0]

    @pytest.mark.parametrize("stride", [60, 30, 1])
    def test_stream_mode_parity_bounded_denoiser(self, edge, recording, rng, stride):
        pipeline = _engine_with_denoiser(edge, MovingAverageFilter(5)).pipeline
        ref = pipeline.process_stream(recording.data, stride=stride)
        sizes = _splits(recording.data.shape[0], rng)
        got, state = self._feed(pipeline, recording.data, sizes, stride=stride)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, **PARITY)
        assert state.chunk_invariant

    def test_one_sample_ticks(self, edge):
        pipeline = edge.pipeline
        data = edge.pipeline.denoiser  # noqa: F841 - keep fixture warm
        samples = np.ascontiguousarray(
            np.random.default_rng(3).normal(size=(150, 22))
        )
        ref = pipeline.process_stream(samples)
        got, state = self._feed(pipeline, samples, [1] * 150)
        np.testing.assert_allclose(got, ref, **PARITY)
        assert state.samples_in == 150
        assert state.pending_samples == 150 - W

    def test_state_bookkeeping_and_tail_bound(self, edge, recording):
        pipeline = edge.pipeline
        state = pipeline.open_stream()
        pos = 0
        for size in [100] * 7:
            pipeline.process_chunk(state, recording.data[pos : pos + size])
            pos += size
            assert state.pending_samples < W  # carry tail stays bounded
            assert state.samples_in == pos
            assert state.next_window_start == state.windows_out * W
        assert state.windows_out == (7 * 100) // W

    def test_gap_skipping_when_stride_exceeds_window(self, edge, recording):
        stride = 150  # windows at 0, 150, 300, ... with 30-sample gaps
        pipeline = _engine_with_denoiser(edge, IdentityFilter()).pipeline
        ref = pipeline.process_stream(recording.data, stride=stride)
        got, state = self._feed(
            pipeline, recording.data, [70] * (recording.data.shape[0] // 70)
            + [recording.data.shape[0] % 70], stride=stride
        )
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, **PARITY)

    def test_butterworth_overlap_is_chunk_exact(self, edge, recording, rng):
        """Zero-phase IIR streaming: overlapping strides are chunk-exact."""
        pipeline = edge.pipeline
        ref = pipeline.process_stream(recording.data, stride=30)
        for sizes in ([240] * 3, _splits(recording.data.shape[0], rng)):
            got, state = self._feed(pipeline, recording.data, sizes, stride=30)
            assert state.chunk_invariant
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, **PARITY)

    def test_chunk_path_safe_against_reused_caller_buffers(self, edge):
        """Carried tails never alias the caller's (reusable) tick array."""
        data = np.random.default_rng(8).normal(size=(300, 22))
        ref, _ = self._feed(edge.pipeline, data, [100, 100, 100])
        state = edge.pipeline.open_stream()
        reused = np.empty((100, 22))
        blocks = []
        for start in (0, 100, 200):
            reused[:] = data[start : start + 100]
            blocks.append(edge.pipeline.process_chunk(state, reused))
            reused[:] = -1e9  # caller overwrites its buffer between ticks
        blocks.append(edge.pipeline.finish_stream(state))
        np.testing.assert_array_equal(np.concatenate(blocks, axis=0), ref)

    def test_chunk_channel_validation(self, edge):
        pipeline = edge.pipeline
        state = pipeline.open_stream()
        with pytest.raises(DataShapeError):
            pipeline.process_chunk(state, np.zeros((10, 5)))  # short AND bad
        pipeline.process_chunk(state, np.zeros((10, 22)))
        with pytest.raises(DataShapeError):
            pipeline.process_chunk(state, np.zeros((10, 21)))
        with pytest.raises(DataShapeError):
            pipeline.process_chunk(state, np.zeros(10))

    def test_finished_stream_rejects_further_chunks(self, edge):
        pipeline = edge.pipeline
        state = pipeline.open_stream()
        pipeline.finish_stream(state)
        with pytest.raises(ConfigurationError):
            pipeline.process_chunk(state, np.zeros((10, 22)))
        with pytest.raises(ConfigurationError):
            pipeline.finish_stream(state)

    def test_open_stream_validation(self, edge):
        pipeline = edge.pipeline
        with pytest.raises(ConfigurationError):
            pipeline.open_stream(stride=0)

    def test_stride_picks_the_path(self, edge):
        """The non-overlapping stride is windowed (no denoiser stream, the
        window kernel); a smaller one streams the continuous signal."""
        pipeline = edge.pipeline
        assert pipeline.open_stream().denoiser_stream is None
        assert pipeline.open_stream(stride=120).denoiser_stream is None
        hop = pipeline.open_stream(stride=30)
        assert isinstance(hop.denoiser_stream, ZeroPhaseIIRStream)
        with pytest.raises(ConfigurationError, match="process_chunk"):
            pipeline.fold_chunk(hop, np.zeros((120, 22)))

    def test_unfitted_pipeline_rejects_chunks(self):
        pipeline = PreprocessingPipeline()
        state = pipeline.open_stream()
        with pytest.raises(NotFittedError):
            pipeline.process_chunk(state, np.zeros((10, 22)))
        with pytest.raises(NotFittedError):
            pipeline.finish_stream(state)


class TestStreamValidationSatellites:
    def test_short_malformed_stream_input_raises(self, edge):
        """Zero-window inputs no longer bypass channel validation."""
        with pytest.raises(DataShapeError):
            edge.pipeline.raw_stream_features(np.zeros((10, 5)))
        with pytest.raises(DataShapeError):
            edge.pipeline.raw_stream_features(np.zeros((10, 5)), stride=30)

    def test_short_wellformed_stream_input_still_empty(self, edge):
        out = edge.pipeline.raw_stream_features(np.zeros((10, 22)))
        assert out.shape == (0, edge.pipeline.n_features)

    def test_window_count_argument_checks(self):
        with pytest.raises(ConfigurationError):
            window_count(100, 0)
        with pytest.raises(ConfigurationError):
            window_count(100, 120, stride=0)
        assert window_count(100, 120) == 0
        assert window_count(240, 120) == 2


# ---------------------------------------------------------------------- #
# engine chunked sessions
# ---------------------------------------------------------------------- #


class TestEngineChunked:
    def test_acceptance_default_pipeline_100_sample_ticks(self, edge, recording):
        """The headline: 100-sample ticks at window_len=120, nothing lost."""
        data = recording.data
        ref = edge.engine.infer_stream(data)
        sizes = [100] * (data.shape[0] // 100)
        if data.shape[0] % 100:
            sizes.append(data.shape[0] % 100)
        names, confidences, accepted, session = _feed_chunks(
            edge.engine, data, sizes
        )
        assert names == ref.names
        assert accepted == list(ref.accepted)
        np.testing.assert_allclose(confidences, ref.confidences, **PARITY)
        assert session.windows_inferred == len(ref)

    @pytest.mark.parametrize("stride", [W, W // 2, W // 4, 1])
    def test_acceptance_strides(self, identity_engine, recording, rng, stride):
        """Verdict-sequence parity at strides {w, w/2, w/4, 1}."""
        data = recording.data
        ref = identity_engine.infer_stream(data, stride=stride)
        for sizes in ([100] * 7 + [20], _splits(data.shape[0], rng)):
            names, confidences, accepted, _ = _feed_chunks(
                identity_engine, data, sizes, stride=stride
            )
            assert names == ref.names
            assert accepted == list(ref.accepted)
            np.testing.assert_allclose(confidences, ref.confidences, **PARITY)

    def test_window_straddling_chunk_boundary(self, edge, recording):
        """80+80 samples: the only window spans both chunks."""
        data = recording.data[:160]
        session = edge.engine.open_stream()
        first = edge.engine.infer_chunk(session, data[:80])
        assert len(first) == 0
        assert session.pending_samples == 80
        second = edge.engine.infer_chunk(session, data[80:])
        assert len(second) == 1
        ref = edge.engine.infer_stream(data)
        assert second.names == ref.names
        np.testing.assert_allclose(
            second.confidences, ref.confidences, **PARITY
        )

    def test_empty_chunk_is_a_no_op(self, edge, recording):
        session = edge.engine.open_stream()
        batch = edge.engine.infer_chunk(session, np.empty((0, 22)))
        assert len(batch) == 0
        edge.engine.infer_chunk(session, recording.data[:240])
        assert session.windows_inferred == 2

    def test_float32_session_dtype(self, identity_engine, recording):
        ref = identity_engine.infer_stream(recording.data)
        session = identity_engine.open_stream(dtype=np.float32)
        batch = identity_engine.infer_chunk(session, recording.data)
        assert batch.distances.dtype == np.float32
        assert batch.names == ref.names

    def test_session_sugar_and_finish(self, edge, recording):
        session = edge.engine.open_stream()
        assert isinstance(session, StreamSession)
        assert session.stride == W
        batch = session.infer(recording.data[:250])
        assert len(batch) == 2
        session.finish()
        assert session.finished
        with pytest.raises(ConfigurationError):
            session.infer(recording.data[:10])

    def test_engine_without_pipeline_rejects_streams(self, edge):
        engine = InferenceEngine(edge.embedder, edge.ncm)
        with pytest.raises(ConfigurationError):
            engine.open_stream()

    def test_edge_device_chunked_entry_points(self, edge, recording):
        ref = edge.infer_stream(recording.data)
        session = edge.open_stream()
        batch = edge.infer_chunk(session, recording.data)
        tail = edge.finish_stream(session)
        assert batch.names + tail.names == ref.names


# ---------------------------------------------------------------------- #
# fleet serving with carry-over
# ---------------------------------------------------------------------- #


class TestFleetStepStream:
    def test_tail_no_longer_dropped_across_ticks(self, edge):
        """THE bug: 100-sample ticks at window_len=120 classified nothing."""
        server = FleetServer(edge.engine)
        server.connect("a")
        data = np.random.default_rng(9).normal(size=(300, 22))
        verdicts = server.step_stream({"a": data[:100]})
        assert verdicts == {"a": []}
        verdicts = server.step_stream({"a": data[100:200]})
        assert len(verdicts["a"]) == 1  # window [0, 120) straddled the ticks
        verdicts = server.step_stream({"a": data[200:300]})
        assert len(verdicts["a"]) == 1  # window [120, 240)
        assert server.session("a").stream.pending_samples == 60
        assert server.windows_served == 2

    def test_acceptance_fleet_matches_monolithic(self, edge, scenario):
        server = FleetServer(edge.engine)
        server.connect_many(["a", "b"])
        recordings = {
            "a": scenario.sensor_device.record("walk", 5.0).data,
            "b": scenario.sensor_device.record("run", 5.0).data,
        }
        got = {sid: [] for sid in recordings}
        for start in range(0, 600, 100):
            tick = {
                sid: data[start : start + 100]
                for sid, data in recordings.items()
            }
            for sid, session_verdicts in server.step_stream(tick).items():
                got[sid].extend(session_verdicts)
        for sid, data in recordings.items():
            ref = edge.engine.infer_stream(data)
            assert [v.activity for v in got[sid]] == ref.names
            assert [v.accepted for v in got[sid]] == list(ref.accepted)
            np.testing.assert_allclose(
                [v.confidence for v in got[sid]], ref.confidences, **PARITY
            )

    def test_ragged_per_session_chunk_lengths(self, edge, scenario, rng):
        server = FleetServer(edge.engine)
        server.connect_many(["a", "b", "c"])
        recordings = {
            "a": scenario.sensor_device.record("walk", 4.0).data,
            "b": scenario.sensor_device.record("still", 4.0).data,
            "c": scenario.sensor_device.record("run", 4.0).data,
        }
        splits = {sid: _splits(480, rng, hi=170) for sid in recordings}
        got = {sid: [] for sid in recordings}
        positions = {sid: 0 for sid in recordings}
        while any(splits.values()):
            tick = {}
            for sid, sizes in splits.items():
                if not sizes:
                    continue  # this session skips the tick entirely
                size = sizes.pop(0)
                tick[sid] = recordings[sid][positions[sid] : positions[sid] + size]
                positions[sid] += size
            for sid, session_verdicts in server.step_stream(tick).items():
                got[sid].extend(session_verdicts)
        for sid, data in recordings.items():
            ref = edge.engine.infer_stream(data)
            assert [v.activity for v in got[sid]] == ref.names

    def test_smoother_state_continuous_across_ticks(self, edge, scenario):
        server = FleetServer(edge.engine)
        server.connect("a")
        data = scenario.sensor_device.record("walk", 4.0).data
        displays = []
        for start in range(0, 480, 70):
            for verdict in server.step_stream({"a": data[start : start + 70]})["a"]:
                displays.append(verdict.display)
        ref = edge.engine.infer_stream(data[:480])
        smoother = HysteresisSmoother()
        assert displays == [smoother.update(name) for name in ref.names]

    def test_overlap_stride_matches_monolithic(self, identity_engine, scenario):
        server = FleetServer(identity_engine)
        server.connect("a")
        data = scenario.sensor_device.record("walk", 3.0).data
        got = []
        for start in range(0, 360, 100):
            got += server.step_stream(
                {"a": data[start : start + 100]}, stride=30
            )["a"]
        ref = identity_engine.infer_stream(data, stride=30)
        # only complete windows of the 360 received samples are out so far
        assert [v.activity for v in got] == ref.names[: len(got)]
        assert len(got) == (360 - W) // 30 + 1

    def test_finish_stream_flushes_held_back_windows(self, edge, scenario):
        """Bounded-lookahead denoising holds the last windows until flush."""
        engine = _engine_with_denoiser(edge, MovingAverageFilter(5))
        server = FleetServer(engine)
        server.connect("a")
        data = scenario.sensor_device.record("walk", 3.0).data
        got = []
        for start in range(0, 360, 90):
            got += server.step_stream({"a": data[start : start + 90]}, stride=30)["a"]
        flushed = server.finish_stream("a")
        ref = engine.infer_stream(data, stride=30)
        assert len(flushed) >= 1  # the lookahead held back the last window
        assert [v.activity for v in got + flushed] == ref.names
        assert server.windows_served == len(ref.names)
        assert server.session("a").stream is None  # closed; next tick restarts
        assert server.finish_stream("a") == []  # no open stream -> no-op

    def test_chunk_validation_before_any_state_advances(self, edge, recording):
        server = FleetServer(edge.engine)
        server.connect_many(["a", "b"])
        tick = {"a": recording.data[:240], "b": np.zeros((240, 5))}
        with pytest.raises(DataShapeError, match="session 'b'"):
            server.step_stream(tick)
        # up-front validation: session a's stream state never advanced
        assert server.session("a").stream is None
        assert server.ticks == 0 and server.windows_served == 0

    def test_cross_session_channel_consistency(self, edge, recording):
        server = FleetServer(edge.engine)
        server.connect_many(["a", "b"])
        with pytest.raises(DataShapeError, match="differs from the batch"):
            server.step_stream(
                {"a": recording.data[:100], "b": np.zeros((100, 21))}
            )

    def test_cross_tick_channel_consistency(self, edge, identity_engine):
        # identity pipeline has a custom extractor? no - use engine whose
        # expected channels pass, then mutate the session's locked count.
        server = FleetServer(edge.engine)
        server.connect("a")
        server.step_stream({"a": np.zeros((50, 22))})
        server.session("a").stream.state.n_channels = 21  # simulate drift
        with pytest.raises(DataShapeError, match="started with"):
            server.step_stream({"a": np.zeros((50, 22))})

    def test_stride_switch_mid_stream_rejected(self, edge, recording):
        server = FleetServer(edge.engine)
        server.connect("a")
        server.step_stream({"a": recording.data[:100]})
        with pytest.raises(ConfigurationError, match="mid-stream"):
            server.step_stream({"a": recording.data[100:200]}, stride=60)

    def test_counters_untouched_when_engine_fails(
        self, edge, recording, monkeypatch
    ):
        server = FleetServer(edge.engine)
        server.connect("a")

        def boom(features):
            raise RuntimeError("model fell over")

        monkeypatch.setattr(server.engine, "infer_features", boom)
        with pytest.raises(RuntimeError):
            server.step_stream({"a": recording.data[:240]})
        assert server.ticks == 0
        assert server.windows_served == 0
        assert server.serve_ms == 0.0

    def test_session_reset_drops_stream_state(self, edge, recording):
        server = FleetServer(edge.engine)
        session = server.connect("a")
        server.step_stream({"a": recording.data[:100]})
        assert session.stream is not None
        session.reset()
        assert session.stream is None


# ---------------------------------------------------------------------- #
# runtime accounting and the evaluation protocol
# ---------------------------------------------------------------------- #


class TestRuntimeAndProtocolChunked:
    def test_runtime_charges_chunked_windows(self, edge, recording):
        edge.accountant = ResourceAccountant()
        session = edge.open_stream()
        for start in range(0, recording.data.shape[0], 100):
            edge.infer_chunk(session, recording.data[start : start + 100])
        edge.finish_stream(session)
        ref = edge.engine.infer_stream(recording.data)
        assert edge.accountant.stats.inferences == len(ref)
        assert edge.accountant.stats.compute_energy_joules > 0.0

    def test_stream_protocol_chunked_matches_monolithic(self, edge, scenario):
        segments = [
            ("walk", scenario.sensor_device.record("walk", 3.0).data),
            ("still", scenario.sensor_device.record("still", 2.0).data),
        ]
        mono = run_stream_protocol(edge.engine, segments)
        chunked = run_stream_protocol(edge.engine, segments, chunk_len=100)
        assert chunked.n_windows == mono.n_windows
        assert chunked.overall_accuracy == mono.overall_accuracy
        assert chunked.per_activity_accuracy == mono.per_activity_accuracy
        assert chunked.rejected_fraction == mono.rejected_fraction
        assert chunked.mean_confidence == pytest.approx(
            mono.mean_confidence, abs=1e-9
        )

    def test_stream_protocol_chunk_len_validation(self, edge, recording):
        with pytest.raises(ConfigurationError):
            run_stream_protocol(
                edge.engine, [("walk", recording.data)], chunk_len=0
            )
