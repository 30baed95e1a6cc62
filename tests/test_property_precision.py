"""Property tests for the precision contracts (hypothesis + layer parity).

Two families:

- **Chunk-exactness** — :class:`ZeroPhaseIIRStream` must match the
  monolithic ``filtfilt`` within the documented 1e-9 tolerance for *any*
  tick schedule (fixed ticks of ``w``, ``w/2``, ``w/4`` and ``1`` sample,
  plus hypothesis-generated ragged schedules), and be **bit-identical**
  across different chunkings of the same signal.
- **Float32 verdict parity** — the reduced-precision fast path may not
  flip more than 1e-3 of verdicts (labels or accepts) vs the canonical
  float64 stream, checked at every serving layer: the engine call, a
  mixed-dtype :class:`FleetServer` tick, and a real TCP gateway session
  negotiated via HELLO ``dtype`` meta.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.preprocessing import ButterworthLowpass
from repro.serving import FleetServer, ModelRegistry
from repro.serving.gateway import GatewayClient, GatewayServer

W = 120  # the default pipeline window length
MAX_FLIP_RATE = 1e-3

finite_signals = st.integers(40, 500).flatmap(
    lambda n: arrays(
        np.float64,
        (n, 2),
        elements=st.floats(
            min_value=-1e3, max_value=1e3,
            allow_nan=False, allow_infinity=False,
        ),
    )
)


def _stream_apply(denoiser, data, sizes):
    """Push ``data`` through a fresh stream in ticks of ``sizes``."""
    stream = denoiser.make_stream()
    pieces, start = [], 0
    for size in sizes:
        if start >= data.shape[0]:
            break
        pieces.append(stream.push(data[start : start + size]))
        start += size
    if start < data.shape[0]:
        pieces.append(stream.push(data[start:]))
    pieces.append(stream.finish())
    return np.concatenate([p for p in pieces if p.size], axis=0)


class TestChunkedButterworthProperties:
    @settings(max_examples=15, deadline=None)
    @given(data=finite_signals, tick=st.sampled_from([W, W // 2, W // 4, 1]))
    def test_fixed_ticks_match_monolithic(self, data, tick):
        """Ticks of w, w/2, w/4 and 1 sample all reproduce ``apply``."""
        denoiser = ButterworthLowpass()
        mono = denoiser.apply(data)
        got = _stream_apply(denoiser, data, [tick] * (data.shape[0] // tick))
        scale = 1.0 + float(np.max(np.abs(data))) if data.size else 1.0
        np.testing.assert_allclose(got, mono, rtol=0.0, atol=1e-9 * scale)

    @settings(max_examples=15, deadline=None)
    @given(
        data=finite_signals,
        sizes=st.lists(st.integers(1, 50), min_size=1, max_size=60),
    )
    def test_ragged_ticks_bit_identical_to_single_push(self, data, sizes):
        """Chunking invariance is exact, not just within tolerance."""
        denoiser = ButterworthLowpass()
        ragged = _stream_apply(denoiser, data, sizes)
        single = _stream_apply(denoiser, data, [data.shape[0]])
        assert np.array_equal(ragged, single)

    @settings(max_examples=10, deadline=None)
    @given(data=finite_signals)
    def test_one_sample_ticks_bit_identical(self, data):
        """The pathological all-1-sample schedule is exact too."""
        denoiser = ButterworthLowpass()
        drip = _stream_apply(denoiser, data, [1] * data.shape[0])
        single = _stream_apply(denoiser, data, [data.shape[0]])
        assert np.array_equal(drip, single)


def _flip_rate(ref_labels, ref_accepted, got_labels, got_accepted):
    flips = int(
        (np.asarray(ref_labels) != np.asarray(got_labels)).sum()
        + (np.asarray(ref_accepted) != np.asarray(got_accepted)).sum()
    )
    return flips / max(1, len(ref_labels))


class TestFloat32FlipRate:
    def test_engine_layer(self, edge, recorder):
        recording = recorder.record("walk", 6.0)
        ref = edge.infer_stream(recording.data, stride=4)
        got = edge.infer_stream(recording.data, stride=4, dtype=np.float32)
        assert len(ref) == len(got) > 100
        rate = _flip_rate(ref.labels, ref.accepted, got.labels, got.accepted)
        assert rate <= MAX_FLIP_RATE

    def test_fleet_layer(self, edge, recorder):
        server = FleetServer(edge.engine)
        server.connect("f64")
        server.connect("f32", dtype=np.float32)
        chunk = recorder.record("walk", 4.0).data
        out = server.step_stream({"f64": chunk, "f32": chunk}, stride=4)
        ref = list(out["f64"]) + list(server.finish_stream("f64"))
        got = list(out["f32"]) + list(server.finish_stream("f32"))
        assert len(ref) == len(got) > 0
        rate = _flip_rate(
            [v.activity for v in ref],
            [v.accepted for v in ref],
            [v.activity for v in got],
            [v.accepted for v in got],
        )
        assert rate <= MAX_FLIP_RATE

    def test_gateway_layer(self, edge, recorder):
        registry = ModelRegistry(default_cohort="a")
        registry.publish("a", edge.engine)
        data = recorder.record("walk", 4.0).data
        chunks = [data[:240], data[240:]]

        async def drive(gateway, session_id, dtype):
            async with GatewayClient(gateway.host, gateway.port) as client:
                await client.connect(session_id, dtype=dtype)
                verdicts = []
                for chunk in chunks:
                    verdicts.extend(await client.send_chunk(chunk))
                verdicts.extend(await client.finish())
                return verdicts

        async def body():
            async with GatewayServer(registry) as gateway:
                ref = await drive(gateway, "s64", None)
                got = await drive(gateway, "s32", "float32")
                return ref, got

        ref, got = asyncio.run(asyncio.wait_for(body(), timeout=60))
        assert len(ref) == len(got) > 0
        rate = _flip_rate(
            [v.activity for v in ref],
            [v.accepted for v in ref],
            [v.activity for v in got],
            [v.accepted for v in got],
        )
        assert rate <= MAX_FLIP_RATE
