"""Configuration-only work happens once, and changes no bit.

The preprocessing a serving tick runs is priced per sample, not per call:
``ButterworthLowpass`` solves its whole zero-phase design (coefficients,
pad length, ``lfilter_zi``, pole radius, stream block sizes) at
construction, ``StreamingFeatureExtractor`` resolves its configured signals
into a series plan at construction, and ``fold_chunk`` hands out its
windows as a reshape view.  The contracts pinned here:

- ``apply`` and windows longer than ``_MAX_OPERATOR_LEN`` return exactly
  ``scipy.signal.filtfilt``'s bits; the window kernel up to that length is
  one cached operator per window length, within 1e-9 relative of
  ``filtfilt``, and a window's bits do not depend on its neighbours;
- the design (``butter``, ``lfilter_zi``) and the window operator are
  computed in numpy with scipy's bits, once per filter configuration per
  process, so building a filter needs nothing of ``scipy.signal``;
- once a pipeline is built, ticks need nothing of ``scipy.signal`` but
  ``lfilter`` (the design is never re-derived per call), and windowed
  ticks not even that;
- the series plan and the stacked pass's strided view give the same bits
  as per-signal ``np.linalg.norm`` columns windowed by
  ``sliding_window_view``;
- the channels no feature reads are never filtered (15 of 22 are, for
  the default config), and every shipped denoiser is column-wise, so
  taking the read columns first changes no bit;
- ``fold_chunk``'s windows are read-only.
"""

import pickle
import types

import numpy as np
import pytest
import scipy.signal

from reference_features import stacked_rows_features
from repro.core import InferenceEngine
from repro.preprocessing import (
    DERIVED_SIGNALS,
    ButterworthLowpass,
    FeatureConfig,
    IdentityFilter,
    MedianFilter,
    MovingAverageFilter,
    PreprocessingPipeline,
    SpectralFeatureExtractor,
    StreamingFeatureExtractor,
    denoiser_from_dict,
)
from repro.preprocessing import denoise as denoise_module
from repro.preprocessing import iir_design
from repro.preprocessing import streaming as streaming_module
from repro.sensors import SensorDevice
from repro.sensors.channels import (
    CHANNEL_INDEX,
    CHANNEL_NAMES,
    N_CHANNELS,
    group_indices,
)
from repro.serving import FleetServer, ModelRegistry

W = 120


def _assert_within_contract(got, want):
    """``got`` is ``want`` within 1e-9 relative to ``want``'s magnitude:
    the window operator's contract."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.fixture(scope="module")
def recording():
    device = SensorDevice(rng=2501)
    return np.concatenate(
        [device.record(a, 4.0).data for a in ("walk", "run", "still")], axis=0
    )


# ---------------------------------------------------------------------- #
# the zero-phase filter is filtfilt, bit for bit
# ---------------------------------------------------------------------- #


class TestZeroPhaseIsFiltfilt:
    @pytest.fixture(scope="class")
    def lowpass(self):
        return ButterworthLowpass()

    def _ba(self):
        return scipy.signal.butter(4, 30.0, btype="low", fs=120.0)

    @pytest.mark.parametrize("n", [16, 17, 121, 5000])
    def test_apply_recording(self, lowpass, rng, n):
        x = rng.normal(size=(n, 22)) * 40.0 + 1000.0
        b, a = self._ba()
        assert np.array_equal(
            lowpass.apply(x), scipy.signal.filtfilt(b, a, x, axis=0)
        )

    @pytest.mark.parametrize("n", [16, 17, 121])
    @pytest.mark.parametrize("k", [1, 3, 256])
    def test_apply_batch(self, lowpass, rng, n, k):
        windows = rng.normal(size=(k, n, 22))
        b, a = self._ba()
        _assert_within_contract(
            lowpass.apply_batch(windows),
            scipy.signal.filtfilt(b, a, windows, axis=1),
        )

    @pytest.mark.parametrize("k", [1, 3])
    def test_apply_batch_long_windows(self, lowpass, rng, k):
        windows = rng.normal(size=(k, 5000, 22))
        b, a = self._ba()
        assert np.array_equal(
            lowpass.apply_batch(windows),
            scipy.signal.filtfilt(b, a, windows, axis=1),
        )

    @pytest.mark.parametrize("n", [16, 121, 5000])
    def test_one_dimensional_input(self, lowpass, rng, n):
        x = rng.normal(size=n)
        b, a = self._ba()
        assert np.array_equal(
            lowpass.apply(x), scipy.signal.filtfilt(b, a, x, axis=0)
        )

    def test_float32_input_filters_in_float64(self, lowpass, rng):
        """float32 samples are cast first, as they always were: the odd
        extension is formed in float64, not in float32."""
        x = (rng.normal(size=(500, 22)) * 40.0 + 1000.0).astype(np.float32)
        windows = x[:480].reshape(4, W, 22)
        b, a = self._ba()
        out = lowpass.apply(x)
        assert out.dtype == np.float64
        assert np.array_equal(
            out, scipy.signal.filtfilt(b, a, x.astype(np.float64), axis=0)
        )
        _assert_within_contract(
            lowpass.apply_batch(windows),
            scipy.signal.filtfilt(b, a, windows.astype(np.float64), axis=1),
        )

    @pytest.mark.parametrize("n", [0, 1, 15])
    def test_identity_fallback_at_most_padlen(self, lowpass, rng, n):
        x = rng.normal(size=(n, 22))
        out = lowpass.apply(x)
        assert np.array_equal(out, x) and out is not x
        windows = rng.normal(size=(2, n, 22))
        batch = lowpass.apply_batch(windows)
        assert np.array_equal(batch, windows) and batch is not windows

    def test_streams_share_the_design(self, lowpass):
        first, second = lowpass.make_stream(), lowpass.make_stream()
        assert first._zi_unit is second._zi_unit
        assert (first.truncation, first.block, first.lookahead) == (92, 184, 276)
        assert first.error_bound < 1e-15


# ---------------------------------------------------------------------- #
# the window kernel is one cached operator per window length
# ---------------------------------------------------------------------- #


class TestWindowOperator:
    @pytest.fixture(scope="class")
    def lowpass(self):
        return ButterworthLowpass()

    def _filtfilt(self, windows):
        b, a = scipy.signal.butter(4, 30.0, btype="low", fs=120.0)
        return scipy.signal.filtfilt(b, a, windows, axis=1)

    @pytest.mark.parametrize(
        "n", [16, 17, 60, W, denoise_module._MAX_OPERATOR_LEN]
    )
    @pytest.mark.parametrize("k", [1, 3, 256])
    def test_batch_kernel_is_filtfilt_within_contract(self, lowpass, rng, n, k):
        windows = rng.normal(size=(k, n, 15)) * 40.0 + 1000.0
        _assert_within_contract(
            lowpass.batch_kernel(n)(windows), self._filtfilt(windows)
        )

    def test_float32_input_filters_in_float64(self, lowpass, rng):
        windows = rng.normal(size=(4, W, 15)) * 40.0 + 1000.0
        got = lowpass.batch_kernel(W)(windows.astype(np.float32))
        assert got.dtype == np.float64
        _assert_within_contract(
            got, self._filtfilt(windows.astype(np.float32).astype(np.float64))
        )

    @pytest.mark.parametrize("k", [1, 3])
    def test_longer_windows_are_filtfilt_bits(self, lowpass, rng, k):
        n = denoise_module._MAX_OPERATOR_LEN + 1
        windows = rng.normal(size=(k, n, 15)) * 40.0 + 1000.0
        assert np.array_equal(
            lowpass.batch_kernel(n)(windows), self._filtfilt(windows)
        )

    def test_a_window_keeps_its_bits_in_any_stack(self, lowpass, rng):
        """What the fleet's shared ``raw`` rests on: window ``i`` of a
        stack is that window filtered alone, bit for bit."""
        kernel = lowpass.batch_kernel(W)
        windows = rng.normal(size=(12, W, 15)) * 40.0 + 1000.0
        for k in range(1, 13):
            stacked = kernel(windows[:k])
            for i in range(k):
                assert np.array_equal(stacked[i], kernel(windows[i:i + 1])[0])

    def test_one_operator_across_kernels_and_dtypes(self):
        pipeline = PreprocessingPipeline()
        operator = pipeline.denoiser._design.window_operator(W)
        assert operator.shape == (W, W) and not operator.flags.writeable
        kernels = []
        for _ in range(3):  # the first build, then two rebuilds
            kernels += [pipeline.window_kernel(d) for d in (None, np.float32)]
            pipeline.extractor = StreamingFeatureExtractor()
        assert len({id(kernel) for kernel in kernels}) == 6
        assert all(kernel._denoise.args[0] is operator for kernel in kernels)

    def test_operator_is_not_pickled(self):
        """A pickle carries the configuration only; the copy it loads as
        shares this process's design and operator."""
        lowpass = ButterworthLowpass()
        operator = lowpass.batch_kernel(W).args[0]
        payload = pickle.dumps(lowpass)
        assert len(payload) < operator.nbytes
        copy = pickle.loads(payload)
        assert copy == lowpass and copy._design is lowpass._design
        assert copy._design.window_operator(W) is operator


# ---------------------------------------------------------------------- #
# the design is scipy's, computed in numpy
# ---------------------------------------------------------------------- #


class TestNumpyDesign:
    @pytest.mark.parametrize("order", range(1, 9))
    def test_butter_and_lfilter_zi_are_scipys(self, order):
        for fs in (50.0, 100.0, 120.0, 200.0, 1000.0):
            for share in (0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.45):
                b, a = iir_design.butter(order, share * fs, fs=fs)
                want_b, want_a = scipy.signal.butter(
                    order, share * fs, btype="low", fs=fs
                )
                zi = iir_design.lfilter_zi(b, a)
                want_zi = scipy.signal.lfilter_zi(want_b, want_a)
                for got, want in ((b, want_b), (a, want_a), (zi, want_zi)):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (order, fs, share)

    @pytest.mark.parametrize("order", [1, 2, 4, 8])
    def test_design_lfilter_is_lfilter(self, rng, order):
        b, a = scipy.signal.butter(order, 30.0, btype="low", fs=120.0)
        x = rng.normal(size=(300, 7)) * 40.0 + 1000.0
        zi = rng.normal(size=(order, 7))
        y, zf = iir_design.design_lfilter(b, a, x, zi)
        want_y, want_zf = scipy.signal.lfilter(b, a, x, axis=0, zi=zi)
        assert np.array_equal(y, want_y) and np.array_equal(zf, want_zf)

    @pytest.mark.parametrize("order, n", [
        (order, n)
        for order in (2, 4, 6)
        for n in (16, 17, 60, W, denoise_module._MAX_OPERATOR_LEN)
        if n > 3 * (order + 1)  # longer than padlen: shorter ones are copied
    ])
    def test_window_operator_is_filtfilt_of_the_identity(self, order, n):
        lowpass = ButterworthLowpass(order=order)
        b, a = scipy.signal.butter(order, 30.0, btype="low", fs=120.0)
        assert np.array_equal(
            lowpass._design.window_operator(n),
            scipy.signal.filtfilt(b, a, np.eye(n), axis=0),
        )

    def test_one_design_per_configuration(self):
        first, second = ButterworthLowpass(), ButterworthLowpass(30, 120, 4)
        copy = denoiser_from_dict(first.to_dict())
        assert first._design is second._design is copy._design
        assert (
            first.batch_kernel(W).args[0]
            is second.batch_kernel(W).args[0]
            is copy.batch_kernel(W).args[0]
        )
        assert ButterworthLowpass(order=2)._design is not first._design


# ---------------------------------------------------------------------- #
# nothing is re-derived per call
# ---------------------------------------------------------------------- #


def _only_lfilter(monkeypatch):
    """Leave ``repro.preprocessing.denoise`` nothing of scipy.signal but
    ``lfilter``: any per-call ``filtfilt``/``lfilter_zi``/``butter`` raises."""
    monkeypatch.setattr(
        denoise_module, "_signal",
        types.SimpleNamespace(lfilter=scipy.signal.lfilter),
    )


def _edge_ticks(edge, data):
    session = edge.open_stream()
    batches = [
        edge.infer_chunk(session, data[start:start + W])
        for start in range(0, data.shape[0], W)
    ]
    batches.append(edge.finish_stream(session))
    return (
        np.concatenate([b.distances for b in batches]),
        sum((b.names for b in batches), []),
    )


def _fleet_ticks(engine, data):
    server = FleetServer(engine)
    ids = [f"dev{i}" for i in range(3)]
    for session_id in ids:
        server.connect(session_id)
    served = []
    for start in range(0, data.shape[0] - 40, 150):
        tick = server.step_stream(
            {sid: data[start + 20 * i:start + 20 * i + 150]
             for i, sid in enumerate(ids)}
        )
        served += [
            (v.activity, v.confidence, v.accepted)
            for sid in ids for v in tick[sid]
        ]
    return served


def _stream_mode(pipeline, data):
    state = pipeline.open_stream(stride=60)
    rows = [
        pipeline.process_chunk(state, data[start:start + 97])
        for start in range(0, data.shape[0], 97)
    ]
    rows.append(pipeline.finish_stream(state))
    return np.concatenate(rows)


class TestDesignIsHoisted:
    def test_ticks_need_only_lfilter(self, scenario, recording, monkeypatch):
        edge = scenario.fresh_edge(rng=5)
        engine = edge.engine
        assert isinstance(engine.pipeline.denoiser, ButterworthLowpass)
        before = (
            _edge_ticks(edge, recording),
            _fleet_ticks(engine, recording),
            _stream_mode(engine.pipeline, recording),
        )
        _only_lfilter(monkeypatch)
        after = (
            _edge_ticks(edge, recording),
            _fleet_ticks(engine, recording),
            _stream_mode(engine.pipeline, recording),
        )
        assert np.array_equal(after[0][0], before[0][0])
        assert after[0][1] == before[0][1]
        assert after[1] == before[1] and len(after[1]) > 0
        assert np.array_equal(after[2], before[2])

    def test_windowed_ticks_need_no_scipy_signal(
        self, scenario, recording, monkeypatch
    ):
        """Once built, a windowed edge tick and a windowed fleet tick
        multiply by the operator and call nothing of ``scipy.signal``."""
        edge = scenario.fresh_edge(rng=5)

        def ticks():
            session = edge.open_stream()
            distances = [
                edge.infer_chunk(session, recording[start:start + W]).distances
                for start in range(0, 6 * W, W)
            ]
            server = FleetServer(edge.engine)
            server.connect_many(["a", "b"])
            tick = server.step_stream(
                {"a": recording[:3 * W], "b": recording[W:4 * W]}, stride=W
            )
            return distances, [
                (v.activity, v.confidence) for sid in "ab" for v in tick[sid]
            ]

        before = ticks()

        def lfilter(*args, **kwargs):
            raise AssertionError("a windowed tick ran lfilter")

        monkeypatch.setattr(
            denoise_module, "_signal", types.SimpleNamespace(lfilter=lfilter)
        )
        after = ticks()
        assert len(after[1]) == 6
        assert all(
            np.array_equal(x, y) for x, y in zip(after[0], before[0])
        )
        assert after[1] == before[1]

    def test_design_needs_no_scipy_signal(self, monkeypatch):
        """The design and its window operator are numpy's: with every
        ``_signal`` attribute raising, a filter of a configuration no
        other test uses builds the same ``b``, ``a``, ``zi`` and ``M``."""
        config = dict(cutoff_hz=17.0, sampling_hz=95.0, order=3)
        b, a = scipy.signal.butter(3, 17.0, btype="low", fs=95.0)
        zi = scipy.signal.lfilter_zi(b, a)
        want = scipy.signal.filtfilt(b, a, np.eye(W), axis=0)

        class NoScipySignal:
            def __getattr__(self, name):
                raise AssertionError(f"the design used scipy.signal.{name}")

        monkeypatch.setattr(denoise_module, "_signal", NoScipySignal())
        monkeypatch.setattr(denoise_module, "_DESIGNS", {})
        design = ButterworthLowpass(**config)._design
        assert np.array_equal(design.b, b) and np.array_equal(design.a, a)
        assert np.array_equal(design.zi, zi)
        assert np.array_equal(design.window_operator(W), want)


# ---------------------------------------------------------------------- #
# the series plan: same bits as per-signal norms
# ---------------------------------------------------------------------- #


CONFIGS = {
    "default": FeatureConfig(),
    "raw-only": FeatureConfig(signals=("grav_z", "gyro_z", "baro", "light")),
    "derived-only": FeatureConfig(signals=("accel_mag", "gyro_mag")),
    "all-derived": FeatureConfig(signals=tuple(DERIVED_SIGNALS)),
    "repeated": FeatureConfig(signals=("accel_mag", "baro", "accel_mag", "baro")),
    "one-signal": FeatureConfig(signals=("mag_mag",)),
}


def _reference_series(data, signals):
    """One 1-D series per signal: ``np.linalg.norm`` of the group's
    columns, or the raw channel."""
    return [
        np.linalg.norm(data[:, group_indices(DERIVED_SIGNALS[sig])], axis=1)
        if sig in DERIVED_SIGNALS
        else np.ascontiguousarray(data[:, CHANNEL_INDEX[sig]])
        for sig in signals
    ]


def _reference_stacked(config, data, stride):
    series = np.stack(_reference_series(data, config.signals), axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(
        series, W, axis=0
    )[::stride]
    rows = np.ascontiguousarray(windows).reshape(-1, W)
    return stacked_rows_features(rows, config.stats).reshape(
        windows.shape[0], config.n_features
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestSeriesPlan:
    def test_series_block_columns(self, recording, name, dtype):
        config = CONFIGS[name]
        data = recording.astype(dtype)
        block = StreamingFeatureExtractor(config)._series_block(data)
        assert block.dtype == dtype
        for j, ref in enumerate(_reference_series(data, config.signals)):
            assert np.array_equal(block[j], ref)

    @pytest.mark.parametrize("stride", [W, 30])
    def test_stacked_pass(self, recording, name, dtype, stride):
        config = CONFIGS[name]
        data = recording.astype(dtype)
        got = StreamingFeatureExtractor(config).extract(
            data, W, stride=stride, dtype=dtype
        )
        assert np.array_equal(got, _reference_stacked(config, data, stride))

    @pytest.mark.parametrize("stride", [W, 30])
    def test_one_window_groups(
        self, recording, monkeypatch, name, dtype, stride
    ):
        """Walking one window per scratch block gives the same bits as
        stacking every window at once."""
        monkeypatch.setattr(streaming_module, "_STACKED_BLOCK_SAMPLES", 1)
        config = CONFIGS[name]
        data = recording.astype(dtype)
        got = StreamingFeatureExtractor(config).extract(
            data, W, stride=stride, dtype=dtype
        )
        assert np.array_equal(got, _reference_stacked(config, data, stride))


# ---------------------------------------------------------------------- #
# the dropped channels are never filtered
# ---------------------------------------------------------------------- #


def _lfilter_widths(monkeypatch):
    """Like :func:`_only_lfilter`, with an ``lfilter`` that records the
    ``(ndim, channels)`` of every input it filters."""
    widths = []

    def lfilter(b, a, x, *args, **kwargs):
        widths.append((x.ndim, x.shape[-1]))
        return scipy.signal.lfilter(b, a, x, *args, **kwargs)

    monkeypatch.setattr(
        denoise_module, "_signal", types.SimpleNamespace(lfilter=lfilter)
    )
    return widths


def _operator_inputs(monkeypatch):
    """Record the shape of every window stack the Butterworth window
    kernel multiplies by its operator, and whether it is C-contiguous."""
    shapes = []
    batch_kernel = ButterworthLowpass.batch_kernel

    def spied(self, window_len):
        kernel = batch_kernel(self, window_len)
        assert kernel.func is np.matmul  # the operator path

        def multiply(windows):
            shapes.append(windows.shape)
            contiguous.append(windows.flags.c_contiguous)
            return kernel(windows)

        return multiply

    contiguous = []
    monkeypatch.setattr(ButterworthLowpass, "batch_kernel", spied)
    return shapes, contiguous


class _Projection:
    """A fixed linear map from any feature width to the NCM's."""

    def __init__(self, input_dim, dim):
        self.input_dim = input_dim
        self._weights = np.random.default_rng(0).normal(size=(input_dim, dim))

    def embed(self, features):
        return np.asarray(features) @ self._weights


def _mixed_fleet_tick(engine, data):
    """One tick of a windowed and a stride-30 session of one engine."""
    registry = ModelRegistry(default_cohort="win")
    registry.publish("win", engine)
    registry.publish("hop", engine)
    server = FleetServer(registry)
    server.connect("w", cohort="win")
    server.connect("h", cohort="hop")
    out = server.step_stream(
        {"w": data[:600], "h": data[:600]}, stride={"win": W, "hop": 30}
    )
    assert all(len(verdicts) > 0 for verdicts in out.values())


def test_default_config_reads_15_of_22_channels():
    read = StreamingFeatureExtractor().read_channels
    assert len(read) == 15
    assert set(CHANNEL_NAMES) - {CHANNEL_NAMES[c] for c in read} == {
        "grav_x", "grav_y", "rot_w", "rot_x", "rot_y", "rot_z", "prox"
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_ticks_filter_only_the_read_channels(
    edge, recording, monkeypatch, name
):
    """An edge tick, a fleet tick with a windowed and a stride-30 session,
    and ``process_recording`` filter the read columns only: the windowed
    ones (``process_recording`` at the default stride among them) through
    the window operator, the stride-30 session through ``lfilter``."""
    config = CONFIGS[name]
    operator_inputs, contiguous = _operator_inputs(monkeypatch)
    pipeline = PreprocessingPipeline(feature_config=config)
    pipeline.fit_normalizer(recording[: 12 * W].reshape(12, W, N_CHANNELS))
    engine = InferenceEngine(
        _Projection(pipeline.n_features, edge.ncm.prototypes_.shape[1]),
        edge.ncm,
        pipeline=pipeline,
    )
    widths = _lfilter_widths(monkeypatch)
    session = engine.open_stream()
    assert len(engine.infer_chunk(session, recording[:W])) == 1
    _mixed_fleet_tick(engine, recording)
    stride_30_filters = len(widths)
    pipeline.process_recording(SensorDevice(rng=2502).record("walk", 4.0))
    assert len(widths) == stride_30_filters > 0
    # 15 for the default config (test_default_config_reads_15_of_22_channels)
    read = len(pipeline.streaming_extractor.read_channels)
    assert read < N_CHANNELS  # every config leaves some channel unread
    # windowed batches: the fit's, the edge tick's, the fleet's windowed
    # session's and process_recording's
    assert len(operator_inputs) == 4
    assert {shape[1:] for shape in operator_inputs} == {(W, read)}
    # gathered C-contiguous: BLAS's contiguous path, not a strided stack
    assert contiguous == [True] * 4
    # 2-D: a continuous or chunked signal
    assert {ndim for ndim, _ in widths} == {2}
    assert {channels for _, channels in widths} == {read}


def _layouts(recording):
    """The same ``(k, W, 22)`` window stack as a C-ordered array, an
    F-ordered array and a strided view of the recording (every other
    window)."""
    view = np.lib.stride_tricks.sliding_window_view(recording, W, axis=0)[
        :: 2 * W
    ].transpose(0, 2, 1)
    return {
        "C": np.ascontiguousarray(view),
        "F": np.asfortranarray(view),
        "view": view,
    }


@pytest.mark.parametrize("dtype", [None, np.float32])
@pytest.mark.parametrize(
    "extractor",
    [
        StreamingFeatureExtractor(),
        StreamingFeatureExtractor(CONFIGS["raw-only"]),
        SpectralFeatureExtractor(),
    ],
    ids=["default", "raw-only", "spectral"],
)
def test_kernel_rows_do_not_depend_on_the_stack_layout(
    recording, extractor, dtype
):
    """The kernel gathers its read columns C-contiguous whatever the
    stack's layout, so the operator product — whose last bits can depend
    on its input's layout — sees one layout and gives one set of bits."""
    stacks = _layouts(recording)
    assert not stacks["view"].flags.c_contiguous
    assert stacks["F"].flags.f_contiguous
    kernel = PreprocessingPipeline(extractor=extractor).window_kernel(dtype)
    rows = {name: kernel.raw(stack) for name, stack in stacks.items()}
    assert np.array_equal(rows["F"], rows["C"])
    assert np.array_equal(rows["view"], rows["C"])


DENOISERS = {
    "identity": IdentityFilter(),
    "moving_average": MovingAverageFilter(5),
    "median": MedianFilter(7),
    "butterworth": ButterworthLowpass(),
}


@pytest.mark.parametrize("name", sorted(DENOISERS))
class TestDenoisersAreColumnWise:
    """Take-then-filter is filter-then-take, bit for bit: the denoiser
    contract the read-plan rests on."""

    take = StreamingFeatureExtractor().read_channels

    def test_apply(self, recording, name):
        denoiser = DENOISERS[name]
        assert np.array_equal(
            denoiser.apply(recording[:, self.take]),
            denoiser.apply(recording)[:, self.take],
        )

    def test_batch(self, recording, name):
        """``batch_kernel``, or the per-window loop for denoisers without it."""
        pipeline = PreprocessingPipeline(denoiser=DENOISERS[name])
        windows = recording[: 12 * W].reshape(12, W, N_CHANNELS)
        denoise = pipeline._windows_denoiser()
        assert np.array_equal(
            denoise(windows[..., self.take]),
            denoise(windows)[..., self.take],
        )

    def test_make_stream(self, recording, name):
        def streamed(data):
            stream = DENOISERS[name].make_stream()
            parts = [
                stream.push(data[start : start + 97])
                for start in range(0, data.shape[0], 97)
            ]
            return np.concatenate(parts + [stream.finish()], axis=0)

        assert np.array_equal(
            streamed(recording[:, self.take]),
            streamed(recording)[:, self.take],
        )


# ---------------------------------------------------------------------- #
# fold_chunk hands out read-only windows
# ---------------------------------------------------------------------- #


class TestFoldChunkWindows:
    def test_windows_are_read_only(self, recording):
        pipeline = PreprocessingPipeline()
        state = pipeline.open_stream()
        chunk = recording[:300].copy()
        straight = pipeline.fold_chunk(state, chunk)  # a view of the chunk
        assert straight.shape == (2, W, 22)
        with pytest.raises(ValueError):
            straight[0, 0, 0] = 1.0
        chunk[0, 0] = 5.0  # the caller's array stays writable
        carried = pipeline.fold_chunk(state, recording[300:420])
        assert carried.shape == (1, W, 22)
        assert np.array_equal(carried[0], recording[240:360])
        with pytest.raises(ValueError):
            carried[...] = 0.0

    def test_zero_windows(self, recording):
        pipeline = PreprocessingPipeline()
        state = pipeline.open_stream()
        windows = pipeline.fold_chunk(state, recording[:50])
        assert windows.shape == (0, W, 22)
        assert state.pending_samples == 50
