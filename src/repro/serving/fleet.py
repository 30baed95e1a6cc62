"""Fleet serving: many device sessions through shared batched engine calls.

:class:`FleetServer` multiplexes many :class:`EdgeSession`\\ s — per-user
temporal-smoothing and rejection state — through shared batched
:class:`~repro.core.engine.InferenceEngine` calls, simulating thousands
of concurrent devices at the cost of one forward pass per distinct model
per tick.  Every session is bound to a *cohort* (device class, sampling
rate, enrollment size) of a :class:`~repro.serving.registry.ModelRegistry`;
a server built from a bare engine serves it as the registry's
:data:`~repro.serving.registry.DEFAULT_COHORT`.  Each tick's traffic is
grouped by the engine serving each cohort, while the windows of cohorts
whose pipelines are configured alike are featurized in one stacked pass.

The same class serves the in-process API and the TCP gateway
(:class:`~repro.serving.gateway.GatewayServer`), which checks each chunk
with :meth:`FleetServer.check_chunk` on arrival and calls
:meth:`FleetServer.stream_tick` once per flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.engine import BatchInference, InferenceEngine, StreamSession
from ..core.smoothing import HysteresisSmoother
from ..exceptions import ConfigurationError, DataShapeError, UnknownCohortError
from ..preprocessing.pipeline import resolve_feature_dtype
from ..sensors.channels import N_CHANNELS
from ..utils import Timer
from .registry import DEFAULT_COHORT, ModelRegistry

__all__ = ["EdgeSession", "FleetServer", "SessionVerdict"]


class _TickGroup:
    """One distinct model's share of a tick, in one compute dtype.

    Collects the sessions served by one engine this tick (with their
    checked chunks or windows and, for a chunk tick, their resolved
    strides), then their featurized blocks, so the run issues one
    batched call per group.  A ``step`` group has no strides: its
    sessions open no stream.  ``failure`` is the exception that lost the
    group its windows this tick (featurize or model call), if any.
    """

    __slots__ = ("engine", "dtype", "ids", "arrays", "strides", "blocks", "failure")

    def __init__(self, engine: InferenceEngine, dtype=None) -> None:
        self.engine = engine
        self.dtype = dtype  # per-session compute dtype (float32 fast path)
        self.ids: List[str] = []
        self.arrays: List[np.ndarray] = []
        self.strides: List[int] = []
        self.blocks: List[np.ndarray] = []  # per-session feature rows
        self.failure: Optional[Exception] = None

    @property
    def counts(self) -> List[int]:
        return [block.shape[0] for block in self.blocks]

    def run(self) -> BatchInference:
        """The group's one batched engine call over its feature rows.

        ``dtype`` is forwarded only when set, so engines whose
        ``infer_features`` takes no ``dtype`` keep working.
        """
        features = np.concatenate(self.blocks, axis=0)
        if self.dtype is None:
            return self.engine.infer_features(features)
        return self.engine.infer_features(features, dtype=self.dtype)


def _isolated(groups, step: Callable, *args):
    """``step(*args)``; if it raises, ``None``, with the exception kept as
    every one of ``groups``' ``failure``."""
    try:
        return step(*args)
    except Exception as exc:  # reprolint: disable=broad-except — failure isolation: a failing featurize or model call loses only the groups it served; the healthy groups still fold, then the failure is reported or re-raised
        for group in groups:
            group.failure = exc
        return None


def _window_slots(group: _TickGroup) -> "List[Tuple[int, np.ndarray]]":
    """A ``step`` group's windows: one single-window block per session."""
    group.blocks = [None] * len(group.arrays)
    return [(slot, window[None]) for slot, window in enumerate(group.arrays)]


@dataclass(frozen=True)
class SessionVerdict:
    """One session's verdict for one served window."""

    session_id: str
    activity: str  # raw engine verdict (may be UNKNOWN_NAME)
    display: str  # temporally smoothed verdict shown to the user
    confidence: float
    accepted: bool


class EdgeSession:
    """Per-user serving state: identity, cohort, smoother, counters.

    The engine itself is stateless across calls; everything a simulated
    device accumulates over time (the debounced display verdict, rejection
    counts) lives here.  ``cohort`` names the model package the session is
    served from — the :class:`FleetServer` resolves it through its
    registry every windowed tick, while an open chunk stream pins the
    engine it started on (``self.stream.engine``) until the stream
    finishes.
    """

    def __init__(
        self,
        session_id: str,
        smoother=None,
        cohort: str = DEFAULT_COHORT,
        dtype=None,
    ) -> None:
        self.session_id = str(session_id)
        self.smoother = smoother
        self.cohort = str(cohort)
        self.dtype = dtype  # compute dtype of this session's chunk streams
        self.stream: Optional[StreamSession] = None  # chunk carry-over state
        self.windows_seen = 0
        self.rejected_windows = 0
        self.last_verdict: Optional[SessionVerdict] = None

    def observe(
        self, activity: str, confidence: float, accepted: bool
    ) -> SessionVerdict:
        """Fold one engine verdict into the session's smoothed state."""
        self.windows_seen += 1
        if not accepted:
            self.rejected_windows += 1
        display = (
            self.smoother.update(activity)
            if self.smoother is not None
            else activity
        )
        verdict = SessionVerdict(
            session_id=self.session_id,
            activity=activity,
            display=display,
            confidence=float(confidence),
            accepted=bool(accepted),
        )
        self.last_verdict = verdict
        return verdict

    def reset(self) -> None:
        if self.smoother is not None:
            self.smoother.reset()
        self.stream = None
        self.windows_seen = 0
        self.rejected_windows = 0
        self.last_verdict = None


class FleetServer:
    """Serve a fleet of edge sessions through shared batched engine calls.

    Each :meth:`step` gathers at most one raw window per connected session,
    groups the windows by the model serving each session's *cohort*, runs
    one fused engine pass per distinct model, and demultiplexes the
    verdicts back through each session's temporal smoother — the serving
    pattern that lets a handful of model packages shadow thousands of
    simulated devices.

    Built from a bare :class:`InferenceEngine`, the server publishes it
    into a fresh registry under :data:`DEFAULT_COHORT`: every session lands
    there and every tick is one batched call.  Built from
    a :class:`~repro.serving.registry.ModelRegistry` (anything with
    ``engine_for``/``has_cohort``/``default_cohort``), sessions bind to
    cohorts at :meth:`connect` time and a mixed-cohort tick issues exactly
    one batched call per distinct engine — cohorts published with the same
    engine object share a batch, while distinct engines get a call each
    even when their packages share a backbone.  A tick groups its
    sessions by ``(engine, dtype)`` for the model calls, but featurizes
    across those groups: one stacked denoise + statistics pass per
    preprocessing configuration and dtype, so cohorts loaded from one
    package share it, and each group normalizes its own rows.

    Every entry point plans its own groups — :meth:`step` checks its
    windows, :meth:`stream_tick` groups chunks :meth:`check_chunk`
    already checked, :meth:`finish_stream` flushes one stream — then
    shares one tick core: the featurize pass, *run* (each group's
    ``run()``, inline) and *fold* (smoothers, counters; both in
    :meth:`_serve`), then the first failure re-raised — or, from
    :meth:`stream_tick`, reported per session.  A failing featurize
    pass or model call loses only the groups it served.
    """

    def __init__(
        self,
        engine: "Union[InferenceEngine, object]",
        smoother_factory: Optional[Callable[[], object]] = HysteresisSmoother,
    ) -> None:
        if hasattr(engine, "engine_for"):
            self.registry = engine
        else:  # publish refuses an engine without a pipeline
            self.registry = ModelRegistry()
            self.registry.publish(DEFAULT_COHORT, engine)
        self.smoother_factory = smoother_factory
        self.sessions: Dict[str, EdgeSession] = {}
        self.ticks = 0
        self.windows_served = 0
        self.windows_rejected = 0
        self.serve_ms = 0.0
        # Per-cohort rollups of the two exact counters (latency is shared
        # across cohorts within a batched call, so it stays fleet-level).
        self.cohort_windows_served: Dict[str, int] = {}
        self.cohort_windows_rejected: Dict[str, int] = {}

    @property
    def engine(self) -> InferenceEngine:
        """The default cohort's engine (the classic single-model view)."""
        return self.registry.engine_for(self.registry.default_cohort)

    def _serving_engine(self, session: EdgeSession) -> InferenceEngine:
        """The engine currently serving a session's cohort."""
        engine = self.registry.engine_for(session.cohort)
        if engine.pipeline is None:  # engines are mutable; re-check per tick
            raise ConfigurationError(
                f"cohort {session.cohort!r} engine has no pipeline "
                f"(raw windows/chunks in)"
            )
        return engine

    # ------------------------------------------------------------------ #
    # session management
    # ------------------------------------------------------------------ #

    @property
    def n_sessions(self) -> int:
        return len(self.sessions)

    def connect(
        self,
        session_id: str,
        cohort: Optional[str] = None,
        dtype=None,
    ) -> EdgeSession:
        """Register a new device session; ids must be unique.

        ``cohort`` picks the model package serving this session (the
        registry's default cohort when ``None``); a cohort the registry
        cannot serve raises
        :class:`~repro.exceptions.UnknownCohortError` immediately, before
        any traffic flows.  ``dtype`` selects the session's chunk-stream
        compute dtype: ``np.float32`` (or ``"float32"``) runs the
        session's features, embedding and distances in 32 bits (see
        :meth:`InferenceEngine.infer_stream`); ``None``/``float64`` keeps
        the canonical math.  Anything else raises
        :class:`~repro.exceptions.ConfigurationError` before any traffic
        flows.
        """
        key = str(session_id)
        if key in self.sessions:
            raise ConfigurationError(f"session {key!r} already connected")
        cohort_key = (
            self.registry.default_cohort if cohort is None else str(cohort)
        )
        if not self.registry.has_cohort(cohort_key):
            raise UnknownCohortError(
                f"cannot connect session {key!r}: cohort {cohort_key!r} "
                f"is not in the registry"
            )
        dtype = resolve_feature_dtype(dtype)
        smoother = (
            self.smoother_factory() if self.smoother_factory is not None else None
        )
        session = EdgeSession(
            key, smoother=smoother, cohort=cohort_key, dtype=dtype
        )
        self.sessions[key] = session
        return session

    def connect_many(
        self, session_ids, cohort: Optional[str] = None, dtype=None
    ) -> List[EdgeSession]:
        return [
            self.connect(session_id, cohort=cohort, dtype=dtype)
            for session_id in session_ids
        ]

    def disconnect(self, session_id: str) -> None:
        try:
            del self.sessions[str(session_id)]
        except KeyError:
            raise ConfigurationError(
                f"session {session_id!r} is not connected"
            ) from None

    def session(self, session_id: str) -> EdgeSession:
        try:
            return self.sessions[str(session_id)]
        except KeyError:
            raise ConfigurationError(
                f"session {session_id!r} is not connected"
            ) from None

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def _charge_windows(self, cohort: str, served: int, rejected: int) -> None:
        """Fold one demuxed slice into the fleet and per-cohort counters."""
        self.windows_served += served
        self.windows_rejected += rejected
        self.cohort_windows_served[cohort] = (
            self.cohort_windows_served.get(cohort, 0) + served
        )
        self.cohort_windows_rejected[cohort] = (
            self.cohort_windows_rejected.get(cohort, 0) + rejected
        )

    def step(
        self, windows_by_session: Mapping[str, np.ndarray]
    ) -> Dict[str, SessionVerdict]:
        """Serve one window per session; one batched pass per distinct model.

        ``windows_by_session`` maps connected session ids to raw 2-D
        windows; sessions absent from the mapping simply skip this tick.
        Sessions are grouped by the engine currently serving their cohort
        and every group is classified in a single batched engine call, so
        a mixed-cohort tick costs one forward pass per distinct model —
        not one per session — while the windows of cohorts whose
        pipelines are configured alike share one stacked featurize pass,
        as in :meth:`step_stream`.  Each window must be its cohort's
        ``(window_len, channels)`` (cohorts may legitimately differ, e.g.
        different window lengths per device class).  All windows are
        validated before any engine runs.  A windowed tick is float64,
        opens no stream and leaves open ones untouched.  Returns the
        per-session verdicts in input order.

        Failure isolation and tick accounting are :meth:`step_stream`'s,
        from the same fold: if a featurize pass or a model raises, the
        other models' batched calls still complete and their verdicts
        fold into their sessions before the first failure is re-raised,
        and ``ticks``/``serve_ms``/``windows_served`` only move when at
        least one model's call succeeded — a tick on which *every* model
        failed leaves all serving counters untouched.
        """
        if not windows_by_session:
            return {}
        groups: Dict[Tuple[int, object], _TickGroup] = {}
        for session_id, window in windows_by_session.items():
            session = self.session(session_id)  # raises for unknown ids
            engine = self._serving_engine(session)  # raises unknown cohorts
            arr = np.asarray(window, dtype=np.float64)
            shape = (engine.pipeline.window_len, N_CHANNELS)
            if arr.shape != shape:
                raise DataShapeError(
                    f"session {session.session_id!r} window shape {arr.shape} "
                    f"is not cohort {session.cohort!r}'s (samples, channels) "
                    f"{shape}"
                )
            if not np.isfinite(arr).all():
                raise DataShapeError(
                    f"session {session.session_id!r} window holds non-finite "
                    f"samples (NaN or inf)"
                )
            group = groups.setdefault((id(engine), None), _TickGroup(engine))
            group.ids.append(session.session_id)
            group.arrays.append(arr)
        with Timer() as timer:
            self._featurize_groups(groups, _window_slots)
        verdicts, failures = self._serve(
            windows_by_session, groups.values(), timer.elapsed_ms
        )
        if failures:
            raise next(iter(failures.values()))
        return {sid: served[0] for sid, served in verdicts.items()}

    def _route(
        self, session_id: str, stride
    ) -> "Tuple[EdgeSession, InferenceEngine, int, object]":
        """``(session, engine, stride, dtype)`` a chunk tick serves with.

        A session with an open stream stays *pinned* to the engine, stride
        and dtype that opened it (so a registry hot-swap mid-stream cannot
        change the model under a half-filled window buffer, and a mutated
        ``session.dtype`` waits for the next stream); otherwise the cohort
        is resolved through the registry, picking up the latest published
        package.  Raises for an unknown session or cohort, an engine with
        no pipeline and a stride switch mid-stream.
        """
        session = self.session(session_id)  # raises for unknown ids
        stream = session.stream
        if stream is None:
            engine = self._serving_engine(session)  # raises unknown cohorts
            value = self._resolve_stride(session, stride, engine.pipeline.stride)
            return session, engine, value, session.dtype
        if stream.engine.pipeline is None:
            raise ConfigurationError(
                f"cohort {session.cohort!r} engine has no pipeline "
                f"(raw windows/chunks in)"
            )
        value = self._resolve_stride(session, stride, stream.stride)
        if value != stream.stride:
            raise ConfigurationError(
                f"session {session.session_id!r} streams at stride "
                f"{stream.stride}, cannot switch to {value} mid-stream "
                f"(reset() the session to restart)"
            )
        return session, stream.engine, value, stream.dtype

    @staticmethod
    def _resolve_stride(session: EdgeSession, stride, default: int) -> int:
        """Per-session stride: explicit (int or cohort map) > ``default``."""
        if stride is None:
            return default
        if isinstance(stride, Mapping):
            # A cohort absent from the map keeps its default (an open
            # stream's stride: continuing, like stride=None).
            return int(stride.get(session.cohort, default))
        return int(stride)

    def step_stream(
        self,
        chunks_by_session: Mapping[str, np.ndarray],
        stride: "Optional[Union[int, Mapping[str, int]]]" = None,
    ) -> Dict[str, List[SessionVerdict]]:
        """Serve raw continuous sample chunks with per-session carry-over.

        Where :meth:`step` takes one pre-cut window per session,
        ``step_stream`` takes a raw ``(n_samples, channels)`` chunk of any
        length per session — the natural payload of a device that just
        uploads its sensor buffer every tick.  Each session owns a
        :class:`StreamSession`: the chunk is folded into the session's
        carry-over buffer and every window it *completes* — including
        windows straddling the previous tick's boundary — is featurized
        once through the O(chunk) chunked pipeline path, in one stacked
        call per preprocessing configuration and dtype across every
        cohort of the tick (see :meth:`_featurize_stream_groups`).  Every
        window of every session then flows through a single batched call
        *per (engine, dtype) group* (sessions are grouped by the engine
        serving their cohort and their compute dtype — one call total for
        a single-model fleet), and each session's verdicts fold through
        its smoother in window order.
        Across any tick sizes (ragged, even 1-sample) a session's
        concatenated verdicts equal one
        :meth:`InferenceEngine.infer_stream` call over its whole
        recording: no sample is ever dropped at a chunk boundary.

        A session's stream opens against the engine its cohort resolves to
        *at that moment* and stays pinned to it: hot-swapping the cohort's
        package in the registry mid-stream only affects sessions whose
        next chunk opens a fresh stream (after :meth:`finish_stream` or
        :meth:`EdgeSession.reset`).  ``stride`` may be a single int for
        the whole fleet or a ``{cohort: stride}`` mapping (cohorts absent
        from the mapping use their pipeline's stride); ``None`` uses each
        cohort's pipeline stride (an already-open stream simply continues
        at the stride it was opened with).

        Returns the per-session verdict lists in input order; a chunk too
        short to complete a window yields an empty list for that session
        (no complete window yet — the buffer keeps filling and the pending
        tail is classified by a later tick, or flushed by
        :meth:`finish_stream` when the recording ends).  Sessions absent
        from the mapping skip the tick; their buffers are untouched.

        ``step_stream`` is :meth:`check_chunk` on every chunk, so a bad
        chunk refuses the whole tick before any session's stream state
        advances, then :meth:`stream_tick`, then the re-raise.  The
        serving counters (``ticks``/``serve_ms``/``windows_served``) only
        move for groups whose batched call succeeds.  If a group fails
        mid-tick — its featurize pass or its model raises — the other
        groups' verdicts are still folded into their sessions (their
        stream buffers were already consumed; dropping them would
        desynchronize smoother and stream state) and the first failure is
        re-raised afterwards — the failing group's windows for this tick
        are lost, so callers should ``finish_stream``/``reset`` its
        sessions before continuing.
        """
        checked = {
            session_id: self.check_chunk(session_id, chunk, stride)
            for session_id, chunk in chunks_by_session.items()
        }
        verdicts, failures = self.stream_tick(checked, stride)
        if failures:
            raise next(iter(failures.values()))
        return verdicts

    def stream_tick(
        self,
        chunks_by_session: Mapping[str, np.ndarray],
        stride: "Optional[Union[int, Mapping[str, int]]]" = None,
    ) -> "Tuple[Dict[str, List[SessionVerdict]], Dict[str, Exception]]":
        """The chunk tick core: plan, featurize, run, fold.

        ``chunks_by_session`` holds chunks :meth:`check_chunk` returned,
        and they are not checked again: the tick only resolves each
        session's engine, stride and dtype to group it.  Sessions are
        grouped by serving engine identity and compute dtype (a float32
        session cannot share a batched call with float64 sessions of the
        same engine).  Returns ``(verdicts, failures)``: ``verdicts`` is
        what :meth:`step_stream` returns; ``failures`` maps each session
        of a group that failed this tick to that group's exception, in
        group order, so a front end serving many clients in one tick can
        answer each with its own verdicts or its own group's failure.  A
        group whose chunks completed no window makes no call.
        """
        if not chunks_by_session:
            return {}, {}
        groups: Dict[Tuple[int, object], _TickGroup] = {}
        for session_id, arr in chunks_by_session.items():
            session, engine, stride_val, dtype = self._route(session_id, stride)
            group = groups.setdefault(
                (id(engine), dtype), _TickGroup(engine, dtype=dtype)
            )
            group.ids.append(session.session_id)
            group.arrays.append(arr)
            group.strides.append(stride_val)
        with Timer() as timer:
            self._featurize_stream_groups(groups)
        return self._serve(chunks_by_session, groups.values(), timer.elapsed_ms)

    def check_chunk(
        self,
        session_id: str,
        chunk: np.ndarray,
        stride: "Optional[Union[int, Mapping[str, int]]]" = None,
    ) -> np.ndarray:
        """Check one session's chunk: the only check a chunk tick makes.

        Raises what a tick holding this chunk would be refused for — an
        unknown session or cohort, a stride switch mid-stream, a chunk
        that is not 2-D, does not have the sensor's ``N_CHANNELS``, or
        holds non-finite samples — and returns the chunk as float64, what
        :meth:`stream_tick` takes.  Nothing moves.
        :meth:`step_stream` calls it on every chunk before its tick; a
        front end that parks chunks for a shared tick calls it on
        arrival, so a bad chunk is answered alone and never costs the
        sessions it would have shared the tick with their chunks.
        """
        session, _, _, _ = self._route(session_id, stride)
        arr = np.asarray(chunk, dtype=np.float64)
        if arr.ndim != 2:
            raise DataShapeError(
                f"session {session.session_id!r} chunk must be 2-D "
                f"(samples, channels), got {arr.shape}"
            )
        if arr.shape[1] != N_CHANNELS:
            raise DataShapeError(
                f"session {session.session_id!r} chunk has "
                f"{arr.shape[1]} channels, cohort "
                f"{session.cohort!r} expects {N_CHANNELS}"
            )
        if not np.isfinite(arr).all():
            raise DataShapeError(
                f"session {session.session_id!r} chunk holds non-finite "
                f"samples (NaN or inf)"
            )
        return arr

    def _featurize_stream_groups(
        self, groups: "Dict[Tuple[int, object], _TickGroup]"
    ) -> None:
        """A chunk tick's featurize pass: fold chunks into each session's
        carry-over (:meth:`_fold_group`), then :meth:`_featurize_groups`.

        Opens a :class:`StreamSession` (pinning the group's engine) for
        sessions without one and consumes every chunk into its stream
        state.  Carry-over is per session (the chunks were checked by
        :meth:`check_chunk`, so the pipeline does not check them again);
        overlapping-stride sessions denoise their continuous signal and
        keep their own ``process_chunk``, while the windows that
        windowed-denoise sessions completed join the stacked pass.  From
        here on the tick's completed windows only exist in the blocks —
        which is why a failing group must not discard the other groups'
        blocks (see :meth:`stream_tick`).
        """
        self._featurize_groups(groups, self._fold_group)

    def _featurize_groups(
        self,
        groups: "Dict[Tuple[int, object], _TickGroup]",
        windows_of: "Callable[[_TickGroup], List[Tuple[int, np.ndarray]]]",
    ) -> None:
        """Fill every group's feature blocks: the featurize pass of a tick.

        ``windows_of(group)`` fills what it can of ``group.blocks`` and
        returns ``(block slot, windows)`` for the rest.  Those windows are
        featurized across groups: the windows of every group whose window
        kernel has the same configuration key (denoiser and extractor
        configuration, window length, dtype — every cohort loaded from
        one package shares one) are stacked into *one* ``raw`` call of
        the pipeline's window kernel; each group then normalizes its own
        share with its own normalizer and splits it back by count — the
        two halves ``process_chunk`` composes, row-wise both, so a
        session's rows do not depend on who shared its tick.

        Failures are isolated per group and kept on it
        (``group.failure``): a ``windows_of`` or normalizer that raises
        fails its own group, a shared ``raw`` call that raises fails
        exactly the groups that shared it.
        """
        shares: Dict[str, list] = {}
        for group in groups.values():
            stacked = _isolated((group,), windows_of, group)
            if stacked:
                kernel = group.engine.pipeline.window_kernel(group.dtype)
                shares.setdefault(kernel.key, []).append(
                    (group, kernel, stacked)
                )
        for share in shares.values():
            raw = _isolated(
                [group for group, _, _ in share],
                share[0][1].raw,
                np.concatenate(
                    [windows for _, _, stacked in share for _, windows in stacked],
                    axis=0,
                ),
            )
            if raw is None:
                continue
            offset = 0
            for group, kernel, stacked in share:
                count = sum(windows.shape[0] for _, windows in stacked)
                features = _isolated(
                    (group,), kernel.normalize, raw[offset : offset + count]
                )
                offset += count
                if features is None:
                    continue
                start = 0
                for slot, windows in stacked:
                    group.blocks[slot] = features[start : start + windows.shape[0]]
                    start += windows.shape[0]

    def _fold_group(self, group: _TickGroup) -> "List[Tuple[int, np.ndarray]]":
        """Fold a group's chunks into its sessions' streams.

        Stream-denoise sessions get their feature block here; returns
        ``(block slot, completed windows)`` of the windowed ones.
        """
        pipeline = group.engine.pipeline
        stacked: List[Tuple[int, np.ndarray]] = []
        for session_id, arr, stride_val in zip(
            group.ids, group.arrays, group.strides
        ):
            session = self.sessions[session_id]
            if session.stream is None:
                session.stream = group.engine.open_stream(
                    stride=stride_val, dtype=group.dtype
                )
            state = session.stream.state
            if state.denoiser_stream is None:
                stacked.append(
                    (
                        len(group.blocks),
                        pipeline.fold_chunk(state, arr, validated=True),
                    )
                )
                group.blocks.append(None)
            else:
                group.blocks.append(
                    pipeline.process_chunk(state, arr, validated=True)
                )
        return stacked

    def _serve(
        self,
        session_ids,
        groups,
        featurize_ms: float,
        tick: bool = True,
    ) -> "Tuple[Dict[str, List[SessionVerdict]], Dict[str, Exception]]":
        """Run and fold featurized groups: ``(verdicts, failures)``.

        Each group with feature rows makes its one batched call, inline;
        a failing call is kept on its group, so it cannot discard the
        other models' verdicts.  The fold then moves serving stats only
        for groups whose call succeeded, so a failure mid-tick cannot
        leave the counters claiming service that never happened.  A
        failed group's windows for this tick are lost with its exception
        — callers should ``finish_stream()``/``reset()`` its sessions —
        while healthy sessions' observed verdicts stay consistent with
        their stream state (visible via ``EdgeSession.last_verdict`` even
        when a re-raise loses the tick's return value).  A stream group
        credits its sessions' ``windows_inferred``; a ``step`` group
        (no strides) has no stream to credit.

        Featurization is part of serving: ``featurize_ms`` is charged to
        ``serve_ms`` and the tick counts (a flush passes ``tick=False``)
        unless every call failed, so a tick whose chunks completed no
        window still counts, charged that time alone, and a tick on which
        every group failed leaves all counters untouched.
        """
        results = []
        for group in groups:
            if group.failure is None and sum(group.counts):
                batch = _isolated((group,), group.run)
                if batch is not None:
                    results.append((group, batch))
        failures = {
            session_id: group.failure
            for group in groups
            if group.failure is not None
            for session_id in group.ids
        }
        verdicts: Dict[str, List[SessionVerdict]] = {
            str(sid): [] for sid in session_ids
        }
        for group, batch in results:
            self.serve_ms += batch.latency_ms
            # Python scalars, read once per batch rather than per window.
            names = batch.names
            confidences = batch.confidences.tolist()
            accepted = batch.accepted.tolist()
            offset = 0
            for session_id, count in zip(group.ids, group.counts):
                session = self.sessions[session_id]
                if group.strides:
                    session.stream.windows_inferred += count
                rejected = 0
                for i in range(offset, offset + count):
                    verdicts[session_id].append(
                        session.observe(names[i], confidences[i], accepted[i])
                    )
                    rejected += not accepted[i]
                self._charge_windows(session.cohort, count, rejected)
                offset += count
        if results or not failures:
            if tick:
                self.ticks += 1
            self.serve_ms += featurize_ms
        return verdicts, failures

    def finish_stream(self, session_id: str) -> List[SessionVerdict]:
        """Flush and close one session's chunk stream at end of recording.

        Classifies any windows only completable once the signal end is
        known (bounded-lookahead continuous denoisers hold back their last
        samples until then) and folds them through the session's smoother;
        the incomplete tail window is dropped, exactly like one monolithic
        ``infer_stream`` call.  The flush is featurized from the *pinned*
        stream, so a hot-swapped cohort still closes its held-back windows
        against the model that buffered them, and it is folded like a
        stream tick that is not counted as one.  The stream is closed
        whether or not its featurize pass or model call succeeded (a
        failure is re-raised after); the session stays connected and
        keeps its smoother state — the next :meth:`step_stream` chunk
        starts a fresh stream.  A session with no open stream returns an
        empty list.
        """
        session = self.session(session_id)
        stream = session.stream
        if stream is None:
            return []
        group = _TickGroup(stream.engine, dtype=stream.dtype)
        group.ids.append(session.session_id)
        group.strides.append(stream.stride)
        try:
            with Timer() as timer:
                group.blocks.append(
                    _isolated(
                        (group,), stream.engine.pipeline.finish_stream,
                        stream.state,
                    )
                )
            verdicts, failures = self._serve(
                [session.session_id], [group], timer.elapsed_ms, tick=False
            )
        finally:
            session.stream = None
        if failures:
            raise failures[session.session_id]
        return verdicts[session.session_id]

    def summary(self) -> Dict[str, float]:
        """Fleet-level serving statistics."""
        throughput = (
            self.windows_served / (self.serve_ms / 1e3)
            if self.serve_ms > 0
            else 0.0
        )
        # Cumulative, like windows_served — survives disconnects and resets.
        return {
            "sessions": float(self.n_sessions),
            "ticks": float(self.ticks),
            "windows_served": float(self.windows_served),
            "serve_ms": self.serve_ms,
            "windows_per_sec": throughput,
            "rejected_windows": float(self.windows_rejected),
        }

    def cohort_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-cohort serving rollups.

        Keys are every cohort that has connected sessions or served
        windows; values carry the session count plus the cumulative
        windows served/rejected (latency is shared across cohorts inside
        a batched call, so it stays fleet-level in :meth:`summary`).
        """
        sessions_by_cohort: Dict[str, int] = {}
        for session in self.sessions.values():
            sessions_by_cohort[session.cohort] = (
                sessions_by_cohort.get(session.cohort, 0) + 1
            )
        cohorts = (
            set(sessions_by_cohort)
            | set(self.cohort_windows_served)
            | set(self.cohort_windows_rejected)
        )
        return {
            cohort: {
                "sessions": float(sessions_by_cohort.get(cohort, 0)),
                "windows_served": float(
                    self.cohort_windows_served.get(cohort, 0)
                ),
                "rejected_windows": float(
                    self.cohort_windows_rejected.get(cohort, 0)
                ),
            }
            for cohort in sorted(cohorts)
        }
