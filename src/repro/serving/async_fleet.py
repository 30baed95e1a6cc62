"""Async fan-out fleet serving: overlap the per-model calls of a tick.

The cohort-aware :class:`~repro.core.engine.FleetServer` already collapses
a mixed-cohort tick into **one batched engine call per distinct model** —
but it runs those calls serially, so a 3-cohort tick pays the sum of three
forward passes even on a machine with idle cores.  This module is the
concurrent front end:

- :class:`EngineWorkerPool` — a worker pool that *shards engines across
  workers*.  ``mode="thread"`` (the default) runs engine calls on a
  :class:`~concurrent.futures.ThreadPoolExecutor`: NumPy releases the GIL
  inside the hot paths (BLAS matmuls, ufuncs), so distinct models' batched
  calls genuinely overlap.  ``mode="process"`` runs each shard in its own
  single-process :class:`~concurrent.futures.ProcessPoolExecutor`: every
  engine is pickled to its shard **once** (keyed by its
  :class:`~repro.core.engine.EngineHandle`), after which only the
  *featurized windows* cross the process boundary — never raw chunks, and
  never the model again.
- :class:`AsyncFleetServer` — an asyncio front over the same
  :class:`~repro.core.engine.FleetServer` state machine.  ``await
  step_stream(chunks)`` / ``await step(windows)`` validate and featurize
  exactly like the synchronous server (verdicts are pinned identical), then
  fan the per-model batched calls out through the pool and demux when all
  complete.  Per-session ordering is guaranteed (concurrent ticks touching
  the same session serialize in arrival order), the number of in-flight
  ticks is bounded (``max_inflight``; excess calls raise
  :class:`~repro.exceptions.BackpressureError` *before* consuming any
  chunk), and a hot-swap
  :meth:`~repro.serving.registry.ModelRegistry.publish` racing an
  in-flight tick cannot change the model under an open stream — sessions
  stay pinned to the :class:`~repro.core.engine.EngineHandle` they opened
  on until ``finish_stream``.

Quickstart::

    import asyncio
    from repro.serving import AsyncFleetServer

    async def serve():
        async with AsyncFleetServer(registry, workers=2) as fleet:
            fleet.connect("alice", cohort="wrist")
            fleet.connect("bob", cohort="pocket")
            verdicts = await fleet.step_stream(
                {"alice": chunk_a, "bob": chunk_b}
            )
            await fleet.finish_stream("alice")
            return verdicts

    asyncio.run(serve())
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..core.engine import (
    BatchInference,
    EngineHandle,
    FleetServer,
    InferenceEngine,
    SessionVerdict,
)
from ..core.smoothing import HysteresisSmoother
from ..exceptions import BackpressureError, ConfigurationError
from ..utils import Timer

__all__ = ["AsyncFleetServer", "EngineWorkerPool"]


# ---------------------------------------------------------------------- #
# worker-side plumbing (module-level so process workers can unpickle it)
# ---------------------------------------------------------------------- #

#: Per-process replica cache of one process shard, keyed by
#: :attr:`EngineHandle.key`.  Lives in the *worker* process; the parent
#: only tracks which keys it has shipped to which shard.
_WORKER_ENGINES: Dict[Tuple[str, int, int], InferenceEngine] = {}

#: How many engine replicas one process shard keeps before evicting the
#: oldest — bounds worker memory across long hot-swap histories.
_WORKER_CACHE_LIMIT = 8


def _worker_install(key, engine) -> None:
    """(worker side) Cache one engine replica under its handle key."""
    while key not in _WORKER_ENGINES and (
        len(_WORKER_ENGINES) >= _WORKER_CACHE_LIMIT
    ):
        _WORKER_ENGINES.pop(next(iter(_WORKER_ENGINES)))
    _WORKER_ENGINES[key] = engine


def _worker_call(key, fn, args):
    """(worker side) Run ``fn(replica, *args)`` against a cached replica."""
    try:
        engine = _WORKER_ENGINES[key]
    except KeyError:
        raise ConfigurationError(
            f"engine replica {key!r} is not installed in this worker "
            f"(its install task failed — unpicklable engine?)"
        ) from None
    return fn(engine, *args)


def _call_engine_method(engine: InferenceEngine, method: str, array, dtype=None):
    """The default pool task: one batched engine entry-point call.

    ``dtype`` is forwarded only when set, so entry points without a
    ``dtype`` parameter (``infer_windows``) stay callable.
    """
    if dtype is not None:
        return getattr(engine, method)(array, dtype=dtype)
    return getattr(engine, method)(array)


class EngineWorkerPool:
    """Shard engines across workers and fan batched calls out to them.

    Parameters
    ----------
    workers:
        Worker count.  Each distinct :class:`~repro.core.engine.EngineHandle`
        key is assigned to one worker shard round-robin on first use, so a
        fleet with ``k`` models spreads them evenly over ``min(k, workers)``
        workers.
    mode:
        ``"thread"`` (default) — one :class:`ThreadPoolExecutor`; engines
        are shared objects and calls overlap because NumPy releases the
        GIL in the hot paths.  ``"process"`` — one single-process
        :class:`ProcessPoolExecutor` per shard; an engine is pickled to
        its shard once per handle key and cached there (bounded LRU), so
        steady-state submissions serialize only the *featurized windows*
        (``(k, d)`` float rows), never raw chunks and never the model.

    The pool is deliberately dumb: it neither knows about sessions nor
    mutates any serving state.  :class:`AsyncFleetServer` (and the async
    eval driver) do all bookkeeping on the event loop and use the pool
    purely as a compute fabric, which is what keeps verdict parity with
    the synchronous server trivially exact.
    """

    def __init__(self, workers: int = 2, mode: str = "thread") -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if mode not in ("thread", "process"):
            raise ConfigurationError(
                f"mode must be 'thread' or 'process', got {mode!r}"
            )
        self.workers = int(workers)
        self.mode = mode
        self._assignments: Dict[Tuple[str, int, int], int] = {}
        self._next_shard = 0
        self._closed = False
        # Parent-side mirror of each process shard's replica cache: an
        # insertion-ordered dict evicted with exactly the same FIFO rule
        # as the worker-side ``_worker_install`` — keeping the two in
        # lockstep is what lets ``submit_call`` know when a previously
        # shipped engine was evicted and must be re-shipped.
        if mode == "thread":
            self._executor: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="engine-worker"
            )
            self._shards: List[ProcessPoolExecutor] = []
            self._shipped: List[Dict[Tuple[str, int, int], None]] = []
        else:
            self._executor = None
            self._shards = [
                ProcessPoolExecutor(max_workers=1) for _ in range(self.workers)
            ]
            self._shipped = [{} for _ in range(self.workers)]

    # ------------------------------------------------------------------ #
    # sharding
    # ------------------------------------------------------------------ #

    def shard_of(self, handle: EngineHandle) -> int:
        """The worker shard serving ``handle`` (assigned on first use).

        The assignment is sticky: every call against the same handle key
        lands on the same shard, so a process shard's replica cache stays
        valid and two ticks of the same model never race on two replicas.
        """
        shard = self._assignments.get(handle.key)
        if shard is None:
            shard = self._next_shard % self.workers
            self._assignments[handle.key] = shard
            self._next_shard += 1
        return shard

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError("EngineWorkerPool is closed")

    def submit_call(
        self, handle: EngineHandle, fn: Callable, *args
    ) -> "Future":
        """Run ``fn(engine, *args)`` on the handle's shard; returns a future.

        ``fn`` must be a module-level callable in process mode (it is
        pickled by reference).  In thread mode it runs against the shared
        engine object; in process mode against the shard's cached replica
        (the engine is shipped on this shard's first sight of the handle).
        """
        self._require_open()
        shard = self.shard_of(handle)
        if self.mode == "thread":
            return self._executor.submit(fn, handle.engine, *args)
        executor = self._shards[shard]
        shipped = self._shipped[shard]
        if handle.key not in shipped:
            # Mirror the worker's FIFO eviction (``_worker_install``)
            # before recording the install, so a key the worker evicted is
            # known to need re-shipping here.
            while len(shipped) >= _WORKER_CACHE_LIMIT:
                shipped.pop(next(iter(shipped)))
            # Single-worker shards run FIFO: the install is guaranteed to
            # complete before any invoke submitted after it.
            executor.submit(_worker_install, handle.key, handle.engine)
            shipped[handle.key] = None
        return executor.submit(_worker_call, handle.key, fn, args)

    def submit(
        self,
        handle: EngineHandle,
        method: str,
        array: np.ndarray,
        dtype=None,
    ) -> "Future":
        """Fan one batched engine entry-point call out to the pool.

        ``method`` names an :class:`~repro.core.engine.InferenceEngine`
        entry point taking a single array (``infer_features``,
        ``infer_windows``, ...); returns a future of its
        :class:`~repro.core.engine.BatchInference`.  ``dtype`` (when set)
        is forwarded as the entry point's compute dtype — the float32
        fast path of ``infer_features``.
        """
        return self.submit_call(
            handle, _call_engine_method, method, array, dtype
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the executors down (idempotent); pending work completes."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        for shard in self._shards:
            shard.shutdown(wait=True)

    def __enter__(self) -> "EngineWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# the asyncio serving front
# ---------------------------------------------------------------------- #


class AsyncFleetServer(FleetServer):
    """Asyncio fleet serving with per-model fan-out over a worker pool.

    A drop-in concurrent twin of :class:`~repro.core.engine.FleetServer`:
    session management (``connect``/``disconnect``/``session``), counters
    and ``summary()``/``cohort_summary()`` are inherited unchanged, while
    :meth:`step`, :meth:`step_stream` and :meth:`finish_stream` become
    coroutines that overlap the per-distinct-model batched engine calls of
    one tick through an :class:`EngineWorkerPool`.

    Semantics (all pinned by tests against the synchronous server):

    - **Verdict parity** — validation, featurization and demux run the
      exact same code as the synchronous server on the event loop; only
      the already-featurized per-model batches travel to workers, so
      mixed-cohort verdicts are identical (1e-9) to serial serving at any
      stride/chunking.
    - **Per-session ordering** — concurrent ticks naming the same session
      serialize in arrival order on per-session locks (acquired in sorted
      session order, so overlapping ticks cannot deadlock); a session's
      verdict sequence is always the one its chunk arrival order implies.
    - **Backpressure** — at most ``max_inflight`` ticks may be in flight;
      the next call raises :class:`~repro.exceptions.BackpressureError`
      *before* consuming any chunk, so nothing is dropped — the caller
      retries when the queue drains.
    - **Hot-swap pinning** — a session's stream opens against the
      :class:`~repro.core.engine.EngineHandle` its cohort resolves to at
      that moment and stays pinned to it across ``publish`` (even one that
      lands mid-await of an in-flight tick) until ``finish_stream``.
    - **Failure isolation** — one model raising loses only its own
      sessions' windows for that tick; the other models' verdicts are
      demuxed before the first failure is re-raised, and tick/serve_ms
      accounting matches the synchronous server exactly.

    Parameters
    ----------
    engine:
        A pipeline-bearing engine or a registry, as for ``FleetServer``.
    smoother_factory:
        Per-session smoother factory (``None`` disables smoothing).
    workers / mode:
        Pool geometry when the server owns its pool (ignored with
        ``pool=``); see :class:`EngineWorkerPool`.
    max_inflight:
        Bound on concurrently served ticks (the backpressure queue depth).
    pool:
        An existing :class:`EngineWorkerPool` to share; the caller keeps
        ownership (``close()`` will not shut it down).
    """

    def __init__(
        self,
        engine: "Union[InferenceEngine, object]",
        smoother_factory: Optional[Callable[[], object]] = HysteresisSmoother,
        workers: int = 2,
        mode: str = "thread",
        max_inflight: int = 4,
        pool: Optional[EngineWorkerPool] = None,
    ) -> None:
        super().__init__(engine, smoother_factory=smoother_factory)
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.max_inflight = int(max_inflight)
        if pool is not None:
            self._pool = pool
            self._owns_pool = False
        else:
            self._pool = EngineWorkerPool(workers=workers, mode=mode)
            self._owns_pool = True
        self._inflight = 0
        self._session_locks: Dict[str, asyncio.Lock] = {}
        # session id -> the handle its open stream is pinned to; kept here
        # (not on EdgeSession) so the synchronous base class stays oblivious
        # to handles and plain FleetServer pickling/semantics are untouched.
        self._stream_handles: Dict[str, EngineHandle] = {}

    # ------------------------------------------------------------------ #
    # pool / lifecycle
    # ------------------------------------------------------------------ #

    @property
    def pool(self) -> EngineWorkerPool:
        return self._pool

    @property
    def inflight(self) -> int:
        """Ticks currently being served (admission-controlled)."""
        return self._inflight

    def close(self) -> None:
        """Shut down the owned worker pool (shared pools are untouched)."""
        if self._owns_pool:
            self._pool.close()

    async def __aenter__(self) -> "AsyncFleetServer":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # admission control + ordering
    # ------------------------------------------------------------------ #

    def _acquire_slot(self) -> None:
        if self._inflight >= self.max_inflight:
            raise BackpressureError(
                f"{self._inflight} ticks already in flight "
                f"(max_inflight={self.max_inflight}); no chunks were "
                f"consumed — retry after in-flight ticks drain, or build "
                f"the server with a deeper queue"
            )
        self._inflight += 1

    def _release_slot(self) -> None:
        self._inflight -= 1

    def _lock_for(self, session_id: str) -> asyncio.Lock:
        return self._session_locks.setdefault(session_id, asyncio.Lock())

    async def _acquire_session_locks(self, session_ids) -> List[asyncio.Lock]:
        """Acquire the tick's session locks in sorted order (no deadlock)."""
        locks = [self._lock_for(sid) for sid in sorted(session_ids)]
        acquired: List[asyncio.Lock] = []
        try:
            for lock in locks:
                await lock.acquire()
                acquired.append(lock)
        except BaseException:
            for lock in acquired:
                lock.release()
            raise
        return acquired

    def disconnect(self, session_id: str) -> None:
        """Disconnect a session; refuses while one of its ticks is in flight.

        Removing a session (and its ordering lock) under an awaiting tick
        would crash that tick's demux mid-way and void the per-session
        ordering guarantee, so a held lock raises
        :class:`~repro.exceptions.ConfigurationError` — await the tick
        (or :meth:`finish_stream`) first.
        """
        key = str(session_id)
        lock = self._session_locks.get(key)
        if lock is not None and lock.locked():
            raise ConfigurationError(
                f"session {key!r} has a tick in flight; await it before "
                f"disconnecting"
            )
        super().disconnect(session_id)
        self._session_locks.pop(key, None)
        self._stream_handles.pop(key, None)

    # ------------------------------------------------------------------ #
    # handle resolution
    # ------------------------------------------------------------------ #

    def _registry_handle(self, cohort: str) -> EngineHandle:
        registry = self.registry
        if hasattr(registry, "engine_handle_for"):
            return registry.engine_handle_for(cohort)
        # Duck-typed registries predating handles: synthesize one (the key
        # still pins the engine object itself).
        return EngineHandle(
            cohort=str(cohort), version=-1, engine=registry.engine_for(cohort)
        )

    def _stream_handle_for(self, session) -> EngineHandle:
        """The handle a stream tick serves this session from.

        Mirrors :meth:`FleetServer._stream_engine`: an open stream stays
        pinned to the handle it opened on; otherwise the cohort resolves
        through the registry, picking up the latest published version.
        """
        if session.stream is not None:
            handle = self._stream_handles.get(session.session_id)
            if handle is not None and handle.engine is session.stream.engine:
                return handle
            # Stream opened outside this server (e.g. by the sync base
            # class API) — pin its engine under an ad-hoc handle.
            return EngineHandle(
                cohort=session.cohort,
                version=-1,
                engine=session.stream.engine,
            )
        return self._registry_handle(session.cohort)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    async def _await_group_batches(
        self, pending
    ) -> "Tuple[list, Optional[Exception]]":
        """Await ``(group, future)`` pairs; collect successes + 1st failure.

        Each future is one model's batched call and resolves to its
        :class:`BatchInference`.  Futures were all submitted before the
        first await, so the pool runs them concurrently regardless of the
        sequential collection order here (which exists to keep the demux
        order deterministic and identical to the synchronous server's).
        """
        results = []
        failure: Optional[Exception] = None
        for group, future in pending:
            try:
                batch = await asyncio.wrap_future(future)
            except Exception as exc:  # reprolint: disable=broad-except — failure isolation: a worker-pool model failure loses only its own group's windows; the first failure is re-raised after the tick's demux
                if failure is None:
                    failure = exc
                continue
            results.append((group, batch))
        return results, failure

    async def step(
        self, windows_by_session: Mapping[str, np.ndarray]
    ) -> Dict[str, SessionVerdict]:
        """Async :meth:`FleetServer.step`: fan per-model calls out.

        Windows are validated and featurized on the event loop (exactly
        the synchronous code), then each distinct model's batch runs on
        the worker pool concurrently.  Verdicts, failure isolation and
        tick accounting are identical to the synchronous server.
        """
        if not windows_by_session:
            return {}
        for session_id in windows_by_session:
            self.session(session_id)  # raise before any lock is minted
        self._acquire_slot()
        try:
            locks = await self._acquire_session_locks(
                {str(sid) for sid in windows_by_session}
            )
            try:
                handles: Dict[int, EngineHandle] = {}
                for session_id in windows_by_session:
                    session = self.session(session_id)
                    # Windowed ticks always resolve through the registry
                    # (no pinning), mirroring the synchronous step().
                    handle = self._registry_handle(session.cohort)
                    handles[id(handle.engine)] = handle
                groups = self._group_windows(windows_by_session)
                timer = Timer().__enter__()
                pending = [
                    (
                        group,
                        self._pool.submit(
                            handles[id(group.engine)],
                            "infer_features",
                            group.engine.pipeline.process_windows(
                                group.stack()
                            ),
                        ),
                    )
                    for group in groups.values()
                ]
                timer.__exit__()
                results, failure = await self._await_group_batches(pending)
                return self._demux_window_results(
                    windows_by_session, results, failure, timer.elapsed_ms
                )
            finally:
                for lock in locks:
                    lock.release()
        finally:
            self._release_slot()

    async def step_stream(
        self,
        chunks_by_session: Mapping[str, np.ndarray],
        stride: "Optional[Union[int, Mapping[str, int]]]" = None,
    ) -> Dict[str, List[SessionVerdict]]:
        """Async :meth:`FleetServer.step_stream`: fan per-model calls out.

        Validation and the per-session carry-over featurization run on the
        event loop — chunk order per session is the verdict order, exactly
        as in the synchronous server — then every distinct model's batch
        of featurized windows is classified concurrently on the pool.  See
        the class docstring for ordering/backpressure/pinning guarantees.
        """
        if not chunks_by_session:
            return {}
        for session_id in chunks_by_session:
            self.session(session_id)  # raise before any lock is minted
        self._acquire_slot()
        try:
            locks = await self._acquire_session_locks(
                {str(sid) for sid in chunks_by_session}
            )
            try:
                handles: Dict[int, EngineHandle] = {}
                for session_id in chunks_by_session:
                    session = self.session(session_id)
                    handle = self._stream_handle_for(session)
                    handles[id(handle.engine)] = handle
                groups = self._validate_stream_tick(chunks_by_session, stride)
                timer = Timer().__enter__()
                self._featurize_stream_groups(groups)
                timer.__exit__()
                # Streams opened by this tick pin the handle they resolved
                # to above; a publish() racing the awaits below can no
                # longer reach them.
                for session_id in chunks_by_session:
                    session = self.sessions[str(session_id)]
                    if session.stream is not None:
                        self._stream_handles[str(session_id)] = handles[
                            id(session.stream.engine)
                        ]
                pending = [
                    (
                        group,
                        self._pool.submit(
                            handles[id(group.engine)],
                            "infer_features",
                            np.concatenate(group.blocks, axis=0),
                            group.dtype,
                        ),
                    )
                    for group in groups.values()
                    if sum(group.counts) > 0
                ]
                results, failure = await self._await_group_batches(pending)
                return self._demux_stream_results(
                    chunks_by_session,
                    groups,
                    results,
                    failure,
                    timer.elapsed_ms,
                )
            finally:
                for lock in locks:
                    lock.release()
        finally:
            self._release_slot()

    async def finish_stream(self, session_id: str) -> List[SessionVerdict]:
        """Async :meth:`FleetServer.finish_stream`: flush via the pool.

        The held-back windows are featurized from the session's pinned
        stream state on the event loop and classified through the pinned
        handle's worker, so a hot-swapped cohort still closes against the
        model that buffered its samples.  The session's stream is closed
        either way; per-session ordering with in-flight ticks holds (the
        flush waits for the session's lock).
        """
        key = str(session_id)
        self.session(key)  # raises for unknown ids before locking
        async with self._lock_for(key):
            session = self.session(key)
            if session.stream is None:
                return []
            handle = self._stream_handle_for(session)
            stream = session.stream
            timer = Timer().__enter__()
            features = stream.engine.pipeline.finish_stream(stream.state)
            timer.__exit__()
            session.stream = None
            self._stream_handles.pop(key, None)
            if features.shape[0] == 0:
                self.serve_ms += timer.elapsed_ms
                return []
            batch: BatchInference = await asyncio.wrap_future(
                self._pool.submit(
                    handle, "infer_features", features, stream.dtype
                )
            )
            names = batch.names
            verdicts = [
                session.observe(
                    names[i], batch.confidences[i], batch.accepted[i]
                )
                for i in range(len(batch))
            ]
            self._charge_windows(
                session.cohort,
                len(batch),
                int(np.count_nonzero(~batch.accepted)),
            )
            self.serve_ms += timer.elapsed_ms + batch.latency_ms
            return verdicts
