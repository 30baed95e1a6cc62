"""Async fleet serving: the fleet tick with its engine calls on a thread pool.

:class:`AsyncFleetServer` drives the same tick core as the synchronous
:class:`~repro.core.engine.FleetServer` — *plan* (validate, group by
model, featurize), *run* (one batched engine call per group), *fold*
(smoothers, counters) — and changes only where the run happens: every
group's call is submitted to a :class:`~concurrent.futures.ThreadPoolExecutor`
the server owns, so a multi-model tick's calls overlap (NumPy releases
the GIL in its hot paths) while the event loop stays free.  Around that
core it keeps what concurrent callers need:

- **admission** — at most ``max_inflight`` ticks are in flight; the next
  call raises :class:`~repro.exceptions.BackpressureError` *before*
  consuming any chunk, so nothing is dropped;
- **ordering** — ticks naming the same session serialize in arrival order
  on per-session locks, acquired in sorted session order so overlapping
  ticks cannot deadlock;
- **disconnect guard** — a session cannot be disconnected under a tick
  that is still awaiting its engine calls.

Pinning is the synchronous server's: an open stream serves from
``session.stream.engine`` until ``finish_stream``, even across a
:meth:`~repro.serving.registry.ModelRegistry.publish` that lands while a
tick is in flight.

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
import contextlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.engine import FleetServer, InferenceEngine, SessionVerdict
from ..core.smoothing import HysteresisSmoother
from ..exceptions import BackpressureError, ConfigurationError

__all__ = ["AsyncFleetServer"]


class AsyncFleetServer(FleetServer):
    """Asyncio driver of the fleet tick, engine calls on a thread pool.

    Session management (``connect``/``disconnect``/``session``), counters
    and ``summary()``/``cohort_summary()`` are inherited; :meth:`step`,
    :meth:`step_stream` and :meth:`finish_stream` become coroutines that
    each run admit → lock → plan → await run → fold.  Plan and fold are
    the synchronous server's own code, so verdicts (to 1e-9 at any
    stride/chunking), failure isolation and tick accounting match it
    exactly.

    Parameters
    ----------
    engine:
        A pipeline-bearing engine or a registry, as for ``FleetServer``.
    smoother_factory:
        Per-session smoother factory (``None`` disables smoothing).
    workers:
        Threads running the ticks' batched engine calls.
    max_inflight:
        Bound on concurrently served ticks (the backpressure queue depth).
    """

    def __init__(
        self,
        engine: "Union[InferenceEngine, object]",
        smoother_factory: Optional[Callable[[], object]] = HysteresisSmoother,
        workers: int = 2,
        max_inflight: int = 4,
    ) -> None:
        super().__init__(engine, smoother_factory=smoother_factory)
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.max_inflight = int(max_inflight)
        self._executor = ThreadPoolExecutor(
            max_workers=int(workers), thread_name_prefix="fleet-worker"
        )
        self._inflight = 0
        self._session_locks: Dict[str, asyncio.Lock] = {}

    @property
    def inflight(self) -> int:
        """Ticks currently being served (admission-controlled)."""
        return self._inflight

    def close(self) -> None:
        """Shut the thread pool down; pending engine calls complete."""
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncFleetServer":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # admission control + ordering
    # ------------------------------------------------------------------ #

    @contextlib.contextmanager
    def _admitted(self):
        """Hold one of the ``max_inflight`` tick slots, or refuse the tick."""
        if self._inflight >= self.max_inflight:
            raise BackpressureError(
                f"{self._inflight} ticks already in flight "
                f"(max_inflight={self.max_inflight}); no chunks were "
                f"consumed — retry after in-flight ticks drain, or build "
                f"the server with a deeper queue"
            )
        self._inflight += 1
        try:
            yield
        finally:
            self._inflight -= 1

    @contextlib.asynccontextmanager
    async def _locked(self, session_ids):
        """Hold the sessions' locks, acquired in sorted order (no deadlock).

        Unknown ids raise before any lock is minted.
        """
        locks = [
            self._session_locks.setdefault(key, asyncio.Lock())
            for key in sorted(
                {self.session(sid).session_id for sid in session_ids}
            )
        ]
        acquired: List[asyncio.Lock] = []
        try:
            for lock in locks:
                await lock.acquire()
                acquired.append(lock)
            yield
        finally:
            for lock in acquired:
                lock.release()

    def disconnect(self, session_id: str) -> None:
        """Disconnect a session; refuses while one of its ticks is in flight.

        Removing a session (and its ordering lock) under an awaiting tick
        would crash that tick's fold mid-way and void the per-session
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

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    async def _run_on_pool(self, groups) -> "Tuple[list, Optional[Exception]]":
        """:meth:`FleetServer._run_groups` with every call on the pool.

        All groups are submitted before the first await, so their calls
        overlap; results are collected in group order, keeping the fold
        identical to the inline loop's.
        """
        loop = asyncio.get_running_loop()
        pending = [
            (group, loop.run_in_executor(self._executor, group.run))
            for group in groups
        ]
        results = []
        failure: Optional[Exception] = None
        for group, future in pending:
            try:
                results.append((group, await future))
            except Exception as exc:  # reprolint: disable=broad-except — failure isolation: one failing model loses only its own sessions' windows; the first failure is re-raised after healthy models demux
                if failure is None:
                    failure = exc
        return results, failure

    async def step(
        self, windows_by_session: Mapping[str, np.ndarray]
    ) -> Dict[str, SessionVerdict]:
        """Async :meth:`FleetServer.step`: per-model calls on the pool."""
        if not windows_by_session:
            return {}
        with self._admitted():
            async with self._locked(windows_by_session):
                groups = self._group_windows(windows_by_session)
                results, failure = await self._run_on_pool(groups.values())
                return self._demux_window_results(
                    windows_by_session, results, failure
                )

    async def step_stream(
        self,
        chunks_by_session: Mapping[str, np.ndarray],
        stride: "Optional[Union[int, Mapping[str, int]]]" = None,
    ) -> Dict[str, List[SessionVerdict]]:
        """Async :meth:`FleetServer.step_stream`: per-model calls on the pool.

        Validation and the per-session carry-over featurization run on the
        event loop — chunk order per session is the verdict order, exactly
        as in the synchronous server — then every distinct model's batch
        of feature rows is classified on the pool.
        """
        if not chunks_by_session:
            return {}
        with self._admitted():
            async with self._locked(chunks_by_session):
                groups, featurize_ms = self._plan_stream_tick(
                    chunks_by_session, stride
                )
                results, failure = await self._run_on_pool(groups)
                return self._demux_stream_results(
                    chunks_by_session, results, failure, featurize_ms
                )

    async def finish_stream(self, session_id: str) -> List[SessionVerdict]:
        """Async :meth:`FleetServer.finish_stream`: the flush on the pool.

        Waits for the session's in-flight ticks (its lock) but takes no
        admission slot; the stream is closed whether or not the call
        succeeds.
        """
        async with self._locked([session_id]):
            session = self.session(session_id)
            groups, featurize_ms = self._plan_flush(session)
            results, failure = await self._run_on_pool(groups)
            return self._demux_flush(session, results, failure, featurize_ms)
