"""Async fleet serving: the fleet tick as coroutines, served on the loop.

:class:`AsyncFleetServer` is the synchronous
:class:`~repro.serving.fleet.FleetServer` behind an ``await``: every entry
point runs the same tick core — *plan* (validate, group by model,
featurize), *run* (one batched engine call per group, inline in
:meth:`~repro.serving.fleet.FleetServer._run_groups`), *fold* (smoothers,
counters) — on the event loop's own thread.  A tick never suspends
between plan and fold, so two ticks are never in flight at once: chunks
of one session are served in call order, a session cannot be
disconnected under its own tick, and a caller that gathers several ticks
gets them served one after another.

Running the engine calls on the loop is a measured choice, not a
shortcut.  A tick's featurization already ran on the loop, and the
batched classification that remains is short; handing it to a worker
thread made the loop wait to re-acquire the GIL after every NumPy call
and cost the TCP gateway about 12% of its lockstep tick latency.

Pinning is the synchronous server's: an open stream serves from
``session.stream.engine`` until ``finish_stream``, even across a
:meth:`~repro.serving.registry.ModelRegistry.publish`.

Quickstart::

    import asyncio
    from repro.serving import AsyncFleetServer

    async def serve():
        async with AsyncFleetServer(registry) as fleet:
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

import warnings
from typing import Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from ..core.engine import InferenceEngine
from ..core.smoothing import HysteresisSmoother
from .fleet import FleetServer, SessionVerdict

__all__ = ["AsyncFleetServer"]


class AsyncFleetServer(FleetServer):
    """Asyncio driver of the fleet tick; every tick runs on the loop.

    Session management (``connect``/``disconnect``/``session``), counters
    and ``summary()``/``cohort_summary()`` are inherited; :meth:`step`,
    :meth:`step_stream` and :meth:`finish_stream` become coroutines over
    the synchronous server's own plan → run → fold, so verdicts (to 1e-9
    at any stride/chunking), failure isolation and tick accounting match
    it exactly.  The inherited ``stream_tick`` (the tick core, reporting
    failures per session) stays a plain call: it never suspends, and the
    gateway's flusher calls it on the loop.

    Parameters
    ----------
    engine:
        A pipeline-bearing engine or a registry, as for ``FleetServer``.
    smoother_factory:
        Per-session smoother factory (``None`` disables smoothing).
    workers, max_inflight:
        Deprecated and ignored: there is no worker pool and at most one
        tick is in flight.  Passing either warns ``DeprecationWarning``.
    """

    def __init__(
        self,
        engine: "Union[InferenceEngine, object]",
        smoother_factory: Optional[Callable[[], object]] = HysteresisSmoother,
        *,
        workers: Optional[int] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        super().__init__(engine, smoother_factory=smoother_factory)
        if workers is not None or max_inflight is not None:
            warnings.warn(
                "AsyncFleetServer(workers=, max_inflight=) have no effect: "
                "every tick runs inline on the event loop; drop them",
                DeprecationWarning,
                stacklevel=2,
            )

    async def __aenter__(self) -> "AsyncFleetServer":
        return self

    async def __aexit__(self, *exc) -> None:
        return None

    async def step(
        self, windows_by_session: Mapping[str, np.ndarray]
    ) -> Dict[str, SessionVerdict]:
        """Async :meth:`FleetServer.step`."""
        return super().step(windows_by_session)

    async def step_stream(
        self,
        chunks_by_session: Mapping[str, np.ndarray],
        stride: "Optional[Union[int, Mapping[str, int]]]" = None,
    ) -> Dict[str, List[SessionVerdict]]:
        """Async :meth:`FleetServer.step_stream`."""
        return super().step_stream(chunks_by_session, stride)

    async def finish_stream(self, session_id: str) -> List[SessionVerdict]:
        """Async :meth:`FleetServer.finish_stream`."""
        return super().finish_stream(session_id)
