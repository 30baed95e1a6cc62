"""Population-scale serving: the multi-model cohort layer.

Everything needed to serve a heterogeneous device fleet from one process:

- :class:`~repro.serving.registry.ModelRegistry` — model packages keyed by
  cohort id, with a default cohort, lazy loading and hot-swap publishing;
- :class:`~repro.core.engine.FleetServer` (re-exported) — binds each
  session to a cohort and issues one batched engine call per distinct
  model per tick;
- :class:`~repro.serving.async_fleet.AsyncFleetServer` — the asyncio
  driver of the same tick: ``await step_stream(...)`` runs it inline on
  the event loop (same verdicts; one tick in flight at a time, so each
  session's chunks are served in call order);
- :class:`~repro.serving.cohorts.CohortSpec` /
  :func:`~repro.serving.cohorts.load_cohort_spec` — declarative fleet
  layouts for the CLI and benchmarks;
- :class:`~repro.serving.gateway.GatewayServer` /
  :class:`~repro.serving.gateway.GatewayClient` — the TCP ingestion
  edge: framed ``HELLO``/``CHUNK``/``FINISH`` sessions served through
  the async fleet with per-cohort micro-batched ticks (a chunk that
  arrives mid-tick waits for the next flush) and structured error codes.

Quickstart::

    from repro.serving import FleetServer, ModelRegistry

    registry = ModelRegistry(default_cohort="wrist")
    registry.publish("wrist", wrist_package)     # TransferPackage or engine
    registry.register_lazy("pocket", "pocket.npz")   # loads on first use

    server = FleetServer(registry)
    server.connect("alice", cohort="wrist")
    server.connect("bob", cohort="pocket")
    verdicts = server.step_stream({"alice": chunk_a, "bob": chunk_b})

    registry.publish("wrist", new_package)  # hot-swap; open streams keep
                                            # their pinned model until
                                            # finish_stream()
"""

from ..core.engine import (
    DEFAULT_COHORT,
    EdgeSession,
    FleetServer,
    SessionVerdict,
)
from ..core.transfer import CohortHead, engine_from_head
from .async_fleet import AsyncFleetServer
from .cohorts import (
    CohortSpec,
    FleetSpec,
    load_cohort_spec,
    parse_fleet_spec,
    registry_from_specs,
)
from .gateway import GatewayClient, GatewayServer
from .registry import ModelRegistry, engine_from_package

__all__ = [
    "AsyncFleetServer",
    "CohortHead",
    "CohortSpec",
    "DEFAULT_COHORT",
    "EdgeSession",
    "FleetSpec",
    "FleetServer",
    "GatewayClient",
    "GatewayServer",
    "ModelRegistry",
    "SessionVerdict",
    "engine_from_head",
    "engine_from_package",
    "load_cohort_spec",
    "parse_fleet_spec",
    "registry_from_specs",
]
