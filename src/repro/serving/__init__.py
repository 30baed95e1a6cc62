"""Population-scale serving: the multi-model cohort layer.

Everything needed to serve a heterogeneous device fleet from one process:

- :class:`~repro.serving.registry.ModelRegistry` — model packages keyed by
  cohort id, with a default cohort, lazy loading and hot-swap publishing;
- :class:`~repro.serving.fleet.FleetServer` — binds each session to a
  cohort and issues one batched engine call per distinct model per tick;
  the one fleet class, serving both the in-process API and the gateway;
- :class:`~repro.serving.async_fleet.AsyncFleetServer` — ``await``
  wrappers over the same tick, run inline on the event loop;
- :class:`~repro.serving.cohorts.CohortSpec` /
  :func:`~repro.serving.cohorts.load_cohort_spec` — declarative fleet
  layouts for the CLI and benchmarks;
- :class:`~repro.serving.gateway.GatewayServer` /
  :class:`~repro.serving.gateway.GatewayClient` — the TCP ingestion
  edge: framed ``HELLO``/``CHUNK``/``FINISH`` sessions served through
  one :class:`FleetServer` with micro-batched ticks across cohorts (a
  chunk that arrives mid-tick waits for the next flush) and structured
  error codes.

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

from .async_fleet import AsyncFleetServer
from .cohorts import (
    CohortSpec,
    FleetSpec,
    load_cohort_spec,
    parse_fleet_spec,
    registry_from_specs,
)
from .fleet import EdgeSession, FleetServer, SessionVerdict
from .gateway import GatewayClient, GatewayServer
from .registry import DEFAULT_COHORT, ModelRegistry, engine_from_package

__all__ = [
    "AsyncFleetServer",
    "CohortSpec",
    "DEFAULT_COHORT",
    "EdgeSession",
    "FleetSpec",
    "FleetServer",
    "GatewayClient",
    "GatewayServer",
    "ModelRegistry",
    "SessionVerdict",
    "engine_from_package",
    "load_cohort_spec",
    "parse_fleet_spec",
    "registry_from_specs",
]
