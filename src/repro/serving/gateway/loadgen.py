"""Load harness for the gateway: replayed device fleets, latency percentiles.

:func:`run_load` replays a fixed chunk schedule through N concurrent
:class:`~repro.serving.gateway.client.GatewayClient` sessions against a
live gateway and reports per-tick round-trip latency percentiles
(p50/p95/p99) and windows served — the numbers the ``repro
gateway-bench`` CLI prints.
:func:`find_saturation` ramps the device count over the same schedule and
records the saturation point: the largest fleet the gateway still scales
for (throughput gain ≥ ``min_gain`` per step).

Everything here is measurement plumbing; no inference happens outside
the gateway's own :class:`~repro.serving.FleetServer` path.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ...exceptions import ConfigurationError
from .client import GatewayClient

__all__ = ["LoadReport", "run_load", "find_saturation", "percentiles"]


def percentiles(latencies_ms: Sequence[float]) -> Dict[str, float]:
    """The p50/p95/p99 summary of a latency sample (ms)."""
    if not latencies_ms:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    arr = np.asarray(latencies_ms, dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
    }


@dataclass
class LoadReport:
    """What one :func:`run_load` replay measured."""

    devices: int
    ticks: int
    wall_s: float
    latencies_ms: List[float] = field(default_factory=list)
    windows_served: int = 0

    @property
    def p50_ms(self) -> float:
        return percentiles(self.latencies_ms)["p50_ms"]

    @property
    def p95_ms(self) -> float:
        return percentiles(self.latencies_ms)["p95_ms"]

    @property
    def p99_ms(self) -> float:
        return percentiles(self.latencies_ms)["p99_ms"]

    @property
    def windows_per_sec(self) -> float:
        return self.windows_served / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, float]:
        """A flat JSON-ready summary (percentiles precomputed)."""
        stats = percentiles(self.latencies_ms)
        return {
            "devices": self.devices,
            "ticks": self.ticks,
            "wall_s": self.wall_s,
            "p50_ms": stats["p50_ms"],
            "p95_ms": stats["p95_ms"],
            "p99_ms": stats["p99_ms"],
            "windows_served": self.windows_served,
            "windows_per_sec": self.windows_per_sec,
        }


async def _drive_device(
    host: str,
    port: int,
    device_id: str,
    chunks: Sequence[np.ndarray],
    cohort: Optional[str],
    stride: Optional[int],
    tick_interval_s: float,
    latencies_ms: List[float],
    counters: Dict[str, int],
) -> None:
    async with GatewayClient(host, port) as client:
        await client.connect(device_id, cohort=cohort, stride=stride)
        for chunk in chunks:
            start = time.perf_counter()
            verdicts = await client.send_chunk(chunk)
            latencies_ms.append((time.perf_counter() - start) * 1000.0)
            counters["windows"] += len(verdicts)
            if tick_interval_s > 0:
                await asyncio.sleep(tick_interval_s)
        # await first: "+=" reads the counter before its right-hand side
        # runs, and would overwrite what other devices add meanwhile
        tail = await client.finish()
        counters["windows"] += len(tail)


async def run_load(
    host: str,
    port: int,
    device_chunks: Dict[str, Sequence[np.ndarray]],
    cohorts: Optional[Dict[str, str]] = None,
    stride: Optional[int] = None,
    tick_interval_s: float = 0.0,
) -> LoadReport:
    """Replay ``device_chunks`` concurrently and measure tick latency.

    Parameters
    ----------
    device_chunks:
        One chunk schedule per simulated device (``{device_id: [ticks]}``);
        every device runs its own connection and session, all concurrent.
    cohorts:
        Optional per-device cohort binding (default cohort otherwise).
    tick_interval_s:
        Idle time each device sleeps between its ticks (0 = replay at
        full speed, the saturation-probing mode).
    """
    if not device_chunks:
        raise ConfigurationError("run_load needs at least one device")
    cohorts = cohorts or {}
    latencies_ms: List[float] = []
    counters = {"windows": 0}
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _drive_device(
                host,
                port,
                device_id,
                chunks,
                cohorts.get(device_id),
                stride,
                tick_interval_s,
                latencies_ms,
                counters,
            )
            for device_id, chunks in device_chunks.items()
        )
    )
    wall_s = time.perf_counter() - start
    n_ticks = max(len(chunks) for chunks in device_chunks.values())
    return LoadReport(
        devices=len(device_chunks),
        ticks=n_ticks,
        wall_s=wall_s,
        latencies_ms=latencies_ms,
        windows_served=counters["windows"],
    )


async def find_saturation(
    host: str,
    port: int,
    make_device_chunks: Callable[[int], Dict[str, Sequence[np.ndarray]]],
    device_counts: Sequence[int],
    stride: Optional[int] = None,
    min_gain: float = 1.10,
) -> Dict:
    """Ramp the fleet size and record where the gateway stops scaling.

    Each step replays ``make_device_chunks(n)`` at full speed and keeps
    the throughput (windows/sec).  The saturation point is the last
    device count that still *improved* throughput by ``min_gain`` over
    the previous step; the first step that does not ends the ramp.
    """
    steps: List[Dict[str, float]] = []
    saturation = int(device_counts[0])
    prev_throughput = 0.0
    for count in device_counts:
        report = await run_load(
            host,
            port,
            make_device_chunks(int(count)),
            stride=stride,
        )
        steps.append(report.to_dict())
        scaled = report.windows_per_sec >= prev_throughput * min_gain
        if steps[:-1] and not scaled:
            break
        saturation = int(count)
        prev_throughput = report.windows_per_sec
    return {
        "device_counts": [int(step["devices"]) for step in steps],
        "steps": steps,
        "saturation_devices": saturation,
    }
