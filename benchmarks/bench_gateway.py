"""E-GATEWAY — socket-served fleet ticks vs the in-process async path.

The :class:`~repro.serving.gateway.GatewayServer` puts a TCP wire between
devices and the :class:`~repro.serving.AsyncFleetServer`: frames are
encoded, shipped over localhost, decoded, micro-batched per cohort,
served, and the verdicts ride back.  All of that is overhead on top of
the in-process path — this bench measures how much, and gates it.

Both legs drive the **same** 3-cohort fleet layout as
``bench_fleet_cohorts`` (shared
``conftest.build_cohort_fleet_setup``), replaying the same recording in
the same per-tick chunks:

- ``in-process`` — ``await AsyncFleetServer.step_stream`` with every
  session's chunk in one call; per-tick latency is that await's
  wall-clock (the floor the gateway cannot beat),
- ``gateway``   — every session is its own ``GatewayClient`` over its own
  TCP connection; per-tick latency is the client-observed round-trip of
  one CHUNK → VERDICT exchange, all sessions concurrent.

The headline gate: **gateway p95 tick latency <= 2.0x in-process p95**
at the benched device count.  The gateway's micro-batching is what makes
this achievable — every flush serves one batched engine call per cohort,
exactly like the in-process tick, so the overhead is framing + sockets +
scheduling, not N-times-singleton inference.

The standalone run additionally ramps the device count at full replay
speed and records the **saturation point** (the largest fleet that still
scaled throughput with zero BUSY refusals) into the baseline JSON.

Run under pytest for the CI assertions, or standalone to record a
baseline::

    PYTHONPATH=src python benchmarks/bench_gateway.py --out BENCH_gateway.json
    PYTHONPATH=src python benchmarks/bench_gateway.py --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import time
from typing import Dict, List, Optional, Sequence

import numpy as np
from conftest import build_benchmark_scenario, build_cohort_fleet_setup

from repro.serving import AsyncFleetServer
from repro.serving.gateway import GatewayServer, find_saturation, run_load

#: Samples per serving tick — matches the other serving gates so the
#: in-process numbers line up across baselines.
CHUNK_SAMPLES = 1200
ASYNC_WORKERS = 2
#: The headline gate: client-observed p95 tick latency over the socket
#: may cost at most this multiple of the in-process async p95.
MAX_P95_RATIO = 2.0
#: Smoke-scale ticks are a few milliseconds, so the gateway's fixed
#: per-frame costs (syscalls, scheduling, the batch window) dominate the
#: ratio; the smoke gate keeps a loose slack (still catching
#: catastrophic regressions) while the benchmark-scale pytest assertions
#: gate the real claim.
SMOKE_SLACK = 4.0


def _tick_chunks(data: np.ndarray, chunk_samples: int) -> List[np.ndarray]:
    return [
        data[start : start + chunk_samples]
        for start in range(0, data.shape[0], chunk_samples)
    ]


def _run_in_process(setup, chunk_samples: int, workers: int, repeats: int):
    """Per-tick latencies (ms) + windows served of the in-process path."""

    async def drive():
        latencies_ms: List[float] = []
        windows = 0
        for _ in range(repeats):
            async with AsyncFleetServer(
                setup.registry, workers=workers
            ) as server:
                for sid, cohort in zip(setup.session_ids, setup.cohorts):
                    server.connect(sid, cohort=cohort)
                for chunk in _tick_chunks(setup.data, chunk_samples):
                    start = time.perf_counter()
                    tick = await server.step_stream(
                        {sid: chunk for sid in setup.session_ids}
                    )
                    latencies_ms.append(
                        (time.perf_counter() - start) * 1000.0
                    )
                    windows += sum(len(v) for v in tick.values())
                for sid in setup.session_ids:
                    windows += len(await server.finish_stream(sid))
        return latencies_ms, windows

    return asyncio.run(drive())


def _run_gateway(setup, chunk_samples: int, workers: int, repeats: int):
    """Client-observed per-tick RTTs (ms) + windows served via the wire."""

    async def drive():
        latencies_ms: List[float] = []
        windows = 0
        busy = 0
        chunks = _tick_chunks(setup.data, chunk_samples)
        cohorts = dict(zip(setup.session_ids, setup.cohorts))
        for _ in range(repeats):
            fleet = AsyncFleetServer(setup.registry, workers=workers)
            async with GatewayServer(fleet, port=0) as gateway:
                report = await run_load(
                    gateway.host,
                    gateway.port,
                    {sid: chunks for sid in setup.session_ids},
                    cohorts=cohorts,
                )
            fleet.close()
            latencies_ms.extend(report.latencies_ms)
            windows += report.windows_served
            busy += report.busy_frames
        return latencies_ms, windows, busy

    return asyncio.run(drive())


def measure_gateway(
    setup,
    chunk_samples: int = CHUNK_SAMPLES,
    workers: int = ASYNC_WORKERS,
    repeats: int = 3,
) -> Dict:
    """Socket-served tick latency vs the in-process async floor."""
    in_ms, in_windows = _run_in_process(setup, chunk_samples, workers, repeats)
    gw_ms, gw_windows, gw_busy = _run_gateway(
        setup, chunk_samples, workers, repeats
    )
    # Identical traffic must serve identical window counts — a gateway
    # that drops or duplicates chunks cannot pass on latency alone.
    assert in_windows == gw_windows, (in_windows, gw_windows)
    in_p95 = float(np.percentile(in_ms, 95))
    gw_p95 = float(np.percentile(gw_ms, 95))
    return {
        "sessions": setup.n_sessions,
        "cohorts": setup.n_cohorts,
        "ticks_per_repeat": len(_tick_chunks(setup.data, chunk_samples)),
        "repeats": repeats,
        "chunk_samples": chunk_samples,
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
        "windows": in_windows,
        "busy_frames": gw_busy,
        "in_process": {
            "p50_ms": float(np.percentile(in_ms, 50)),
            "p95_ms": in_p95,
            "p99_ms": float(np.percentile(in_ms, 99)),
        },
        "gateway": {
            "p50_ms": float(np.percentile(gw_ms, 50)),
            "p95_ms": gw_p95,
            "p99_ms": float(np.percentile(gw_ms, 99)),
        },
        "ratio_p95_gateway_vs_in_process": gw_p95 / in_p95,
        "gate_max_ratio": MAX_P95_RATIO,
    }


# ---------------------------------------------------------------------- #
# pytest entry points (CI gates)
# ---------------------------------------------------------------------- #


def test_bench_gateway_p95_overhead(cohort_fleet):
    """Socket serving costs <= 2.0x the in-process async p95 per tick."""
    results = measure_gateway(cohort_fleet)
    ratio = results["ratio_p95_gateway_vs_in_process"]
    print(
        f"\nE-GATEWAY: in-process p95 "
        f"{results['in_process']['p95_ms']:.1f} ms, gateway p95 "
        f"{results['gateway']['p95_ms']:.1f} ms over "
        f"{results['ticks_per_repeat']} ticks x {results['sessions']} "
        f"devices x {results['repeats']} repeats "
        f"({ratio:.2f}x, gate <= {results['gate_max_ratio']}x)"
    )
    assert ratio <= results["gate_max_ratio"]


def test_bench_gateway_verdicts_match_in_process(cohort_fleet):
    """Acceptance: socket-served verdicts pinned to in-process (1e-9)."""
    data = cohort_fleet.data[:6000]
    session_ids = cohort_fleet.session_ids[:6]
    cohorts = cohort_fleet.cohorts[:6]
    chunks = _tick_chunks(data, CHUNK_SAMPLES)

    async def in_process():
        got = {sid: [] for sid in session_ids}
        async with AsyncFleetServer(
            cohort_fleet.registry, workers=ASYNC_WORKERS
        ) as server:
            for sid, cohort in zip(session_ids, cohorts):
                server.connect(sid, cohort=cohort)
            for chunk in chunks:
                tick = await server.step_stream(
                    {sid: chunk for sid in session_ids}
                )
                for sid, verdicts in tick.items():
                    got[sid].extend(verdicts)
            for sid in session_ids:
                got[sid].extend(await server.finish_stream(sid))
        return got

    async def over_the_wire():
        from repro.serving.gateway import GatewayClient

        got = {}
        fleet = AsyncFleetServer(cohort_fleet.registry, workers=ASYNC_WORKERS)
        async with GatewayServer(fleet, port=0) as gateway:

            async def drive_one(sid, cohort):
                async with GatewayClient(gateway.host, gateway.port) as cli:
                    await cli.connect(sid, cohort=cohort)
                    verdicts = []
                    for chunk in chunks:
                        verdicts.extend(await cli.send_chunk(chunk))
                    verdicts.extend(await cli.finish())
                    got[sid] = verdicts

            await asyncio.gather(
                *(
                    drive_one(sid, cohort)
                    for sid, cohort in zip(session_ids, cohorts)
                )
            )
        fleet.close()
        return got

    reference = asyncio.run(in_process())
    served = asyncio.run(over_the_wire())
    for sid in session_ids:
        assert [v.activity for v in served[sid]] == [
            v.activity for v in reference[sid]
        ]
        assert [v.display for v in served[sid]] == [
            v.display for v in reference[sid]
        ]
        np.testing.assert_allclose(
            [v.confidence for v in served[sid]],
            [v.confidence for v in reference[sid]],
            rtol=0,
            atol=1e-9,
        )


# ---------------------------------------------------------------------- #
# standalone baseline recorder (adds the saturation ramp)
# ---------------------------------------------------------------------- #


def measure_saturation(
    setup,
    device_counts: Sequence[int],
    chunk_samples: int = CHUNK_SAMPLES,
    workers: int = ASYNC_WORKERS,
    ticks: int = 3,
) -> Dict:
    """Full-speed replay at ramping fleet sizes; where does scaling stop?"""
    chunks = _tick_chunks(setup.data, chunk_samples)[:ticks]
    cohort_names = sorted(set(setup.cohorts))

    def make_device_chunks(n: int):
        # ids unique per ramp step: a released session's disconnect races
        # the next step's connect when the id is reused on one gateway
        return {f"ramp-{n}-{i:04d}": chunks for i in range(n)}

    async def drive():
        fleet = AsyncFleetServer(setup.registry, workers=workers)
        async with GatewayServer(fleet, port=0) as gateway:
            # round-robin cohorts, mirroring the fleet layout
            async def ramp():
                return await find_saturation(
                    gateway.host,
                    gateway.port,
                    make_device_chunks,
                    device_counts,
                )

            result = await ramp()
        fleet.close()
        return result

    ramp = asyncio.run(drive())
    ramp["cohorts"] = cohort_names
    return ramp


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure gateway tick latency vs the in-process path"
    )
    parser.add_argument("--out", default=None,
                        help="write the results as JSON to this path")
    parser.add_argument("--workers", type=int, default=ASYNC_WORKERS,
                        help=f"async worker threads (default {ASYNC_WORKERS})")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenario + short recording for a fast "
                             "CI smoke run")
    args = parser.parse_args(argv)

    scenario = build_benchmark_scenario(smoke=args.smoke)
    if args.smoke:
        setup = build_cohort_fleet_setup(scenario, seconds=30.0, n_sessions=6)
        results = measure_gateway(setup, workers=args.workers, repeats=2)
        ramp_counts = [2, 4, 8]
    else:
        setup = build_cohort_fleet_setup(scenario)
        results = measure_gateway(setup, workers=args.workers)
        ramp_counts = [8, 16, 32, 64]
    results["saturation"] = measure_saturation(
        setup, ramp_counts, workers=args.workers
    )
    results["scale"] = "smoke" if args.smoke else "benchmark"
    results["recorded"] = time.strftime("%Y-%m-%d")

    for leg in ("in_process", "gateway"):
        row = results[leg]
        print(f"{leg:>10}: p50 {row['p50_ms']:7.1f} ms  "
              f"p95 {row['p95_ms']:7.1f} ms  p99 {row['p99_ms']:7.1f} ms")
    ratio = results["ratio_p95_gateway_vs_in_process"]
    gate = results["gate_max_ratio"]
    if args.smoke:
        gate = gate * SMOKE_SLACK  # see SMOKE_SLACK
    sat = results["saturation"]["saturation_devices"]
    print(f"gateway vs in-process p95: {ratio:.2f}x (gate <= {gate}x"
          f"{', smoke slack applied' if args.smoke else ''}) over "
          f"{results['ticks_per_repeat']} ticks x {results['sessions']} "
          f"devices; saturation at {sat} devices "
          f"(ramp {results['saturation']['device_counts']})")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.out}")

    if ratio > gate:
        print(
            f"FAIL: gateway p95 {ratio:.2f}x in-process exceeds the "
            f"{gate}x acceptance threshold"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
