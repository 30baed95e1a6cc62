"""E-ASYNC — async fan-out fleet ticks vs the serial cohort tick.

The cohort-aware :class:`~repro.core.engine.FleetServer` collapses a
mixed-cohort tick into one batched engine call per distinct model — but
runs those calls serially.  The
:class:`~repro.serving.async_fleet.AsyncFleetServer` fans them out over an
:class:`~repro.serving.async_fleet.EngineWorkerPool`, overlapping the
models' forward passes (NumPy releases the GIL in the hot paths), while
validation, per-session carry-over featurization and demux stay on the
event loop so verdicts are pinned identical to serial serving.

This bench drives the **same** 3-cohort fleet layout as
``bench_fleet_cohorts`` (shared ``conftest.build_cohort_fleet_setup``) two
ways:

- ``serial`` — the synchronous cohort-aware ``FleetServer``: three
  batched calls per tick, one after another (the PR-4 baseline),
- ``async``  — ``AsyncFleetServer`` with ``ASYNC_WORKERS`` worker
  threads: the same three calls per tick, overlapped,

and gates the headline ratio ``async / serial``:

- **<= 1.0x with 2+ CPU cores** — fan-out must at least recoup its own
  dispatch overhead (the target is ~1.5-2x *speedup*, i.e. a ratio well
  below 1.0, when the models' forward passes genuinely overlap),
- **<= 1.25x on a single core** — with nowhere to overlap, the gate
  degrades to a bound on the asyncio/pool dispatch overhead itself.

Both runs serve identical traffic, so the window counts must agree
exactly; the verdict-parity acceptance test pins the outputs to 1e-9.

Run under pytest for the CI assertions, or standalone to record a
baseline::

    PYTHONPATH=src python benchmarks/bench_async_fleet.py \
        --out BENCH_async.json           # full benchmark scale
    PYTHONPATH=src python benchmarks/bench_async_fleet.py --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import time
from typing import Dict, Optional, Sequence

import numpy as np
from conftest import build_cohort_fleet_setup

from repro.core import CloudConfig, FleetServer
from repro.datasets import build_edge_scenario
from repro.nn import TrainConfig
from repro.serving import AsyncFleetServer

#: Samples per serving tick — matches bench_fleet_cohorts so the serial
#: numbers are directly comparable across the two baselines.
CHUNK_SAMPLES = 1200
ASYNC_WORKERS = 2
#: The fan-out gate where overlap is physically possible (>= 2 cores).
MAX_RATIO_MULTI_CORE = 1.0
#: On one core nothing can overlap; bound the dispatch overhead instead.
MAX_RATIO_SINGLE_CORE = 1.25
#: The --smoke run serves ~15 ms of real work per repeat, so scheduler
#: noise swamps the ratio; it keeps a loose 2x slack (still catching
#: catastrophic regressions) while the benchmark-scale pytest assertions
#: in the same CI job gate the real claim.
SMOKE_SLACK = 2.0


def max_ratio_vs_serial(cpu_count: Optional[int] = None) -> float:
    """The gate applicable to this machine (see module docstring)."""
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    return MAX_RATIO_MULTI_CORE if cores >= 2 else MAX_RATIO_SINGLE_CORE


def _best_seconds(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run_serial(setup, chunk_samples: int) -> int:
    server = FleetServer(setup.registry)
    for sid, cohort in zip(setup.session_ids, setup.cohorts):
        server.connect(sid, cohort=cohort)
    served = 0
    data = setup.data
    for start in range(0, data.shape[0], chunk_samples):
        chunk = data[start : start + chunk_samples]
        verdicts = server.step_stream(
            {sid: chunk for sid in setup.session_ids}
        )
        served += sum(len(v) for v in verdicts.values())
    return served


def _run_async(setup, chunk_samples: int, workers: int) -> int:
    async def drive() -> int:
        served = 0
        data = setup.data
        async with AsyncFleetServer(
            setup.registry, workers=workers
        ) as server:
            for sid, cohort in zip(setup.session_ids, setup.cohorts):
                server.connect(sid, cohort=cohort)
            for start in range(0, data.shape[0], chunk_samples):
                chunk = data[start : start + chunk_samples]
                verdicts = await server.step_stream(
                    {sid: chunk for sid in setup.session_ids}
                )
                served += sum(len(v) for v in verdicts.values())
        return served

    return asyncio.run(drive())


def measure_async_fleet(
    setup,
    chunk_samples: int = CHUNK_SAMPLES,
    workers: int = ASYNC_WORKERS,
    repeats: int = 3,
) -> Dict:
    """Wall-clock of serial cohort ticks vs async fan-out on one fleet."""
    served = {}

    def serial():
        served["serial"] = _run_serial(setup, chunk_samples)

    def fan_out():
        served["async"] = _run_async(setup, chunk_samples, workers)

    serial_s = _best_seconds(serial, repeats=repeats)
    async_s = _best_seconds(fan_out, repeats=repeats)
    assert served["serial"] == served["async"]  # identical traffic
    k = served["serial"]
    ticks = len(range(0, setup.data.shape[0], chunk_samples))
    return {
        "windows": k,
        "ticks": ticks,
        "sessions": setup.n_sessions,
        "cohorts": setup.n_cohorts,
        "chunk_samples": chunk_samples,
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "recording_samples": int(setup.data.shape[0]),
        "serial": {"ms_total": serial_s * 1e3, "windows_per_sec": k / serial_s},
        "async": {"ms_total": async_s * 1e3, "windows_per_sec": k / async_s},
        "ratio_async_vs_serial": async_s / serial_s,
        "gate_max_ratio": max_ratio_vs_serial(),
    }


# ---------------------------------------------------------------------- #
# pytest entry points (CI gates)
# ---------------------------------------------------------------------- #


def test_bench_async_fleet_not_slower_than_serial(cohort_fleet):
    """Async fan-out recoups its overhead (<= 1.0x serial on 2+ cores)."""
    results = measure_async_fleet(cohort_fleet)
    ratio = results["ratio_async_vs_serial"]
    gate = results["gate_max_ratio"]
    print(
        f"\nE-ASYNC: serial {results['serial']['ms_total']:.1f} ms, "
        f"async({results['workers']}w) "
        f"{results['async']['ms_total']:.1f} ms over "
        f"{results['ticks']} ticks x {results['sessions']} sessions "
        f"({ratio:.2f}x, gate <= {gate}x on {results['cpu_count']} cores)"
    )
    assert ratio <= gate


def test_bench_async_verdicts_match_serial_routing(cohort_fleet):
    """Acceptance: async mixed-cohort verdicts pinned to serial (1e-9)."""
    data = cohort_fleet.data[:6000]
    session_ids = cohort_fleet.session_ids[:6]
    cohorts = cohort_fleet.cohorts[:6]

    serial_server = FleetServer(cohort_fleet.registry)
    for sid, cohort in zip(session_ids, cohorts):
        serial_server.connect(sid, cohort=cohort)
    serial_got = {sid: [] for sid in session_ids}
    for start in range(0, data.shape[0], CHUNK_SAMPLES):
        chunk = data[start : start + CHUNK_SAMPLES]
        tick = serial_server.step_stream({sid: chunk for sid in session_ids})
        for sid, verdicts in tick.items():
            serial_got[sid].extend(verdicts)

    async def drive():
        got = {sid: [] for sid in session_ids}
        async with AsyncFleetServer(
            cohort_fleet.registry, workers=ASYNC_WORKERS
        ) as server:
            for sid, cohort in zip(session_ids, cohorts):
                server.connect(sid, cohort=cohort)
            for start in range(0, data.shape[0], CHUNK_SAMPLES):
                chunk = data[start : start + CHUNK_SAMPLES]
                tick = await server.step_stream(
                    {sid: chunk for sid in session_ids}
                )
                for sid, verdicts in tick.items():
                    got[sid].extend(verdicts)
        return got

    async_got = asyncio.run(drive())
    for sid in session_ids:
        assert [v.activity for v in async_got[sid]] == [
            v.activity for v in serial_got[sid]
        ]
        np.testing.assert_allclose(
            [v.confidence for v in async_got[sid]],
            [v.confidence for v in serial_got[sid]],
            rtol=0,
            atol=1e-9,
        )


# ---------------------------------------------------------------------- #
# standalone baseline recorder
# ---------------------------------------------------------------------- #


def _standalone_scenario(smoke: bool):
    """Rebuild the shared bench scenario outside pytest (same seeds/scale)."""
    if smoke:
        config = CloudConfig(
            backbone_dims=(64, 32),
            embedding_dim=16,
            train=TrainConfig(epochs=5, batch_pairs=32, lr=1e-3),
            support_capacity=25,
        )
        return build_edge_scenario(
            cloud_config=config,
            n_users=2,
            windows_per_user_per_activity=10,
            base_test_windows_per_activity=5,
            rng=2024,
        )
    config = CloudConfig(
        backbone_dims=(256, 128, 64),
        embedding_dim=64,
        train=TrainConfig(epochs=25, batch_pairs=64, lr=1e-3),
        support_capacity=200,
    )
    return build_edge_scenario(
        cloud_config=config,
        n_users=6,
        windows_per_user_per_activity=40,
        base_test_windows_per_activity=25,
        rng=2024,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure async fan-out fleet serving vs serial ticks"
    )
    parser.add_argument("--out", default=None,
                        help="write the results as JSON to this path")
    parser.add_argument("--workers", type=int, default=ASYNC_WORKERS,
                        help=f"async worker threads (default {ASYNC_WORKERS})")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenario + short recording for a fast "
                             "CI smoke run")
    args = parser.parse_args(argv)

    scenario = _standalone_scenario(smoke=args.smoke)
    if args.smoke:
        setup = build_cohort_fleet_setup(scenario, seconds=30.0, n_sessions=6)
        results = measure_async_fleet(setup, workers=args.workers, repeats=2)
    else:
        setup = build_cohort_fleet_setup(scenario)
        results = measure_async_fleet(setup, workers=args.workers)
    results["scale"] = "smoke" if args.smoke else "benchmark"
    results["recorded"] = time.strftime("%Y-%m-%d")

    for path in ("serial", "async"):
        row = results[path]
        print(f"{path:>7}: {row['ms_total']:8.1f} ms "
              f"({row['windows_per_sec']:7.0f} windows/s)")
    ratio = results["ratio_async_vs_serial"]
    gate = results["gate_max_ratio"]
    if args.smoke:
        gate = gate * SMOKE_SLACK  # see SMOKE_SLACK
    print(f"async({results['workers']}w) vs serial cohort ticks: "
          f"{ratio:.2f}x (gate <= {gate}x on {results['cpu_count']} "
          f"cores{', smoke slack applied' if args.smoke else ''}) over "
          f"{results['ticks']} ticks x {results['sessions']} sessions")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.out}")

    if ratio > gate:
        print(
            f"FAIL: async fleet {ratio:.2f}x serial exceeds the "
            f"{gate}x acceptance threshold"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
