"""E-ENG — batched engine throughput vs the seed per-window loop.

The seed classified strictly one window at a time; the batched
:class:`~repro.core.engine.InferenceEngine` fuses the whole
denoise -> features -> normalize -> embed -> NCM pass over ``(k, window_len,
channels)`` stacks.  This bench measures windows/sec for the per-window
loop and for engine batches of growing size, plus a 100-session
:class:`~repro.serving.fleet.FleetServer` tick, and asserts the headline
speedup (batch-256 at least 5x the per-window loop).

Run under pytest with the shared bench scenario, or standalone to record a
baseline file::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --out BENCH_engine.json          # full benchmark scale
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core import CloudConfig
from repro.datasets import activity_windows, build_edge_scenario
from repro.nn import TrainConfig
from repro.serving import FleetServer

BATCH_SIZES = (1, 32, 256)
FLEET_SESSIONS = 100


def _best_seconds(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_engine_throughput(
    scenario,
    batch_sizes: Sequence[int] = BATCH_SIZES,
    fleet_sessions: int = FLEET_SESSIONS,
    repeats: int = 3,
) -> Dict:
    """Windows/sec of the per-window loop, engine batches, and a fleet tick."""
    edge = scenario.fresh_edge(rng=0)
    n_windows = max(batch_sizes)
    windows = activity_windows(scenario.edge_user, "walk", n_windows, rng=5)
    edge.infer_windows(windows[:2])  # warm-up

    def single_loop():
        for window in windows:
            edge.infer_window(window)

    single_s = _best_seconds(single_loop, repeats=repeats)
    results: Dict = {
        "single_window": {
            "windows": n_windows,
            "windows_per_sec": n_windows / single_s,
            "ms_per_window": single_s / n_windows * 1e3,
        },
        "batched": {},
    }

    for batch_size in batch_sizes:
        batch = windows[:batch_size]
        batch_s = _best_seconds(
            lambda: edge.infer_windows(batch), repeats=repeats
        )
        results["batched"][str(batch_size)] = {
            "windows_per_sec": batch_size / batch_s,
            "ms_per_batch": batch_s * 1e3,
        }

    largest = str(max(batch_sizes))
    results["speedup_largest_batch_vs_single"] = (
        results["batched"][largest]["windows_per_sec"]
        / results["single_window"]["windows_per_sec"]
    )

    if fleet_sessions > 0:
        server = FleetServer(edge.engine)
        ids = [f"device-{i:04d}" for i in range(fleet_sessions)]
        server.connect_many(ids)
        tick = {
            sid: windows[i % n_windows] for i, sid in enumerate(ids)
        }
        server.step(tick)  # warm-up (also primes each session's smoother)
        tick_s = _best_seconds(lambda: server.step(tick), repeats=repeats)
        results["fleet"] = {
            "sessions": fleet_sessions,
            "ms_per_tick": tick_s * 1e3,
            "windows_per_sec": fleet_sessions / tick_s,
        }
    return results


# ---------------------------------------------------------------------- #
# pytest entry points (ride the shared bench scenario)
# ---------------------------------------------------------------------- #


def test_bench_batched_speedup(bench_scenario):
    """Batch-256 engine inference is >= 5x the seed per-window loop."""
    results = measure_engine_throughput(
        bench_scenario, batch_sizes=(256,), fleet_sessions=0
    )
    speedup = results["speedup_largest_batch_vs_single"]
    print(
        f"\nE-ENG: single {results['single_window']['windows_per_sec']:.0f} w/s, "
        f"batch-256 {results['batched']['256']['windows_per_sec']:.0f} w/s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 5.0


def test_bench_throughput_scales_with_batch(bench_scenario):
    """Windows/sec is monotone-ish in batch size (allowing 20% noise)."""
    results = measure_engine_throughput(
        bench_scenario, batch_sizes=BATCH_SIZES, fleet_sessions=0
    )
    rates = [
        results["batched"][str(b)]["windows_per_sec"] for b in BATCH_SIZES
    ]
    assert rates[-1] > rates[0]
    for earlier, later in zip(rates, rates[1:]):
        assert later >= 0.8 * earlier


def test_bench_fleet_tick(bench_scenario):
    """A 100-session fleet tick outpaces serving the fleet one-by-one."""
    results = measure_engine_throughput(
        bench_scenario, batch_sizes=(1,), fleet_sessions=FLEET_SESSIONS
    )
    assert results["fleet"]["sessions"] == FLEET_SESSIONS
    assert (
        results["fleet"]["windows_per_sec"]
        > results["single_window"]["windows_per_sec"]
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
        description="measure engine throughput; optionally record a baseline"
    )
    parser.add_argument("--out", default=None,
                        help="write the results as JSON to this path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenario for a fast CI smoke run")
    args = parser.parse_args(argv)

    scenario = _standalone_scenario(smoke=args.smoke)
    results = measure_engine_throughput(scenario)
    results["scale"] = "smoke" if args.smoke else "benchmark"
    results["recorded"] = time.strftime("%Y-%m-%d")

    speedup = results["speedup_largest_batch_vs_single"]
    print(f"single-window loop: "
          f"{results['single_window']['windows_per_sec']:.0f} windows/s")
    for batch_size, stats in results["batched"].items():
        print(f"batch-{batch_size:>4}: {stats['windows_per_sec']:.0f} windows/s")
    print(f"fleet tick ({results['fleet']['sessions']} sessions): "
          f"{results['fleet']['windows_per_sec']:.0f} windows/s")
    print(f"speedup batch-{max(BATCH_SIZES)} vs single: {speedup:.1f}x")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.out}")
    if speedup < 5.0:
        print("FAIL: batched speedup below the 5x acceptance threshold")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
