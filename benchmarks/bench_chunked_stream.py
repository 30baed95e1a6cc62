"""E-CHUNK — chunked streaming serving vs one monolithic ``infer_stream``.

Unbounded recordings arrive tick by tick, so a serving loop cannot hand
the whole signal to ``infer_stream`` at once.  Before the carry-over
:class:`~repro.core.engine.StreamSession`, the only sound fix for the
chunk-boundary window loss was to re-buffer the whole recording and
re-featurize it from the head every tick — O(n^2) over the session's
lifetime.  The chunked path featurizes each sample once (only the sub-window
tail carries over), so serving a recording in ticks should cost roughly what
one monolithic pass costs, plus per-tick dispatch.

This bench times three ways of classifying the same continuous recording:

- ``monolithic``    — one fused ``engine.infer_stream`` call (lower bound),
- ``chunked``       — a single-session :class:`~repro.serving.fleet.FleetServer`
  fed fixed-size raw ticks through ``step_stream`` (the serving loop),
- ``rebuffered``    — the naive fix: grow a buffer, re-run ``infer_stream``
  on it every tick, keep the new verdicts (O(n^2) strawman),

and asserts the headline gate: chunked serving within **1.5x** of the
monolithic wall-clock (and strictly cheaper than re-buffering).

Run under pytest for the CI assertions, or standalone to record a baseline::

    PYTHONPATH=src python benchmarks/bench_chunked_stream.py \
        --out BENCH_chunked.json         # full benchmark scale
    PYTHONPATH=src python benchmarks/bench_chunked_stream.py --smoke
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core import CloudConfig
from repro.datasets import build_edge_scenario
from repro.nn import TrainConfig
from repro.serving import FleetServer

RECORDING_SECONDS = 240.0
#: Samples per serving tick (40 windows at window_len=120).  The ratio to
#: the monolithic pass is governed by windows-per-tick, not recording
#: length: each tick pays a fixed ~ms of numpy/scipy dispatch across the 80
#: feature columns, so very small ticks are overhead-bound by construction
#: (a 1-window tick buys ~0.1 ms of useful work per ~1 ms of dispatch).
CHUNK_SAMPLES = 4800
MAX_RATIO_VS_MONOLITHIC = 1.5


def _best_seconds(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_chunked_stream(
    scenario,
    seconds: float = RECORDING_SECONDS,
    chunk_samples: int = CHUNK_SAMPLES,
    repeats: int = 5,
) -> Dict:
    """Wall-clock of monolithic vs chunked vs re-buffered serving."""
    edge = scenario.fresh_edge(rng=0)
    engine = edge.engine
    data = scenario.sensor_device.record("walk", seconds).data
    n = data.shape[0]
    starts = list(range(0, n, chunk_samples))
    k = len(engine.infer_stream(data))  # warm-up + window count

    def monolithic():
        engine.infer_stream(data)

    def chunked():
        server = FleetServer(engine)
        server.connect("dev")
        for start in starts:
            server.step_stream({"dev": data[start : start + chunk_samples]})

    def rebuffered():
        served = 0
        for start in starts:
            batch = engine.infer_stream(data[: start + chunk_samples])
            served = len(batch)  # only verdicts past `served` would be new
        assert served == k

    mono_s = _best_seconds(monolithic, repeats=repeats)
    chunked_s = _best_seconds(chunked, repeats=repeats)
    rebuffered_s = _best_seconds(rebuffered, repeats=repeats)
    return {
        "windows": k,
        "ticks": len(starts),
        "chunk_samples": chunk_samples,
        "recording_samples": n,
        "monolithic": {"ms_total": mono_s * 1e3, "windows_per_sec": k / mono_s},
        "chunked": {
            "ms_total": chunked_s * 1e3,
            "windows_per_sec": k / chunked_s,
        },
        "rebuffered": {
            "ms_total": rebuffered_s * 1e3,
            "windows_per_sec": k / rebuffered_s,
        },
        "ratio_chunked_vs_monolithic": chunked_s / mono_s,
        "speedup_chunked_vs_rebuffered": rebuffered_s / chunked_s,
    }


# ---------------------------------------------------------------------- #
# pytest entry points (CI gates)
# ---------------------------------------------------------------------- #


def test_bench_chunked_within_1p5x_of_monolithic(bench_scenario):
    """Chunked serving stays within 1.5x of one monolithic pass."""
    results = measure_chunked_stream(bench_scenario)
    ratio = results["ratio_chunked_vs_monolithic"]
    print(
        f"\nE-CHUNK: monolithic {results['monolithic']['ms_total']:.1f} ms, "
        f"chunked {results['chunked']['ms_total']:.1f} ms over "
        f"{results['ticks']} ticks ({ratio:.2f}x)"
    )
    assert ratio <= MAX_RATIO_VS_MONOLITHIC


def test_bench_chunked_beats_rebuffering(bench_scenario):
    """Carry-over serving is cheaper than re-featurizing the buffer head."""
    results = measure_chunked_stream(bench_scenario)
    speedup = results["speedup_chunked_vs_rebuffered"]
    print(
        f"\nE-CHUNK: rebuffered {results['rebuffered']['ms_total']:.1f} ms, "
        f"chunked {results['chunked']['ms_total']:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 1.5


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
        description="measure chunked streaming serving overhead"
    )
    parser.add_argument("--out", default=None,
                        help="write the results as JSON to this path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenario + short recording for a fast "
                             "CI smoke run")
    args = parser.parse_args(argv)

    seconds = 120.0 if args.smoke else RECORDING_SECONDS
    scenario = _standalone_scenario(smoke=args.smoke)
    results = measure_chunked_stream(scenario, seconds=seconds)
    results["scale"] = "smoke" if args.smoke else "benchmark"
    results["recorded"] = time.strftime("%Y-%m-%d")
    results["recording_seconds"] = seconds

    for path in ("monolithic", "chunked", "rebuffered"):
        row = results[path]
        print(f"{path:>11}: {row['ms_total']:8.1f} ms "
              f"({row['windows_per_sec']:7.0f} windows/s)")
    ratio = results["ratio_chunked_vs_monolithic"]
    print(f"chunked vs monolithic: {ratio:.2f}x "
          f"(gate <= {MAX_RATIO_VS_MONOLITHIC}x); vs rebuffered: "
          f"{results['speedup_chunked_vs_rebuffered']:.1f}x faster")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.out}")

    if ratio > MAX_RATIO_VS_MONOLITHIC:
        print(
            f"FAIL: chunked serving {ratio:.2f}x monolithic exceeds the "
            f"{MAX_RATIO_VS_MONOLITHIC}x acceptance threshold"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
