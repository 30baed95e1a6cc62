"""E-STREAM — streaming feature extraction vs the per-window paths.

A continuous recording used to be featurized per *window*: the seed's
consumption model calls ``FeatureExtractor.extract_one`` on each window as
it arrives (that per-window extractor is now the parity reference of
``tests/reference_features.py``, imported from there), and even the
batched path copies a ``(k, window_len, channels)``
cube out of the stride-tricks view and re-derives every signal per window —
with 50% overlap each sample is paid for twice, at 90% overlap ten times.
:class:`~repro.preprocessing.streaming.StreamingFeatureExtractor` computes
the same ``(k, 80)`` matrix straight from the continuous ``(n, channels)``
signal: one series block per call, then the stacked pass over bounded
groups of windows, each statistic one vectorized call per group.

This bench records windows/sec for the three paths at overlaps
{0, 0.5, 0.9} and asserts the headline gates: streaming at least **3x** the
per-window loop at 50% overlap and **8x** at 90%, and never slower than the
batched cube path.

Run under pytest for the CI assertions, or standalone to record a baseline::

    PYTHONPATH=src python benchmarks/bench_stream_features.py \
        --out BENCH_stream.json          # full benchmark scale (600 s)
    PYTHONPATH=src python benchmarks/bench_stream_features.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Optional, Sequence

import numpy as np
import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")
)
from reference_features import FeatureExtractor  # noqa: E402
from repro.preprocessing import (  # noqa: E402
    StreamingFeatureExtractor,
    sliding_windows,
    window_count,
)
from repro.sensors import SensorDevice, sample_user  # noqa: E402

OVERLAPS = (0.0, 0.5, 0.9)
WINDOW_LEN = 120
#: Windows actually timed in the per-window loop (rate extrapolates — the
#: per-window cost is constant, and timing all ~6000 windows of the 90%
#: overlap sweep would dominate the bench budget for no extra signal).
PER_WINDOW_CAP = 200


def _best_seconds(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def recording_data(seconds: float, rng: int = 2024) -> np.ndarray:
    """A continuous (n, 22) walk recording at the paper's sampling rate."""
    user = sample_user(user_id=0, rng=rng)
    device = SensorDevice(user=user, rng=rng)
    return device.record("walk", seconds).data


def measure_stream_throughput(
    data: np.ndarray,
    overlaps: Sequence[float] = OVERLAPS,
    repeats: int = 3,
) -> Dict:
    """Windows/sec of per-window loop, batched cube and streaming paths."""
    extractor = FeatureExtractor()
    streaming = StreamingFeatureExtractor()
    results: Dict = {"overlaps": {}}
    for overlap in overlaps:
        stride = max(1, int(round(WINDOW_LEN * (1.0 - overlap))))
        k = window_count(data.shape[0], WINDOW_LEN, stride)

        # The seed consumption model: one extract_one call per window.
        view = sliding_windows(data, WINDOW_LEN, stride, copy=False)
        timed = min(k, PER_WINDOW_CAP)

        def per_window_loop():
            for window in view[:timed]:
                extractor.extract_one(window)

        per_window_s = _best_seconds(per_window_loop, repeats=repeats)
        batched_s = _best_seconds(
            lambda: extractor.extract(
                sliding_windows(data, WINDOW_LEN, stride)
            ),
            repeats=repeats,
        )
        streaming_s = _best_seconds(
            lambda: streaming.extract(data, WINDOW_LEN, stride=stride),
            repeats=repeats,
        )

        per_window_rate = timed / per_window_s
        batched_rate = k / batched_s
        streaming_rate = k / streaming_s
        results["overlaps"][f"{overlap:.1f}"] = {
            "stride": stride,
            "windows": k,
            "per_window": {
                "windows_timed": timed,
                "windows_per_sec": per_window_rate,
            },
            "batched": {
                "windows_per_sec": batched_rate,
                "ms_total": batched_s * 1e3,
            },
            "streaming": {
                "windows_per_sec": streaming_rate,
                "ms_total": streaming_s * 1e3,
            },
            "speedup_stream_vs_per_window": streaming_rate / per_window_rate,
            "speedup_stream_vs_batched": streaming_rate / batched_rate,
        }
    return results


# ---------------------------------------------------------------------- #
# pytest entry points (CI gates)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def stream_results():
    """One shared sweep over a 90 s recording (module-scoped: ~seconds)."""
    return measure_stream_throughput(recording_data(90.0))


def test_bench_streaming_3x_at_half_overlap(stream_results):
    """Streaming extraction is >= 3x the per-window loop at 50% overlap."""
    row = stream_results["overlaps"]["0.5"]
    speedup = row["speedup_stream_vs_per_window"]
    print(
        f"\nE-STREAM 50%: per-window "
        f"{row['per_window']['windows_per_sec']:.0f} w/s, streaming "
        f"{row['streaming']['windows_per_sec']:.0f} w/s ({speedup:.1f}x)"
    )
    assert speedup >= 3.0


def test_bench_streaming_8x_at_high_overlap(stream_results):
    """Streaming extraction is >= 8x the per-window loop at 90% overlap."""
    row = stream_results["overlaps"]["0.9"]
    speedup = row["speedup_stream_vs_per_window"]
    print(
        f"\nE-STREAM 90%: per-window "
        f"{row['per_window']['windows_per_sec']:.0f} w/s, streaming "
        f"{row['streaming']['windows_per_sec']:.0f} w/s ({speedup:.1f}x)"
    )
    assert speedup >= 8.0


def test_bench_streaming_beats_batched_on_overlap(stream_results):
    """The streaming path beats the batched cube path wherever windows overlap.

    (At zero overlap the two do the same per-sample work and streaming only
    wins by skipping the cube copy — too thin a margin to gate on.)
    """
    for overlap in ("0.5", "0.9"):
        row = stream_results["overlaps"][overlap]
        assert row["speedup_stream_vs_batched"] >= 1.0, overlap


# ---------------------------------------------------------------------- #
# standalone baseline recorder
# ---------------------------------------------------------------------- #


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure streaming feature extraction throughput"
    )
    parser.add_argument("--out", default=None,
                        help="write the results as JSON to this path")
    parser.add_argument("--smoke", action="store_true",
                        help="short recording for a fast CI smoke run")
    args = parser.parse_args(argv)

    seconds = 60.0 if args.smoke else 600.0
    results = measure_stream_throughput(recording_data(seconds))
    results["scale"] = "smoke" if args.smoke else "benchmark"
    results["recorded"] = time.strftime("%Y-%m-%d")
    results["window_len"] = WINDOW_LEN
    results["recording_seconds"] = seconds

    for overlap, row in results["overlaps"].items():
        print(
            f"overlap {overlap}: per-window "
            f"{row['per_window']['windows_per_sec']:7.0f} w/s | batched "
            f"{row['batched']['windows_per_sec']:7.0f} w/s | streaming "
            f"{row['streaming']['windows_per_sec']:7.0f} w/s "
            f"({row['speedup_stream_vs_per_window']:.1f}x per-window, "
            f"{row['speedup_stream_vs_batched']:.1f}x batched)"
        )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.out}")

    half = results["overlaps"]["0.5"]["speedup_stream_vs_per_window"]
    high = results["overlaps"]["0.9"]["speedup_stream_vs_per_window"]
    if half < 3.0 or high < 8.0:
        print(
            f"FAIL: streaming speedups ({half:.1f}x @50%, {high:.1f}x @90%) "
            f"below the 3x/8x acceptance thresholds"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
