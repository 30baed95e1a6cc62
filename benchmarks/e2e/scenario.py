"""Shared inputs of the end-to-end benchmark.

One pre-trained transfer package (saved to disk once per run and loaded by
every system under test: the in-process ``EdgeDevice``, the gateway child,
the ladder's in-process fleets), seeded labelled recordings, and the
``env`` block that makes numbers comparable across boxes.

The scenario is a pinned *copy* of ``benchmarks/conftest.py``'s
``build_benchmark_scenario`` so the ungated seed benches stay free to be
deleted; two values are smaller than there (see README, "Scale"):
pre-training epochs (6, the loss plateau, instead of 25) and support
capacity (50 instead of 200), because one driver run has ~30 s.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy

from repro.core import CloudConfig
from repro.datasets import build_edge_scenario
from repro.nn import TrainConfig
from repro.sensors.activities import BASE_ACTIVITIES
from repro.sensors.device import SensorDevice
from repro.serving import ModelRegistry

SCALES: Dict[str, Dict] = {
    "benchmark": dict(
        backbone_dims=(256, 128, 64), embedding_dim=64, epochs=6,
        batch_pairs=64, support_capacity=50, n_users=6, windows=40,
        seconds_per_activity=24.0,
    ),
    "smoke": dict(
        backbone_dims=(64, 32), embedding_dim=16, epochs=10,
        batch_pairs=32, support_capacity=10, n_users=6, windows=20,
        seconds_per_activity=6.0,
    ),
}
#: The scenario (population, edge user, trained weights) is fixed; only
#: recordings, phases and learn recordings follow ``--seed``.
SCENARIO_RNG = 2024
COHORTS = ("cohort-0", "cohort-1", "cohort-2")
WINDOW_LEN = 120
NEW_ACTIVITY = "gesture_hi"
CALIBRATED_ACTIVITY = "walk"
LEARN_SECONDS = 25.0


def build_package(scale: str, path: str):
    """Pre-train the scenario, save its package to ``path``.

    Returns ``(edge_user, build_seconds)``; the campaign and the training
    state are dropped here so they never sit in the measured process's
    resident set.
    """
    cfg = SCALES[scale]
    start = time.perf_counter()
    scenario = build_edge_scenario(
        cloud_config=CloudConfig(
            backbone_dims=cfg["backbone_dims"],
            embedding_dim=cfg["embedding_dim"],
            train=TrainConfig(
                epochs=cfg["epochs"], batch_pairs=cfg["batch_pairs"], lr=1e-3
            ),
            support_capacity=cfg["support_capacity"],
        ),
        n_users=cfg["n_users"],
        windows_per_user_per_activity=cfg["windows"],
        base_test_windows_per_activity=5,
        rng=SCENARIO_RNG,
    )
    scenario.package.save(path)
    return scenario.edge_user, time.perf_counter() - start


def build_registry(package_path: str) -> ModelRegistry:
    """Three cohorts, each lazily loading its own engine from the package."""
    registry = ModelRegistry(default_cohort=COHORTS[0])
    for cohort in COHORTS:
        registry.register_lazy(cohort, package_path)
    return registry


def sensor(user, seed: int, stream: int) -> SensorDevice:
    """The edge user's phone, seeded per (run seed, input stream)."""
    return SensorDevice(user=user, rng=np.random.default_rng([seed, stream]))


#: What a labelled recording holds: (activities, samples per activity).
Labelling = Tuple[List[str], int]


def labelled_recording(
    device: SensorDevice, seconds_per_activity: float, activities=BASE_ACTIVITIES
) -> Tuple[np.ndarray, Labelling]:
    """Equal slices of each activity, back to back: ``(data, labelling)``."""
    parts = [device.record(name, seconds_per_activity).data for name in activities]
    return np.concatenate(parts, axis=0), (list(activities), parts[0].shape[0])


def window_labels(n_windows: int, stride: int, labelling: Labelling) -> List[Optional[str]]:
    """The label of each window; ``None`` where it straddles two activities."""
    activities, per_activity = labelling
    labels: List[Optional[str]] = []
    for k in range(n_windows):
        first, last = k * stride, k * stride + WINDOW_LEN - 1
        same = first // per_activity == last // per_activity
        labels.append(activities[first // per_activity] if same else None)
    return labels


def split_chunks(data: np.ndarray, chunk: int) -> List[np.ndarray]:
    return [data[i : i + chunk] for i in range(0, data.shape[0], chunk)]


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (``VmHWM``).

    Not ``ru_maxrss``: a spawned child inherits its parent's peak through
    exec, so the gateway child would report the benchmark's pre-training.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def env_block(
    scale: str, seed: int, seconds: float, blas_threads: Dict, workloads: Dict[str, Dict]
) -> Dict:
    cfg = SCALES[scale]
    package = {k: cfg[k] for k in ("backbone_dims", "embedding_dim", "support_capacity")}
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "scale": scale,
        "seed": seed,
        "seconds": seconds,
        "model": package,
        "pretrain": {k: cfg[k] for k in ("epochs", "n_users", "windows")},
        "window_len": WINDOW_LEN,
        "channels": 22,
        "workloads": workloads,
    }
