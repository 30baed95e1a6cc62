"""Shared benchmark fixtures.

Benchmarks run at a larger scale than unit tests: a 6-user campaign with 40
windows per user per activity (1200 one-second windows), the reduced
backbone for trainable experiments, and the full paper-dimension backbone
where the claim under test is about the deployed model (latency E1,
footprint E3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import pytest

from repro.core import CloudConfig
from repro.datasets import build_edge_scenario
from repro.nn import TrainConfig
from repro.serving import ModelRegistry


def bench_cloud_config() -> CloudConfig:
    return CloudConfig(
        backbone_dims=(256, 128, 64),
        embedding_dim=64,
        train=TrainConfig(epochs=25, batch_pairs=64, lr=1e-3),
        support_capacity=200,
    )


def build_benchmark_scenario(smoke: bool = False):
    """The shared scenario, buildable outside pytest (standalone mains).

    ``smoke=False`` matches the :func:`bench_scenario` fixture exactly
    (same seeds, same scale) so recorded baselines and pytest assertions
    measure the same fleet; ``smoke=True`` is the tiny-config variant CI
    smoke runs use.
    """
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
    return build_edge_scenario(
        cloud_config=bench_cloud_config(),
        n_users=6,
        windows_per_user_per_activity=40,
        base_test_windows_per_activity=25,
        rng=2024,
    )


@pytest.fixture(scope="session")
def bench_scenario():
    """The benchmark-scale pre-trained scenario (shared, read-only)."""
    return build_benchmark_scenario(smoke=False)


@dataclass
class CohortFleetSetup:
    """The shared multi-model fleet layout of the serving benchmarks.

    One single-model reference engine, ``n_cohorts`` distinct cohort
    engines published in a registry, one continuous recording every
    session replays, and a round-robin session→cohort assignment.  Used
    by ``bench_fleet_cohorts`` only (cohort overhead vs single model).
    """

    single_engine: object
    cohort_engines: Dict[str, object]
    registry: ModelRegistry
    data: np.ndarray
    session_ids: List[str]
    cohorts: List[str]

    @property
    def n_sessions(self) -> int:
        return len(self.session_ids)

    @property
    def n_cohorts(self) -> int:
        return len(self.cohort_engines)


def build_cohort_fleet_setup(
    scenario,
    seconds: float = 120.0,
    n_sessions: int = 24,
    n_cohorts: int = 3,
) -> CohortFleetSetup:
    """Build the shared fleet layout (importable by standalone benches).

    Engines are warmed up (one ``infer_stream`` pass each) so the first
    measured tick does not pay one-off allocation/cache costs.
    """
    single_engine = scenario.fresh_edge(rng=0).engine
    cohort_engines = {
        f"cohort-{k}": scenario.fresh_edge(rng=k + 1).engine
        for k in range(n_cohorts)
    }
    registry = ModelRegistry(default_cohort="cohort-0")
    for cohort, engine in cohort_engines.items():
        registry.publish(cohort, engine)
    data = scenario.sensor_device.record("walk", seconds).data
    session_ids = [f"dev-{i:03d}" for i in range(n_sessions)]
    cohorts = [f"cohort-{i % n_cohorts}" for i in range(n_sessions)]
    single_engine.infer_stream(data)  # warm-up
    for engine in cohort_engines.values():
        engine.infer_stream(data)
    return CohortFleetSetup(
        single_engine=single_engine,
        cohort_engines=cohort_engines,
        registry=registry,
        data=data,
        session_ids=session_ids,
        cohorts=cohorts,
    )


@pytest.fixture(scope="session")
def cohort_fleet(bench_scenario):
    """The benchmark-scale 3-cohort fleet shared by the serving gates."""
    return build_cohort_fleet_setup(bench_scenario)


@pytest.fixture(scope="session")
def base_test_features(bench_scenario):
    """Per-class test feature sets of the edge user's base activities."""
    pipeline = bench_scenario.package.pipeline
    sets = {}
    for label, name in enumerate(bench_scenario.base_test.class_names):
        mask = bench_scenario.base_test.labels == label
        sets[name] = pipeline.process_windows(
            bench_scenario.base_test.windows[mask]
        )
    return sets
