"""Shared fixtures.

Expensive artifacts (campaign, fitted pipeline, pre-trained package) are
session-scoped and deliberately small; tests that mutate state get fresh
copies (``scenario.fresh_edge()``, ``support_set.clone()``).  Set
``REPRO_TEST_ORDER_SEED=<int>`` to run the suite in one shuffled order.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.core import CloudConfig
from repro.datasets import build_edge_scenario
from repro.nn import TrainConfig
from repro.preprocessing import PreprocessingPipeline
from repro.sensors import SensorDevice, generate_campaign


def pytest_collection_modifyitems(config, items):
    """Shuffle the collected tests when ``REPRO_TEST_ORDER_SEED`` is set.

    One integer seed gives one reproducible order (``random.Random(seed)``
    over the whole collection), so an order that fails can be re-run.
    Unset, the suite keeps its file order.
    """
    seed = os.environ.get("REPRO_TEST_ORDER_SEED")
    if seed:
        random.Random(int(seed)).shuffle(items)


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_campaign():
    """A small balanced campaign: 3 users x 10 windows x 5 activities."""
    return generate_campaign(
        n_users=3, windows_per_user_per_activity=10, rng=101
    )


@pytest.fixture(scope="session")
def fitted_pipeline(tiny_campaign):
    pipeline = PreprocessingPipeline()
    pipeline.fit_normalizer(tiny_campaign.windows)
    return pipeline


@pytest.fixture(scope="session")
def campaign_features(tiny_campaign, fitted_pipeline):
    """(features, labels) of the tiny campaign."""
    return (
        fitted_pipeline.process_windows(tiny_campaign.windows),
        tiny_campaign.labels,
    )


def small_cloud_config() -> CloudConfig:
    """The test-scale Cloud configuration used across fixtures."""
    return CloudConfig(
        backbone_dims=(64, 32),
        embedding_dim=16,
        train=TrainConfig(epochs=10, batch_pairs=32, lr=1e-3),
        support_capacity=25,
    )


@pytest.fixture(scope="session")
def scenario():
    """A full pre-trained scenario with a held-out edge user."""
    return build_edge_scenario(
        cloud_config=small_cloud_config(),
        n_users=3,
        windows_per_user_per_activity=12,
        base_test_windows_per_activity=8,
        rng=77,
    )


@pytest.fixture
def edge(scenario):
    """A freshly provisioned edge device (safe to mutate)."""
    return scenario.fresh_edge(rng=5)


@pytest.fixture
def recorder(scenario):
    """The edge user's phone on a generator of its own.

    ``scenario.sensor_device`` is one stateful generator shared by the whole
    session, so what it records depends on which tests ran first.  A test
    that asserts on what a recording is classified as (learn/calibrate,
    float32 flip rates) must see the same recording in every test order.
    """
    return SensorDevice(user=scenario.edge_user, rng=2024)
