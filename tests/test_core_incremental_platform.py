"""Unit tests for the incremental learner and platform orchestration."""

import numpy as np
import pytest

from repro.core import (
    IncrementalConfig,
    IncrementalLearner,
    MagnetoPlatform,
    CloudConfig,
    NetworkLink,
)
from repro.datasets import activity_windows
from repro.exceptions import ConfigurationError, DataShapeError
from repro.nn import TrainConfig


@pytest.fixture
def learner():
    return IncrementalLearner(
        IncrementalConfig(
            train=TrainConfig(epochs=4, batch_pairs=24, lr=3e-4,
                              distill_weight=2.0)
        ),
        rng=5,
    )


@pytest.fixture
def embedder_and_support(scenario):
    return (
        scenario.package.embedder.clone(),
        scenario.package.support_set.clone(),
    )


class TestIncrementalLearner:
    def test_learn_new_class_registers_and_trains(
        self, learner, embedder_and_support, scenario, edge
    ):
        embedder, support = embedder_and_support
        windows = activity_windows(scenario.edge_user, "gesture_hi", 15, rng=2)
        feats = scenario.package.pipeline.process_windows(windows)
        result = learner.learn_new_class(embedder, support, "gesture_hi", feats)
        assert result.operation == "learn"
        assert result.n_new_samples == 15
        assert "gesture_hi" in support.class_names
        assert result.history.n_epochs == 4

    def test_non_integer_batch_size_refused_before_the_support_set_moves(
        self, embedder_and_support, scenario
    ):
        # it used to pass TrainConfig, add the class, then fail in the sampler
        embedder, support = embedder_and_support
        before = support.class_names
        windows = activity_windows(scenario.edge_user, "gesture_hi", 6, rng=2)
        feats = scenario.package.pipeline.process_windows(windows)
        with pytest.raises(ConfigurationError, match="batch_pairs"):
            IncrementalLearner(
                IncrementalConfig(train=TrainConfig(batch_pairs=2.5)), rng=5
            ).learn_new_class(embedder, support, "gesture_hi", feats)
        assert support.class_names == before

    def test_learn_single_sample_rejected(
        self, learner, embedder_and_support, rng
    ):
        embedder, support = embedder_and_support
        with pytest.raises(DataShapeError):
            learner.learn_new_class(
                embedder, support, "x", rng.normal(size=(1, 80))
            )

    def test_calibrate_replaces_exemplars(
        self, learner, embedder_and_support, scenario
    ):
        embedder, support = embedder_and_support
        windows = activity_windows(scenario.edge_user, "walk", 10, rng=3)
        feats = scenario.package.pipeline.process_windows(windows)
        result = learner.calibrate_class(embedder, support, "walk", feats)
        assert result.operation == "calibrate"
        assert support.counts()["walk"] == 10

    def test_distillation_limits_drift(self, scenario):
        """With distillation the updated embedder stays closer to the
        original than without (the E7 mechanism, unit-scale)."""
        X, _ = scenario.package.support_set.clone().training_set()
        original = scenario.package.embedder
        z_before = original.embed(X)

        def drift(distill_weight, use):
            learner = IncrementalLearner(
                IncrementalConfig(
                    train=TrainConfig(epochs=6, batch_pairs=24, lr=1e-3,
                                      distill_weight=distill_weight),
                    use_distillation=use,
                ),
                rng=4,
            )
            emb = original.clone()
            support = scenario.package.support_set.clone()
            windows = activity_windows(scenario.edge_user, "jump", 12, rng=5)
            feats = scenario.package.pipeline.process_windows(windows)
            learner.learn_new_class(emb, support, "jump", feats)
            return float(np.abs(emb.embed(X) - z_before).mean())

        assert drift(5.0, True) < drift(0.0, False)

    def test_use_distillation_false_disables_teacher(
        self, embedder_and_support, scenario
    ):
        embedder, support = embedder_and_support
        learner = IncrementalLearner(
            IncrementalConfig(
                train=TrainConfig(epochs=2, batch_pairs=16, distill_weight=2.0),
                use_distillation=False,
            ),
            rng=1,
        )
        windows = activity_windows(scenario.edge_user, "jump", 8, rng=6)
        feats = scenario.package.pipeline.process_windows(windows)
        result = learner.learn_new_class(embedder, support, "jump", feats)
        assert all(v == 0.0 for v in result.history.distillation)


class TestMagnetoPlatform:
    def test_initialize_end_to_end(self):
        platform = MagnetoPlatform(
            cloud_config=CloudConfig(
                backbone_dims=(32,),
                embedding_dim=8,
                train=TrainConfig(epochs=3, batch_pairs=16),
                support_capacity=10,
            ),
            link=NetworkLink(latency_ms=25.0, bandwidth_mbps=50.0, rng=0),
            rng=9,
        )
        edge, report = platform.initialize(
            n_users=2, windows_per_user_per_activity=6
        )
        assert edge.is_ready
        assert report.package_bytes > 0
        assert report.download_ms >= 25.0
        assert report.pretrain.train_accuracy > 0.5

    def test_platform_accepts_existing_dataset(self, tiny_campaign):
        platform = MagnetoPlatform(
            cloud_config=CloudConfig(
                backbone_dims=(32,),
                embedding_dim=8,
                train=TrainConfig(epochs=3, batch_pairs=16),
                support_capacity=10,
            ),
            rng=9,
        )
        edge, report = platform.initialize(tiny_campaign)
        assert report.pretrain.n_train_windows == tiny_campaign.n_windows
