"""E12 (extension) — Feature extractor ablation (paper §3.2(1)).

The paper ships hand-crafted statistical features but notes that "more
advanced feature extractors can be explored and integrated into our
framework".  This bench exercises that hook: statistical (the paper's 80),
spectral (24 frequency-domain features), and their concatenation, each
through the full pre-train -> new-user-evaluation path, reporting accuracy,
feature count and extraction cost.
"""

import numpy as np
import pytest

from repro.core import CloudConfig, CloudInitializer, NCMClassifier
from repro.eval import accuracy, print_table
from repro.nn import TrainConfig
from repro.preprocessing import (
    CombinedFeatureExtractor,
    SpectralFeatureExtractor,
    StreamingFeatureExtractor,
)
from repro.utils import Timer


def _variants():
    return {
        "statistical (paper)": StreamingFeatureExtractor(),
        "spectral": SpectralFeatureExtractor(),
        "statistical+spectral": CombinedFeatureExtractor(
            [StreamingFeatureExtractor(), SpectralFeatureExtractor()]
        ),
    }


def test_bench_feature_extractor_ablation(benchmark, bench_scenario):
    campaign = bench_scenario.campaign
    test = bench_scenario.base_test

    def run_all():
        rows = []
        for name, extractor in _variants().items():
            config = CloudConfig(
                backbone_dims=(128, 64),
                embedding_dim=32,
                train=TrainConfig(epochs=15, batch_pairs=64, lr=1e-3),
                support_capacity=100,
                extractor=extractor,
            )
            cloud = CloudInitializer(config, rng=77)
            package, report = cloud.pretrain(campaign)

            feats = package.pipeline.process_windows(test.windows)
            ncm = NCMClassifier().fit_from_support_set(
                package.embedder, package.support_set
            )
            pred = ncm.predict(package.embedder.embed(feats))
            new_user_acc = accuracy(test.labels, pred)

            with Timer() as timer:
                package.pipeline.process_windows(test.windows[:50])
            per_window_ms = timer.elapsed_ms / 50.0

            rows.append(
                [
                    name,
                    package.pipeline.n_features,
                    report.train_accuracy,
                    new_user_acc,
                    per_window_ms,
                ]
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        ["extractor", "n_features", "train_acc", "new_user_acc",
         "extract_ms_per_window"],
        rows,
        title="E12: feature extractor ablation through the full platform",
    )

    by_name = {row[0]: row for row in rows}
    # The paper's statistical features must already be sufficient.
    assert by_name["statistical (paper)"][3] > 0.85
    # Every variant trains a usable model (the integration hook works).
    for row in rows:
        assert row[3] > 0.6, row[0]
    # Feature counts are as designed.
    assert by_name["statistical (paper)"][1] == 80
    assert by_name["spectral"][1] == 24
    assert by_name["statistical+spectral"][1] == 104
