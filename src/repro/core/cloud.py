"""Cloud initialization — the paper's offline step.

:class:`CloudInitializer` reproduces Section 3.2: process the campaign
dataset with the pre-processing pipeline, pre-train the Siamese model on
the base activities, assemble the support set, and emit the
:class:`~repro.core.transfer.TransferPackage` for the Edge.  No user data
is involved — the campaign is the simulated "openly collected" corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..nn.network import build_mlp
from ..nn.siamese import SiameseEmbedder, SiameseTrainer, TrainConfig, TrainHistory
from ..preprocessing.features import FeatureConfig
from ..preprocessing.pipeline import PreprocessingPipeline
from ..sensors.dataset import RawDataset, generate_campaign
from ..utils import RngLike, ensure_rng, spawn_rng
from .ncm import NCMClassifier
from .support_set import SupportSet
from .transfer import TransferPackage


@dataclass
class CloudConfig:
    """Knobs of the offline step.

    ``backbone_dims``/``embedding_dim`` default to a laptop-friendly
    reduction of the paper's ``[1024, 512, 128, 64] -> 128`` network; pass
    :data:`repro.nn.PAPER_BACKBONE_DIMS` to train the full-size backbone
    (the footprint benchmark does).
    """

    backbone_dims: Tuple[int, ...] = (256, 128, 64)
    embedding_dim: int = 64
    dropout: float = 0.0
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(epochs=25, batch_pairs=64, lr=1e-3)
    )
    support_capacity: int = 200
    support_selection: str = "random"
    window_len: int = 120
    feature_config: Optional[FeatureConfig] = None
    #: Optional custom feature extractor (statistical/spectral/combined);
    #: overrides ``feature_config`` when set.
    extractor: object = None

    def __post_init__(self) -> None:
        if self.embedding_dim < 1:
            raise ConfigurationError(
                f"embedding_dim must be >= 1, got {self.embedding_dim}"
            )
        if self.support_capacity < 1:
            raise ConfigurationError(
                f"support_capacity must be >= 1, got {self.support_capacity}"
            )


@dataclass
class PretrainReport:
    """What the offline step produced, for logging and experiments."""

    history: TrainHistory
    train_accuracy: float
    n_parameters: int
    class_names: Tuple[str, ...]
    n_train_windows: int


class CloudInitializer:
    """Runs the offline step and emits the transfer package."""

    def __init__(self, config: CloudConfig = None, rng: RngLike = None) -> None:
        self.config = config if config is not None else CloudConfig()
        self._rng = ensure_rng(rng)

    def pretrain(
        self, dataset: Optional[RawDataset] = None, **campaign_kwargs
    ) -> Tuple[TransferPackage, PretrainReport]:
        """Pre-train on ``dataset`` (or a freshly generated campaign).

        ``campaign_kwargs`` forward to
        :func:`repro.sensors.dataset.generate_campaign` when no dataset is
        given (e.g. ``n_users=8, windows_per_user_per_activity=40``).

        Returns the transfer package and a :class:`PretrainReport`.
        """
        cfg = self.config
        if dataset is None:
            dataset = generate_campaign(rng=spawn_rng(self._rng), **campaign_kwargs)
        if dataset.n_windows < 2:
            raise ConfigurationError(
                "campaign dataset too small to pre-train on"
            )

        # (1) the pre-processing function, fitted once on campaign data:
        # the campaign is featurized once, and the normalizer fitted on
        # those rows normalizes them.
        pipeline = PreprocessingPipeline(
            window_len=cfg.window_len,
            feature_config=cfg.feature_config,
            extractor=cfg.extractor,
        )
        raw = pipeline.raw_features_of_windows(dataset.windows)
        pipeline.normalizer.fit(raw)
        features = pipeline.normalizer.transform(raw)

        # (2) the initial ML model: Siamese pre-training.
        network = build_mlp(
            input_dim=pipeline.n_features,
            hidden_dims=cfg.backbone_dims,
            output_dim=cfg.embedding_dim,
            dropout=cfg.dropout,
            rng=spawn_rng(self._rng),
        )
        embedder = SiameseEmbedder(network)
        trainer = SiameseTrainer(cfg.train, rng=spawn_rng(self._rng))
        history = trainer.train(embedder, features, dataset.labels)

        # (3) the support set: representative exemplars per class.
        support = SupportSet(
            capacity_per_class=cfg.support_capacity,
            selection=cfg.support_selection,
            rng=spawn_rng(self._rng),
        )
        for label, name in enumerate(dataset.class_names):
            support.add_class(
                name, features[dataset.labels == label], embedder=embedder
            )

        package = TransferPackage(
            pipeline=pipeline, embedder=embedder, support_set=support
        )

        ncm = NCMClassifier().fit_from_support_set(embedder, support)
        predictions = ncm.predict(embedder.embed(features))
        train_accuracy = float(np.mean(predictions == dataset.labels))
        report = PretrainReport(
            history=history,
            train_accuracy=train_accuracy,
            n_parameters=network.n_parameters(),
            class_names=dataset.class_names,
            n_train_windows=dataset.n_windows,
        )
        return package, report
