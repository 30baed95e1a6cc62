"""Edge-side incremental learning — the paper's online learning step.

:class:`IncrementalLearner` implements Section 3.3's three-step recipe for
learning a new activity (and the calibration variant) on the device:

1. **Samples recording** happens upstream (the app feeds pre-processed
   features here).
2. **Support set update** — fresh exemplars join (or replace, for
   calibration) the support set.
3. **Model re-training** — the Siamese model is re-optimized on the updated
   support set with the *joint* contrastive + distillation objective; the
   distillation teacher is a frozen snapshot of the pre-update model, which
   is what holds the embedding space in place for the old classes
   (catastrophic-forgetting defense).

The learner mutates the embedder in place and reports the training history;
the caller (the Edge device) rebuilds the NCM prototypes afterwards.

A recording is refused *before* either is touched when any feature row is
non-finite: one ``nan`` would otherwise reach every weight through the
first backward pass and leave the device answering one class for
everything, with no error raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..exceptions import DataShapeError
from ..nn.siamese import SiameseEmbedder, SiameseTrainer, TrainConfig, TrainHistory
from ..utils import RngLike, check_2d, ensure_rng, spawn_rng
from .support_set import SupportSet


@dataclass
class IncrementalConfig:
    """Hyper-parameters of Edge re-training.

    Edge budgets are small: fewer epochs and a gentler learning rate than
    Cloud pre-training (the model only needs a local adjustment, and large
    steps would wreck the pre-trained space).  ``distill_weight`` > 0
    engages the anti-forgetting term; setting it to 0 reproduces the
    contrastive-only ablation (E7).
    """

    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(
            epochs=15, batch_pairs=48, lr=3e-4, distill_weight=2.0
        )
    )
    #: Re-train with a frozen teacher (disable only for ablations).
    use_distillation: bool = True


@dataclass
class UpdateResult:
    """Outcome of one incremental update."""

    history: TrainHistory
    class_name: str
    operation: str  # "learn" | "calibrate" | "extend"
    n_new_samples: int


def _check_recording(features: np.ndarray, min_rows: int, too_few: str) -> np.ndarray:
    """Validate one recording's ``(n, d)`` feature rows before any update."""
    arr = check_2d("features", features)
    if arr.shape[0] < min_rows:
        raise DataShapeError(too_few)
    bad_rows = int(np.count_nonzero(~np.isfinite(arr).all(axis=1)))
    if bad_rows:
        raise DataShapeError(
            f"features contain non-finite values in {bad_rows} of "
            f"{arr.shape[0]} rows; the recording was not used"
        )
    return arr


class IncrementalLearner:
    """Performs support-set updates plus joint re-training on the Edge."""

    def __init__(
        self, config: IncrementalConfig = None, rng: RngLike = None
    ) -> None:
        self.config = config if config is not None else IncrementalConfig()
        self._rng = ensure_rng(rng)

    def _retrain(
        self, embedder: SiameseEmbedder, support_set: SupportSet
    ) -> TrainHistory:
        cfg = self.config
        teacher: Optional[SiameseEmbedder] = None
        if cfg.use_distillation and cfg.train.distill_weight > 0.0:
            teacher = embedder.clone()
        features, labels = support_set.training_set()
        trainer = SiameseTrainer(cfg.train, rng=spawn_rng(self._rng))
        return trainer.train(embedder, features, labels, teacher=teacher)

    def learn_new_class(
        self,
        embedder: SiameseEmbedder,
        support_set: SupportSet,
        class_name: str,
        features: np.ndarray,
    ) -> UpdateResult:
        """Add a brand-new activity and re-train (Section 3.3 steps 2-3)."""
        arr = _check_recording(
            features, 2, "need at least 2 samples of the new activity to learn it"
        )
        support_set.add_class(class_name, arr, embedder=embedder)
        history = self._retrain(embedder, support_set)
        return UpdateResult(
            history=history,
            class_name=class_name,
            operation="learn",
            n_new_samples=arr.shape[0],
        )

    def calibrate_class(
        self,
        embedder: SiameseEmbedder,
        support_set: SupportSet,
        class_name: str,
        features: np.ndarray,
    ) -> UpdateResult:
        """Re-calibrate an existing activity to the user's personal style.

        Mirrors :meth:`learn_new_class` except the class's support-set
        exemplars are *replaced* by the user's data (paper, Section 3.3).
        """
        arr = _check_recording(
            features, 2, "need at least 2 samples to calibrate an activity"
        )
        support_set.replace_class(class_name, arr, embedder=embedder)
        history = self._retrain(embedder, support_set)
        return UpdateResult(
            history=history,
            class_name=class_name,
            operation="calibrate",
            n_new_samples=arr.shape[0],
        )

    def reinforce_class(
        self,
        embedder: SiameseEmbedder,
        support_set: SupportSet,
        class_name: str,
        features: np.ndarray,
    ) -> UpdateResult:
        """Blend new user samples into an existing activity (soft update).

        A milder alternative to calibration: old exemplars stay eligible,
        the selection re-runs over the union.
        """
        arr = _check_recording(features, 1, "need at least 1 sample to reinforce")
        support_set.extend_class(class_name, arr, embedder=embedder)
        history = self._retrain(embedder, support_set)
        return UpdateResult(
            history=history,
            class_name=class_name,
            operation="extend",
            n_new_samples=arr.shape[0],
        )
