"""Siamese embedding model and its trainer.

This implements the paper's learning recipe (Sections 3.2-3.3): a Siamese
network — two weight-shared copies of the FC backbone — trained with a
contrastive loss to learn a class-separable embedding space, optionally
joined with an embedding-distillation loss against a frozen *teacher* (the
pre-update model) to prevent catastrophic forgetting during Edge re-training.

Because the two branches share weights, a pair batch is run as one stacked
forward pass; the contrastive gradient is split/merged accordingly and a
single backward pass updates the shared parameters.

What does not change between batches is computed once per ``train`` call:
the :class:`~repro.nn.pairs.PairSampler` (class index lists, validation)
and the frozen teacher's embeddings of the whole training set, which each
batch then gathers by pair index instead of running a teacher forward pass
of its own.  The pair stream, the losses and the optimizer arithmetic are
those of the plain loop — sample, stack, forward both networks, backward,
clip, step — so a seed yields the same weights, bit for bit
(``tests/test_nn_siamese.py`` keeps that loop as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..exceptions import ConfigurationError, DataShapeError, NotFittedError
from ..utils import RngLike, check_2d, check_labels, ensure_rng
from .layers import Linear
from .losses import contrastive_loss, distillation_loss
from .network import Sequential
from .optim import Adam, SGD
from .pairs import PairSampler


class SiameseEmbedder:
    """A weight-shared embedding network with an inference-mode ``embed``."""

    def __init__(self, network: Sequential) -> None:
        self.network = network

    @property
    def embedding_dim(self) -> int:
        """Output dimension (from the last Linear layer)."""
        for layer in reversed(self.network.layers):
            if isinstance(layer, Linear):
                return layer.out_features
        raise ConfigurationError("network has no Linear layer")

    @property
    def input_dim(self) -> int:
        """Input dimension (from the first Linear layer)."""
        for layer in self.network.layers:
            if isinstance(layer, Linear):
                return layer.in_features
        raise ConfigurationError("network has no Linear layer")

    def embed(self, features: np.ndarray) -> np.ndarray:
        """Map ``(n, input_dim)`` features to ``(n, embedding_dim)`` embeddings."""
        arr = check_2d("features", features, n_cols=self.input_dim)
        return self.network.forward(arr, training=False)

    def embed_one(self, feature: np.ndarray) -> np.ndarray:
        """Embed a single feature vector, returning shape ``(embedding_dim,)``."""
        arr = np.asarray(feature, dtype=np.float64)
        if arr.ndim != 1:
            raise DataShapeError(f"feature must be 1-D, got {arr.shape}")
        return self.embed(arr[None, :])[0]

    def clone(self) -> "SiameseEmbedder":
        """Deep copy — used to freeze the teacher before Edge re-training."""
        return SiameseEmbedder(self.network.clone())

    def n_parameters(self) -> int:
        return self.network.n_parameters()

    def size_bytes(self, dtype=np.float32) -> int:
        return self.network.size_bytes(dtype=dtype)


@dataclass
class TrainHistory:
    """Per-epoch loss traces recorded by :class:`SiameseTrainer`."""

    contrastive: List[float] = field(default_factory=list)
    distillation: List[float] = field(default_factory=list)
    total: List[float] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.total)

    def final_loss(self) -> float:
        if not self.total:
            raise NotFittedError("history is empty")
        return self.total[-1]


def _check_count(name: str, value: object) -> None:
    """Reject a size that is not a positive integer (bools included)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        )
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")


@dataclass
class TrainConfig:
    """Hyper-parameters of Siamese training.

    ``distill_weight`` is the λ of the joint loss
    ``L = L_contrastive + λ · L_distill``; it only matters when a teacher is
    passed to :meth:`SiameseTrainer.train`.
    """

    epochs: int = 30
    batch_pairs: int = 64
    pairs_per_epoch: Optional[int] = None  # default: 4 x n_samples
    lr: float = 1e-3
    optimizer: str = "adam"  # "adam" | "sgd"
    momentum: float = 0.9  # SGD only
    weight_decay: float = 0.0
    margin: float = 1.0
    distill_weight: float = 1.0
    grad_clip: Optional[float] = 5.0
    positive_fraction: float = 0.5

    def __post_init__(self) -> None:
        _check_count("epochs", self.epochs)
        _check_count("batch_pairs", self.batch_pairs)
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigurationError(
                f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}"
            )
        if self.distill_weight < 0:
            raise ConfigurationError(
                f"distill_weight must be >= 0, got {self.distill_weight}"
            )
        # The rest would otherwise surface inside the first batch — after an
        # Edge update has already rewritten the support set.
        if self.pairs_per_epoch is not None:
            _check_count("pairs_per_epoch", self.pairs_per_epoch)
        if not self.lr > 0:
            raise ConfigurationError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(
                f"momentum must be in [0, 1), got {self.momentum}"
            )
        if not self.weight_decay >= 0:
            raise ConfigurationError(
                f"weight_decay must be >= 0, got {self.weight_decay}"
            )
        if not self.margin > 0:
            raise ConfigurationError(f"margin must be > 0, got {self.margin}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ConfigurationError(
                f"grad_clip must be > 0 or None, got {self.grad_clip}"
            )
        if not 0.0 <= self.positive_fraction <= 1.0:
            raise ConfigurationError(
                f"positive_fraction must be in [0, 1], got {self.positive_fraction}"
            )

    def batches_per_epoch(self, n_samples: int) -> int:
        """Contrastive batches one epoch over ``n_samples`` rows runs:
        ``pairs_per_epoch`` (default 4 per row) in batches of ``batch_pairs``."""
        pairs = self.pairs_per_epoch if self.pairs_per_epoch is not None else 4 * n_samples
        return max(1, int(np.ceil(pairs / self.batch_pairs)))


class SiameseTrainer:
    """Trains a :class:`SiameseEmbedder` with contrastive (+ distillation) loss."""

    def __init__(self, config: TrainConfig = None, rng: RngLike = None) -> None:
        self.config = config if config is not None else TrainConfig()
        self._rng = ensure_rng(rng)

    def _make_optimizer(self, embedder: SiameseEmbedder):
        cfg = self.config
        params = embedder.network.parameters()
        if cfg.optimizer == "adam":
            return Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        return SGD(
            params, lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay
        )

    def train(
        self,
        embedder: SiameseEmbedder,
        features: np.ndarray,
        labels: np.ndarray,
        teacher: Optional[SiameseEmbedder] = None,
    ) -> TrainHistory:
        """Optimize ``embedder`` in place on ``(features, labels)``.

        When ``teacher`` is given and ``distill_weight > 0``, every batch
        adds an embedding-distillation term anchoring the student to the
        teacher's embedding of the *same* inputs — the paper's defense
        against catastrophic forgetting during Edge re-training.  The
        teacher is frozen and the inputs are fixed, so it embeds them once,
        up front; ``teacher`` must not be the network being trained.
        """
        cfg = self.config
        X = check_2d("features", features, n_cols=embedder.input_dim)
        y = check_labels("labels", labels, n=X.shape[0])
        if X.shape[0] < 2:
            raise DataShapeError("need at least 2 samples to form pairs")

        # The one full-set forward pass comes first, so its activations are
        # gone before the optimizer's state is allocated (peak memory).
        z_teacher_all = None
        if teacher is not None and cfg.distill_weight > 0.0:
            z_teacher_all = teacher.embed(X)
        network = embedder.network
        optimizer = self._make_optimizer(embedder)
        sampler = PairSampler(y, cfg.positive_fraction)
        n_batches = cfg.batches_per_epoch(X.shape[0])

        history = TrainHistory()
        for _ in range(cfg.epochs):
            epoch_con, epoch_dis = 0.0, 0.0
            for _ in range(n_batches):
                ia, ib, same = sampler.draw(cfg.batch_pairs, self._rng)
                stacked = np.concatenate([ia, ib])
                z = network.forward(X[stacked], training=True)
                b = ia.shape[0]

                con_loss, grad_a, grad_b = contrastive_loss(
                    z[:b], z[b:], same, margin=cfg.margin
                )
                grad_z = np.concatenate([grad_a, grad_b], axis=0)

                dis_loss = 0.0
                if z_teacher_all is not None:
                    dis_loss, grad_dis = distillation_loss(z, z_teacher_all[stacked])
                    grad_dis *= cfg.distill_weight
                    grad_z += grad_dis

                optimizer.zero_grad()
                network.backward(grad_z, need_input_grad=False)
                if cfg.grad_clip is not None:
                    optimizer.clip_grad_norm(cfg.grad_clip)
                optimizer.step()

                epoch_con += con_loss
                epoch_dis += dis_loss

            history.contrastive.append(epoch_con / n_batches)
            history.distillation.append(epoch_dis / n_batches)
            history.total.append(
                (epoch_con + cfg.distill_weight * epoch_dis) / n_batches
            )
        return history
