"""From-scratch numpy neural-network substrate.

Replaces the paper's PyTorch dependency: layers with manual backprop, the
FC Siamese backbone builder with the paper's published dimensions,
contrastive/distillation/cross-entropy losses, SGD/Adam optimizers and
checkpoint (de)serialization.
"""

from .compress import (
    QuantizedNetwork,
    QuantizedTensor,
    factorize_linear,
    factorize_network,
    prune_network,
    quantize_network,
    quantize_tensor,
    reconstruction_error,
    sparse_size_bytes,
    sparsity_of,
)
from .initializers import get_initializer, he_normal, xavier_uniform
from .layers import (
    BatchNorm1d,
    Dropout,
    Layer,
    Linear,
    Parameter,
    ReLU,
    Tanh,
    layer_from_config,
)
from .losses import (
    contrastive_loss,
    distillation_loss,
    mse_loss,
    softmax,
    softmax_cross_entropy,
)
from .network import (
    PAPER_BACKBONE_DIMS,
    PAPER_EMBEDDING_DIM,
    Sequential,
    build_mlp,
)
from .optim import (
    Adam,
    ConstantLR,
    CosineAnnealingLR,
    Optimizer,
    SGD,
    StepLR,
    clip_grad_norm,
)
from .pairs import PairSampler, all_pairs, sample_pairs
from .serialization import load_network, network_bundle_bytes, save_network
from .siamese import (
    SharedBackbone,
    SiameseEmbedder,
    SiameseTrainer,
    TrainConfig,
    TrainHistory,
)

__all__ = [
    "Adam",
    "BatchNorm1d",
    "ConstantLR",
    "CosineAnnealingLR",
    "Dropout",
    "Layer",
    "Linear",
    "Optimizer",
    "PAPER_BACKBONE_DIMS",
    "PAPER_EMBEDDING_DIM",
    "PairSampler",
    "Parameter",
    "QuantizedNetwork",
    "QuantizedTensor",
    "ReLU",
    "SGD",
    "Sequential",
    "SharedBackbone",
    "SiameseEmbedder",
    "SiameseTrainer",
    "StepLR",
    "Tanh",
    "TrainConfig",
    "TrainHistory",
    "all_pairs",
    "build_mlp",
    "clip_grad_norm",
    "contrastive_loss",
    "distillation_loss",
    "factorize_linear",
    "factorize_network",
    "get_initializer",
    "he_normal",
    "layer_from_config",
    "load_network",
    "mse_loss",
    "network_bundle_bytes",
    "prune_network",
    "quantize_network",
    "quantize_tensor",
    "reconstruction_error",
    "sample_pairs",
    "save_network",
    "sparse_size_bytes",
    "sparsity_of",
    "softmax",
    "softmax_cross_entropy",
    "xavier_uniform",
]
