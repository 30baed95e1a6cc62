"""Networks: layer composition, the MAGNETO backbone builder, (de)serialization.

The paper's backbone is "a simple Fully Connected (FC) neural network with
dimensions [1024 x 512 x 128 x 64 x 128]" — four hidden layers and a
128-dimensional embedding output.  :func:`build_mlp` constructs exactly
that by default (on top of the 80-dimensional feature input), and
:data:`PAPER_BACKBONE_DIMS` records the published dimensions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, SerializationError
from ..utils import RngLike, ensure_rng
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

#: Hidden dims and embedding dim published in the paper (Section 3.2).
PAPER_BACKBONE_DIMS: Tuple[int, ...] = (1024, 512, 128, 64)
PAPER_EMBEDDING_DIM: int = 128


class Sequential(Layer):
    """A plain feed-forward stack of layers."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ConfigurationError("Sequential requires at least one layer")
        self.layers: List[Layer] = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Back-propagate through the stack, accumulating parameter gradients.

        Only the first layer's input gradient is optional: a trainer that
        never reads it passes ``need_input_grad=False`` and gets ``None``
        back, which spares that layer its ``grad_out @ W.T`` product.
        """
        grad = grad_out
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        return self.layers[0].backward(grad, need_input_grad=need_input_grad)

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def n_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(np.prod(p.shape) for p in self.parameters()))

    def size_bytes(self, dtype=np.float32) -> int:
        """Storage footprint of the parameters at ``dtype`` precision."""
        return self.n_parameters() * np.dtype(dtype).itemsize

    # ------------------------------------------------------------------ #
    # state / serialization
    # ------------------------------------------------------------------ #

    def to_config(self) -> Dict:
        return {
            "kind": "sequential",
            "layers": [layer.to_config() for layer in self.layers],
        }

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat parameter snapshot keyed ``'{layer_idx}.{param_name}'``."""
        state: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for param in layer.parameters():
                state[f"{i}.{param.name}"] = param.data.copy()
            if isinstance(layer, BatchNorm1d):
                state[f"{i}.running_mean"] = layer.running_mean.copy()
                state[f"{i}.running_var"] = layer.running_var.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            for param in layer.parameters():
                key = f"{i}.{param.name}"
                if key not in state:
                    raise SerializationError(f"missing parameter {key!r} in state")
                value = np.asarray(state[key], dtype=np.float64)
                if value.shape != param.data.shape:
                    raise SerializationError(
                        f"shape mismatch for {key!r}: "
                        f"{value.shape} vs {param.data.shape}"
                    )
                param.data = value.copy()
                param.grad = np.zeros_like(param.data)
            if isinstance(layer, BatchNorm1d):
                layer.running_mean = np.asarray(
                    state[f"{i}.running_mean"], dtype=np.float64
                ).copy()
                layer.running_var = np.asarray(
                    state[f"{i}.running_var"], dtype=np.float64
                ).copy()

    @classmethod
    def from_config(cls, config: Dict, rng: RngLike = None) -> "Sequential":
        if config.get("kind") != "sequential":
            raise SerializationError(f"not a sequential config: {config!r}")
        rng = ensure_rng(rng)
        return cls([layer_from_config(c, rng) for c in config["layers"]])

    def clone(self) -> "Sequential":
        """A deep copy with independent parameters (teacher snapshots)."""
        twin = Sequential.from_config(self.to_config())
        twin.load_state_dict(self.state_dict())
        return twin


def build_mlp(
    input_dim: int,
    hidden_dims: Sequence[int] = PAPER_BACKBONE_DIMS,
    output_dim: int = PAPER_EMBEDDING_DIM,
    activation: str = "relu",
    dropout: float = 0.0,
    batchnorm: bool = False,
    rng: RngLike = None,
) -> Sequential:
    """Build the fully-connected backbone.

    Defaults reproduce the paper's ``[1024, 512, 128, 64] -> 128`` network.
    The final layer is linear (it outputs the embedding).
    """
    if input_dim < 1:
        raise ConfigurationError(f"input_dim must be >= 1, got {input_dim}")
    if output_dim < 1:
        raise ConfigurationError(f"output_dim must be >= 1, got {output_dim}")
    if activation not in ("relu", "tanh"):
        raise ConfigurationError(
            f"activation must be 'relu' or 'tanh', got {activation!r}"
        )
    rng = ensure_rng(rng)
    init = "he_normal" if activation == "relu" else "xavier_uniform"
    act_cls = ReLU if activation == "relu" else Tanh

    layers: List[Layer] = []
    prev = input_dim
    for width in hidden_dims:
        layers.append(Linear(prev, width, init=init, rng=rng))
        if batchnorm:
            layers.append(BatchNorm1d(width))
        layers.append(act_cls())
        if dropout > 0.0:
            layers.append(Dropout(dropout, rng=rng))
        prev = width
    layers.append(Linear(prev, output_dim, init=init, rng=rng))
    return Sequential(layers)
