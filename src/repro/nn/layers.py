"""Neural-network layers with explicit forward/backward passes.

This is the from-scratch replacement for the paper's PyTorch backbone: a
minimal layer zoo sufficient for the MAGNETO model (fully-connected Siamese
backbone) and its baselines, written in plain numpy with manual
backpropagation.

Conventions
-----------
- Batches are row-major: inputs are ``(batch, features)``.
- ``forward(x, training=...)`` caches whatever ``backward`` needs.
- ``backward(grad_out)`` *accumulates* parameter gradients (``+=``) and
  returns the gradient w.r.t. the layer input, so a network can run several
  backward passes per optimizer step (e.g. joint losses).  With
  ``need_input_grad=False`` the parameter gradients are accumulated exactly
  as before and ``None`` is returned instead of the input gradient — the
  first layer of a network being trained has nobody to hand it to.
- ``infer(x)`` is the inference-mode arithmetic alone: no dtype cast, no
  shape check, no cache.  ``forward(x, training=False)`` is the checked
  entry and returns exactly ``infer``'s bits; a caller that has already
  checked its input (the engine's window->verdict kernel) calls ``infer``.
- Parameters are :class:`Parameter` objects; optimizers mutate
  ``param.data`` in place using ``param.grad``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..exceptions import ConfigurationError, DataShapeError, TrainingStateError
from ..utils import RngLike, ensure_rng
from .initializers import get_initializer


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, data: np.ndarray) -> None:
        self.name = name
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Layer:
    """Base class; subclasses implement ``forward``/``backward``."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode output for an input already of the layer's dtype
        and shape; layers without their own fall back to ``forward``."""
        return self.forward(x, training=False)

    def parameters(self) -> List[Parameter]:
        return []

    def to_config(self) -> Dict:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


class Linear(Layer):
    """Affine layer ``y = x W + b`` with ``W`` of shape ``(in, out)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        init: str = "he_normal",
        rng: RngLike = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ConfigurationError("in_features and out_features must be >= 1")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.init = init
        weight = get_initializer(init)(self.in_features, self.out_features, rng)
        self.weight = Parameter("weight", weight)
        self.bias = Parameter("bias", np.zeros(self.out_features))
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # Inputs follow the layer's parameter dtype: float64 for trained
        # networks (unchanged behavior), float32 for the engine's cast
        # inference replicas, so a reduced-precision forward pass stays in
        # 32 bits end to end.
        x = np.asarray(x, dtype=self.weight.data.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise DataShapeError(
                f"Linear expects (batch, {self.in_features}), got {x.shape}"
            )
        if training:
            self._x = x
        return self.infer(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.data + self.bias.data

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._x is None:
            raise TrainingStateError("backward called before a training forward pass")
        grad_out = np.asarray(grad_out, dtype=np.float64)
        self.weight.grad += self._x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        if not need_input_grad:
            return None
        return grad_out @ self.weight.data.T

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def to_config(self) -> Dict:
        return {
            "kind": "linear",
            "in_features": self.in_features,
            "out_features": self.out_features,
            "init": self.init,
        }


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x)
        if not np.issubdtype(x.dtype, np.floating):
            x = x.astype(np.float64)
        if training:
            self._mask = x > 0.0
        return self.infer(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._mask is None:
            raise TrainingStateError("backward called before a training forward pass")
        if not need_input_grad:
            return None
        return grad_out * self._mask

    def to_config(self) -> Dict:
        return {"kind": "relu"}


class Tanh(Layer):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x)
        if not np.issubdtype(x.dtype, np.floating):
            x = x.astype(np.float64)
        out = self.infer(x)
        if training:
            self._out = out
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._out is None:
            raise TrainingStateError("backward called before a training forward pass")
        if not need_input_grad:
            return None
        return grad_out * (1.0 - self._out**2)

    def to_config(self) -> Dict:
        return {"kind": "tanh"}


class Dropout(Layer):
    """Inverted dropout; active only during training."""

    def __init__(self, rate: float = 0.1, rng: RngLike = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = ensure_rng(rng)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x)
        if not np.issubdtype(x.dtype, np.floating):
            x = x.astype(np.float64)
        if not training or self.rate == 0.0:
            self._mask = np.ones_like(x)
            return self.infer(x)
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x  # inverted dropout: inference is the identity

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._mask is None:
            raise TrainingStateError("backward called before a training forward pass")
        if not need_input_grad:
            return None
        return grad_out * self._mask

    def to_config(self) -> Dict:
        return {"kind": "dropout", "rate": self.rate}


class BatchNorm1d(Layer):
    """Batch normalization over the feature dimension.

    Uses batch statistics during training and exponential running
    statistics during inference.
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5):
        if num_features < 1:
            raise ConfigurationError(f"num_features must be >= 1, got {num_features}")
        if not 0.0 < momentum < 1.0:
            raise ConfigurationError(f"momentum must be in (0, 1), got {momentum}")
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter("gamma", np.ones(self.num_features))
        self.beta = Parameter("beta", np.zeros(self.num_features))
        self.running_mean = np.zeros(self.num_features)
        self.running_var = np.ones(self.num_features)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=self.gamma.data.dtype)
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise DataShapeError(
                f"BatchNorm1d expects (batch, {self.num_features}), got {x.shape}"
            )
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = (
                self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1.0 - self.momentum) * var
            )
            x_hat = (x - mean) / np.sqrt(var + self.eps)
            self._cache = (x_hat, var)
            return self.gamma.data * x_hat + self.beta.data
        return self.infer(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        x_hat = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
        return self.gamma.data * x_hat + self.beta.data

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cache is None:
            raise TrainingStateError("backward called before a training forward pass")
        x_hat, var = self._cache
        n = grad_out.shape[0]
        self.gamma.grad += (grad_out * x_hat).sum(axis=0)
        self.beta.grad += grad_out.sum(axis=0)
        if not need_input_grad:
            return None
        inv_std = 1.0 / np.sqrt(var + self.eps)
        g = grad_out * self.gamma.data
        return (
            inv_std
            / n
            * (n * g - g.sum(axis=0) - x_hat * (g * x_hat).sum(axis=0))
        )

    def parameters(self) -> List[Parameter]:
        return [self.gamma, self.beta]

    def to_config(self) -> Dict:
        return {
            "kind": "batchnorm1d",
            "num_features": self.num_features,
            "momentum": self.momentum,
            "eps": self.eps,
        }


_LAYER_KINDS = {
    "linear": lambda cfg, rng: Linear(
        cfg["in_features"], cfg["out_features"], init=cfg.get("init", "he_normal"),
        rng=rng,
    ),
    "relu": lambda cfg, rng: ReLU(),
    "tanh": lambda cfg, rng: Tanh(),
    "dropout": lambda cfg, rng: Dropout(cfg["rate"], rng=rng),
    "batchnorm1d": lambda cfg, rng: BatchNorm1d(
        cfg["num_features"], momentum=cfg.get("momentum", 0.9), eps=cfg.get("eps", 1e-5)
    ),
}


def layer_from_config(config: Dict, rng: RngLike = None):
    """Rebuild a layer (with fresh parameters) from its ``to_config`` dict."""
    try:
        kind = config["kind"]
    except (KeyError, TypeError):
        raise ConfigurationError(f"invalid layer config: {config!r}") from None
    try:
        factory = _LAYER_KINDS[kind]
    except KeyError:
        raise ConfigurationError(f"unknown layer kind {kind!r}") from None
    return factory(config, rng)
