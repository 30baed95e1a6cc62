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
  ``param.data`` in place using ``param.grad``.  A gradient is allocated
  on its first use, so a network that only serves holds none.
- :func:`layer_from_config` builds a layer with fresh parameters;
  :func:`layer_from_state` rebuilds a stored one around its arrays,
  drawing no init.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from ..exceptions import (
    ConfigurationError,
    DataShapeError,
    SerializationError,
    TrainingStateError,
)
from ..utils import RngLike, ensure_rng
from .initializers import get_initializer


class Parameter:
    """A trainable tensor with an accumulated gradient.

    ``data`` is float64, or float32 when given as float32 (the engine's
    inference replicas); it is held, not copied, when it already has its
    dtype.  The gradient — zeros of ``data``'s shape and dtype — is
    allocated on first use (reading ``grad``, ``zero_grad``, a backward
    pass, an optimizer step), so a parameter that is only served holds
    none.  Assigning ``grad = None`` releases it.
    """

    __slots__ = ("name", "data", "_grad")

    def __init__(self, name: str, data: np.ndarray) -> None:
        self.name = name
        data = np.asarray(data)
        self.data = (
            data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        )
        self._grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._grad = value

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
        weight = get_initializer(init)(int(in_features), int(out_features), rng)
        self._hold(weight, np.zeros(int(out_features)), init)

    @classmethod
    def from_arrays(
        cls, weight: np.ndarray, bias: np.ndarray, init: str = "he_normal"
    ) -> "Linear":
        """A layer whose parameters are ``weight`` ``(in, out)`` and
        ``bias`` ``(out,)`` as given: held, not copied, and no init drawn.
        ``init`` is only recorded for :meth:`to_config`."""
        layer = cls.__new__(cls)
        layer._hold(weight, bias, init)
        return layer

    def _hold(self, weight: np.ndarray, bias: np.ndarray, init: str) -> None:
        self.weight = Parameter("weight", weight)
        self.bias = Parameter("bias", bias)
        self.in_features, self.out_features = self.weight.shape
        self.init = init
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
    """Build a layer (with fresh parameters) from its ``to_config`` dict."""
    try:
        kind = config["kind"]
    except (KeyError, TypeError):
        raise ConfigurationError(f"invalid layer config: {config!r}") from None
    try:
        factory = _LAYER_KINDS[kind]
    except KeyError:
        raise ConfigurationError(f"unknown layer kind {kind!r}") from None
    return factory(config, rng)


def layer_from_state(
    config: Dict,
    state: Mapping[str, np.ndarray],
    prefix: str = "",
    dtype=np.float64,
) -> Layer:
    """Rebuild a stored layer from its ``to_config`` dict and its arrays.

    ``state`` holds the layer's parameters and batch-norm running
    statistics under ``prefix + name`` (``Sequential.state_dict`` keys);
    each one, cast to ``dtype`` (float64 or float32), becomes the layer's
    own — held, not copied, when it already has that dtype — and no init
    is drawn.  A missing or misshapen array, or a malformed config, raises
    :class:`SerializationError`.
    """

    def array(name: str, shape) -> np.ndarray:
        key = prefix + name
        if key not in state:
            raise SerializationError(f"missing parameter {key!r} in state")
        value = np.asarray(state[key], dtype=dtype)
        if value.shape != shape:
            raise SerializationError(
                f"shape mismatch for {key!r}: {value.shape} vs {shape}"
            )
        return value

    try:
        kind = config["kind"]
        if kind == "linear":
            n_in, n_out = int(config["in_features"]), int(config["out_features"])
            return Linear.from_arrays(
                array("weight", (n_in, n_out)),
                array("bias", (n_out,)),
                init=config.get("init", "he_normal"),
            )
        if kind == "batchnorm1d":
            layer = layer_from_config(config)
            n = (layer.num_features,)
            layer.gamma = Parameter("gamma", array("gamma", n))
            layer.beta = Parameter("beta", array("beta", n))
            layer.running_mean = array("running_mean", n)
            layer.running_var = array("running_var", n)
            return layer
        return layer_from_config(config)  # no arrays: an activation or dropout
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"invalid layer config {config!r}: {exc}") from exc
