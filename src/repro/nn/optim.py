"""Optimizers and learning-rate schedules for the numpy NN substrate.

A step runs in place: every intermediate of the update rule is written
through ``out=`` into one pair of scratch buffers sized to the largest
parameter, which the optimizer owns and which goes away with it.  The
operations and their order are the textbook ones, so the weights are
bit-identical to an implementation that allocates a temporary per
operation.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .layers import Parameter


class Optimizer:
    """Base optimizer over a list of :class:`Parameter` objects."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be > 0, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ConfigurationError("optimizer received no parameters")
        self.lr = float(lr)
        self._scratch = np.empty((2, max(p.data.size for p in self.params)))

    def _scratch_pair(self, param: Parameter) -> Tuple[np.ndarray, np.ndarray]:
        """Two ``param``-shaped views into the shared scratch buffers."""
        size, shape = param.data.size, param.data.shape
        return (
            self._scratch[0, :size].reshape(shape),
            self._scratch[1, :size].reshape(shape),
        )

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def clip_grad_norm(self, max_norm: float) -> float:
        """:func:`clip_grad_norm` over this optimizer's parameters."""
        return clip_grad_norm(self.params, max_norm, scratch=self._scratch[0])

    def step(self) -> None:
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be > 0, got {lr}")
        self.lr = float(lr)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ConfigurationError(
                f"weight_decay must be >= 0, got {weight_decay}"
            )
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, vel in zip(self.params, self._velocity):
            decayed, scaled = self._scratch_pair(param)
            grad = param.grad
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=decayed)
                grad = np.add(grad, decayed, out=decayed)
            if self.momentum:
                vel *= self.momentum
                vel += grad
                update = vel
            else:
                update = grad
            np.multiply(update, self.lr, out=scaled)
            param.data -= scaled


class Adam(Optimizer):
    """Adam with standard bias correction."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ConfigurationError(f"eps must be > 0, got {eps}")
        if weight_decay < 0:
            raise ConfigurationError(
                f"weight_decay must be >= 0, got {weight_decay}"
            )
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for param, m, v in zip(self.params, self._m, self._v):
            num, den = self._scratch_pair(param)
            grad = param.grad
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=num)
                grad = np.add(grad, num, out=num)
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=den)
            m += den
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=den)
            den *= grad
            v += den
            # lr * m_hat / (sqrt(v_hat) + eps); the decayed gradient that
            # shared ``num`` is dead from here on
            np.divide(m, bc1, out=num)
            num *= self.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            param.data -= num


def clip_grad_norm(
    params: Sequence[Parameter],
    max_norm: float,
    scratch: Optional[np.ndarray] = None,
) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    ``scratch`` is a flat float64 buffer at least as large as the largest
    gradient, used for the squared gradients (an optimizer lends its own
    through :meth:`Optimizer.clip_grad_norm`); one is allocated when absent.

    Returns the pre-clipping norm.
    """
    if max_norm <= 0:
        raise ConfigurationError(f"max_norm must be > 0, got {max_norm}")
    if scratch is None:
        scratch = np.empty(max((p.grad.size for p in params), default=0))
    total = 0.0
    for param in params:
        squared = scratch[: param.grad.size].reshape(param.grad.shape)
        total += float(np.multiply(param.grad, param.grad, out=squared).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for param in params:
            param.grad *= scale
    return norm


class ConstantLR:
    """A schedule that never changes the learning rate."""

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ConfigurationError(f"lr must be > 0, got {lr}")
        self.lr = float(lr)

    def at_epoch(self, epoch: int) -> float:
        return self.lr


class StepLR:
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, lr: float, step_size: int, gamma: float = 0.5) -> None:
        if lr <= 0:
            raise ConfigurationError(f"lr must be > 0, got {lr}")
        if step_size < 1:
            raise ConfigurationError(f"step_size must be >= 1, got {step_size}")
        if not 0.0 < gamma <= 1.0:
            raise ConfigurationError(f"gamma must be in (0, 1], got {gamma}")
        self.lr = float(lr)
        self.step_size = int(step_size)
        self.gamma = float(gamma)

    def at_epoch(self, epoch: int) -> float:
        return self.lr * self.gamma ** (epoch // self.step_size)


class CosineAnnealingLR:
    """Cosine decay from ``lr`` to ``min_lr`` over ``total_epochs``."""

    def __init__(self, lr: float, total_epochs: int, min_lr: float = 0.0) -> None:
        if lr <= 0:
            raise ConfigurationError(f"lr must be > 0, got {lr}")
        if total_epochs < 1:
            raise ConfigurationError(
                f"total_epochs must be >= 1, got {total_epochs}"
            )
        if min_lr < 0 or min_lr > lr:
            raise ConfigurationError(
                f"min_lr must be in [0, lr], got {min_lr} (lr={lr})"
            )
        self.lr = float(lr)
        self.total_epochs = int(total_epochs)
        self.min_lr = float(min_lr)

    def at_epoch(self, epoch: int) -> float:
        frac = min(max(epoch, 0), self.total_epochs) / self.total_epochs
        cos = 0.5 * (1.0 + np.cos(np.pi * frac))
        return self.min_lr + (self.lr - self.min_lr) * cos
