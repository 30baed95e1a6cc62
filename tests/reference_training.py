"""The plain Siamese training loop, kept as the reference for exactness tests.

``repro.nn`` trains with a once-per-call pair sampler, a teacher that embeds
the training set once, optimizers that work in place and a backward pass that
skips the unused input gradient.  None of that may move a weight: the same
seed must give the same bits as the loop below, which does everything the
obvious way — re-derives the class index lists for every batch, runs the
teacher on every batch, allocates a temporary per arithmetic operation and
back-propagates all the way to the input.

Only layers, losses and ``TrainHistory`` are shared with the library; pair
drawing, gradient clipping, both optimizers and the loop are local copies.
"""

from __future__ import annotations

import numpy as np

from repro.nn import contrastive_loss, distillation_loss
from repro.nn.siamese import TrainHistory


def reference_sample_pairs(labels, n_pairs, rng, positive_fraction=0.5):
    """One batch of pairs, drawn one scalar at a time."""
    labels = np.asarray(labels)
    classes = sorted(int(c) for c in np.unique(labels))
    by_class = {c: np.flatnonzero(labels == c) for c in classes}
    multi_member = [c for c in classes if by_class[c].size >= 2]
    if not multi_member:
        positive_fraction = 0.0
    elif len(classes) < 2:
        positive_fraction = 1.0
    n_pos = int(round(n_pairs * positive_fraction))

    idx_a, idx_b, same = [], [], []
    for _ in range(n_pos):
        c = multi_member[int(rng.integers(len(multi_member)))]
        a, b = rng.choice(by_class[c], size=2, replace=False)
        idx_a.append(int(a))
        idx_b.append(int(b))
        same.append(True)
    for _ in range(n_pairs - n_pos):
        ca, cb = rng.choice(len(classes), size=2, replace=False)
        idx_a.append(int(rng.choice(by_class[classes[int(ca)]])))
        idx_b.append(int(rng.choice(by_class[classes[int(cb)]])))
        same.append(False)
    order = rng.permutation(len(idx_a))
    return (
        np.asarray(idx_a, dtype=np.int64)[order],
        np.asarray(idx_b, dtype=np.int64)[order],
        np.asarray(same, dtype=bool)[order],
    )


def reference_clip_grad_norm(params, max_norm):
    total = 0.0
    for param in params:
        total += float((param.grad * param.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for param in params:
            param.grad *= scale
    return norm


class ReferenceSGD:
    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        self.params = list(params)
        self.lr, self.momentum, self.weight_decay = lr, momentum, weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for param, vel in zip(self.params, self.velocity):
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                update = vel
            else:
                update = grad
            param.data -= self.lr * update


class ReferenceAdam:
    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.lr, self.eps, self.weight_decay = lr, eps, weight_decay
        self.beta1, self.beta2 = betas
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for param, m, v in zip(self.params, self.m, self.v):
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bc1
            v_hat = v / bc2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_optimizer(config, params):
    if config.optimizer == "adam":
        return ReferenceAdam(params, config.lr, weight_decay=config.weight_decay)
    return ReferenceSGD(
        params, config.lr, momentum=config.momentum, weight_decay=config.weight_decay
    )


def reference_train(config, rng, embedder, features, labels, teacher=None):
    """Train ``embedder`` in place with the plain loop; returns the history."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    network = embedder.network
    optimizer = reference_optimizer(config, network.parameters())
    pairs_per_epoch = (
        config.pairs_per_epoch if config.pairs_per_epoch is not None else 4 * X.shape[0]
    )
    n_batches = max(1, int(np.ceil(pairs_per_epoch / config.batch_pairs)))
    distill_active = teacher is not None and config.distill_weight > 0.0

    history = TrainHistory()
    for _ in range(config.epochs):
        epoch_con, epoch_dis = 0.0, 0.0
        for _ in range(n_batches):
            ia, ib, same = reference_sample_pairs(
                y, config.batch_pairs, rng, config.positive_fraction
            )
            batch = np.concatenate([X[ia], X[ib]], axis=0)
            z = network.forward(batch, training=True)
            b = ia.shape[0]
            con_loss, grad_a, grad_b = contrastive_loss(
                z[:b], z[b:], same, margin=config.margin
            )
            grad_z = np.concatenate([grad_a, grad_b], axis=0)
            dis_loss = 0.0
            if distill_active:
                dis_loss, grad_dis = distillation_loss(z, teacher.embed(batch))
                grad_z = grad_z + config.distill_weight * grad_dis
            network.zero_grad()
            network.backward(grad_z)
            if config.grad_clip is not None:
                reference_clip_grad_norm(network.parameters(), config.grad_clip)
            optimizer.step()
            epoch_con += con_loss
            epoch_dis += dis_loss
        history.contrastive.append(epoch_con / n_batches)
        history.distillation.append(epoch_dis / n_batches)
        history.total.append(
            (epoch_con + config.distill_weight * epoch_dis) / n_batches
        )
    return history
