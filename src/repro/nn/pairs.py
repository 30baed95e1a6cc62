"""Pair sampling for Siamese (contrastive) training.

Contrastive training consumes pairs ``(x_a, x_b, same?)``.  A
:class:`PairSampler` draws class-balanced batches of pair indices — half
positive (same class), half negative (different classes) by default —
which keeps the contrastive gradient informative even when class sizes are
skewed (exactly the situation right after a new activity is recorded on
the Edge: few samples of the new class vs. a full support set of old
classes).

Everything that depends only on the label vector — validation, the
per-class index lists, which classes can supply a positive pair, the
clamping of the positive fraction — is worked out once, when the sampler
is built; :class:`~repro.nn.siamese.SiameseTrainer` builds one sampler per
``train`` call and asks it for a batch per step.  ``draw`` consumes the
generator in a fixed, documented order, so a seed pins the pair stream
(and with it every trained weight in the repo): see :meth:`PairSampler.draw`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..exceptions import ConfigurationError, DataShapeError
from ..utils import RngLike, check_labels, ensure_rng


class PairSampler:
    """Draws balanced positive/negative index pairs over a fixed label vector.

    Positive pairs are drawn uniformly over classes (each positive pair
    picks a class first, then two of its members), so rare classes
    contribute as many positives as frequent ones.

    Requires at least two distinct classes for negatives and at least one
    class with two members for positives; the fraction is adjusted when one
    side is impossible (e.g. a single-class dataset yields all positives).
    """

    def __init__(self, labels: np.ndarray, positive_fraction: float = 0.5) -> None:
        labels = check_labels("labels", labels)
        if not 0.0 <= positive_fraction <= 1.0:
            raise ConfigurationError(
                f"positive_fraction must be in [0, 1], got {positive_fraction}"
            )
        #: Member indices of every class, in ascending class order.
        self._members: List[np.ndarray] = [
            np.flatnonzero(labels == c) for c in np.unique(labels)
        ]
        #: The classes that can supply a positive pair.
        self._multi: List[np.ndarray] = [m for m in self._members if m.size >= 2]

        can_positive = bool(self._multi)
        can_negative = len(self._members) >= 2
        if not can_positive and not can_negative:
            raise DataShapeError(
                "cannot sample pairs: need two samples of one class or two classes"
            )
        if not can_positive:
            positive_fraction = 0.0
        elif not can_negative:
            positive_fraction = 1.0
        self.positive_fraction = float(positive_fraction)

    def draw(
        self, n_pairs: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``n_pairs`` index pairs; returns ``(idx_a, idx_b, same)``.

        The generator is consumed in this order, which is part of the
        contract (changing it re-draws every model trained from a seed):
        per positive pair ``integers(n_multi_member_classes)`` then
        ``choice(members, size=2, replace=False)``; per negative pair
        ``choice(n_classes, size=2, replace=False)`` then one
        ``integers(n_members)`` per side; finally one ``permutation``.
        """
        if n_pairs < 1:
            raise ConfigurationError(f"n_pairs must be >= 1, got {n_pairs}")
        n_pos = int(round(n_pairs * self.positive_fraction))
        idx_a = np.empty(n_pairs, dtype=np.int64)
        idx_b = np.empty(n_pairs, dtype=np.int64)
        same = np.zeros(n_pairs, dtype=bool)
        same[:n_pos] = True

        members, multi = self._members, self._multi
        n_classes, n_multi = len(members), len(multi)
        integers, choice = rng.integers, rng.choice
        for k in range(n_pos):
            idx_a[k], idx_b[k] = choice(
                multi[integers(n_multi)], size=2, replace=False
            )
        for k in range(n_pos, n_pairs):
            ca, cb = choice(n_classes, size=2, replace=False)
            side_a, side_b = members[ca], members[cb]
            idx_a[k] = side_a[integers(side_a.size)]
            idx_b[k] = side_b[integers(side_b.size)]

        order = rng.permutation(n_pairs)
        return idx_a[order], idx_b[order], same[order]


def sample_pairs(
    labels: np.ndarray,
    n_pairs: int,
    rng: RngLike = None,
    positive_fraction: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one batch of ``n_pairs`` balanced index pairs.

    One-shot form of ``PairSampler(labels, positive_fraction).draw(n_pairs,
    rng)``; build the sampler yourself when drawing repeatedly from the
    same labels.
    """
    return PairSampler(labels, positive_fraction).draw(n_pairs, ensure_rng(rng))


def all_pairs(labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every unordered index pair with its same-class flag (small inputs only)."""
    labels = check_labels("labels", labels)
    n = labels.shape[0]
    ia, ib = np.triu_indices(n, k=1)
    return ia, ib, labels[ia] == labels[ib]
