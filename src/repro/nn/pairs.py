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

#: One past the largest 32-bit generator word.
_WORDS = 1 << 32
_LOW_MASK = _WORDS - 1


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
        #: Member indices of every class, in ascending class order (sorted
        #: in Python: ``np.unique`` imports ``numpy.ma`` on first use).
        self._members: List[List[int]] = [
            np.flatnonzero(labels == c).tolist()
            for c in sorted(set(labels.tolist()))
        ]
        #: The classes that can supply a positive pair.
        self._multi: List[List[int]] = [m for m in self._members if len(m) >= 2]

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

        The pairs are exactly those of this scalar sequence, which is part
        of the contract (changing it re-draws every model trained from a
        seed): per positive pair ``integers(n_multi_member_classes)`` then
        ``choice(members, size=2, replace=False)``; per negative pair
        ``choice(n_classes, size=2, replace=False)`` then one
        ``integers(n_members)`` per side; finally one ``permutation``.
        The sequence is not run call by call: its generator words are read
        in one block and mapped to the same integers by :class:`_WordBlock`,
        and the generator ends up where the sequence leaves it.
        """
        if n_pairs < 1:
            raise ConfigurationError(f"n_pairs must be >= 1, got {n_pairs}")
        n_pos = int(round(n_pairs * self.positive_fraction))
        members, multi = self._members, self._multi
        n_classes, n_multi = len(members), len(multi)
        idx_a: List[int] = []
        idx_b: List[int] = []

        # Without a redraw a pair reads at most 5 words (a negative pair:
        # two for the class choice, one for its shuffle, one per side).
        words = _WordBlock(rng, 5 * n_pairs + 16)
        bounded, choose_two = words.bounded, words.choose_two
        for _ in range(n_pos):
            side = multi[bounded(n_multi - 1)]
            a, b = choose_two(len(side))
            idx_a.append(side[a])
            idx_b.append(side[b])
        for _ in range(n_pairs - n_pos):
            ca, cb = choose_two(n_classes)
            side_a, side_b = members[ca], members[cb]
            idx_a.append(side_a[bounded(len(side_a) - 1)])
            idx_b.append(side_b[bounded(len(side_b) - 1)])
        words.release()

        same = np.zeros(n_pairs, dtype=bool)
        same[:n_pos] = True
        order = rng.permutation(n_pairs)
        return (
            np.array(idx_a, dtype=np.int64)[order],
            np.array(idx_b, dtype=np.int64)[order],
            same[order],
        )


class _WordBlock:
    """A generator's next 32-bit words, read in blocks, turned into integers.

    :meth:`bounded` returns what ``rng.integers(0, r + 1)`` would, reading
    the same words: numpy's rule for ``r < 2**32 - 1`` is Lemire's
    multiply-shift (arXiv:1805.10941) on one ``next_uint32`` word, redrawn
    while the low half of the product falls below
    ``(2**32 - (r + 1)) % (r + 1)``; ``r == 0`` reads nothing.  Reading a
    block with ``integers(0, 2**32, size=n)`` yields the next ``n`` such
    words on every numpy bit generator, so the block can be read ahead and,
    by :meth:`release`, wound back to the words used.  :meth:`choose_two`
    builds numpy's two-of-``pop`` choice from :meth:`bounded` draws.
    """

    def __init__(self, rng: np.random.Generator, budget: int) -> None:
        self._rng = rng
        self._start = rng.bit_generator.state
        self._words: List[int] = self._read(budget)
        self.used = 0

    def _read(self, n: int) -> List[int]:
        return self._rng.integers(0, _WORDS, size=n).tolist()

    def bounded(self, r: int) -> int:
        """An integer in ``[0, r]``, as ``rng.integers(0, r + 1)`` draws it."""
        if r == 0:
            return 0
        span = r + 1
        while True:
            if self.used == len(self._words):
                self._words += self._read(len(self._words))
            product = self._words[self.used] * span
            self.used += 1
            low = product & _LOW_MASK
            if low >= span or low >= (_WORDS - span) % span:
                return product >> 32

    def choose_two(self, pop: int) -> Tuple[int, int]:
        """Two distinct indices below ``pop``, as ``choice(pop, 2, replace=False)``.

        numpy picks them with Floyd's algorithm, then shuffles the pair.
        """
        a = self.bounded(pop - 2)
        b = self.bounded(pop - 1)
        if b == a:
            b = pop - 1
        if self.bounded(1) == 0:
            return b, a
        return a, b

    def release(self) -> None:
        """Leave the generator just past the words :meth:`bounded` used."""
        self._rng.bit_generator.state = self._start
        self._read(self.used)


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
