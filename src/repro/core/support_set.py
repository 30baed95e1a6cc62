"""The support set: the Edge's only persistent training data.

Paper, Section 3.2(3): a limited set of representative samples per class
kept on the Edge with a two-fold mission — (i) computing class prototypes
for the NCM classifier, (ii) serving (together with freshly captured data)
as the re-training set that protects old classes from catastrophic
forgetting.  "200 observations per class cost roughly 0.5 MB in 32-bit
precision."

Exemplars are stored in *feature space* (post-pipeline, 80-dim by default),
which is what both the prototype computation and the re-training consume.

Three exemplar-selection strategies are provided:

- ``random`` — uniform subsample (cheap, strong baseline),
- ``herding`` — iCaRL-style greedy selection whose running embedding mean
  tracks the class-mean embedding (needs an embedder),
- ``first`` — keep the earliest samples (FIFO; what a naive app would do).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import (
    ConfigurationError,
    DataShapeError,
    UnknownActivityError,
)
from ..utils import RngLike, check_2d, ensure_rng, sizeof_array_bytes

SELECTION_STRATEGIES = ("random", "herding", "first")


def herding_selection(
    embeddings: np.ndarray, capacity: int
) -> np.ndarray:
    """Greedy herding (iCaRL): pick exemplars whose running mean approaches
    the class mean in embedding space.

    Returns the selected row indices, in selection order.
    """
    emb = check_2d("embeddings", embeddings)
    n = emb.shape[0]
    if capacity >= n:
        return np.arange(n)
    mean = emb.mean(axis=0)
    selected: List[int] = []
    running = np.zeros_like(mean)
    available = np.ones(n, dtype=bool)
    for k in range(capacity):
        # argmin over available rows of || mean - (running + e_i) / (k+1) ||
        candidates = (running[None, :] + emb) / (k + 1)
        dists = np.linalg.norm(mean[None, :] - candidates, axis=1)
        dists[~available] = np.inf
        pick = int(np.argmin(dists))
        selected.append(pick)
        available[pick] = False
        running += emb[pick]
    return np.asarray(selected, dtype=np.int64)


class SupportSet:
    """Per-class exemplar store with bounded capacity.

    Class order is insertion order and defines the integer labels used by
    :meth:`training_set` and the NCM classifier; adding classes never
    renumbers existing ones — exactly the property incremental learning
    needs.
    """

    def __init__(
        self,
        capacity_per_class: int = 200,
        selection: str = "random",
        rng: RngLike = None,
    ) -> None:
        if capacity_per_class < 1:
            raise ConfigurationError(
                f"capacity_per_class must be >= 1, got {capacity_per_class}"
            )
        if selection not in SELECTION_STRATEGIES:
            raise ConfigurationError(
                f"selection must be one of {SELECTION_STRATEGIES}, got {selection!r}"
            )
        self.capacity_per_class = int(capacity_per_class)
        self.selection = selection
        self.rng = ensure_rng(rng)
        self._store: Dict[str, np.ndarray] = {}
        self._order: List[str] = []
        self._n_features: Optional[int] = None

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    @property
    def class_names(self) -> Tuple[str, ...]:
        return tuple(self._order)

    @property
    def n_classes(self) -> int:
        return len(self._order)

    @property
    def n_features(self) -> Optional[int]:
        return self._n_features

    @property
    def total_samples(self) -> int:
        return sum(arr.shape[0] for arr in self._store.values())

    def __contains__(self, name: str) -> bool:
        return name in self._store

    def label_of(self, name: str) -> int:
        """Stable integer label of class ``name``."""
        try:
            return self._order.index(name)
        except ValueError:
            raise UnknownActivityError(
                f"class {name!r} not in support set; have {self._order}"
            ) from None

    def features_of(self, name: str) -> np.ndarray:
        """Copy of the exemplars stored for ``name``."""
        if name not in self._store:
            raise UnknownActivityError(
                f"class {name!r} not in support set; have {self._order}"
            )
        return self._store[name].copy()

    def counts(self) -> Dict[str, int]:
        return {name: int(self._store[name].shape[0]) for name in self._order}

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def _select(self, features: np.ndarray, embedder=None) -> np.ndarray:
        """Apply the configured exemplar selection down to capacity."""
        n = features.shape[0]
        if n <= self.capacity_per_class:
            return features
        if self.selection == "first":
            return features[: self.capacity_per_class]
        if self.selection == "herding":
            if embedder is None:
                raise ConfigurationError(
                    "herding selection requires an embedder; pass it to "
                    "add_class/replace_class"
                )
            idx = herding_selection(
                embedder.embed(features), self.capacity_per_class
            )
            return features[idx]
        idx = self.rng.choice(n, size=self.capacity_per_class, replace=False)
        return features[np.sort(idx)]

    def _validate_features(self, features: np.ndarray) -> np.ndarray:
        arr = check_2d("features", features)
        if arr.shape[0] == 0:
            raise DataShapeError("cannot store a class with zero exemplars")
        if self._n_features is None:
            self._n_features = arr.shape[1]
        elif arr.shape[1] != self._n_features:
            raise DataShapeError(
                f"features must have {self._n_features} columns, got {arr.shape[1]}"
            )
        return arr

    def add_class(self, name: str, features: np.ndarray, embedder=None) -> None:
        """Register a new class with its exemplars (selected to capacity).

        Raises :class:`ConfigurationError` if the class already exists —
        use :meth:`extend_class` or :meth:`replace_class` for updates.
        """
        if name in self._store:
            raise ConfigurationError(
                f"class {name!r} already in support set; use extend_class or "
                "replace_class"
            )
        arr = self._validate_features(features)
        self._store[name] = self._select(arr, embedder=embedder).copy()
        self._order.append(name)

    def extend_class(self, name: str, features: np.ndarray, embedder=None) -> None:
        """Merge new exemplars into an existing class, re-selecting to capacity."""
        if name not in self._store:
            raise UnknownActivityError(
                f"class {name!r} not in support set; have {self._order}"
            )
        arr = self._validate_features(features)
        merged = np.concatenate([self._store[name], arr], axis=0)
        self._store[name] = self._select(merged, embedder=embedder).copy()

    def replace_class(self, name: str, features: np.ndarray, embedder=None) -> None:
        """Replace a class's exemplars entirely — the calibration operation.

        Paper, Section 3.3: "the data for the targeted activity within the
        support set is replaced with newly acquired data."
        """
        if name not in self._store:
            raise UnknownActivityError(
                f"class {name!r} not in support set; have {self._order}"
            )
        arr = self._validate_features(features)
        self._store[name] = self._select(arr, embedder=embedder).copy()

    def remove_class(self, name: str) -> None:
        """Forget a class entirely (labels of later classes shift down)."""
        if name not in self._store:
            raise UnknownActivityError(
                f"class {name!r} not in support set; have {self._order}"
            )
        del self._store[name]
        self._order.remove(name)
        if not self._order:
            self._n_features = None

    # ------------------------------------------------------------------ #
    # consumption
    # ------------------------------------------------------------------ #

    def training_set(self) -> Tuple[np.ndarray, np.ndarray]:
        """All exemplars stacked with integer labels (class insertion order)."""
        if not self._order:
            raise DataShapeError("support set is empty")
        xs = [self._store[name] for name in self._order]
        ys = [
            np.full(self._store[name].shape[0], label, dtype=np.int64)
            for label, name in enumerate(self._order)
        ]
        return np.concatenate(xs, axis=0), np.concatenate(ys)

    def size_delta_bytes(
        self, name: str, n_rows: int, n_features: int, merge: bool = False
    ) -> int:
        """Float32 bytes the set gains (negative: loses) once ``n_rows`` new
        rows of class ``name`` are stored, selected down to capacity.

        ``merge`` keeps the class's current rows in the selection
        (:meth:`extend_class`); otherwise the new rows replace them
        (:meth:`add_class`, :meth:`replace_class`).  Shapes alone decide
        it, so an update can be refused before anything moves.
        """
        old = self._store.get(name, np.empty((0, n_features)))
        kept = min(n_rows + (old.shape[0] if merge else 0), self.capacity_per_class)
        return (kept * n_features - old.size) * np.dtype(np.float32).itemsize

    def size_bytes(self, dtype=np.float32) -> int:
        """Storage cost at ``dtype`` precision (paper quotes 32-bit)."""
        return sum(
            sizeof_array_bytes(arr, dtype=dtype) for arr in self._store.values()
        )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flat dict of arrays for npz-style persistence."""
        payload: Dict[str, np.ndarray] = {}
        for i, name in enumerate(self._order):
            payload[f"class_{i}_{name}"] = self._store[name].copy()
        return payload

    @classmethod
    def from_arrays(
        cls,
        payload: Dict[str, np.ndarray],
        capacity_per_class: int = 200,
        selection: str = "random",
        rng: RngLike = None,
    ) -> "SupportSet":
        """Rebuild from :meth:`to_arrays` output (keys carry the order)."""
        obj = cls(
            capacity_per_class=capacity_per_class, selection=selection, rng=rng
        )
        keyed = []
        for key, arr in payload.items():
            match = re.fullmatch(r"class_([0-9]+)_(.+)", key)
            if match is None:
                raise ConfigurationError(
                    f"unexpected support-set key {key!r} (want class_<i>_<name>)"
                )
            keyed.append((int(match[1]), match[2], arr))
        for _, name, arr in sorted(keyed, key=lambda item: item[0]):
            obj.add_class(name, arr)
        return obj

    def clone(self) -> "SupportSet":
        """Deep copy (used by baselines that mutate the set destructively)."""
        twin = SupportSet(
            capacity_per_class=self.capacity_per_class,
            selection=self.selection,
            rng=self.rng,
        )
        for name in self._order:
            twin.add_class(name, self._store[name])
        return twin
