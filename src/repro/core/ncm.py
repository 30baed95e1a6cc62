"""Nearest-Class-Mean (NCM) classifier over the learned embedding space.

The paper classifies by embedding a window and assigning the class of the
nearest class prototype, where each prototype is the mean embedding of that
class's support-set exemplars.  NCM is the natural classifier for
incremental learning: adding a class is just adding a prototype — no output
head needs to grow or be retrained.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DataShapeError, NotFittedError, UnknownActivityError
from ..utils import check_2d
from .support_set import SupportSet


def softmax_of_distances(dists: np.ndarray, temperature: float) -> np.ndarray:
    """Row softmax over negative distances: the arithmetic of
    :meth:`NCMClassifier.proba_from_distances`, for a float64 ``(n, C)``
    matrix and a positive temperature the caller has already checked."""
    logits = -dists / temperature
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return exp / exp.sum(axis=1, keepdims=True)


class NCMClassifier:
    """Prototype classifier in embedding space.

    Build with :meth:`fit_from_support_set` (the platform path) or
    :meth:`fit` on explicit embeddings.  Prototypes are recomputed from
    scratch on every fit — after Edge re-training the embedding space has
    moved, so stale prototypes would be wrong.
    """

    def __init__(self) -> None:
        self.prototypes_: Optional[np.ndarray] = None  # (n_classes, dim)
        self.class_names_: Tuple[str, ...] = ()

    @property
    def is_fitted(self) -> bool:
        return self.prototypes_ is not None

    @property
    def n_classes(self) -> int:
        return len(self.class_names_)

    def fit(
        self,
        embeddings: np.ndarray,
        labels: np.ndarray,
        class_names: Sequence[str],
    ) -> "NCMClassifier":
        """Compute one mean-embedding prototype per class.

        ``labels`` index into ``class_names``; every class must appear at
        least once.
        """
        emb = check_2d("embeddings", embeddings)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (emb.shape[0],):
            raise DataShapeError(
                f"labels must have shape ({emb.shape[0]},), got {labels.shape}"
            )
        names = tuple(class_names)
        if not names:
            raise DataShapeError("class_names must be non-empty")
        protos = np.empty((len(names), emb.shape[1]))
        for i in range(len(names)):
            mask = labels == i
            if not mask.any():
                raise DataShapeError(
                    f"class {names[i]!r} (label {i}) has no embeddings"
                )
            protos[i] = emb[mask].mean(axis=0)
        self.prototypes_ = protos
        self.class_names_ = names
        return self

    def fit_from_support_set(
        self, embedder, support_set: SupportSet
    ) -> "NCMClassifier":
        """The platform path: prototypes from the support set's exemplars."""
        features, labels = support_set.training_set()
        return self.fit(
            embedder.embed(features), labels, support_set.class_names
        )

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #

    def distances(self, embeddings: np.ndarray) -> np.ndarray:
        """Euclidean distance of each embedding to each prototype, ``(n, C)``."""
        if not self.is_fitted:
            raise NotFittedError("NCMClassifier used before fit()")
        emb = check_2d("embeddings", embeddings, n_cols=self.prototypes_.shape[1])
        diffs = emb[:, None, :] - self.prototypes_[None, :, :]
        return np.linalg.norm(diffs, axis=2)

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        """Integer labels (indices into :attr:`class_names_`)."""
        return np.argmin(self.distances(embeddings), axis=1)

    def predict_names(self, embeddings: np.ndarray) -> List[str]:
        """Predicted class names."""
        return [self.class_names_[i] for i in self.predict(embeddings)]

    @staticmethod
    def proba_from_distances(
        distances: np.ndarray, temperature: float = 1.0
    ) -> np.ndarray:
        """Softmax over negative distances for an already-computed ``(n, C)``
        distance matrix.

        This is the single softmax implementation shared by
        :meth:`predict_proba` and the batched
        :class:`~repro.core.engine.InferenceEngine`, so a caller that
        already holds the distance row never recomputes distances just to
        get confidences.
        """
        if temperature <= 0:
            raise DataShapeError(f"temperature must be > 0, got {temperature}")
        return softmax_of_distances(check_2d("distances", distances), temperature)

    def predict_proba(self, embeddings: np.ndarray, temperature: float = 1.0):
        """Softmax over negative distances — a confidence proxy for the GUI.

        Not calibrated probabilities; useful for display and thresholding.
        """
        return self.proba_from_distances(
            self.distances(embeddings), temperature=temperature
        )

    def prototype_of(self, name: str) -> np.ndarray:
        """The prototype vector of class ``name``."""
        if not self.is_fitted:
            raise NotFittedError("NCMClassifier used before fit()")
        try:
            idx = self.class_names_.index(name)
        except ValueError:
            raise UnknownActivityError(
                f"class {name!r} unknown; have {list(self.class_names_)}"
            ) from None
        return self.prototypes_[idx].copy()

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_arrays(self) -> Dict[str, np.ndarray]:
        if not self.is_fitted:
            raise NotFittedError("cannot serialize an unfitted NCMClassifier")
        return {
            "prototypes": self.prototypes_.copy(),
            "class_names": np.asarray(self.class_names_, dtype=object),
        }

    @classmethod
    def from_arrays(cls, payload: Dict[str, np.ndarray]) -> "NCMClassifier":
        obj = cls()
        obj.prototypes_ = np.asarray(payload["prototypes"], dtype=np.float64)
        obj.class_names_ = tuple(str(n) for n in payload["class_names"])
        if obj.prototypes_.shape[0] != len(obj.class_names_):
            raise DataShapeError("prototype/class-name count mismatch")
        return obj
