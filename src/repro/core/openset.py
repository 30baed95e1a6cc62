"""Open-set recognition: rejecting activities the model has never learned.

The paper's demo assumes every window belongs to a known activity, but a
deployed HAR app constantly sees motion it was never taught (the paper's
own incremental-learning story *starts* from such a moment — the user
performs "Gesture Hi" before the model knows it).  This extension gives the
NCM classifier a principled "unknown" verdict:

A window is *accepted* (assigned its nearest prototype's class) when
either of two complementary tests passes, and labeled
:data:`UNKNOWN_LABEL` otherwise:

1. **radius test** — the distance to the nearest prototype is within that
   class's calibrated acceptance radius (the ``quantile`` of the support
   exemplars' distances to their own prototype, padded by ``slack``);
2. **ratio test** — the nearest distance is unambiguously smaller than the
   second-nearest (``d1 <= ratio * d2``, Lowe-style), which is robust to
   the distribution shift between campaign exemplars and a new user.

Known-activity windows of a new user often drift outside the (very tight)
contrastive support radius but remain unambiguous under the ratio test;
novel activities tend to fail both.  Because prototypes and radii come
from the support set, re-calibration after every incremental update is
free.

This is exactly the mechanism a production MAGNETO would use to *prompt*
the user to record a new activity, closing the loop of Figure 3(c).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError
from ..utils import check_2d
from .ncm import NCMClassifier
from .support_set import SupportSet

#: The integer label returned for rejected (unknown) windows.
UNKNOWN_LABEL: int = -1

#: The class name reported for rejected windows.
UNKNOWN_NAME: str = "unknown"


def accept_from_distances(
    distances: np.ndarray,
    thresholds: np.ndarray,
    ratio: float,
    nearest: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized radius + ratio acceptance over a ``(n, C)`` distance matrix.

    The single implementation of the two open-set tests, shared by
    :meth:`OpenSetNCM.predict` and the batched
    :class:`~repro.core.engine.InferenceEngine` — both operate on a
    distance matrix they already computed, so acceptance adds no extra
    distance work.  Callers that already hold the per-row argmin pass it
    as ``nearest`` to skip recomputing it.  Returns a boolean mask of
    accepted rows.
    """
    dists = check_2d("distances", distances)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.shape != (dists.shape[1],):
        raise ConfigurationError(
            f"thresholds must have shape ({dists.shape[1]},), "
            f"got {thresholds.shape}"
        )
    if nearest is None:
        nearest = np.argmin(dists, axis=1)
    return accept_rows(dists, thresholds, ratio, nearest)


def accept_rows(
    dists: np.ndarray, thresholds: np.ndarray, ratio: float, nearest: np.ndarray
) -> np.ndarray:
    """The two open-set tests of :func:`accept_from_distances`, for a
    float64 distance matrix, ``(C,)`` float64 thresholds and the per-row
    argmin, all of which the caller has already checked."""
    nearest_dist = dists[np.arange(dists.shape[0]), nearest]
    accepted = nearest_dist <= thresholds[nearest]
    if ratio > 0.0 and dists.shape[1] >= 2:
        ordered = np.sort(dists, axis=1)
        second = np.maximum(ordered[:, 1], 1e-12)
        accepted |= ordered[:, 0] <= ratio * second
    return accepted


class OpenSetNCM:
    """An NCM classifier with per-class rejection thresholds.

    Parameters
    ----------
    quantile:
        Which quantile of within-class exemplar-to-prototype distances to
        use as the acceptance radius (0.95 accepts ~95% of genuine windows).
    slack:
        Multiplicative padding on the radius, absorbing the distribution
        shift between support exemplars (campaign users) and live data
        (a brand-new user).  Contrastive training collapses within-class
        support distances very tightly, so live windows of *known*
        activities sit 2-3x farther from their prototype than the support
        radius — the default of 2.5 accounts for that while staying well
        inside the inter-class margin.
    ratio:
        Nearest/second-nearest distance ratio below which a window is
        accepted regardless of the radius test (0 disables the ratio
        test entirely).
    """

    def __init__(
        self, quantile: float = 0.95, slack: float = 2.5, ratio: float = 0.3
    ) -> None:
        if not 0.0 < quantile <= 1.0:
            raise ConfigurationError(
                f"quantile must be in (0, 1], got {quantile}"
            )
        if slack <= 0:
            raise ConfigurationError(f"slack must be > 0, got {slack}")
        if not 0.0 <= ratio < 1.0:
            raise ConfigurationError(f"ratio must be in [0, 1), got {ratio}")
        self.quantile = float(quantile)
        self.slack = float(slack)
        self.ratio = float(ratio)
        self.ncm: Optional[NCMClassifier] = None
        self.thresholds_: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        return self.ncm is not None

    @property
    def class_names_(self) -> Tuple[str, ...]:
        if not self.is_fitted:
            raise NotFittedError("OpenSetNCM used before fit")
        return self.ncm.class_names_

    def fit_from_support_set(
        self, embedder, support_set: SupportSet
    ) -> "OpenSetNCM":
        """Build prototypes and calibrate per-class radii from the support set."""
        ncm = NCMClassifier().fit_from_support_set(embedder, support_set)
        thresholds = np.empty(ncm.n_classes)
        for i, name in enumerate(ncm.class_names_):
            embeddings = embedder.embed(support_set.features_of(name))
            dists = np.linalg.norm(
                embeddings - ncm.prototypes_[i][None, :], axis=1
            )
            thresholds[i] = np.quantile(dists, self.quantile) * self.slack
        self.ncm = ncm
        self.thresholds_ = thresholds
        return self

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        """Integer labels; :data:`UNKNOWN_LABEL` where all prototypes are
        beyond their acceptance radius."""
        if not self.is_fitted:
            raise NotFittedError("OpenSetNCM used before fit")
        emb = check_2d("embeddings", embeddings)
        dists = self.ncm.distances(emb)
        nearest = np.argmin(dists, axis=1)
        accepted = accept_from_distances(
            dists, self.thresholds_, self.ratio, nearest=nearest
        )
        labels = np.where(accepted, nearest, UNKNOWN_LABEL)
        return labels.astype(np.int64)

    def predict_names(self, embeddings: np.ndarray) -> List[str]:
        """Class names, with :data:`UNKNOWN_NAME` for rejected windows."""
        names = []
        for label in self.predict(embeddings):
            if label == UNKNOWN_LABEL:
                names.append(UNKNOWN_NAME)
            else:
                names.append(self.ncm.class_names_[label])
        return names

    def rejection_rate(self, embeddings: np.ndarray) -> float:
        """Fraction of windows labeled unknown."""
        labels = self.predict(embeddings)
        if labels.size == 0:
            raise ConfigurationError("cannot compute rejection rate of 0 windows")
        return float(np.mean(labels == UNKNOWN_LABEL))

    def threshold_of(self, name: str) -> float:
        """The calibrated acceptance radius of class ``name``."""
        if not self.is_fitted:
            raise NotFittedError("OpenSetNCM used before fit")
        try:
            idx = self.ncm.class_names_.index(name)
        except ValueError:
            raise ConfigurationError(
                f"class {name!r} unknown; have {list(self.ncm.class_names_)}"
            ) from None
        return float(self.thresholds_[idx])


def open_set_report(
    open_ncm: OpenSetNCM,
    embedder,
    known_features: np.ndarray,
    known_labels: np.ndarray,
    unknown_features: np.ndarray,
) -> Dict[str, float]:
    """Standard open-set quality numbers for the E11 benchmark.

    - ``known_accuracy`` — accuracy on known-class windows counting a
      rejection as an error,
    - ``known_rejection_rate`` — fraction of genuine windows wrongly rejected,
    - ``unknown_rejection_rate`` — fraction of novel-activity windows
      correctly rejected (higher is better).
    """
    known_emb = embedder.embed(check_2d("known_features", known_features))
    unknown_emb = embedder.embed(check_2d("unknown_features", unknown_features))
    known_pred = open_ncm.predict(known_emb)
    labels = np.asarray(known_labels, dtype=np.int64)
    return {
        "known_accuracy": float(np.mean(known_pred == labels)),
        "known_rejection_rate": float(np.mean(known_pred == UNKNOWN_LABEL)),
        "unknown_rejection_rate": open_ncm.rejection_rate(unknown_emb),
    }
