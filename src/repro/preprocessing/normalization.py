"""Feature normalization, fitted once on the Cloud and shipped to the Edge.

Normalizers follow a tiny fit/transform protocol over 2-D feature matrices
``(n_samples, n_features)`` and serialize to plain dicts (with list-encoded
arrays) so they travel inside the transfer package.  The statistics are
fitted on the Cloud's campaign data and *never* re-fitted on the Edge —
re-fitting would silently shift the embedding space under the model.

``transform`` checks its input, then runs ``transform_rows`` — the
arithmetic alone, which a caller holding rows it built itself (the
pipeline's window kernel) calls directly.  A float32 block is normalized
against float32 casts of the fitted statistics, made once per fit rather
than once per call.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

import numpy as np

from ..exceptions import (
    ConfigurationError,
    DataShapeError,
    NotFittedError,
    SerializationError,
)
from ..utils import check_2d


def _float32_stats(cache, offset: np.ndarray, divisor: np.ndarray):
    """``(cache, offset32, divisor32)``: the float32 casts of two fitted
    arrays, re-made only when either array object was replaced (a fit or
    ``from_dict`` assigns fresh arrays)."""
    if cache is None or cache[0] is not offset or cache[1] is not divisor:
        cache = (
            offset, divisor, offset.astype(np.float32), divisor.astype(np.float32)
        )
    return cache, cache[2], cache[3]


def _checked_rows(features, n_cols: int) -> np.ndarray:
    """``transform``'s input check: 2-D, ``n_cols`` wide, float32 kept and
    anything else as float64."""
    arr = check_2d("features", features, n_cols=n_cols, dtype=None)
    if arr.dtype != np.float32 and arr.dtype != np.float64:
        arr = np.asarray(arr, dtype=np.float64)
    return arr


class ZScoreNormalizer:
    """Per-feature standardization to zero mean / unit variance.

    Constant features (zero variance) are mapped to zero rather than NaN.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray = None
        self.scale_: np.ndarray = None
        self._f32: Optional[Tuple[np.ndarray, ...]] = None

    @property
    def is_fitted(self) -> bool:
        return self.mean_ is not None

    def fit(self, features: np.ndarray) -> "ZScoreNormalizer":
        arr = check_2d("features", features)
        if arr.shape[0] == 0:
            raise DataShapeError("cannot fit normalizer on 0 samples")
        self.mean_ = arr.mean(axis=0)
        std = arr.std(axis=0)
        # Guard constant features: dividing by 1 leaves them at exactly 0
        # after centering.
        self.scale_ = np.where(std > 0.0, std, 1.0)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise NotFittedError("ZScoreNormalizer used before fit()")
        return self.transform_rows(_checked_rows(features, self.mean_.shape[0]))

    def transform_rows(self, arr: np.ndarray) -> np.ndarray:
        """:meth:`transform`'s arithmetic on a fitted normalizer's checked
        ``(n, n_features)`` float32 or float64 rows.

        A float32 block stays float32 (the reduced-precision fast path),
        normalized against the statistics' cached float32 casts.
        """
        if arr.dtype == np.float32:
            self._f32, mean, scale = _float32_stats(
                self._f32, self.mean_, self.scale_
            )
            return (arr - mean) / scale
        return (arr - self.mean_) / self.scale_

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)

    def inverse_transform(self, features: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise NotFittedError("ZScoreNormalizer used before fit()")
        arr = check_2d("features", features, n_cols=self.mean_.shape[0])
        return arr * self.scale_ + self.mean_

    def to_dict(self) -> Dict:
        if not self.is_fitted:
            raise NotFittedError("cannot serialize an unfitted normalizer")
        return {
            "kind": "zscore",
            "mean": self.mean_.tolist(),
            "scale": self.scale_.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ZScoreNormalizer":
        obj = cls()
        obj.mean_ = np.asarray(payload["mean"], dtype=np.float64)
        obj.scale_ = np.asarray(payload["scale"], dtype=np.float64)
        if obj.mean_.shape != obj.scale_.shape:
            raise SerializationError("mean/scale shape mismatch in payload")
        return obj


class MinMaxNormalizer:
    """Per-feature scaling to ``[0, 1]`` over the fitted range.

    Constant features map to 0.  Out-of-range inputs at transform time are
    *not* clipped by default (``clip=True`` opts in), since clipping hides
    distribution shift the personalization experiments want to see.
    """

    def __init__(self, clip: bool = False) -> None:
        self.clip = bool(clip)
        self.min_: np.ndarray = None
        self.range_: np.ndarray = None
        self._f32: Optional[Tuple[np.ndarray, ...]] = None

    @property
    def is_fitted(self) -> bool:
        return self.min_ is not None

    def fit(self, features: np.ndarray) -> "MinMaxNormalizer":
        arr = check_2d("features", features)
        if arr.shape[0] == 0:
            raise DataShapeError("cannot fit normalizer on 0 samples")
        self.min_ = arr.min(axis=0)
        span = arr.max(axis=0) - self.min_
        self.range_ = np.where(span > 0.0, span, 1.0)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise NotFittedError("MinMaxNormalizer used before fit()")
        return self.transform_rows(_checked_rows(features, self.min_.shape[0]))

    def transform_rows(self, arr: np.ndarray) -> np.ndarray:
        """:meth:`transform`'s arithmetic on checked rows (see
        :meth:`ZScoreNormalizer.transform_rows`)."""
        if arr.dtype == np.float32:
            self._f32, low, span = _float32_stats(
                self._f32, self.min_, self.range_
            )
            out = (arr - low) / span
        else:
            out = (arr - self.min_) / self.range_
        if self.clip:
            out = np.clip(out, 0.0, 1.0)
        return out

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)

    def inverse_transform(self, features: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise NotFittedError("MinMaxNormalizer used before fit()")
        arr = check_2d("features", features, n_cols=self.min_.shape[0])
        return arr * self.range_ + self.min_

    def to_dict(self) -> Dict:
        if not self.is_fitted:
            raise NotFittedError("cannot serialize an unfitted normalizer")
        return {
            "kind": "minmax",
            "clip": self.clip,
            "min": self.min_.tolist(),
            "range": self.range_.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "MinMaxNormalizer":
        obj = cls(clip=bool(payload.get("clip", False)))
        obj.min_ = np.asarray(payload["min"], dtype=np.float64)
        obj.range_ = np.asarray(payload["range"], dtype=np.float64)
        if obj.min_.shape != obj.range_.shape:
            raise SerializationError("min/range shape mismatch in payload")
        return obj


_NORMALIZER_KINDS: Dict[str, Type] = {
    "zscore": ZScoreNormalizer,
    "minmax": MinMaxNormalizer,
}


def normalizer_from_dict(payload: Dict):
    """Rebuild any normalizer from its ``to_dict`` payload."""
    try:
        kind = payload["kind"]
    except (KeyError, TypeError):
        raise SerializationError(f"invalid normalizer payload: {payload!r}") from None
    try:
        cls = _NORMALIZER_KINDS[kind]
    except KeyError:
        raise SerializationError(f"unknown normalizer kind {kind!r}") from None
    return cls.from_dict(payload)
