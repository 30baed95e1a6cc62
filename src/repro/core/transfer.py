"""The Cloud-to-Edge transfer package.

Paper, Section 3.2: at the end of Cloud initialization exactly three items
are transferred to the Edge device — (1) the pre-processing function,
(2) the initial ML model, (3) the support set.  :class:`TransferPackage`
bundles the three, accounts their footprint (the paper's "<5 MB total"
claim, E3) and persists to a single ``.npz`` file.

For fleet serving the package also *factors*: :meth:`TransferPackage.split`
separates the heavy frozen :class:`~repro.nn.siamese.SharedBackbone` (the
embedding network, identified by a content hash) from the cheap per-cohort
:class:`CohortHead` (prototypes, normalization stats, open-set thresholds,
support-set metadata); :func:`engine_from_head` rebuilds a serving engine
from the pair.  Packaging only: a fleet serves each cohort's engine with
its own batched call per tick, whatever backbone it shares.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..exceptions import NotFittedError, SerializationError
from ..nn.network import Sequential
from ..nn.siamese import SharedBackbone, SiameseEmbedder
from ..preprocessing.pipeline import PreprocessingPipeline
from ..utils import format_bytes
from .ncm import NCMClassifier
from .openset import OpenSetNCM
from .support_set import SupportSet

_META_KEY = "__meta_json__"


@dataclass
class TransferPackage:
    """Everything the Edge needs, and nothing else."""

    pipeline: PreprocessingPipeline
    embedder: SiameseEmbedder
    support_set: SupportSet

    # ------------------------------------------------------------------ #
    # footprint accounting (experiment E3)
    # ------------------------------------------------------------------ #

    def component_sizes(self) -> Dict[str, int]:
        """Bytes per component at deployment precision (float32 weights)."""
        return {
            "pipeline": self.pipeline.size_bytes(),
            "model": self.embedder.size_bytes(dtype=np.float32),
            "support_set": self.support_set.size_bytes(dtype=np.float32),
        }

    def size_bytes(self) -> int:
        """Total footprint of the package."""
        return sum(self.component_sizes().values())

    def describe(self) -> str:
        """Human-readable footprint summary (the Fig.-3-style size readout)."""
        sizes = self.component_sizes()
        lines = [
            f"  {name:<12} {format_bytes(size)}" for name, size in sizes.items()
        ]
        lines.append(f"  {'total':<12} {format_bytes(self.size_bytes())}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def _collect_arrays(self, dtype=None) -> Dict[str, np.ndarray]:
        """The flat ``{key: array}`` encoding shared by :meth:`save` and
        :meth:`serialized_bytes`: one JSON metadata blob plus every model
        weight (``model/``) and support exemplar (``support/``) array.
        ``dtype`` casts the numeric arrays (the wire format ships float32);
        ``None`` keeps the in-memory dtypes for lossless persistence.
        """
        arrays: Dict[str, np.ndarray] = {}
        meta = {
            "pipeline": self.pipeline.to_dict(),
            "network_config": self.embedder.network.to_config(),
            "support_capacity": self.support_set.capacity_per_class,
            "support_selection": self.support_set.selection,
        }
        arrays[_META_KEY] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        for key, value in self.embedder.network.state_dict().items():
            arrays[f"model/{key}"] = value if dtype is None else value.astype(dtype)
        for key, value in self.support_set.to_arrays().items():
            arrays[f"support/{key}"] = value if dtype is None else value.astype(dtype)
        return arrays

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the whole package to one ``.npz`` bundle."""
        with open(path, "wb") as fh:
            np.savez(fh, **self._collect_arrays())

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "TransferPackage":
        """Rebuild a package saved with :meth:`save`."""
        try:
            with np.load(path, allow_pickle=False) as payload:
                if _META_KEY not in payload:
                    raise SerializationError(
                        f"{path!s} is not a transfer package (missing metadata)"
                    )
                meta = json.loads(bytes(payload[_META_KEY].tobytes()).decode("utf-8"))
                model_state = {
                    key[len("model/"):]: payload[key]
                    for key in payload.files
                    if key.startswith("model/")
                }
                support_arrays = {
                    key[len("support/"):]: payload[key]
                    for key in payload.files
                    if key.startswith("support/")
                }
        except (OSError, ValueError, zipfile.BadZipFile,
                json.JSONDecodeError) as exc:
            raise SerializationError(
                f"cannot load transfer package from {path!s}: {exc}"
            ) from exc

        pipeline = PreprocessingPipeline.from_dict(meta["pipeline"])
        network = Sequential.from_config(meta["network_config"])
        network.load_state_dict(model_state)
        support = SupportSet.from_arrays(
            support_arrays,
            capacity_per_class=int(meta["support_capacity"]),
            selection=str(meta["support_selection"]),
        )
        return cls(
            pipeline=pipeline,
            embedder=SiameseEmbedder(network),
            support_set=support,
        )

    def copy(self) -> "TransferPackage":
        """An independent package of the same bytes: the lossless
        :meth:`save` encoding, loaded back.  Nothing is shared, so a device
        that installs and personalises the copy leaves this one as it is."""
        buffer = io.BytesIO()
        np.savez(buffer, **self._collect_arrays())
        buffer.seek(0)
        return type(self).load(buffer)

    def serialized_bytes(self) -> int:
        """Size of the on-the-wire ``.npz`` encoding (what the link moves)."""
        buffer = io.BytesIO()
        np.savez(buffer, **self._collect_arrays(dtype=np.float32))
        return buffer.tell()

    # ------------------------------------------------------------------ #
    # backbone / head factoring
    # ------------------------------------------------------------------ #

    def backbone(self) -> SharedBackbone:
        """The package's embedding network as a fingerprinted frozen view."""
        return self.embedder.backbone()

    def split(
        self, open_set: Optional[OpenSetNCM] = None
    ) -> "Tuple[SharedBackbone, CohortHead]":
        """Factor the package into a shared backbone and a per-cohort head.

        The backbone is the frozen embedding network (the heavy part);
        the head is everything cohort-specific a serving engine needs on
        top of it: NCM prototypes fitted from the support set through the
        backbone, the preprocessing pipeline (whose normalizer carries the
        cohort's feature statistics), open-set thresholds when an
        ``open_set`` template is given (it is fitted from the support set,
        mirroring the Edge install path), and the support-set metadata.

        ``engine_from_head(backbone, head)`` rebuilds a serving engine
        whose verdicts match ``engine_from_package(self)`` exactly.
        """
        backbone = self.backbone()
        if open_set is not None:
            open_set.fit_from_support_set(self.embedder, self.support_set)
            ncm = open_set.ncm
            thresholds = np.asarray(open_set.thresholds_, dtype=np.float64)
            ratio: Optional[float] = float(open_set.ratio)
        else:
            ncm = NCMClassifier().fit_from_support_set(
                self.embedder, self.support_set
            )
            thresholds = None
            ratio = None
        head = CohortHead(
            class_names=tuple(ncm.class_names_),
            prototypes=np.asarray(ncm.prototypes_, dtype=np.float64),
            pipeline=self.pipeline,
            thresholds=thresholds,
            ratio=ratio,
            support_counts=self.support_set.counts(),
            support_capacity=self.support_set.capacity_per_class,
            support_selection=self.support_set.selection,
        )
        return backbone, head


@dataclass
class CohortHead:
    """The cheap cohort-specific half of a factored transfer package.

    Everything a serving engine needs *besides* the embedding backbone:
    NCM prototypes in embedding space, the preprocessing pipeline (its
    normalizer carries the cohort's feature statistics), optional open-set
    rejection state (per-class radii + ratio test), and the support-set
    metadata the head was distilled from.  Heads are what differ between
    cohorts that share a backbone — a few KB against the backbone's
    hundreds.
    """

    class_names: Tuple[str, ...]
    prototypes: np.ndarray  # (n_classes, embedding_dim)
    pipeline: PreprocessingPipeline
    thresholds: Optional[np.ndarray] = None  # open-set radii, None = closed
    ratio: Optional[float] = None  # open-set ratio test, with thresholds
    support_counts: Dict[str, int] = field(default_factory=dict)
    support_capacity: int = 0
    support_selection: str = "random"

    def __post_init__(self) -> None:
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        if self.prototypes.ndim != 2:
            raise NotFittedError(
                f"head prototypes must be (n_classes, dim), "
                f"got {self.prototypes.shape}"
            )
        if self.prototypes.shape[0] != len(self.class_names):
            raise NotFittedError(
                f"{len(self.class_names)} class names but "
                f"{self.prototypes.shape[0]} prototypes"
            )
        if self.thresholds is not None:
            self.thresholds = np.asarray(
                self.thresholds, dtype=np.float64
            ).reshape(-1)
            if self.thresholds.shape[0] != self.prototypes.shape[0]:
                raise NotFittedError(
                    f"{self.thresholds.shape[0]} thresholds but "
                    f"{self.prototypes.shape[0]} prototypes"
                )

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def embedding_dim(self) -> int:
        return int(self.prototypes.shape[1])

    @property
    def open_set(self) -> bool:
        """Whether this head rejects out-of-distribution windows."""
        return self.thresholds is not None

    def size_bytes(self) -> int:
        """Deployment footprint of the head (float32, like E3 accounting)."""
        total = self.prototypes.size * 4
        if self.thresholds is not None:
            total += self.thresholds.size * 4
        total += self.pipeline.size_bytes()
        return int(total)


def engine_from_head(backbone: SharedBackbone, head: CohortHead):
    """Rebuild a serving engine from a (backbone, head) factoring.

    The inverse of :meth:`TransferPackage.split`: wires the backbone's
    network (shared by object, not copied — that is the point) under a
    fresh embedder, rebuilds the NCM from the head's prototypes and, when
    the head carries open-set state, wraps it in a calibrated
    :class:`~repro.core.openset.OpenSetNCM`.  Verdicts match the engine
    built from the original package exactly.
    """
    from .engine import InferenceEngine  # imported late: engine -> ncm only

    if backbone.embedding_dim != head.embedding_dim:
        raise NotFittedError(
            f"backbone embeds into {backbone.embedding_dim} dims, head "
            f"prototypes live in {head.embedding_dim}"
        )
    ncm = NCMClassifier.from_arrays(
        {
            "prototypes": head.prototypes,
            "class_names": np.asarray(head.class_names, dtype=object),
        }
    )
    classifier: Union[NCMClassifier, OpenSetNCM] = ncm
    if head.thresholds is not None:
        open_set = OpenSetNCM(
            ratio=head.ratio if head.ratio is not None else 0.3
        )
        open_set.ncm = ncm
        open_set.thresholds_ = np.asarray(head.thresholds, dtype=np.float64)
        classifier = open_set
    return InferenceEngine(
        backbone.embedder(), classifier, pipeline=head.pipeline
    )
