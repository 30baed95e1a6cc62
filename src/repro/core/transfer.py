"""The Cloud-to-Edge transfer package.

Paper, Section 3.2: at the end of Cloud initialization exactly three items
are transferred to the Edge device — (1) the pre-processing function,
(2) the initial ML model, (3) the support set.  :class:`TransferPackage`
bundles the three, accounts their footprint (the paper's "<5 MB total"
claim, E3) and persists to a single ``.npz`` file.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from ..exceptions import MagnetoError, SerializationError
from ..nn.network import Sequential
from ..nn.siamese import SiameseEmbedder
from ..preprocessing.pipeline import PreprocessingPipeline
from ..utils import format_bytes
from .support_set import SupportSet

_META_KEY = "__meta_json__"
#: The keys of the metadata object :meth:`TransferPackage.load` reads.
_META_FIELDS = (
    "pipeline", "network_config", "support_capacity", "support_selection"
)


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
        if not isinstance(meta, dict):
            raise SerializationError(
                f"{path!s} is not a transfer package (metadata is a "
                f"{type(meta).__name__}, not an object)"
            )
        missing = [key for key in _META_FIELDS if key not in meta]
        if missing:
            raise SerializationError(
                f"{path!s} is not a transfer package (metadata lacks "
                f"{', '.join(missing)})"
            )

        capacity = meta["support_capacity"]
        if isinstance(capacity, bool) or not isinstance(capacity, int):
            raise SerializationError(
                f"{path!s} is not a transfer package (support_capacity must "
                f"be an integer, got {capacity!r})"
            )
        try:
            pipeline = PreprocessingPipeline.from_dict(meta["pipeline"])
            # The stored weights become the network's own: no init is drawn.
            network = Sequential.from_state(meta["network_config"], model_state)
            support = SupportSet.from_arrays(
                support_arrays,
                capacity_per_class=capacity,
                selection=str(meta["support_selection"]),
            )
        except MagnetoError as exc:
            raise SerializationError(
                f"cannot load transfer package from {path!s}: {exc}"
            ) from exc
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
