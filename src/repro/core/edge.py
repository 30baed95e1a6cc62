"""The Edge device: on-device inference and learning, zero uplink.

:class:`EdgeDevice` is the runtime that lives on the phone.  It receives
one :class:`~repro.core.transfer.TransferPackage` from the Cloud (the only
Cloud-to-Edge interaction), then performs everything locally:

- real-time inference of one-second windows (pipeline -> embedding -> NCM),
- incremental learning of new activities and calibration of existing ones,
- footprint accounting, and an optional budget ``accountant``
  (:class:`~repro.edge_runtime.resources.ResourceAccountant`) that is
  charged every verdict and asked to admit every update before it commits,
- privacy enforcement: every transfer is routed through its
  :class:`~repro.core.privacy.PrivacyGuard`, so an attempted upload of user
  data raises instead of leaking.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import DataShapeError, NotFittedError
from ..sensors.device import Recording
from ..utils import RngLike, check_2d, ensure_rng
from .engine import BatchInference, InferenceEngine, StreamSession
from .incremental import IncrementalConfig, IncrementalLearner, UpdateResult
from .ncm import NCMClassifier
from .privacy import CLOUD_TO_EDGE, EDGE_TO_CLOUD, NetworkLink, PrivacyGuard
from .transfer import TransferPackage


@dataclass(frozen=True)
class InferenceResult:
    """One window's prediction, as the GUI would display it."""

    activity: str
    confidence: float
    latency_ms: float
    distances: Dict[str, float]

    def top(self, k: int = 3) -> List[Tuple[str, float]]:
        """The ``k`` nearest classes with their distances, ascending."""
        ranked = sorted(self.distances.items(), key=lambda item: item[1])
        return ranked[:k]


class EdgeDevice:
    """A simulated smartphone running MAGNETO."""

    def __init__(
        self,
        guard: Optional[PrivacyGuard] = None,
        incremental_config: Optional[IncrementalConfig] = None,
        rng: RngLike = None,
        accountant=None,
    ) -> None:
        self.guard = guard if guard is not None else PrivacyGuard(enforce=True)
        self.accountant = accountant
        self._rng = ensure_rng(rng)
        self._learner = IncrementalLearner(incremental_config, rng=self._rng)
        self.pipeline = None
        self.embedder = None
        self.support_set = None
        self.ncm: Optional[NCMClassifier] = None
        self.engine: Optional[InferenceEngine] = None
        self._install_ms: Optional[float] = None

    # ------------------------------------------------------------------ #
    # installation (the single Cloud->Edge transfer)
    # ------------------------------------------------------------------ #

    def install(
        self, package: TransferPackage, link: Optional[NetworkLink] = None
    ) -> float:
        """Install the transfer package; returns the simulated download ms.

        The download is audited as a Cloud-to-Edge transfer (always
        permitted by Definition 1).  The device takes ownership of
        ``package``: its pipeline, embedder and support set become the
        device's, and :meth:`learn_activity` / :meth:`calibrate_activity`
        change them in place.  The support set's selection draws come
        from the device's ``rng``, so the same seed, package and
        recordings store the same bytes.  Install ``package.copy()`` to
        keep the original as it is (``ModelRegistry.package_for`` hands
        out copies).
        """
        n_bytes = package.serialized_bytes()
        download_ms = link.transfer_ms(n_bytes) if link is not None else 0.0
        self.guard.record(
            CLOUD_TO_EDGE,
            kind="transfer_package",
            n_bytes=n_bytes,
            contains_user_data=False,
            simulated_ms=download_ms,
        )
        self.pipeline = package.pipeline
        self.embedder = package.embedder
        self.support_set = package.support_set
        # Its selection draws follow the device's seed; a spawned child
        # leaves the learner's stream where it was.
        self.support_set.rng = self._rng.spawn(1)[0]
        self._rebuild_classifier()
        self._install_ms = download_ms
        return download_ms

    @property
    def is_ready(self) -> bool:
        return self.ncm is not None

    def _require_ready(self) -> None:
        if not self.is_ready:
            raise NotFittedError(
                "edge device has no installed model; call install() first"
            )

    def _rebuild_classifier(self) -> None:
        self.ncm = NCMClassifier().fit_from_support_set(
            self.embedder, self.support_set
        )
        if self.engine is None:
            self.engine = InferenceEngine(
                self.embedder, self.ncm, pipeline=self.pipeline
            )
        else:
            # The device keeps ONE engine for its lifetime so external
            # holders (a FleetServer serving this device's model) observe
            # incremental updates; rebinding the fresh NCM makes the
            # engine rebuild its model kernels on their next call.
            self.engine.embedder = self.embedder
            self.engine.pipeline = self.pipeline
            self.engine.classifier = self.ncm

    @property
    def classes(self) -> Tuple[str, ...]:
        self._require_ready()
        return self.ncm.class_names_

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #

    def process_recording(self, recording: Recording) -> np.ndarray:
        """Run the installed pipeline over a raw recording -> features."""
        self._require_ready()
        return self.pipeline.process_recording(recording)

    def infer_window(self, window: np.ndarray) -> InferenceResult:
        """Classify one raw window; reports wall-clock latency (E1).

        A thin wrapper over the batched engine: one fused pass computes
        the distance row once and derives the softmax confidence from it
        (no second distance computation).
        """
        self._require_ready()
        batch = self._charged(
            self.engine.infer_windows(np.asarray(window, dtype=np.float64)[None])
        )
        winner = int(batch.nearest[0])
        return InferenceResult(
            activity=self.ncm.class_names_[winner],
            confidence=float(batch.confidences[0]),
            latency_ms=batch.latency_ms,
            distances=batch.distances_of(0),
        )

    def infer_windows(self, windows: np.ndarray) -> BatchInference:
        """Classify a batch of raw windows in one vectorized engine pass."""
        self._require_ready()
        return self._charged(self.engine.infer_windows(windows))

    def infer_stream(
        self, data: np.ndarray, stride: Optional[int] = None, dtype=None
    ) -> BatchInference:
        """Classify every window of continuous raw samples in one fused pass.

        The preferred entry point for continuous data: see
        :meth:`~repro.core.engine.InferenceEngine.infer_stream`.
        """
        self._require_ready()
        return self._charged(self.engine.infer_stream(data, stride=stride, dtype=dtype))

    def open_stream(
        self, stride: Optional[int] = None, dtype=None
    ) -> StreamSession:
        """Open a chunked streaming session against the installed model.

        The carry-over twin of :meth:`infer_stream` for sensor data that
        arrives tick by tick; see
        :meth:`~repro.core.engine.InferenceEngine.open_stream`.
        """
        self._require_ready()
        return self.engine.open_stream(stride=stride, dtype=dtype)

    def infer_chunk(
        self, session: StreamSession, chunk: np.ndarray
    ) -> BatchInference:
        """Classify every window completed by one raw chunk, O(chunk)."""
        self._require_ready()
        return self._charged(self.engine.infer_chunk(session, chunk))

    def finish_stream(self, session: StreamSession) -> BatchInference:
        """Close a chunked session; classify the flushed last windows."""
        self._require_ready()
        return self._charged(self.engine.finish_stream(session))

    def _charged(self, batch: BatchInference) -> BatchInference:
        if self.accountant is not None:
            self.accountant.charge_inference(
                self.embedder.network, len(batch), batch.latency_ms
            )
        return batch

    def infer_features(self, features: np.ndarray) -> np.ndarray:
        """Classify pre-processed feature rows; returns integer labels."""
        self._require_ready()
        return self.engine.predict_features(features)

    def infer_recording(self, recording: Recording) -> Tuple[str, List[str]]:
        """Classify every window of a recording; majority-vote the verdict.

        Runs through the engine's streaming fast path — one fused
        pass, no window cube — and matches window-by-window inference
        (``infer_window`` / ``infer_windows`` on the segmented recording)
        exactly, including their *per-window* denoising.
        """
        self._require_ready()
        batch = self.infer_stream(recording.data)
        if len(batch) == 0:
            raise DataShapeError(
                "recording too short: no complete window to classify"
            )
        names = batch.names
        majority = Counter(names).most_common(1)[0][0]
        return majority, names

    # ------------------------------------------------------------------ #
    # incremental learning (all local)
    # ------------------------------------------------------------------ #

    def _features_from(
        self, data: Union[Recording, np.ndarray]
    ) -> np.ndarray:
        if isinstance(data, Recording):
            return self.process_recording(data)
        return check_2d("features", data)

    def _update(
        self, learn, name: str, data: Union[Recording, np.ndarray], merge=False
    ) -> UpdateResult:
        """Featurize, admit the projected footprint, then re-train, rebuild
        the prototypes and charge the session.  A refused update raises
        before the support set, any generator or the embedder has moved."""
        self._require_ready()
        features = self._features_from(data)
        if self.accountant is not None:
            self.accountant.admit(
                self.footprint_bytes()
                + self.support_set.size_delta_bytes(name, *features.shape, merge=merge)
            )
        result = learn(self.embedder, self.support_set, name, features)
        self._rebuild_classifier()
        if self.accountant is not None:
            self.accountant.charge_retraining(
                self.embedder.network,
                self.support_set.total_samples,
                self._learner.config.train,
            )
        return result

    def learn_activity(
        self, name: str, data: Union[Recording, np.ndarray]
    ) -> UpdateResult:
        """Learn a brand-new activity from a recording (or features).

        This is the Figure 3(c-e) flow: record ~20-30 s, update the support
        set, re-train jointly with distillation, rebuild prototypes.
        """
        return self._update(self._learner.learn_new_class, name, data)

    def calibrate_activity(
        self, name: str, data: Union[Recording, np.ndarray]
    ) -> UpdateResult:
        """Re-calibrate an existing activity with the user's own data."""
        return self._update(self._learner.calibrate_class, name, data)

    def reinforce_activity(
        self, name: str, data: Union[Recording, np.ndarray]
    ) -> UpdateResult:
        """Blend fresh samples of an existing activity into the support set."""
        return self._update(self._learner.reinforce_class, name, data, merge=True)

    # ------------------------------------------------------------------ #
    # footprint & privacy
    # ------------------------------------------------------------------ #

    def component_sizes(self) -> Dict[str, int]:
        """Current on-device footprint per component (bytes, float32)."""
        self._require_ready()
        return TransferPackage(
            pipeline=self.pipeline,
            embedder=self.embedder,
            support_set=self.support_set,
        ).component_sizes()

    def footprint_bytes(self) -> int:
        """Total bytes the platform occupies on the device (E3)."""
        return sum(self.component_sizes().values())

    def attempt_cloud_upload(self, data: Union[Recording, np.ndarray]) -> None:
        """Try to send user data to the Cloud — must raise under MAGNETO.

        Exists so tests and demos can show Definition 1 being enforced; a
        conventional Cloud pipeline performs this transfer on every window.
        """
        if isinstance(data, Recording):
            n_bytes = data.data.astype(np.float32).nbytes
        else:
            n_bytes = np.asarray(data, dtype=np.float32).nbytes
        self.guard.record(
            EDGE_TO_CLOUD,
            kind="raw_user_data",
            n_bytes=n_bytes,
            contains_user_data=True,
        )
