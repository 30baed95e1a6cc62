"""MAGNETO reproduction — Edge AI for Human Activity Recognition.

A from-scratch Python reproduction of *MAGNETO: Edge AI for Human Activity
Recognition — Privacy and Personalization* (EDBT 2024): Cloud
initialization of a Siamese HAR model, a single Cloud-to-Edge transfer
package, on-device NCM inference, and privacy-preserving incremental
learning of new activities with a contrastive + distillation objective.

Quickstart::

    from repro import FleetServer, MagnetoPlatform

    platform = MagnetoPlatform(rng=7)
    edge, report = platform.initialize(n_users=6,
                                       windows_per_user_per_activity=30)

    # For continuous data the preferred entry point is the streaming fast
    # path: one denoise pass, features in bounded window blocks (no
    # window cube), with verdicts identical to windowing + infer_windows
    # at the default non-overlapping stride.
    batch = edge.engine.infer_stream(recording.data)       # k verdicts
    dense = edge.engine.infer_stream(recording.data, stride=12)  # 90% overlap
    batch.names, batch.confidences, batch.distances

    # Pre-segmented (k, window_len, channels) stacks go through the
    # batched engine: one fused denoise -> features -> normalize -> embed
    # -> NCM pass.
    batch = edge.engine.infer_windows(windows)    # k verdicts, one pass

    result = edge.infer_window(window)            # single-window wrapper
    edge.learn_activity("gesture_hi", recording)  # on-device learning

    # Serve thousands of simulated devices through shared batched calls —
    # raw sensor chunks in, segmented + featurized once per tick:
    server = FleetServer(edge.engine)
    server.connect_many(["alice", "bob"])
    verdicts = server.step_stream({"alice": chunk_a, "bob": chunk_b})
    verdicts = server.step({"alice": window_a, "bob": window_b})

    # Heterogeneous fleets: one model package per cohort, one batched
    # engine call per distinct model per tick (see repro.serving):
    registry = ModelRegistry(default_cohort="wrist")
    registry.publish("wrist", edge.engine)
    registry.register_lazy("pocket", "pocket.npz")  # loads on first use
    server = FleetServer(registry)
    server.connect("carol", cohort="pocket")

Subpackages:

- :mod:`repro.core` — the paper's contribution (platform, privacy,
  incremental learning, NCM, support set, transfer package) plus the
  batched :class:`~repro.core.engine.InferenceEngine`,
- :mod:`repro.nn` — numpy neural substrate (Siamese net, losses, optim),
- :mod:`repro.sensors` — synthetic 22-channel sensor campaign,
- :mod:`repro.preprocessing` — denoise/segment/normalize/80 features,
- :mod:`repro.datasets` — splits, loaders, experiment scenarios,
- :mod:`repro.eval` — metrics, incremental protocol (plus per-cohort
  stream rollups), baselines,
- :mod:`repro.edge_runtime` — device resource model, the budget accountant
  an ``EdgeDevice`` consults before an update commits, and the demo app,
- :mod:`repro.serving` — fleet serving and the multi-model cohort layer
  (:class:`~repro.serving.fleet.FleetServer`,
  :class:`~repro.serving.registry.ModelRegistry`, fleet specs, the TCP
  gateway).
"""

from .core import (
    BatchInference,
    CloudConfig,
    CloudInitializer,
    EdgeDevice,
    IncrementalConfig,
    InferenceEngine,
    InferenceResult,
    MagnetoPlatform,
    NCMClassifier,
    NetworkLink,
    PrivacyGuard,
    SupportSet,
    TransferPackage,
)
from .exceptions import (
    ConfigurationError,
    DataShapeError,
    MagnetoError,
    NotFittedError,
    PrivacyViolationError,
    ResourceExceededError,
    SerializationError,
    UnknownActivityError,
    UnknownCohortError,
)
from .serving import EdgeSession, FleetServer, ModelRegistry, SessionVerdict

__version__ = "1.0.0"

__all__ = [
    "BatchInference",
    "CloudConfig",
    "CloudInitializer",
    "ConfigurationError",
    "DataShapeError",
    "EdgeDevice",
    "EdgeSession",
    "FleetServer",
    "IncrementalConfig",
    "InferenceEngine",
    "InferenceResult",
    "MagnetoError",
    "MagnetoPlatform",
    "ModelRegistry",
    "NCMClassifier",
    "NetworkLink",
    "NotFittedError",
    "PrivacyGuard",
    "PrivacyViolationError",
    "ResourceExceededError",
    "SerializationError",
    "SessionVerdict",
    "SupportSet",
    "TransferPackage",
    "UnknownActivityError",
    "UnknownCohortError",
    "__version__",
]
