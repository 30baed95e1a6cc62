"""MAGNETO core: the paper's contribution.

Cloud initialization, the Cloud-to-Edge transfer package, the privacy
guard, the NCM classifier over the Siamese embedding space, the support
set, and Edge-side incremental learning / calibration.
"""

from .cloud import CloudConfig, CloudInitializer, PretrainReport
from .drift import DriftMonitor
from .edge import EdgeDevice, InferenceResult
from .engine import BatchInference, InferenceEngine, StreamSession
from .incremental import (
    IncrementalConfig,
    IncrementalLearner,
    UpdateResult,
)
from .ncm import NCMClassifier
from .openset import (
    UNKNOWN_LABEL,
    UNKNOWN_NAME,
    OpenSetNCM,
    open_set_report,
)
from .platform import MagnetoPlatform, ProvisioningReport
from .privacy import (
    CLOUD_TO_EDGE,
    EDGE_TO_CLOUD,
    TYPICAL_4G,
    TYPICAL_WIFI,
    NetworkLink,
    PrivacyGuard,
    TransferRecord,
)
from .smoothing import HysteresisSmoother, MajorityVoteSmoother
from .support_set import SELECTION_STRATEGIES, SupportSet, herding_selection
from .transfer import CohortHead, TransferPackage, engine_from_head

__all__ = [
    "BatchInference",
    "CLOUD_TO_EDGE",
    "CloudConfig",
    "CohortHead",
    "CloudInitializer",
    "DriftMonitor",
    "EDGE_TO_CLOUD",
    "EdgeDevice",
    "HysteresisSmoother",
    "IncrementalConfig",
    "IncrementalLearner",
    "InferenceEngine",
    "InferenceResult",
    "MagnetoPlatform",
    "MajorityVoteSmoother",
    "NCMClassifier",
    "OpenSetNCM",
    "NetworkLink",
    "PretrainReport",
    "PrivacyGuard",
    "ProvisioningReport",
    "SELECTION_STRATEGIES",
    "StreamSession",
    "SupportSet",
    "TransferPackage",
    "TransferRecord",
    "TYPICAL_4G",
    "TYPICAL_WIFI",
    "UNKNOWN_LABEL",
    "UNKNOWN_NAME",
    "UpdateResult",
    "engine_from_head",
    "open_set_report",
    "herding_selection",
]
