"""Pre-processing substrate: denoise, segment, normalize, extract features.

This is the "pre-processing function" of the paper's transfer package —
fitted once on the Cloud, serialized, and executed on the Edge in linear
time per window.
"""

from .denoise import (
    ButterworthLowpass,
    IdentityFilter,
    LocalDenoiserStream,
    MedianFilter,
    MovingAverageFilter,
    ZeroPhaseIIRStream,
    denoiser_from_dict,
)
from .features import (
    DEFAULT_SIGNALS,
    DEFAULT_STATS,
    DERIVED_SIGNALS,
    STATISTICS,
    FeatureConfig,
)
from .normalization import (
    MinMaxNormalizer,
    ZScoreNormalizer,
    normalizer_from_dict,
)
from .pipeline import (
    PreprocessingPipeline,
    StreamState,
    extractor_from_dict,
    extractor_to_dict,
    resolve_feature_dtype,
)
from .segmentation import segment_recording, sliding_windows, window_count
from .streaming import StreamingFeatureExtractor
from .spectral import (
    DEFAULT_SPECTRAL_SIGNALS,
    FREQUENCY_BANDS,
    SPECTRAL_STATS,
    CombinedFeatureExtractor,
    SpectralConfig,
    SpectralFeatureExtractor,
)

__all__ = [
    "ButterworthLowpass",
    "DEFAULT_SIGNALS",
    "DEFAULT_STATS",
    "DERIVED_SIGNALS",
    "FeatureConfig",
    "IdentityFilter",
    "LocalDenoiserStream",
    "MedianFilter",
    "MinMaxNormalizer",
    "MovingAverageFilter",
    "CombinedFeatureExtractor",
    "DEFAULT_SPECTRAL_SIGNALS",
    "FREQUENCY_BANDS",
    "PreprocessingPipeline",
    "SPECTRAL_STATS",
    "SpectralConfig",
    "SpectralFeatureExtractor",
    "STATISTICS",
    "StreamState",
    "StreamingFeatureExtractor",
    "ZScoreNormalizer",
    "ZeroPhaseIIRStream",
    "denoiser_from_dict",
    "resolve_feature_dtype",
    "extractor_from_dict",
    "extractor_to_dict",
    "normalizer_from_dict",
    "segment_recording",
    "sliding_windows",
    "window_count",
]
