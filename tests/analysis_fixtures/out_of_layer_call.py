"""Fixture: serving-layer code re-implementing the pipeline.  Never
imported; parsed by reprolint in tests (the checker decides by *path*,
so tests lint it under a synthetic ``src/repro/serving/`` path).
Expected: 5x entry-point (two restricted imports, two restricted name
references, one NCM distance-internal call)."""

from repro.preprocessing import StreamingFeatureExtractor, sliding_windows


def serve_windows(ncm, data, window_len):
    windows = sliding_windows(data, window_len, window_len)
    features = StreamingFeatureExtractor().extract(windows[0], window_len)
    return ncm.distances(features)
