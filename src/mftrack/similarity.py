"""Local similarity features and their weighted combination.

Four features score a candidate (track, detection) pair in [0, 1]:
distance, area, shape ratio, and color histogram. The global score is
their weighted mean, gated to 0 whenever the distance score is 0 so that
an implausible displacement can never be rescued by appearance.

These scalar forms are the reference semantics; `kernels` holds the
batched versions the engine actually runs.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import ConfigError, HistogramShapeError
from .types import ObjectState, check_counts


def distance_similarity(a: ObjectState, b: ObjectState, d_max: float, m: int) -> float:
    """1 - d / (d_max * m), clamped at 0.

    d is the Euclidean distance between box centers; m is the temporal
    difference in frames between the two states (>= 1), which widens the
    plausible displacement for objects unseen for several frames.
    """
    if d_max <= 0:
        raise ValueError(f"d_max must be positive, got {d_max}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    d = math.hypot(a.x - b.x, a.y - b.y)
    return max(0.0, 1.0 - d / (d_max * m))


def area_similarity(a: ObjectState, b: ObjectState) -> float:
    """Ratio of the smaller box area to the larger."""
    aa, ab = a.area, b.area
    return min(aa, ab) / max(aa, ab)


def shape_similarity(a: ObjectState, b: ObjectState) -> float:
    """Ratio of the smaller aspect ratio (width/height) to the larger."""
    ra, rb = a.aspect, b.aspect
    return min(ra, rb) / max(ra, rb)


def color_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over bins of min/max count ratio of two 1-D rows of counts,
    each checked by `check_counts`; HistogramShapeError unless both are
    1-D of one length.

    A bin empty in both histograms counts as a perfect match (ratio 1),
    so identical histograms always score exactly 1.
    """
    if a.ndim != 1 or a.shape != b.shape:
        raise HistogramShapeError(f"histogram shapes differ or are not 1-D: {a.shape} vs {b.shape}")
    check_counts(a)
    check_counts(b)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    rates = np.where(hi > 0.0, lo / np.where(hi > 0.0, hi, 1.0), 1.0)
    return float(rates.mean())


def global_similarity(ls: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted mean of the four local scores; 0 when the distance score is 0."""
    if len(ls) != 4 or len(weights) != 4:
        raise ValueError("expected 4 local scores and 4 weights")
    wsum = float(sum(weights))
    if wsum <= 0.0:
        raise ConfigError("feature weights sum to zero")
    if ls[0] <= 0.0:
        return 0.0
    return float(sum(w * s for w, s in zip(weights, ls)) / wsum)
