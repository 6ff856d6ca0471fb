"""Multi-feature tracking-by-detection engine.

Kalman estimation, four-feature similarity matching (distance, area,
shape ratio, color histogram), waiting-state track lifecycle with noise
filtering, evaluation metrics, and a deterministic scenario simulator.
"""

from .engine import MatchResult, TrackingEngine, match_frame
from .metrics import EvalReport, evaluate
from .types import (
    Frame,
    ObjectState,
    Track,
    TrackerConfig,
    diagonal_half,
)

__version__ = "0.1.0"

__all__ = [
    "EvalReport",
    "Frame",
    "MatchResult",
    "ObjectState",
    "Track",
    "TrackerConfig",
    "TrackingEngine",
    "diagonal_half",
    "evaluate",
    "match_frame",
]
