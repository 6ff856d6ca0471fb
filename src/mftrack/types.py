"""Core value types: object states, histograms, detections, tracks, config."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Track status values
ACTIVE = "active"
WAITING = "waiting"
TERMINATED = "terminated"
NOISE = "noise"

MAX_RAW_BINS = 768  # 256 intensity levels x 3 channels


@dataclass(frozen=True)
class ObjectState:
    """Bounding box at one frame: center (x, y), width l, height h, in pixels.

    Sub-pixel values are allowed; l and h must be strictly positive.
    """

    x: float
    y: float
    l: float
    h: float

    def __post_init__(self):
        for v in (self.x, self.y, self.l, self.h):
            if not math.isfinite(v):
                raise ValueError(f"non-finite state component: {self!r}")
        if self.l <= 0 or self.h <= 0:
            raise ValueError(f"box dimensions must be positive: l={self.l}, h={self.h}")

    @property
    def center(self) -> tuple[float, float]:
        return (self.x, self.y)

    @property
    def area(self) -> float:
        return self.l * self.h

    @property
    def aspect(self) -> float:
        return self.l / self.h

    def as_vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.l, self.h], dtype=np.float64)


def diagonal_half(state: ObjectState) -> float:
    """Half the bounding-box diagonal, used as the per-frame search radius."""
    return math.hypot(state.l, state.h) / 2.0


def _check_counts(arr: np.ndarray) -> None:
    """ValueError unless the last axis has a histogram length in 1..768
    and every count is finite and non-negative."""
    if not 1 <= arr.shape[-1] <= MAX_RAW_BINS:
        raise ValueError(f"histogram length {arr.shape[-1]} outside 1..{MAX_RAW_BINS}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("histogram counts must be finite and non-negative")


@dataclass(frozen=True, eq=False, slots=True)
class ColorHistogram:
    """Binned color histogram (pixel counts), already rebinned to n bins."""

    bins: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("histogram must be 1-dimensional")
        _check_counts(arr)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "bins", arr)

    @classmethod
    def rows(cls, block: np.ndarray) -> list["ColorHistogram"]:
        """One histogram per row of a 2-D block of counts.

        The block is checked once, as the constructor checks one row, and
        marked read-only; each histogram's bins are a view of its row, not
        a copy, so the block must not be written through another view.
        """
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError("histogram block must be 2-dimensional")
        _check_counts(block)
        block.flags.writeable = False
        hists = []
        for row in block:
            h = object.__new__(cls)
            object.__setattr__(h, "bins", row)
            hists.append(h)
        return hists

    @property
    def n(self) -> int:
        return int(self.bins.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColorHistogram):
            return NotImplemented
        return self.bins.shape == other.bins.shape and bool(np.all(self.bins == other.bins))

    def __hash__(self):
        return hash((self.bins.size, float(self.bins.sum())))


@dataclass(frozen=True)
class Detection:
    """One detected bounding box in one frame."""

    frame_id: int
    detection_id: int
    state: ObjectState
    histogram: ColorHistogram

    def __post_init__(self):
        if self.frame_id < 0:
            raise ValueError("frame_id must be non-negative")


@dataclass(frozen=True)
class TrackerConfig:
    """All tracker parameters plus engine-level policy switches.

    Defaults follow the values the algorithm was tuned with: measurement
    weight 0.7, equal feature weights, similarity threshold 0.8, waiting
    cap 20 frames, minimum trajectory length 20 frames, minimum spatial
    extent 5 pixels, waiting ratio cap 40%, 96 histogram bins.
    """

    w: float = 0.7
    feature_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    t1: float = 0.8
    t2: int = 20
    t3: int = 20
    t4: float = 5.0
    t5: float = 0.40
    n_bins: int = 96
    assignment_policy: str = "greedy_global"  # or "per_track"
    eval_iou_threshold: float = 0.5
    eval_assignment: str = "greedy"  # or "hungarian"; affects metrics only
    motion_model: str = "constant_velocity"  # or "static" (velocity held at 0)
    process_noise_pos: float = 1.0
    process_noise_vel: float = 0.01
    measurement_noise: float = 1.0

    def validate(self) -> "TrackerConfig":
        if not (0.0 <= self.w <= 1.0):
            raise ConfigError(f"w must be in [0,1], got {self.w}")
        if len(self.feature_weights) != 4 or not all(0.0 <= wi < math.inf
                                                     for wi in self.feature_weights):
            raise ConfigError(f"feature_weights must be 4 finite non-negative reals: "
                              f"{self.feature_weights}")
        if not any(wi > 0 for wi in self.feature_weights):
            raise ConfigError("at least one feature weight must be positive")
        if not (0.0 <= self.t1 <= 1.0):
            raise ConfigError(f"t1 must be in [0,1], got {self.t1}")
        if self.t2 < 1:
            raise ConfigError(f"t2 must be a positive integer, got {self.t2}")
        if self.t3 < 1:
            raise ConfigError(f"t3 must be a positive integer, got {self.t3}")
        if not (0.0 < self.t4 < math.inf):
            raise ConfigError(f"t4 must be finite and positive, got {self.t4}")
        if not (0.0 <= self.t5 <= 1.0):
            raise ConfigError(f"t5 must be in [0,1], got {self.t5}")
        if not (1 <= self.n_bins <= MAX_RAW_BINS):
            raise ConfigError(f"n_bins must be in 1..{MAX_RAW_BINS}, got {self.n_bins}")
        if self.assignment_policy not in ("greedy_global", "per_track"):
            raise ConfigError(f"unknown assignment_policy {self.assignment_policy!r}")
        if not (0.0 < self.eval_iou_threshold <= 1.0):
            raise ConfigError(f"eval_iou_threshold must be in (0,1], got {self.eval_iou_threshold}")
        if self.eval_assignment not in ("greedy", "hungarian"):
            raise ConfigError(f"unknown eval_assignment {self.eval_assignment!r}")
        if self.motion_model not in ("constant_velocity", "static"):
            raise ConfigError(f"unknown motion_model {self.motion_model!r}")
        if not (0.0 < self.measurement_noise < math.inf and 0.0 <= self.process_noise_pos < math.inf
                and 0.0 <= self.process_noise_vel < math.inf):
            raise ConfigError("noise variances must be finite and positive (measurement) / "
                              "non-negative (process)")
        return self


@dataclass(eq=False)
class KalmanState:
    """Internal filter state of one track, or of n tracks as rows.

    position and velocity are indexed by axis (x, y, l, h): (4,) arrays
    for one track, (n, 4) for n. Every axis shares the covariance
    [[p, c], [c, v]] of its (position, velocity) pair, floats for one
    track and (n,) arrays for n; the static model keeps velocity, c and v
    at 0.
    """

    position: np.ndarray
    velocity: np.ndarray
    p: float | np.ndarray
    c: float | np.ndarray
    v: float | np.ndarray


@dataclass(eq=False)
class Track:
    """A tracked object; mutated only by the owning engine.

    `states` holds one state per frame from birth to the last processed
    frame, in frame order: the corrected state on a matched frame, the
    held one on a waiting frame. The last corrected state and the end
    frame are read from it, not stored. The filter of a live track is a
    row of the engine's row store, not a field of the track.
    """

    track_id: int
    birth_frame: int
    states: dict[int, ObjectState]
    last_histogram: ColorHistogram
    f_l: int  # frame of the last successful match
    n_r: int = 1  # number of matched frames
    t_w: int = 0  # cumulative waiting frames
    status: str = ACTIVE
    matched_frames: set[int] = field(default_factory=set)
    # spatial-extent bookkeeping: exact max pairwise center distance,
    # frozen once it crosses the cap the engine cares about (t4)
    _centers: list[tuple[float, float]] = field(default_factory=list)
    _d_max: float = 0.0

    @property
    def d_max(self) -> float:
        """Maximum pairwise distance between trajectory center positions.

        Exact until it reaches the engine's spatial-noise threshold, after
        which it is frozen (every noise decision only compares against that
        threshold, and the value is monotone non-decreasing).
        """
        return self._d_max

    @property
    def last_cs(self) -> ObjectState:
        """State of the last processed frame: its corrected state, or the
        one held while waiting."""
        return next(reversed(self.states.values()))

    @property
    def last_state_frame(self) -> int:
        # states are inserted in frame order, so the last key is the latest
        return next(reversed(self.states))

    @property
    def end_frame(self) -> int | None:
        """Frame at which the lifecycle ended the track; None while live."""
        return None if self.status in (ACTIVE, WAITING) else self.last_state_frame

    @property
    def span(self) -> int:
        """Trajectory length in frames, waiting time included."""
        return self.last_state_frame - self.birth_frame + 1

    def update_extent(self, x: float, y: float, cap: float = math.inf) -> None:
        if self._d_max >= cap:
            return
        if self._centers:
            cx = np.array([c[0] for c in self._centers])
            cy = np.array([c[1] for c in self._centers])
            d = float(np.max(np.hypot(cx - x, cy - y)))
            if d > self._d_max:
                self._d_max = d
        self._centers.append((x, y))
        if self._d_max >= cap:
            self._centers.clear()
