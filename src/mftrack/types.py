"""Core value types: object states, histograms, detections, tracks, config."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, HistogramShapeError, InputError

# Track status values
ACTIVE = "active"
WAITING = "waiting"
TERMINATED = "terminated"
NOISE = "noise"

MAX_RAW_BINS = 768  # 256 intensity levels x 3 channels
# the engine keeps frame ids as int64, and a track's span f_c + 1 - birth must fit
MAX_FRAME_ID = 2**63 - 2


@dataclass(frozen=True, slots=True)
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

    @classmethod
    def rows(cls, boxes: np.ndarray) -> list["ObjectState"]:
        """One state per (x, y, l, h) row of an (n, 4) array.

        The rows are checked at once, as the constructor checks one state,
        and each state is then made without a check of its own.
        """
        boxes = np.asarray(boxes, dtype=np.float64)
        check_boxes(boxes)
        states = []
        new, put = object.__new__, object.__setattr__
        for x, y, l, h in zip(*boxes.T.tolist()):
            s = new(cls)
            put(s, "x", x)
            put(s, "y", y)
            put(s, "l", l)
            put(s, "h", h)
            states.append(s)
        return states

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


def check_boxes(boxes: np.ndarray) -> None:
    """ValueError unless every (x, y, l, h) row is finite with l, h > 0."""
    if not np.isfinite(boxes).all():
        raise ValueError("non-finite state component in box rows")
    if not (boxes[:, 2:] > 0).all():
        raise ValueError("box dimensions must be positive")


def check_counts(arr: np.ndarray) -> None:
    """ValueError unless the last axis has a histogram length in 1..768
    and every count is finite and non-negative."""
    if not 1 <= arr.shape[-1] <= MAX_RAW_BINS:
        raise ValueError(f"histogram length {arr.shape[-1]} outside 1..{MAX_RAW_BINS}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("histogram counts must be finite and non-negative")


def check_rows(frame_ids: int | np.ndarray, ids: np.ndarray, boxes: np.ndarray,
               hist: np.ndarray) -> None:
    """The rules of a frame's rows, checked once over all of them as
    arrays: every frame id in 0..MAX_FRAME_ID, no (frame id, detection id)
    pair twice, every box finite with l, h > 0 and every count finite and
    non-negative (`check_boxes`, `check_counts`). frame_ids holds one
    frame id per row, or one for all rows. A frame id past MAX_FRAME_ID or
    a repeated pair is an InputError, the latter naming the first repeat
    in row order; every other fault is a ValueError. Rows of no frame are
    checked for the frame id only."""
    low, high = ((frame_ids.min(initial=0), frame_ids.max(initial=0))
                 if isinstance(frame_ids, np.ndarray) else (frame_ids, frame_ids))
    if low < 0:
        raise ValueError("frame_id must be non-negative")
    if high > MAX_FRAME_ID:
        raise InputError(f"frame id {high} past {MAX_FRAME_ID}")
    if not len(ids):
        return
    f = np.broadcast_to(frame_ids, ids.shape)
    # write_detections writes the pairs in rising order, which proves them
    # distinct without a sort, whose scratch arrays stay in the process's
    # heap and raise peak RSS
    if not ((f[1:] > f[:-1]) | ((f[1:] == f[:-1]) & (ids[1:] > ids[:-1]))).all():
        order = np.lexsort((ids, f))  # stable: a pair's rows stay in row order
        # in that order, a pair equal to its predecessor comes later in the rows
        later = order[1:][(f[order[1:]] == f[order[:-1]]) & (ids[order[1:]] == ids[order[:-1]])]
        if len(later):
            first = later.min()
            raise InputError(f"duplicate detection_id {ids[first]} in frame {f[first]}")
    check_boxes(boxes)
    check_counts(hist)


@dataclass(frozen=True, eq=False, slots=True)
class ColorHistogram:
    """Binned color histogram (pixel counts), already rebinned to n bins."""

    bins: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("histogram must be 1-dimensional")
        check_counts(arr)
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
        check_counts(block)
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


@dataclass(frozen=True, eq=False)
class Frame:
    """The detections of one frame as columns, row i for the i-th detection:
    ids (m,) int64, boxes (m, 4) rows (x, y, l, h) and hist (m, n_bins)
    counts, all three read-only.

    The constructor copies the rows and checks them once, as arrays, by
    `check_rows`; a detection id beyond int64 is an InputError. `of`
    builds a frame from `Detection`s, and iterating a frame builds them
    back, so code written for lists of detections reads a frame too.
    """

    frame_id: int
    ids: np.ndarray
    boxes: np.ndarray
    hist: np.ndarray

    def __post_init__(self):
        try:
            ids = np.array(self.ids, dtype=np.int64).reshape(-1)
        except OverflowError:
            raise InputError(f"detection id beyond int64 in frame {self.frame_id}") from None
        boxes = np.array(self.boxes, dtype=np.float64).reshape(len(ids), 4)
        hist = np.array(self.hist, dtype=np.float64)
        if hist.ndim != 2 or len(hist) != len(ids):
            raise ValueError(f"histogram block of shape {hist.shape} for {len(ids)} detections")
        check_rows(self.frame_id, ids, boxes, hist)
        Frame._fill(self, self.frame_id, ids, boxes, hist)

    @classmethod
    def view(cls, frame_id: int, ids: np.ndarray, boxes: np.ndarray, hist: np.ndarray) -> "Frame":
        """A frame of rows the caller has checked as the constructor does:
        no check and no copy. The arrays are marked read-only."""
        return cls._fill(object.__new__(cls), frame_id, ids, boxes, hist)

    @staticmethod
    def _fill(frame: "Frame", frame_id: int, ids, boxes, hist) -> "Frame":
        for name, value in (("ids", ids), ("boxes", boxes), ("hist", hist)):
            value.flags.writeable = False
            object.__setattr__(frame, name, value)
        object.__setattr__(frame, "frame_id", frame_id)
        return frame

    @classmethod
    def of(cls, detections: "Frame | list[Detection]", frame_id: int, n_bins: int) -> "Frame":
        """`detections` as a frame of id `frame_id`. A frame is returned as
        it is once its frame id and, if it has rows, its bin count match.
        A list is checked detection by detection for its frame id, then its
        bin count, before its rows go through the constructor's
        `check_rows`: of two faults, these are named before a repeated id."""
        if isinstance(detections, Frame):
            frame = detections
            if frame.frame_id != frame_id:
                raise InputError(f"detection {frame.ids[0]} carries frame {frame.frame_id}, "
                                 f"expected {frame_id}" if len(frame) else
                                 f"empty frame {frame.frame_id} stepped as frame {frame_id}")
            if len(frame) and frame.n_bins != n_bins:
                raise HistogramShapeError(f"detection {frame.ids[0]} in frame {frame.frame_id} "
                                          f"has {frame.n_bins} histogram bins, expected {n_bins}")
            return frame
        for d in detections:
            if d.frame_id != frame_id:
                raise InputError(f"detection {d.detection_id} carries frame {d.frame_id}, "
                                 f"expected {frame_id}")
            if d.histogram.n != n_bins:
                raise HistogramShapeError(f"detection {d.detection_id} in frame {frame_id} has "
                                          f"{d.histogram.n} histogram bins, expected {n_bins}")
        m = len(detections)
        return cls(frame_id, [d.detection_id for d in detections],
                   [(d.state.x, d.state.y, d.state.l, d.state.h) for d in detections],
                   np.array([d.histogram.bins for d in detections]).reshape(m, n_bins))

    @property
    def n_bins(self) -> int:
        return self.hist.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        """The frame's `Detection`s, built on demand; their histograms are
        views of the hist rows."""
        return map(Detection, [self.frame_id] * len(self), self.ids.tolist(),
                   ObjectState.rows(self.boxes), ColorHistogram.rows(self.hist))


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
        for name, t in (("t2", self.t2), ("t3", self.t3)):
            if isinstance(t, bool) or not isinstance(t, int) or t < 1:
                raise ConfigError(f"{name} must be a positive integer, got {t}")
        if not (0.0 < self.t4 < math.inf):
            raise ConfigError(f"t4 must be finite and positive, got {self.t4}")
        if not (0.0 <= self.t5 <= 1.0):
            raise ConfigError(f"t5 must be in [0,1], got {self.t5}")
        if (isinstance(self.n_bins, bool) or not isinstance(self.n_bins, int)
                or not 1 <= self.n_bins <= MAX_RAW_BINS):
            raise ConfigError(f"n_bins must be an integer in 1..{MAX_RAW_BINS}, got {self.n_bins}")
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


class KalmanState:
    """Internal filter state of one track, or of n tracks as rows.

    The state is one float block, (11,) for one track and (n, 11) for n.
    Along its last axis it holds the position (x, y, l, h), the velocity
    of the same axes, and p, c, v: every axis shares the covariance
    [[p, c], [c, v]] of its (position, velocity) pair. `columns` gives
    the five fields as views of the block, so a copy, a take, a join or a
    scatter of rows, or a finiteness check, is one numpy call on `block`.
    The static model keeps velocity, c and v at 0.
    """

    __slots__ = ("block",)
    WIDTH = 11

    def __init__(self, position, velocity, p, c, v):
        position = np.asarray(position, dtype=np.float64)
        self.block = np.empty(position.shape[:-1] + (self.WIDTH,))
        for column, value in zip(self.columns(self.block), (position, velocity, p, c, v)):
            column[...] = value

    @classmethod
    def of(cls, block: np.ndarray) -> "KalmanState":
        """The state whose block is `block` (not a copy)."""
        ks = object.__new__(cls)
        ks.block = block
        return ks

    @staticmethod
    def columns(block: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of the five fields (position, velocity, p, c, v) of an
        (11,) or (n, 11) block."""
        return block[..., :4], block[..., 4:8], block[..., 8], block[..., 9], block[..., 10]


@dataclass(eq=False)
class Track:
    """A tracked object, as the owning engine reports it.

    `states` holds one state per frame from birth to the last processed
    frame, in frame order: the corrected state on a matched frame, the
    held one on a waiting frame. The last corrected state and the end
    frame are read from it, not stored.

    The engine keeps a live track as a row of its column store and its
    history as blocks of its append-only log, and fills the track from
    them when it is read (`TrackingEngine.tracks` and the methods that
    list tracks), so a track held from before a step is brought up to date
    by the next such read. The filter of a live track is a row of the
    store, not a field of the track, and so are the centers behind its
    d_max: `update_extent` and `_centers` are the scalar rule the store's
    extent columns are tested against, and stay empty on the engine's
    tracks.
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
