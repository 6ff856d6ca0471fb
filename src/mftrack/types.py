"""Core value types: object states, frames of detections, trajectory
tables, tracks, config."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import repeat

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


def is_integer(v, lo: float = -math.inf, hi: float = math.inf) -> bool:
    """True for an integer (numpy's too) in lo..hi; a bool is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and lo <= v <= hi


def is_real(v, lo: float = -math.inf, hi: float = math.inf) -> bool:
    """True for a real number in lo..hi that is finite as a float; a bool
    is not one, nor is an integer too large for a float (a JSON 10**400)."""
    try:
        return (isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                and lo <= v <= hi)
    except OverflowError:
        return False


@dataclass(frozen=True, slots=True)
class ObjectState:
    """Bounding box at one frame: center (x, y), width l, height h, in pixels.

    Sub-pixel values are allowed. The box is checked as a row of one by
    `check_boxes`: finite, l and h strictly positive, and their product
    l * h and quotients l / h and h / l finite.
    """

    x: float
    y: float
    l: float
    h: float

    def __post_init__(self):
        check_boxes(np.array(((self.x, self.y, self.l, self.h),), dtype=np.float64))

    @classmethod
    def rows(cls, boxes: np.ndarray) -> list["ObjectState"]:
        """One state per (x, y, l, h) row of an (n, 4) array.

        The rows are checked at once, as the constructor checks one state,
        and each state is then made without a check of its own: each field
        is set by its slot's own setter, mapped over all the states.
        """
        boxes = np.asarray(boxes, dtype=np.float64)
        check_boxes(boxes)
        states = list(map(object.__new__, repeat(cls, len(boxes))))
        for name, column in zip(("x", "y", "l", "h"), boxes.T.tolist()):
            list(map(getattr(cls, name).__set__, states, column))
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
    """ValueError unless every (x, y, l, h) row is finite with l, h > 0,
    a finite area l * h and a finite aspect l / h and h / l."""
    if not np.isfinite(boxes).all():
        raise ValueError("non-finite state component in box rows")
    if not len(boxes):
        return
    l, h = boxes[:, 2], boxes[:, 3]
    l_min, h_min, l_max, h_max = float(l.min()), float(h.min()), float(l.max()), float(h.max())
    if not (l_min > 0 and h_min > 0):
        raise ValueError("box dimensions must be positive")
    # an area or an aspect overflows only if the largest l times the largest
    # h, or the largest l over the smallest h or h over l, does, so the rows
    # are computed only then; a float product or quotient overflows to inf
    # without a warning, and the reductions make no scratch array
    area = math.isfinite(l_max * h_max)
    aspect = math.isfinite(l_max / h_min) and math.isfinite(h_max / l_min)
    if not (area and aspect):
        with np.errstate(over="ignore"):  # an overflow is the fault reported
            if not (area or np.isfinite(l * h).all()):
                raise ValueError("box area l * h must be finite")
            if not (aspect or (np.isfinite(l / h).all() and np.isfinite(h / l).all())):
                raise ValueError("box aspect l / h and h / l must be finite")


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
    pair twice, every box finite with l, h > 0 and finite area and aspect,
    and every count finite and non-negative (`check_boxes`, `check_counts`).
    frame_ids holds one frame id per row, or one for all rows. A frame id
    past MAX_FRAME_ID or a repeated pair is an InputError, the latter
    naming the first repeat in row order; every other fault is a
    ValueError. Rows of no frame are checked for the frame id only."""
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


@dataclass(frozen=True, eq=False)
class Frame:
    """The detections of one frame as columns, row i for the i-th detection:
    ids (m,) int64, boxes (m, 4) rows (x, y, l, h) and hist (m, n_bins)
    counts, all three read-only.

    The constructor copies the rows and checks them once, as arrays, by
    `check_rows`; a detection id beyond int64 is an InputError.
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
    def of(cls, detections: "Frame | list", frame_id: int, n_bins: int) -> "Frame":
        """`detections` as a frame of id `frame_id`: a frame is returned as
        it is once its frame id and, if it has rows, its bin count match;
        an empty list is the frame without detections."""
        if not isinstance(detections, Frame):
            if len(detections):
                raise TypeError(f"frame {frame_id}: detections must be a Frame or an empty "
                                f"list, got a {type(detections).__name__} of {len(detections)}")
            return cls(frame_id, [], (), np.zeros((0, n_bins)))
        frame = detections
        if frame.frame_id != frame_id:
            raise InputError(f"detection {frame.ids[0]} carries frame {frame.frame_id}, "
                             f"expected {frame_id}" if len(frame) else
                             f"empty frame {frame.frame_id} stepped as frame {frame_id}")
        if len(frame) and frame.n_bins != n_bins:
            raise HistogramShapeError(f"detection {frame.ids[0]} in frame {frame.frame_id} "
                                      f"has {frame.n_bins} histogram bins, expected {n_bins}")
        return frame

    @property
    def n_bins(self) -> int:
        return self.hist.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class Trajectories:
    """A set of trajectories as one table, a row per state, sorted by
    (id, frame) with no pair twice: ids and frames (n,) int64, boxes (n, 4)
    float64 rows (x, y, l, h) and matched (n,) bool, False where a track
    held its state while it waited; every ground-truth row is matched. The
    columns are read-only, and tables are equal when their columns are. A
    table has no length, iteration or truth value: code that takes it for
    a dict of objects fails at once rather than count rows as objects.
    """

    ids: np.ndarray
    frames: np.ndarray
    boxes: np.ndarray
    matched: np.ndarray

    def __post_init__(self):
        for column in vars(self).values():
            column.flags.writeable = False

    @classmethod
    def of_tracks(cls, tracks: list["Track"]) -> "Trajectories":
        """The table of the tracks' rows, the tracks given in id order: their
        columns end to end, with no sort."""
        empty = (np.zeros(0, dtype=np.int64), np.zeros((0, 4)), np.zeros(0, dtype=bool))
        frames, boxes, matched = map(np.concatenate, zip(
            empty, *((t.frames, t.boxes, t.matched) for t in tracks)))
        ids = np.array([t.track_id for t in tracks], dtype=np.int64)
        return cls(ids.repeat([len(t.frames) for t in tracks]), frames, boxes, matched)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectories):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def __bool__(self):
        raise TypeError("a trajectory table has no truth value: test len(table.ids)")


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
        if not is_real(self.w, 0.0, 1.0):
            raise ConfigError(f"w must be in [0,1], got {self.w}")
        if len(self.feature_weights) != 4 or not all(is_real(wi, 0.0)
                                                     for wi in self.feature_weights):
            raise ConfigError(f"feature_weights must be 4 finite non-negative reals: "
                              f"{self.feature_weights}")
        if not any(wi > 0 for wi in self.feature_weights):
            raise ConfigError("at least one feature weight must be positive")
        if not is_real(self.t1, 0.0, 1.0):
            raise ConfigError(f"t1 must be in [0,1], got {self.t1}")
        for name, t in (("t2", self.t2), ("t3", self.t3)):
            if not is_integer(t, 1):
                raise ConfigError(f"{name} must be a positive integer, got {t}")
        if not (is_real(self.t4) and self.t4 > 0):
            raise ConfigError(f"t4 must be finite and positive, got {self.t4}")
        if not is_real(self.t5, 0.0, 1.0):
            raise ConfigError(f"t5 must be in [0,1], got {self.t5}")
        if not is_integer(self.n_bins, 1, MAX_RAW_BINS):
            raise ConfigError(f"n_bins must be an integer in 1..{MAX_RAW_BINS}, got {self.n_bins}")
        if self.assignment_policy not in ("greedy_global", "per_track"):
            raise ConfigError(f"unknown assignment_policy {self.assignment_policy!r}")
        if not (is_real(self.eval_iou_threshold, hi=1.0) and self.eval_iou_threshold > 0):
            raise ConfigError(f"eval_iou_threshold must be in (0,1], got {self.eval_iou_threshold}")
        if self.eval_assignment not in ("greedy", "hungarian"):
            raise ConfigError(f"unknown eval_assignment {self.eval_assignment!r}")
        if self.motion_model not in ("constant_velocity", "static"):
            raise ConfigError(f"unknown motion_model {self.motion_model!r}")
        if not (is_real(self.measurement_noise) and self.measurement_noise > 0
                and is_real(self.process_noise_pos, 0.0) and is_real(self.process_noise_vel, 0.0)):
            raise ConfigError("noise variances must be finite and positive (measurement) / "
                              "non-negative (process)")
        return self


@dataclass(eq=False)
class Track:
    """A tracked object, as the owning engine reports it.

    Its history is three read-only columns in frame order, a row per frame
    from birth to the last processed frame: `frames` (n,) int64, `boxes`
    (n, 4) float64 rows (x, y, l, h) and `matched` (n,) bool, False where
    the track held its box while waiting. The birth frame, last state, end
    frame and span are read from the rows; `states` and `matched_frames`
    are built from them when asked for.

    The engine brings a track up to its last step when it is read
    (`TrackingEngine.tracks` and the methods that list tracks). A live
    track's filter, and the centers behind its d_max, are rows of the
    engine's store: `update_extent` and `_centers` are the scalar rule the
    store's extent columns are tested against, and stay empty there.
    """

    track_id: int
    frames: np.ndarray
    boxes: np.ndarray
    matched: np.ndarray
    last_histogram: np.ndarray  # (n_bins,) counts, read-only
    f_l: int  # frame of the last successful match
    n_r: int = 1  # number of matched frames
    t_w: int = 0  # cumulative waiting frames
    status: str = ACTIVE
    # spatial-extent bookkeeping: exact max pairwise center distance,
    # frozen once it crosses the cap the engine cares about (t4)
    _centers: list[tuple[float, float]] = field(default_factory=list)
    _d_max: float = 0.0

    def __post_init__(self):
        self._set(np.array(self.frames, dtype=np.int64), np.array(self.boxes, dtype=np.float64),
                  np.array(self.matched, dtype=bool))

    def append(self, frames, boxes, matched) -> None:
        """Rows after the last: each column is replaced by a copy that ends
        with them."""
        self._set(*map(np.concatenate, zip((self.frames, self.boxes, self.matched),
                                           (frames, boxes, matched))))

    def _set(self, frames: np.ndarray, boxes: np.ndarray, matched: np.ndarray) -> None:
        for column in (frames, boxes, matched):
            column.flags.writeable = False
        self.frames, self.boxes, self.matched = frames, boxes, matched

    @property
    def states(self) -> dict[int, ObjectState]:
        """{frame: state} of the rows, in frame order, built when asked for."""
        return dict(zip(self.frames.tolist(), ObjectState.rows(self.boxes)))

    @property
    def matched_frames(self) -> set[int]:
        """The frames of the matched rows, built when asked for."""
        return set(self.frames[self.matched].tolist())

    @property
    def d_max(self) -> float:
        """Maximum pairwise distance between trajectory center positions.

        Exact until it reaches the engine's spatial-noise threshold, after
        which it is frozen (every noise decision only compares against that
        threshold, and the value is monotone non-decreasing).
        """
        return self._d_max

    @property
    def birth_frame(self) -> int:
        return int(self.frames[0])

    @property
    def last_cs(self) -> ObjectState:
        """State of the last processed frame: its corrected state, or the
        one held while waiting."""
        return ObjectState(*self.boxes[-1].tolist())

    @property
    def end_frame(self) -> int | None:
        """Frame at which the lifecycle ended the track; None while live."""
        return None if self.status in (ACTIVE, WAITING) else int(self.frames[-1])

    @property
    def span(self) -> int:
        """Trajectory length in frames, waiting time included."""
        return int(self.frames[-1]) - self.birth_frame + 1

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
