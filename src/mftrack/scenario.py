"""Synthetic scenario generation: ground truth plus perturbed detections.

This is the verification oracle for the engine. Every scenario is a pure
function of its spec: all randomness comes from numpy's default_rng
(PCG64) seeded with spec.seed, and nothing else. Documented so that runs
are reproducible across machines.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InputError
from .types import (MAX_RAW_BINS, Frame, TrackerConfig, Trajectories, check_boxes, is_integer,
                    is_real)

CLUTTER = -1  # provenance label for clutter detections


@dataclass(frozen=True)
class MotionScript:
    """Piecewise-linear motion: waypoints are (frame, x, y, l, h).

    The object exists from the first to the last waypoint frame; states
    in between are linearly interpolated. That span must reach into the
    stream's frames 0..duration-1. Each waypoint is 5 finite numbers with
    l, h > 0 and l / h and h / l finite, the largest l times the largest h
    is finite, and the waypoint frames strictly increase. hist_peak, an
    integer bin in 0..n_bins-1, places the object's base color histogram bump;
    hist_width, finite and > 0 with (n_bins / hist_width)**2 finite, is
    its spread. No value is converted: true, 5.9 or "7" is no hist_peak.
    """

    waypoints: tuple[tuple[float, ...], ...]
    hist_peak: int = 0
    hist_width: float = 4.0

    def frame_range(self) -> tuple[int, int]:
        # floored, not truncated: a last waypoint at frame -0.5 ends before frame 0
        return int(self.waypoints[0][0]), math.floor(self.waypoints[-1][0])

    def boxes_at(self, frames: np.ndarray) -> np.ndarray:
        """The (x, y, l, h) rows at frames, each from the first to the last
        waypoint frame, unchecked: the first waypoint's box up to its frame,
        after it the interpolation along the first segment that ends at or
        after the frame. The waypoints are taken as float64 first."""
        wps = np.array(self.waypoints, dtype=np.float64)
        if len(wps) == 1:
            return wps[[0] * len(frames), 1:]
        end = np.clip(np.searchsorted(wps[:, 0], frames), 1, len(wps) - 1)
        w0, w1 = wps[end - 1], wps[end]
        with np.errstate(over="ignore", invalid="ignore"):  # check_boxes judges the boxes
            a = (frames - w0[:, 0]) / (w1[:, 0] - w0[:, 0])
            boxes = w0[:, 1:] + a[:, None] * (w1[:, 1:] - w0[:, 1:])
        boxes[frames <= wps[0, 0]] = wps[0, 1:]
        return boxes


@dataclass(frozen=True)
class ClutterBlob:
    """A short-lived near-stationary false detection source.

    Alive in frames start_frame .. start_frame + lifetime - 1 (clipped to
    the stream): start_frame is any integer, lifetime an integer >= 0.
    x and y are finite, size (its box side) is > 0 with size * size
    finite, and hist_peak is an integer bin in 0..n_bins-1.
    """

    start_frame: int
    lifetime: int
    x: float
    y: float
    size: float = 8.0
    hist_peak: int = 0


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything a scenario is made from; `validate` enforces the rules.

    seed is an integer >= 0 and duration an integer >= 1 (frames
    0..duration-1). n_bins is an integer in 1..768. drop_probability is
    in [0, 1]; the jitter sigmas, histogram_noise and clutter_rate are
    finite and >= 0. clutter_lifetime (the longest random blob life) is
    an integer >= 1, clutter_extent is finite and > 0, and arena is 2
    finite positive sizes. A burst_drops entry is 3 integers (object
    index of an existing object, start frame, length >= 0). Integers and
    reals are checked by `types.is_integer`/`is_real`; a bool is neither.
    """

    seed: int = 0
    duration: int = 100
    objects: tuple[MotionScript, ...] = ()
    n_bins: int = 96
    drop_probability: float = 0.0
    # explicit detection gaps: (object_index, start_frame, length)
    burst_drops: tuple[tuple[int, int, int], ...] = ()
    position_jitter_sigma: float = 0.0
    size_jitter_sigma: float = 0.0
    histogram_noise: float = 0.0
    # random clutter: expected concurrent clutter detections per frame
    clutter_rate: float = 0.0
    clutter_lifetime: int = 10
    clutter_extent: float = 3.0
    # explicit clutter blobs, in addition to the random ones
    clutter_blobs: tuple[ClutterBlob, ...] = ()
    arena: tuple[float, float] = (640.0, 480.0)

    def validate(self) -> "ScenarioSpec":
        if not is_integer(self.duration, 1):
            raise InputError(f"duration must be an integer >= 1, got {self.duration}")
        if not is_integer(self.n_bins, 1, MAX_RAW_BINS):
            raise InputError(f"n_bins must be an integer in 1..{MAX_RAW_BINS}, got {self.n_bins}")
        if not is_real(self.drop_probability, 0.0, 1.0):
            raise InputError(f"drop_probability must be in [0,1], got {self.drop_probability}")
        for name in ("position_jitter_sigma", "size_jitter_sigma", "histogram_noise",
                     "clutter_rate"):
            if not is_real(getattr(self, name), 0.0):
                raise InputError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)}")
        if not is_integer(self.seed, 0):
            raise InputError(f"seed must be an integer >= 0, got {self.seed}")
        if not is_integer(self.clutter_lifetime, 1):
            raise InputError(f"clutter_lifetime must be an integer >= 1, got {self.clutter_lifetime}")
        if not (is_real(self.clutter_extent) and self.clutter_extent > 0):
            raise InputError(f"clutter_extent must be finite and positive, got {self.clutter_extent}")
        if len(self.arena) != 2 or not all(is_real(side) and side > 0 for side in self.arena):
            raise InputError(f"arena must be 2 finite positive sizes, got {list(self.arena)}")
        for k, script in enumerate(self.objects):
            if not script.waypoints:
                raise InputError(f"object {k} has no waypoints")
            for wp in script.waypoints:
                if not _is_box_row(wp):
                    raise InputError(f"object {k}: waypoint {list(wp)} is not 5 finite numbers "
                                     "(frame, x, y, l, h)")
                try:  # an interpolated l / h lies between two waypoints', l and h being linear
                    check_boxes(np.array([wp[1:]], dtype=np.float64))
                except ValueError as e:
                    raise InputError(f"object {k}: waypoint {list(wp)}: {e}") from None
            frames = [wp[0] for wp in script.waypoints]
            if any(a >= b for a, b in zip(frames, frames[1:])):
                raise InputError(f"object {k}: waypoint frames {frames} do not strictly increase")
            # generate gives an object its frames f0..f1 that lie in the stream
            f0, f1 = script.frame_range()
            if f1 < 0 or f0 >= self.duration:
                raise InputError(f"object {k}: waypoint frames {frames} never reach into "
                                 f"the stream's frames 0..{self.duration - 1}")
            if not is_integer(script.hist_peak, 0, self.n_bins - 1):
                raise InputError(f"object {k}: hist_peak must be an integer in 0..{self.n_bins - 1}, "
                                 f"got {script.hist_peak}")
            # a detection's box is the waypoints' interpolation plus jitter,
            # and its histogram scales with l * h times the histogram noise
            if not _jittered_box_fits(script, self):
                raise InputError(f"object {k}: box or histogram overflows: the largest "
                                 f"x, y, l * h or histogram count, jitter and histogram "
                                 f"noise included, is not finite")
            # _unit_histogram squares (bin - peak) / hist_width, |bin - peak| < n_bins
            width = script.hist_width
            if not (is_real(width) and width > 0
                    and is_real(self.n_bins / width * (self.n_bins / width))):
                raise InputError(f"object {k}: hist_width must be finite and positive, with "
                                 f"(n_bins / hist_width) ** 2 finite, got {script.hist_width}")
        for k, blob in enumerate(self.clutter_blobs):
            if not (is_integer(blob.start_frame) and is_integer(blob.lifetime, 0)
                    and is_real(blob.x) and is_real(blob.y) and is_real(blob.size)
                    and blob.size > 0 and is_real(blob.size * blob.size)
                    and is_integer(blob.hist_peak, 0, self.n_bins - 1)):
                raise InputError(f"clutter blob {k}: {blob} needs integer start_frame and "
                                 "lifetime >= 0, finite x and y, size > 0 with size * size "
                                 f"finite and an integer hist_peak in 0..{self.n_bins - 1}")
        for entry in self.burst_drops:
            if not (len(entry) == 3 and is_integer(entry[0], 0, len(self.objects) - 1)
                    and is_integer(entry[1]) and is_integer(entry[2], 0)):
                raise InputError(f"burst_drops entry {list(entry)} is not 3 integers "
                                 "(object index, start frame, length >= 0) naming an existing object")
        return self


# bound on a standard normal draw, in sigmas, used to bound the jitter;
# numpy's generator draws within about 14
_NORMAL_BOUND = 64.0


def _jittered_box_fits(script: MotionScript, spec: ScenarioSpec) -> bool:
    """True when every detection of script stays finite: its center and
    l and h (interpolated from the waypoints, which bound them, then
    jittered) and its histogram counts (l * h, times the noise factor)."""
    pos = _NORMAL_BOUND * float(spec.position_jitter_sigma)
    size = _NORMAL_BOUND * float(spec.size_jitter_sigma)
    noise = 1.0 + _NORMAL_BOUND * float(spec.histogram_noise)
    wps = script.waypoints
    # an interpolated x lies between two waypoints' x and steps by their difference
    x = 2.0 * max(abs(float(wp[1])) for wp in wps) + pos
    y = 2.0 * max(abs(float(wp[2])) for wp in wps) + pos
    l = max(float(wp[3]) for wp in wps) + size
    h = max(float(wp[4]) for wp in wps) + size
    return all(map(math.isfinite, (x, y, l * h * noise)))


def _is_box_row(row) -> bool:
    """True when row is (frame, x, y, l, h) as JSON gives it: 5 finite
    numbers, none a bool. Its box is `check_boxes`' to judge."""
    return len(row) == 5 and all(map(is_real, row))


@dataclass
class ScenarioResult:
    gt: Trajectories  # ids are object indices, frames inside the stream
    detections_by_frame: dict[int, Frame]  # every frame 0..duration-1, empty ones too
    # (frame_id, detection_id) -> gt_id, or CLUTTER
    provenance: dict[tuple[int, int], int]


def _unit_histogram(n_bins: int, peak: int, width: float) -> np.ndarray:
    """Gaussian bump over the bins, normalized to sum 1."""
    k = np.arange(n_bins, dtype=np.float64)
    bump = np.exp(-0.5 * ((k - peak) / width) ** 2)
    return bump / bump.sum()


def generate(spec: ScenarioSpec) -> ScenarioResult:
    """Ground truth plus perturbed detections, deterministic in the seed.

    Each frame draws for its objects, then its live blobs, both in list
    order, into one checked `Frame`; a detection's id is its row.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)

    # each object's frames in the stream and their boxes, one block each,
    # after empty blocks that give the ground truth its columns' shapes
    frames_of, boxes_of = [np.zeros(0, dtype=np.int64)], [np.zeros((0, 4))]
    for gid, script in enumerate(spec.objects):
        f0, f1 = script.frame_range()
        in_stream = np.arange(max(f0, 0), min(f1 + 1, spec.duration), dtype=np.int64)
        block = script.boxes_at(in_stream)
        try:  # valid waypoints can still interpolate to an invalid box
            check_boxes(block)
        except ValueError:  # the first bad frame, checked alone, names the fault
            for f, row in zip(in_stream.tolist(), block):
                try:
                    check_boxes(row[None])
                except ValueError as e:
                    raise InputError(f"object {gid} at frame {f}: {e}") from None
        frames_of.append(in_stream)
        boxes_of.append(block)
    # per object, its first frame and its box rows as the Python floats the jitter adds to
    by_object = [(int(f[0]), b.tolist()) for f, b in zip(frames_of[1:], boxes_of[1:])]

    gaps = {(obj_idx, f) for obj_idx, start, length in spec.burst_drops
            for f in range(start, start + length)}

    # random clutter: spawn so the steady-state blob count ~ clutter_rate
    blobs = list(spec.clutter_blobs)
    if spec.clutter_rate > 0:
        mean_life = (spec.clutter_lifetime + 1) / 2.0
        spawn_rate = spec.clutter_rate / mean_life
        for f in range(spec.duration):
            for _ in range(rng.poisson(spawn_rate)):
                blobs.append(ClutterBlob(
                    start_frame=f,
                    lifetime=int(rng.integers(1, spec.clutter_lifetime + 1)),
                    x=float(rng.uniform(0, spec.arena[0])),
                    y=float(rng.uniform(0, spec.arena[1])),
                    size=float(rng.uniform(6.0, 12.0)),
                    hist_peak=int(rng.integers(0, spec.n_bins)),
                ))

    # computed once per source: an object's histogram scales with its
    # jittered box, a blob's box and histogram never change
    units = [_unit_histogram(spec.n_bins, s.hist_peak, s.hist_width) for s in spec.objects]
    blob_hists = [_unit_histogram(spec.n_bins, b.hist_peak, 2.0) * (b.size * b.size) for b in blobs]
    alive_at: list[list[int]] = [[] for _ in range(spec.duration)]
    for k, blob in enumerate(blobs):
        for f in range(max(blob.start_frame, 0), min(blob.start_frame + blob.lifetime, spec.duration)):
            alive_at[f].append(k)

    def jitter(sigma: float) -> float:
        return rng.normal(0, sigma) if sigma else 0.0

    frames: dict[int, Frame] = {}
    provenance: dict[tuple[int, int], int] = {}
    for f in range(spec.duration):
        boxes, hists = [], []
        for gid, (first, rows) in enumerate(by_object):
            if not 0 <= f - first < len(rows) or (gid, f) in gaps:
                continue
            if spec.drop_probability > 0 and rng.random() < spec.drop_probability:
                continue
            x, y, l, h = rows[f - first]
            x += jitter(spec.position_jitter_sigma)
            y += jitter(spec.position_jitter_sigma)
            l = max(l + jitter(spec.size_jitter_sigma), 1.0)
            h = max(h + jitter(spec.size_jitter_sigma), 1.0)
            hist = units[gid] * (l * h)
            if spec.histogram_noise > 0:
                hist = np.clip(hist * (1.0 + spec.histogram_noise * rng.normal(size=hist.size)), 0.0, None)
            provenance[(f, len(boxes))] = gid
            boxes.append((x, y, l, h))
            hists.append(hist)

        for k in alive_at[f]:
            blob = blobs[k]
            # position wobbles inside a disc of diameter clutter_extent,
            # so pairwise spread never exceeds clutter_extent
            r = spec.clutter_extent / 2.0 * float(np.sqrt(rng.uniform()))
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            provenance[(f, len(boxes))] = CLUTTER
            boxes.append((blob.x + r * float(np.cos(theta)), blob.y + r * float(np.sin(theta)),
                          blob.size, blob.size))
            hists.append(blob_hists[k])
        frames[f] = Frame(f, np.arange(len(boxes)), boxes, hists or np.zeros((0, spec.n_bins)))

    counts = [len(f) for f in frames_of[1:]]
    gt = Trajectories(np.arange(len(counts), dtype=np.int64).repeat(counts),
                      np.concatenate(frames_of), np.concatenate(boxes_of),
                      np.ones(sum(counts), dtype=bool))
    return ScenarioResult(gt=gt, detections_by_frame=frames, provenance=provenance)


def brute_force_tracks(result: ScenarioResult, cfg: TrackerConfig) -> list[tuple[int, list[int]]]:
    """Reference trajectory fragments from ground-truth identity labels.

    Uses the simulator's provenance to assign each detection to its true
    object, then splits each object's detection timeline into fragments
    wherever the termination rule would force the engine to give up
    (gap > min(matched-so-far, T2)). Returns (gt_id, matched frames)
    fragments. Guarded to desk-scale instances.
    """
    by_object: dict[int, list[int]] = {gid: [] for gid in result.gt.ids.tolist()}
    n_objects = len(by_object)
    n_frames = len(result.detections_by_frame)
    if n_objects > 5 or n_frames > 200:
        raise InputError(
            f"brute-force oracle limited to 5 objects / 200 frames, got {n_objects} / {n_frames}")

    for (f, did), gid in sorted(result.provenance.items()):
        if gid != CLUTTER:
            by_object[gid].append(f)

    fragments: list[tuple[int, list[int]]] = []
    for gid, frames in by_object.items():
        frames = sorted(set(frames))
        if not frames:
            continue
        current = [frames[0]]
        for f in frames[1:]:
            gap = f - current[-1] - 1
            if gap > min(len(current), cfg.t2):
                fragments.append((gid, current))
                current = [f]
            else:
                current.append(f)
        fragments.append((gid, current))
    return fragments


# -- canned scenarios ---------------------------------------------------------

def lanes_scenario(
    n_objects: int = 5,
    duration: int = 500,
    seed: int = 1,
    speed: float = 1.0,
    lane_gap: float = 80.0,
    box: tuple[float, float] = (24.0, 48.0),
    **overrides,
) -> ScenarioSpec:
    """Objects moving on parallel horizontal lanes, well separated."""
    if n_objects < 0:
        raise InputError(f"the number of objects must be non-negative, got {n_objects}")
    l, h = box
    objects = []
    for i in range(n_objects):
        y = 60.0 + i * lane_gap
        x0 = 30.0 + 10.0 * i
        start, end = (0, x0, y, l, h), (duration - 1, x0 + speed * (duration - 1), y, l, h)
        objects.append(MotionScript(
            waypoints=(start, end) if duration > 1 else (start,),
            hist_peak=(5 + 17 * i) % overrides.get("n_bins", 96),
        ))
    return ScenarioSpec(seed=seed, duration=duration, objects=tuple(objects),
                        arena=(max(700.0, 60.0 + speed * duration),
                               max(480.0, 120.0 + n_objects * lane_gap)),
                        **overrides)


def bench_scenario(frames: int = 5000, objects: int = 5, clutter: float = 5.0,
                   seed: int = 7) -> ScenarioSpec:
    return lanes_scenario(
        n_objects=objects, duration=frames, seed=seed, speed=0.8,
        clutter_rate=clutter, clutter_lifetime=10, clutter_extent=3.0,
        position_jitter_sigma=0.5, histogram_noise=0.05,
    )


# -- JSON (de)serialization for the CLI --------------------------------------

def spec_to_json(spec: ScenarioSpec) -> str:
    return json.dumps(asdict(spec), indent=2)


def spec_from_json(text: str) -> ScenarioSpec:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid scenario JSON: {e}") from e
    if not isinstance(raw, dict):
        raise InputError("scenario JSON must be an object")
    try:
        # each object as it is written: validate alone judges its values
        objects = tuple(MotionScript(**{**o, "waypoints": tuple(map(tuple, o["waypoints"]))})
                        for o in raw.pop("objects", []))
        blobs = tuple(ClutterBlob(**b) for b in raw.pop("clutter_blobs", []))
        burst = tuple(tuple(b) for b in raw.pop("burst_drops", []))
        arena = tuple(raw.pop("arena", (640.0, 480.0)))
        return ScenarioSpec(objects=objects, clutter_blobs=blobs,
                            burst_drops=burst, arena=arena, **raw).validate()
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InputError(f"invalid scenario spec: {e}") from e
