"""Per-frame tracking engine.

`match_frame` reads a frame: it validates the detections, predicts the
filter rows of the live tracks, scores the pairs and resolves the
assignment, changing nothing. `TrackingEngine.step` then writes it:
correct, hold, spawn, sweep.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kalman, kernels, lifecycle
from .errors import HistogramShapeError, InputError, SequencingError
from .types import (
    ACTIVE,
    WAITING,
    Detection,
    KalmanState,
    ObjectState,
    Track,
    TrackerConfig,
    diagonal_half,
)


@dataclass
class MatchResult:
    """Accepted (track, detection) pairs plus leftovers for one frame, and
    the prediction of the tracks' filter rows for it, none of them stored.

    Row i of `predicted` and `boxes` belongs to the i-th track given to
    `match_frame`.
    """

    pairs: list[tuple[int, int, float]]  # (track_id, detection_id, score)
    unmatched_tracks: list[int]
    unmatched_detections: list[int]
    predicted: KalmanState  # kalman.predict_rows of the rows given
    boxes: np.ndarray  # (n, 4) estimated boxes, l and h floored; the boxes scored


@dataclass
class FrameReport:
    frame_id: int
    matches: list[tuple[int, int, float]] = field(default_factory=list)
    new_tracks: list[int] = field(default_factory=list)
    waiting: list[int] = field(default_factory=list)
    terminated: list[int] = field(default_factory=list)
    noise: list[int] = field(default_factory=list)


def _check_frame(detections: list[Detection], frame_id: int | None, n_bins: int) -> int | None:
    """The frame id of `detections` (`frame_id` when given, else the first
    detection's), after rejecting a detection that carries another frame id,
    repeats a detection id or holds a histogram of other than n_bins bins."""
    if frame_id is None and detections:
        frame_id = detections[0].frame_id
    seen_ids = set()
    for d in detections:
        if d.frame_id != frame_id:
            raise InputError(f"detection {d.detection_id} carries frame {d.frame_id}, "
                             f"expected {frame_id}")
        if d.detection_id in seen_ids:
            raise InputError(f"duplicate detection_id {d.detection_id} in frame {frame_id}")
        if d.histogram.n != n_bins:
            raise HistogramShapeError(f"detection {d.detection_id} in frame {frame_id} has "
                                      f"{d.histogram.n} histogram bins, expected {n_bins}")
        seen_ids.add(d.detection_id)
    return frame_id


def match_frame(
    tracks: list[Track],
    rows: KalmanState,
    detections: list[Detection],
    cfg: TrackerConfig,
    frame_id: int | None = None,
) -> MatchResult:
    """Validate the frame, predict the filter rows, score the (track,
    detection) pairs and resolve the assignment, changing neither the
    tracks nor the rows.

    Row i of `rows` is the filter of tracks[i]. Each track is scored at its
    estimated box, the predicted row with l and h floored.

    greedy_global accepts pairs one-to-one by descending score (ties broken
    by lower track id then detection id; see `kernels.greedy_pairs`);
    per_track lets each track take its best candidate independently and may
    double-assign detections.
    """
    frame_id = _check_frame(detections, frame_id, cfg.n_bins)
    predicted, tboxes = kalman.predict_rows(rows, cfg)

    if not tracks or not detections:
        return MatchResult([], [t.track_id for t in tracks], [d.detection_id for d in detections],
                           predicted, tboxes)

    # a track's search radius scales with the frames since its last match
    treach = np.array([diagonal_half(t.last_cs) * max(1, frame_id - t.f_l) for t in tracks])
    thist = np.array([t.last_histogram.bins for t in tracks])
    dboxes = kernels.boxes([d.state for d in detections])
    dhist = np.array([d.histogram.bins for d in detections])
    scores = kernels.score_matrix(tboxes, treach, thist, dboxes, dhist, cfg.feature_weights)

    dids = [d.detection_id for d in detections]
    if cfg.assignment_policy == "per_track":
        # argmax over the columns in detection-id order, so a tie goes to
        # the lower detection id
        by_id = np.argsort(dids, kind="stable")
        best = by_id[np.argmax(scores[:, by_id], axis=1)]
        index_pairs = [(i, j) for i, j in enumerate(best.tolist()) if scores[i, j] >= cfg.t1]
    else:
        index_pairs = kernels.greedy_pairs(scores, [t.track_id for t in tracks], dids, cfg.t1)
    pairs = [(tracks[i].track_id, dids[j], float(scores[i, j])) for i, j in index_pairs]

    matched_t = {p[0] for p in pairs}
    matched_d = {p[1] for p in pairs}
    return MatchResult(
        pairs=pairs,
        unmatched_tracks=[t.track_id for t in tracks if t.track_id not in matched_t],
        unmatched_detections=[d.detection_id for d in detections if d.detection_id not in matched_d],
        predicted=predicted,
        boxes=tboxes,
    )


class TrackingEngine:
    """Stateful frame-by-frame tracker over a detection stream.

    `tracks` holds every track ever created, `_live` only the live ones;
    ids only grow, so both are in id order. `_rows` holds the filters of
    the live tracks, row i for the i-th track of `_live`.
    """

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = (cfg or TrackerConfig()).validate()
        self.tracks: dict[int, Track] = {}
        self._live: dict[int, Track] = {}
        self._rows = kalman.init_rows(np.empty((0, 4)), self.cfg)
        self.last_frame: int | None = None

    def live_tracks(self) -> list[Track]:
        """Every active or waiting track, in id order."""
        return list(self._live.values())

    def valid_tracks(self) -> list[Track]:
        """Every track not flagged as noise, in id order."""
        return [t for t in self.tracks.values() if t.status != "noise"]

    def step(self, frame_id: int, detections: list[Detection]) -> FrameReport:
        """Process one frame; frame ids must be strictly increasing.

        The filters of the matched tracks are corrected as one block of
        rows, and the states recorded are built from the corrected box
        rows. Everything that can reject the frame runs before the first
        write, so a rejected frame leaves the engine as it was. Newborn
        tracks append their rows, and the rows of the tracks the sweep
        ends are dropped, which keeps row i on the i-th live track.
        """
        if self.last_frame is not None and frame_id <= self.last_frame:
            raise SequencingError(
                f"frame {frame_id} not after last processed frame {self.last_frame}")
        cfg = self.cfg
        live = self.live_tracks()
        result = match_frame(live, self._rows, detections, cfg, frame_id)
        det_by_id = {d.detection_id: d for d in detections}
        row_of = {t.track_id: i for i, t in enumerate(live)}
        matched = np.array([row_of[tid] for tid, _, _ in result.pairs], dtype=np.intp)
        measured = kernels.boxes([det_by_id[did].state for _, did, _ in result.pairs])
        # a correction can overflow too, so the whole frame is computed first
        rows, cs_boxes = kalman.correct_rows(result.predicted, matched, measured,
                                             result.boxes[matched], cfg.w, cfg.measurement_noise)
        corrected = [ObjectState(*box) for box in cs_boxes.tolist()]
        spawned = [det_by_id[did] for did in result.unmatched_detections]
        if spawned:
            rows = kalman.join_rows(rows, kalman.init_rows(
                kernels.boxes([d.state for d in spawned]), cfg))

        for (tid, did, _), cs in zip(result.pairs, corrected):
            t = self._live[tid]
            t.states[frame_id] = cs
            t.last_histogram = det_by_id[did].histogram
            t.f_l = frame_id
            t.n_r += 1
            t.status = ACTIVE
            t.matched_frames.add(frame_id)
            t.update_extent(cs.x, cs.y, cap=cfg.t4)

        for tid in result.unmatched_tracks:
            t = self._live[tid]
            # a waiting track holds its last corrected state
            t.states[frame_id] = t.last_cs
            t.t_w += 1
            t.status = WAITING

        new_tracks = []
        for det in spawned:
            t = Track(
                track_id=len(self.tracks) + 1,
                birth_frame=frame_id,
                states={frame_id: det.state},
                last_histogram=det.histogram,
                f_l=frame_id,
                matched_frames={frame_id},
            )
            t.update_extent(det.state.x, det.state.y, cap=cfg.t4)
            self.tracks[t.track_id] = self._live[t.track_id] = t
            new_tracks.append(t.track_id)

        terminated, noise = lifecycle.sweep(list(self._live.values()), frame_id, cfg)
        if terminated or noise:
            ended = set(terminated + noise)
            rows = kalman.take_rows(rows, np.array([tid not in ended for tid in self._live]))
            for tid in terminated + noise:
                del self._live[tid]
        self._rows = rows
        self.last_frame = frame_id
        return FrameReport(frame_id, matches=result.pairs, new_tracks=new_tracks,
                           waiting=result.unmatched_tracks, terminated=terminated, noise=noise)

    def trajectories(self) -> dict[int, dict[int, ObjectState]]:
        """Per-frame states of every valid track (noise excluded)."""
        return {t.track_id: dict(t.states) for t in self.valid_tracks()}
