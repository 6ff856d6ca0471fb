"""Per-frame tracking engine: predict, match, correct, spawn, sweep."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kalman, kernels, lifecycle
from .errors import InputError, SequencingError
from .types import (
    ACTIVE,
    WAITING,
    Detection,
    Track,
    TrackerConfig,
    diagonal_half,
)


@dataclass
class MatchResult:
    """Accepted (track, detection) pairs plus leftovers for one frame."""

    pairs: list[tuple[int, int, float]]  # (track_id, detection_id, score)
    unmatched_tracks: list[int]
    unmatched_detections: list[int]


@dataclass
class FrameReport:
    frame_id: int
    matches: list[tuple[int, int, float]] = field(default_factory=list)
    new_tracks: list[int] = field(default_factory=list)
    waiting: list[int] = field(default_factory=list)
    terminated: list[int] = field(default_factory=list)
    noise: list[int] = field(default_factory=list)


def match_frame(
    tracks: list[Track],
    detections: list[Detection],
    cfg: TrackerConfig,
    frame_id: int | None = None,
) -> MatchResult:
    """Score the (track, detection) pairs and resolve the assignment.

    greedy_global accepts pairs one-to-one by descending score (ties broken
    by lower track id then detection id; see `kernels.greedy_pairs`);
    per_track lets each track take its best candidate independently and may
    double-assign detections.
    """
    if detections:
        frames = {d.frame_id for d in detections}
        if len(frames) > 1:
            raise InputError(f"detections span multiple frames: {sorted(frames)}")
        if frame_id is None:
            frame_id = frames.pop()
        elif frames != {frame_id}:
            raise InputError(f"detections carry frame {frames.pop()}, expected {frame_id}")
    if frame_id is None:
        frame_id = 0

    if not tracks or not detections:
        return MatchResult([], [t.track_id for t in tracks], [d.detection_id for d in detections])

    # a track is scored at its prediction; its search radius scales with
    # the frames since its last match
    tboxes = kernels.boxes([t.prediction if t.prediction is not None else t.last_cs
                            for t in tracks])
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
    )


class TrackingEngine:
    """Stateful frame-by-frame tracker over a detection stream.

    `tracks` holds every track ever created, `_live` only the live ones;
    ids only grow, so both are in id order.
    """

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = (cfg or TrackerConfig()).validate()
        self.tracks: dict[int, Track] = {}
        self._live: dict[int, Track] = {}
        self.last_frame: int | None = None
        self._next_id = 1

    def live_tracks(self) -> list[Track]:
        """Every active or waiting track, in id order."""
        return list(self._live.values())

    def valid_tracks(self) -> list[Track]:
        """Every track not flagged as noise, in id order."""
        return [t for t in self.tracks.values() if t.status != "noise"]

    def step(self, frame_id: int, detections: list[Detection]) -> FrameReport:
        """Process one frame; frame ids must be strictly increasing.

        A frame rejected by these checks leaves the engine as it was.
        """
        if self.last_frame is not None and frame_id <= self.last_frame:
            raise SequencingError(
                f"frame {frame_id} not after last processed frame {self.last_frame}")
        seen_ids = set()
        for d in detections:
            if d.frame_id != frame_id:
                raise InputError(f"detection {d.detection_id} carries frame {d.frame_id}, "
                                 f"expected {frame_id}")
            if d.detection_id in seen_ids:
                raise InputError(f"duplicate detection_id {d.detection_id} in frame {frame_id}")
            seen_ids.add(d.detection_id)

        cfg = self.cfg
        report = FrameReport(frame_id=frame_id)
        live = self.live_tracks()
        # every prediction is computed before any is stored, so an overflow
        # leaves the engine as it was
        predictions = [kalman.predict(t.kalman, cfg) for t in live]
        for t, (ks, es) in zip(live, predictions):
            t.kalman, t.prediction = ks, es

        result = match_frame(live, detections, cfg, frame_id)
        det_by_id = {d.detection_id: d for d in detections}

        for tid, did, score in result.pairs:
            t = self.tracks[tid]
            det = det_by_id[did]
            t.kalman, cs = kalman.correct(t.kalman, t.prediction, det.state, t.last_cs, cfg.w,
                                          cfg.measurement_noise)
            t.states[frame_id] = cs
            t.last_cs = cs
            t.last_histogram = det.histogram
            t.f_l = frame_id
            t.n_r += 1
            t.status = ACTIVE
            t.matched_frames.add(frame_id)
            t.update_extent(cs.x, cs.y, cap=cfg.t4)
            report.matches.append((tid, did, score))

        for tid in result.unmatched_tracks:
            t = self.tracks[tid]
            # a waiting track holds its last corrected state
            t.states[frame_id] = t.last_cs
            t.t_w += 1
            t.status = WAITING
            report.waiting.append(tid)

        for did in result.unmatched_detections:
            det = det_by_id[did]
            t = Track(
                track_id=self._next_id,
                birth_frame=frame_id,
                states={frame_id: det.state},
                last_histogram=det.histogram,
                kalman=kalman.init_kalman(det.state, cfg),
                f_l=frame_id,
            )
            t.last_cs = det.state
            t.matched_frames.add(frame_id)
            t.update_extent(det.state.x, det.state.y, cap=cfg.t4)
            self.tracks[t.track_id] = self._live[t.track_id] = t
            self._next_id += 1
            report.new_tracks.append(t.track_id)

        life = lifecycle.sweep(list(self._live.values()), frame_id, cfg)
        for tid in life.terminated + life.noise:
            del self._live[tid]
        report.terminated = life.terminated
        report.noise = life.noise
        self.last_frame = frame_id
        return report

    def trajectories(self) -> dict[int, dict[int, "ObjectState"]]:
        """Per-frame states of every valid track (noise excluded)."""
        return {t.track_id: dict(t.states) for t in self.valid_tracks()}
