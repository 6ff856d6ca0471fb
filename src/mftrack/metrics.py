"""Trajectory evaluation against ground truth.

Three scores in [0, 1], higher is better:

  m1  tracking time     - fraction of each ground-truth object's lifetime
                          during which some track covers it
  m2  id persistence    - reciprocal of the number of distinct track ids a
                          ground-truth object is covered by
  m3  id confusion      - reciprocal of the number of distinct ground-truth
                          ids a track ever covers

m_bar is their plain average. Ground truth and tracks are associated per
frame by bounding-box IoU, greedy by default (Hungarian optional).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MeasurementError, MetricError
from .types import ObjectState

Trajectories = dict[int, dict[int, ObjectState]]


@dataclass(frozen=True)
class GroundTruthObject:
    gt_id: int
    states: dict[int, ObjectState]

    def __post_init__(self):
        if not self.states:
            raise ValueError(f"ground-truth object {self.gt_id} has no states")


@dataclass
class EvalReport:
    m1: float
    m2: float
    m3: float
    m_bar: float
    per_gt_coverage: dict[int, float] = field(default_factory=dict)
    per_gt_track_ids: dict[int, int] = field(default_factory=dict)
    per_track_gt_ids: dict[int, int] = field(default_factory=dict)
    fps: float | None = None


def iou(a: ObjectState, b: ObjectState) -> float:
    """Intersection over union of two center-format boxes."""
    ax1, ay1 = a.x - a.l / 2, a.y - a.h / 2
    ax2, ay2 = a.x + a.l / 2, a.y + a.h / 2
    bx1, by1 = b.x - b.l / 2, b.y - b.h / 2
    bx2, by2 = b.x + b.l / 2, b.y + b.h / 2
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def associate(
    gt_objects: list[GroundTruthObject],
    tracks: Trajectories,
    iou_threshold: float = 0.5,
    method: str = "greedy",
) -> dict[int, list[tuple[int, int]]]:
    """Per-frame one-to-one (gt_id, track_id) correspondences by IoU."""
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must be in (0,1], got {iou_threshold}")
    frames: set[int] = set()
    for g in gt_objects:
        frames.update(g.states)
    correspondence: dict[int, list[tuple[int, int]]] = {}
    track_ids = sorted(tracks)
    for f in sorted(frames):
        gts = [(g.gt_id, g.states[f]) for g in gt_objects if f in g.states]
        trs = [(tid, tracks[tid][f]) for tid in track_ids if f in tracks[tid]]
        if not gts or not trs:
            correspondence[f] = []
            continue
        mat = np.array([[iou(gs, ts) for _, ts in trs] for _, gs in gts])
        pairs: list[tuple[int, int]] = []
        if method == "hungarian":
            from scipy.optimize import linear_sum_assignment

            rows, cols = linear_sum_assignment(-mat)
            for i, j in zip(rows, cols):
                if mat[i, j] >= iou_threshold:
                    pairs.append((gts[i][0], trs[j][0]))
        elif method == "greedy":
            cand = sorted(
                ((-mat[i, j], gts[i][0], trs[j][0], i, j)
                 for i in range(len(gts)) for j in range(len(trs))
                 if mat[i, j] >= iou_threshold))
            used_g: set[int] = set()
            used_t: set[int] = set()
            for _, gid, tid, i, j in cand:
                if i in used_g or j in used_t:
                    continue
                used_g.add(i)
                used_t.add(j)
                pairs.append((gid, tid))
        else:
            raise ValueError(f"unknown association method {method!r}")
        correspondence[f] = sorted(pairs)
    return correspondence


def _tally(correspondence: dict[int, list[tuple[int, int]]], gt_objects: list[GroundTruthObject],
           ) -> tuple[dict[int, int], dict[int, set[int]], dict[int, set[int]]]:
    """Count a correspondence once: per gt id (in gt_objects order) the
    frames it is matched in and the track ids covering it; per track id
    the gt ids it covers."""
    frames = {g.gt_id: 0 for g in gt_objects}
    gt_tracks: dict[int, set[int]] = {g.gt_id: set() for g in gt_objects}
    track_gts: dict[int, set[int]] = {}
    for pairs in correspondence.values():
        for gid, tid in pairs:
            frames[gid] = frames.get(gid, 0) + 1
            gt_tracks.setdefault(gid, set()).add(tid)
            track_gts.setdefault(tid, set()).add(gid)
    return frames, gt_tracks, track_gts


def _m1(frames: dict[int, int], gt_objects: list[GroundTruthObject]) -> float:
    if not gt_objects:
        raise MetricError("m1 undefined without ground-truth objects")
    return float(np.mean([frames[g.gt_id] / len(g.states) for g in gt_objects]))


def _mean_reciprocal(id_sets) -> float:
    """Mean of 1/len over the non-empty sets; 0.0 if there are none."""
    vals = [1.0 / len(s) for s in id_sets if s]
    return float(np.mean(vals)) if vals else 0.0


def m1(correspondence: dict[int, list[tuple[int, int]]],
       gt_objects: list[GroundTruthObject]) -> float:
    """Mean over ground-truth objects of their matched-frame fraction."""
    return _m1(_tally(correspondence, gt_objects)[0], gt_objects)


def m2(correspondence: dict[int, list[tuple[int, int]]],
       gt_objects: list[GroundTruthObject]) -> float:
    """Mean reciprocal track-id count per ground-truth object with a match.

    Objects never matched are excluded (their reciprocal is undefined);
    returns 0.0 if nothing matched at all.
    """
    gt_tracks = _tally(correspondence, gt_objects)[1]
    return _mean_reciprocal(gt_tracks[g.gt_id] for g in gt_objects)


def m3(correspondence: dict[int, list[tuple[int, int]]]) -> float:
    """Mean reciprocal ground-truth-id count per track with a match."""
    return _mean_reciprocal(_tally(correspondence, [])[2].values())


def evaluate(
    gt_objects: list[GroundTruthObject],
    tracks: Trajectories,
    iou_threshold: float = 0.5,
    method: str = "greedy",
    fps: float | None = None,
) -> EvalReport:
    frames, gt_tracks, track_gts = _tally(
        associate(gt_objects, tracks, iou_threshold, method), gt_objects)
    v1 = _m1(frames, gt_objects)
    v2 = _mean_reciprocal(gt_tracks[g.gt_id] for g in gt_objects)
    v3 = _mean_reciprocal(track_gts.values())
    return EvalReport(
        m1=v1, m2=v2, m3=v3, m_bar=(v1 + v2 + v3) / 3.0,
        per_gt_coverage={g.gt_id: frames[g.gt_id] / len(g.states) for g in gt_objects},
        per_gt_track_ids={g.gt_id: len(gt_tracks[g.gt_id]) for g in gt_objects},
        per_track_gt_ids={tid: len(s) for tid, s in track_gts.items()},
        fps=fps,
    )


def throughput(frame_count: int, elapsed_seconds: float) -> float:
    """Frames per second over the tracking-only portion of a run."""
    if elapsed_seconds <= 0:
        raise MeasurementError(f"elapsed time must be positive, got {elapsed_seconds}")
    return frame_count / elapsed_seconds
