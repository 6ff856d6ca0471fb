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

from . import kernels
from .errors import MeasurementError, MetricError
from .types import ObjectState

# {id: {frame: state}}: the tracks, and the ground truth keyed by gt id
Trajectories = dict[int, dict[int, ObjectState]]


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
    """Intersection over union of two center-format boxes.

    The scalar reference for the IoU matrices `associate` builds.
    """
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


def _iou_matrix(gs: list[ObjectState], ts: list[ObjectState]) -> np.ndarray:
    """`iou` of every pair (gs[i], ts[j]), with the same float operations."""
    b = kernels.boxes(gs + ts)
    x1, y1 = b[:, 0] - b[:, 2] / 2, b[:, 1] - b[:, 3] / 2
    x2, y2 = b[:, 0] + b[:, 2] / 2, b[:, 1] + b[:, 3] / 2
    area = b[:, 2] * b[:, 3]
    n = len(gs)
    iw = np.minimum(x2[:n, None], x2[None, n:]) - np.maximum(x1[:n, None], x1[None, n:])
    ih = np.minimum(y2[:n, None], y2[None, n:]) - np.maximum(y1[:n, None], y1[None, n:])
    out = np.zeros(iw.shape)
    i, j = np.nonzero((iw > 0) & (ih > 0))
    inter = iw[i, j] * ih[i, j]
    out[i, j] = inter / (area[i] + area[n + j] - inter)
    return out


def _present(table: Trajectories) -> dict[int, list[int]]:
    """{frame: the ids with a state there, in table order}."""
    at: dict[int, list[int]] = {}
    for oid, states in table.items():
        for f in states:
            at.setdefault(f, []).append(oid)
    return at


def associate(
    gt: Trajectories,
    tracks: Trajectories,
    iou_threshold: float = 0.5,
    method: str = "greedy",
) -> dict[int, list[tuple[int, int]]]:
    """Per-frame one-to-one (gt_id, track_id) correspondences by IoU.

    greedy takes pairs by descending IoU, ties broken by lower gt id then
    lower track id; hungarian maximises the summed IoU, gt ids in table
    order and track ids in id order.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must be in (0,1], got {iou_threshold}")
    if method not in ("greedy", "hungarian"):
        raise ValueError(f"unknown association method {method!r}")
    gts_at, tids_at = _present(gt), _present(dict(sorted(tracks.items())))
    correspondence: dict[int, list[tuple[int, int]]] = {}
    for f in sorted(gts_at):
        gids, tids = gts_at[f], tids_at.get(f)
        if not tids:
            correspondence[f] = []
            continue
        mat = _iou_matrix([gt[gid][f] for gid in gids], [tracks[tid][f] for tid in tids])
        if method == "hungarian":
            from scipy.optimize import linear_sum_assignment

            rows, cols = linear_sum_assignment(-mat)
            index_pairs = [(i, j) for i, j in zip(rows, cols) if mat[i, j] >= iou_threshold]
        else:
            index_pairs = kernels.greedy_pairs(mat, gids, tids, iou_threshold)
        correspondence[f] = sorted((gids[i], tids[j]) for i, j in index_pairs)
    return correspondence


def _tally(correspondence: dict[int, list[tuple[int, int]]], gt: Trajectories,
           ) -> tuple[dict[int, int], dict[int, set[int]], dict[int, set[int]]]:
    """Count a correspondence once: per gt id (in gt order) the frames it
    is matched in and the track ids covering it; per track id the gt ids
    it covers."""
    frames = dict.fromkeys(gt, 0)
    gt_tracks: dict[int, set[int]] = {gid: set() for gid in gt}
    track_gts: dict[int, set[int]] = {}
    for pairs in correspondence.values():
        for gid, tid in pairs:
            frames[gid] = frames.get(gid, 0) + 1
            gt_tracks.setdefault(gid, set()).add(tid)
            track_gts.setdefault(tid, set()).add(gid)
    return frames, gt_tracks, track_gts


def _m1(frames: dict[int, int], gt: Trajectories) -> float:
    if not gt:
        raise MetricError("m1 undefined without ground-truth objects")
    empty = [gid for gid, states in gt.items() if not states]
    if empty:
        raise MetricError(f"m1 undefined for ground-truth objects without states: {empty}")
    return float(np.mean([frames[gid] / len(states) for gid, states in gt.items()]))


def _mean_reciprocal(id_sets) -> float:
    """Mean of 1/len over the non-empty sets; 0.0 if there are none."""
    vals = [1.0 / len(s) for s in id_sets if s]
    return float(np.mean(vals)) if vals else 0.0


def m1(correspondence: dict[int, list[tuple[int, int]]], gt: Trajectories) -> float:
    """Mean over ground-truth objects of their matched-frame fraction."""
    return _m1(_tally(correspondence, gt)[0], gt)


def _m2(gt_tracks: dict[int, set[int]], gt: Trajectories) -> float:
    return _mean_reciprocal(gt_tracks[gid] for gid in gt)


def _m3(track_gts: dict[int, set[int]]) -> float:
    return _mean_reciprocal(track_gts.values())


def m2(correspondence: dict[int, list[tuple[int, int]]], gt: Trajectories) -> float:
    """Mean reciprocal track-id count per ground-truth object with a match.

    Objects never matched are excluded (their reciprocal is undefined);
    returns 0.0 if nothing matched at all.
    """
    return _m2(_tally(correspondence, gt)[1], gt)


def m3(correspondence: dict[int, list[tuple[int, int]]]) -> float:
    """Mean reciprocal ground-truth-id count per track with a match."""
    return _m3(_tally(correspondence, {})[2])


def evaluate(
    gt: Trajectories,
    tracks: Trajectories,
    iou_threshold: float = 0.5,
    method: str = "greedy",
    fps: float | None = None,
) -> EvalReport:
    frames, gt_tracks, track_gts = _tally(
        associate(gt, tracks, iou_threshold, method), gt)
    v1, v2, v3 = _m1(frames, gt), _m2(gt_tracks, gt), _m3(track_gts)
    return EvalReport(
        m1=v1, m2=v2, m3=v3, m_bar=(v1 + v2 + v3) / 3.0,
        per_gt_coverage={gid: frames[gid] / len(states) for gid, states in gt.items()},
        per_gt_track_ids={gid: len(gt_tracks[gid]) for gid in gt},
        per_track_gt_ids={tid: len(s) for tid, s in track_gts.items()},
        fps=fps,
    )


def throughput(frame_count: int, elapsed_seconds: float) -> float:
    """Frames per second over the tracking-only portion of a run."""
    if elapsed_seconds <= 0:
        raise MeasurementError(f"elapsed time must be positive, got {elapsed_seconds}")
    return frame_count / elapsed_seconds
