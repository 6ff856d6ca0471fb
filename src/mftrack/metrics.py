"""Trajectory evaluation against ground truth.

Three scores in [0, 1], higher is better:

  m1  tracking time     - fraction of each ground-truth object's lifetime
                          during which some track covers it
  m2  id persistence    - reciprocal of the number of distinct track ids a
                          ground-truth object is covered by
  m3  id confusion      - reciprocal of the number of distinct ground-truth
                          ids a track ever covers

m_bar is their plain average. Ground truth and tracks are each a
`types.Trajectories` table, and are associated per frame by bounding-box
IoU, greedy by default (Hungarian optional).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import MeasurementError, MetricError
from .types import ObjectState, Trajectories


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


def _edges(boxes: np.ndarray) -> np.ndarray:
    """The rows x1, y1, x2, y2 and area of box rows (x, y, l, h), with
    `iou`'s float operations, each written straight into one (5, n) block."""
    x, y, l, h = boxes.T
    out = np.empty((5, len(boxes)))
    np.subtract(x, l / 2, out=out[0])
    np.subtract(y, h / 2, out=out[1])
    np.add(x, l / 2, out=out[2])
    np.add(y, h / 2, out=out[3])
    np.multiply(l, h, out=out[4])
    return out


def _edge_iou(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """`iou` of every pair (g[:, i], t[:, j]) of _edges columns."""
    (gx1, gy1, gx2, gy2, g_area), (tx1, ty1, tx2, ty2, t_area) = g, t
    iw = np.minimum(gx2[:, None], tx2) - np.maximum(gx1[:, None], tx1)
    ih = np.minimum(gy2[:, None], ty2) - np.maximum(gy1[:, None], ty1)
    out = np.zeros(iw.shape)
    i, j = np.nonzero((iw > 0) & (ih > 0))
    inter = iw[i, j] * ih[i, j]
    out[i, j] = inter / (g_area[i] + t_area[j] - inter)
    return out


def _runs(values: np.ndarray) -> list[int]:
    """Where each run of equal values starts, then the length of values."""
    if not len(values):
        return [0]
    return [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist(), len(values)]


def _by_frame(side: Trajectories) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frames, ids and _edges of the rows of `side` in frame order, its
    (id, frame) order kept within a frame."""
    order = np.argsort(side.frames, kind="stable")
    edges = _edges(side.boxes)
    # sorted a row at a time: a frame-ordered copy of the boxes or of the
    # edges beside them would raise the peak memory of an evaluation
    for row in edges:
        row[:] = row[order]
    return side.frames[order], side.ids[order], edges


def associate(
    gt: Trajectories,
    tracks: Trajectories,
    iou_threshold: float = 0.5,
    method: str = "greedy",
) -> dict[int, list[tuple[int, int]]]:
    """Per-frame one-to-one (gt_id, track_id) correspondences by IoU, for
    every frame of the ground truth.

    greedy takes pairs by descending IoU, ties broken by lower gt id then
    lower track id; hungarian maximises the summed IoU, gt ids and track
    ids in id order.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must be in (0,1], got {iou_threshold}")
    if method not in ("greedy", "hungarian"):
        raise ValueError(f"unknown association method {method!r}")
    if method == "hungarian":
        from scipy.optimize import linear_sum_assignment
    g_frames, g_ids, g_edges = _by_frame(gt)
    t_frames, t_ids, t_edges = _by_frame(tracks)
    # each run of one gt frame, and the same frame's run of track rows
    g_bounds = _runs(g_frames)
    frames = g_frames[g_bounds[:-1]]
    t_lo = np.searchsorted(t_frames, frames, "left").tolist()
    t_hi = np.searchsorted(t_frames, frames, "right").tolist()
    correspondence: dict[int, list[tuple[int, int]]] = {}
    for f, a, b, c, d in zip(frames.tolist(), g_bounds, g_bounds[1:], t_lo, t_hi):
        if c == d:
            correspondence[f] = []
            continue
        gids, tids = g_ids[a:b].tolist(), t_ids[c:d].tolist()
        mat = _edge_iou(g_edges[:, a:b], t_edges[:, c:d])
        if method == "hungarian":
            rows, cols = linear_sum_assignment(-mat)
            index_pairs = [(i, j) for i, j in zip(rows, cols) if mat[i, j] >= iou_threshold]
        else:
            index_pairs = kernels.greedy_pairs(mat, gids, tids, iou_threshold)
        correspondence[f] = sorted((gids[i], tids[j]) for i, j in index_pairs)
    return correspondence


def _objects(gt: Trajectories) -> dict[int, int]:
    """{gt id: its row count}, in id order."""
    bounds = _runs(gt.ids)
    return dict(zip(gt.ids[bounds[:-1]].tolist(), np.diff(bounds).tolist()))


def _tally(correspondence: dict[int, list[tuple[int, int]]], gids,
           ) -> tuple[dict[int, int], dict[int, set[int]], dict[int, set[int]]]:
    """Count a correspondence once: per gt id (in the order of gids) the
    frames it is matched in and the track ids covering it; per track id
    the gt ids it covers."""
    frames = dict.fromkeys(gids, 0)
    gt_tracks: dict[int, set[int]] = {gid: set() for gid in gids}
    track_gts: dict[int, set[int]] = {}
    for pairs in correspondence.values():
        for gid, tid in pairs:
            frames[gid] = frames.get(gid, 0) + 1
            gt_tracks.setdefault(gid, set()).add(tid)
            track_gts.setdefault(tid, set()).add(gid)
    return frames, gt_tracks, track_gts


def _m1(frames: dict[int, int], objects: dict[int, int]) -> float:
    if not objects:
        raise MetricError("m1 undefined without ground-truth objects")
    return float(np.mean([frames[gid] / n for gid, n in objects.items()]))


def _mean_reciprocal(id_sets) -> float:
    """Mean of 1/len over the non-empty sets; 0.0 if there are none."""
    vals = [1.0 / len(s) for s in id_sets if s]
    return float(np.mean(vals)) if vals else 0.0


def m1(correspondence: dict[int, list[tuple[int, int]]], gt: Trajectories) -> float:
    """Mean over ground-truth objects of their matched-frame fraction."""
    objects = _objects(gt)
    return _m1(_tally(correspondence, objects)[0], objects)


def _m2(gt_tracks: dict[int, set[int]], gids) -> float:
    return _mean_reciprocal(gt_tracks[gid] for gid in gids)


def _m3(track_gts: dict[int, set[int]]) -> float:
    return _mean_reciprocal(track_gts.values())


def m2(correspondence: dict[int, list[tuple[int, int]]], gt: Trajectories) -> float:
    """Mean reciprocal track-id count per ground-truth object with a match.

    Objects never matched are excluded (their reciprocal is undefined);
    returns 0.0 if nothing matched at all.
    """
    objects = _objects(gt)
    return _m2(_tally(correspondence, objects)[1], objects)


def m3(correspondence: dict[int, list[tuple[int, int]]]) -> float:
    """Mean reciprocal ground-truth-id count per track with a match."""
    return _m3(_tally(correspondence, ())[2])


def evaluate(
    gt: Trajectories,
    tracks: Trajectories,
    iou_threshold: float = 0.5,
    method: str = "greedy",
    fps: float | None = None,
) -> EvalReport:
    objects = _objects(gt)
    frames, gt_tracks, track_gts = _tally(
        associate(gt, tracks, iou_threshold, method), objects)
    v1, v2, v3 = _m1(frames, objects), _m2(gt_tracks, objects), _m3(track_gts)
    return EvalReport(
        m1=v1, m2=v2, m3=v3, m_bar=(v1 + v2 + v3) / 3.0,
        per_gt_coverage={gid: frames[gid] / n for gid, n in objects.items()},
        per_gt_track_ids={gid: len(gt_tracks[gid]) for gid in objects},
        per_track_gt_ids={tid: len(s) for tid, s in track_gts.items()},
        fps=fps,
    )


def throughput(frame_count: int, elapsed_seconds: float) -> float:
    """Frames per second over the tracking-only portion of a run."""
    if elapsed_seconds <= 0:
        raise MeasurementError(f"elapsed time must be positive, got {elapsed_seconds}")
    return frame_count / elapsed_seconds
