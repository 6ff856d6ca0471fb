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
IoU, greedy by default (Hungarian optional). `associate` returns the
matched pairs as int64 columns (frame, gt id, track id), sorted by (frame,
gt id), and `score` counts the three measures from the id columns. m1 and
m2 average over gt ids in id order; m3 averages over tracks in the order
the pairs first name them, so that its float sum does not depend on how
the tracks are numbered.
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame one-to-one correspondences by IoU, over every frame of the
    ground truth, as int64 columns (frames, gt ids, track ids): a row per
    matched pair, sorted by (frame, gt id).

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
    # the track row each gt row is matched to, -1 where none
    match = np.full(len(g_ids), -1, dtype=np.intp)
    for a, b, c, d in zip(g_bounds, g_bounds[1:], t_lo, t_hi):
        if c == d:
            continue
        mat = _edge_iou(g_edges[:, a:b], t_edges[:, c:d])
        if method == "hungarian":
            rows, cols = linear_sum_assignment(-mat)
            index_pairs = [(i, j) for i, j in zip(rows, cols) if mat[i, j] >= iou_threshold]
        else:
            index_pairs = kernels.greedy_pairs(mat, g_ids[a:b], t_ids[c:d], iou_threshold)
        for i, j in index_pairs:
            match[a + i] = c + j
    # the gt rows are in (frame, id) order, and so are the pairs
    matched = np.flatnonzero(match >= 0)
    return g_frames[matched], g_ids[matched], t_ids[match[matched]]


def _mean_reciprocal(counts: np.ndarray) -> float:
    """Mean of 1/count over counts, in their order; 0.0 if there are none."""
    return float(np.mean(1.0 / counts)) if len(counts) else 0.0


def score(
    gt: Trajectories,
    gt_ids: np.ndarray,
    track_ids: np.ndarray,
    fps: float | None = None,
) -> EvalReport:
    """The report of the matched pairs (gt_ids[k], track_ids[k]) of
    `associate(gt, ...)`, each pair one matched frame, in its order.

    m1 averages each gt object's matched-row fraction and m2 the reciprocal
    of its distinct track ids, both over gt ids in id order, m2 over the
    objects with a match only. m3 averages the reciprocal of each track's
    distinct gt ids, the tracks in the order the pairs first name them.
    m2 and m3 are 0.0 when nothing matched.
    """
    if not len(gt.ids):
        raise MetricError("m1 undefined without ground-truth objects")
    bounds = _runs(gt.ids)
    ids = gt.ids[bounds[:-1]]
    obj = np.searchsorted(ids, gt_ids)
    coverage = np.bincount(obj, minlength=len(ids)) / np.diff(bounds)
    # the pairs by (track id, object), each track's pairs a run, each
    # distinct (track, object) link a run within it
    order = np.lexsort((obj, track_ids))
    t, o = track_ids[order], obj[order]
    new_track = np.ones(len(t), dtype=bool)
    np.not_equal(t[1:], t[:-1], out=new_track[1:])
    new_link = new_track.copy()
    new_link[1:] |= o[1:] != o[:-1]
    tracks_per_object = np.bincount(o[new_link], minlength=len(ids))
    # per track its links, the tracks in the order of their first pair
    starts = np.flatnonzero(new_track)
    by_first = np.argsort(np.minimum.reduceat(order, starts), kind="stable")
    tids = t[starts][by_first]
    objects_per_track = np.add.reduceat(new_link, starts)[by_first]
    v1 = float(np.mean(coverage))
    v2 = _mean_reciprocal(tracks_per_object[tracks_per_object > 0])
    v3 = _mean_reciprocal(objects_per_track)
    return EvalReport(
        m1=v1, m2=v2, m3=v3, m_bar=(v1 + v2 + v3) / 3.0,
        per_gt_coverage=dict(zip(ids.tolist(), coverage.tolist())),
        per_gt_track_ids=dict(zip(ids.tolist(), tracks_per_object.tolist())),
        per_track_gt_ids=dict(zip(tids.tolist(), objects_per_track.tolist())),
        fps=fps,
    )


def evaluate(
    gt: Trajectories,
    tracks: Trajectories,
    iou_threshold: float = 0.5,
    method: str = "greedy",
    fps: float | None = None,
) -> EvalReport:
    _, gt_ids, track_ids = associate(gt, tracks, iou_threshold, method)
    return score(gt, gt_ids, track_ids, fps)


def throughput(frame_count: int, elapsed_seconds: float) -> float:
    """Frames per second over the tracking-only portion of a run."""
    if elapsed_seconds <= 0:
        raise MeasurementError(f"elapsed time must be positive, got {elapsed_seconds}")
    return frame_count / elapsed_seconds
