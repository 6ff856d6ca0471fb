"""Per-frame tracking engine.

A frame enters as a `Frame`, the detections' ids, boxes and histograms as
arrays, or as an empty list when it holds none.
The engine keeps the live tracks as one column store (`LiveRows`, a row
per live track in id order) and the history not yet read as a log of
one block per frame. `match_frame` reads a frame: it validates it,
predicts the filter rows, scores the pairs and resolves the assignment,
changing nothing. `TrackingEngine.step` then writes it, one column
operation at a time: correct, hold, spawn, log, sweep. No object is made
per detection or per track on the way; `Track` objects take their rows
of the log, and their counters from the store, only when they are read.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import kalman, kernels, lifecycle
from .errors import NumericOverflowError, SequencingError
from .types import (
    ACTIVE,
    NOISE,
    TERMINATED,
    WAITING,
    Frame,
    Track,
    TrackerConfig,
    Trajectories,
)


_KF = kalman.WIDTH  # LiveRows.real: filter, d_max, box, base, histogram
_D_MAX, _BOX, _BASE, _HIST = _KF, slice(_KF + 1, _KF + 5), _KF + 5, slice(_KF + 6, None)
_MATCHED = slice(_KF + 1, None)  # box, base and histogram: what a match writes
_ID, _BIRTH, _F_L, _N_R, _N_C = range(5)  # LiveRows.count columns
_READ_CHUNK = 64  # log blocks TrackingEngine._read takes at once


@dataclass(eq=False)
class LiveRows:
    """The live tracks as columns, row i for the i-th live track in id order.

    The columns are slices of three blocks, read and written through this
    module's index constants, so a take or a join of rows is three numpy
    calls. `real` holds, per row and in this column order:
      kf      the filter row (see `kalman`);
      d_max   `Track.d_max`;
      box     the last corrected box (x, y, l, h), held while the track waits;
      base    its `diagonal_half`, the search radius per frame since the
              last match;
      hist    the histogram of the last matched detection.
    A match writes box, base and hist, the last columns, as one block.
    `count` holds the integer columns ids, birth, f_l and n_r (the `Track`
    fields of those names) and n_c; a live track waited on every frame of
    its span that did not match it, so its t_w is f_c - birth + 1 - n_r at
    frame f_c and needs no column. While a row's d_max is under
    the engine's cap t4, `centers[i, :n_c[i]]` holds the (x, y) of its
    matched boxes, as `Track.update_extent` keeps them; the slots after
    them repeat its first center, which leaves every maximum distance as
    it is. No column holds an object: a track's `last_histogram` is a
    read-only view of its hist row, handed over when the track is read.
    """

    real: np.ndarray  # (n, kalman.WIDTH + 6 + n_bins)
    count: np.ndarray  # (n, 5) int
    centers: np.ndarray  # (n, k, 2), k >= 1

    @classmethod
    def born(cls, ids: np.ndarray | list[int], boxes: np.ndarray, hists: np.ndarray,
             frame_id: int, cfg: TrackerConfig) -> "LiveRows":
        """Rows of tracks born at frame_id from detection box and histogram
        rows, as a first match seeds them."""
        n = len(ids)
        real = np.concatenate((kalman.init_rows(boxes, cfg), np.zeros((n, 1)), boxes,
                               _half_diagonals(boxes)[:, None], hists), axis=1)
        count = np.empty((n, 5), dtype=np.int64)
        count[:] = (0, frame_id, frame_id, 1, 1)  # birth, f_l, n_r and n_c
        count[:, _ID] = ids
        return cls(real, count, boxes[:, None, :2].copy())

    def __len__(self) -> int:
        return len(self.count)

    def take(self, index: np.ndarray) -> "LiveRows":
        """The rows picked by an index array (a copy)."""
        return LiveRows(self.real.take(index, axis=0), self.count.take(index, axis=0),
                        self.centers.take(index, axis=0))

    def join(self, other: "LiveRows") -> "LiveRows":
        """These rows, then the rows of other."""
        k = max(self.centers.shape[1], other.centers.shape[1])
        return LiveRows(np.concatenate((self.real, other.real)),
                        np.concatenate((self.count, other.count)),
                        np.concatenate((_widen(self.centers, k), _widen(other.centers, k))))

    def extend(self, index: np.ndarray, xy: np.ndarray, cap: float) -> None:
        """`Track.update_extent(x, y, cap)` on the rows `index`, row j of
        xy being the new center of row index[j], in place. A row whose
        d_max has reached the cap is left as it is for good."""
        d_max, n_c = self.real[:, _D_MAX], self.count[:, _N_C]
        old = d_max[index]
        open_ = old < cap
        index = index[open_]
        if not len(index):
            return
        xy, old, n = xy[open_], old[open_], n_c[index]
        if n.max() == self.centers.shape[1]:
            self.centers = _widen(self.centers, 2 * self.centers.shape[1])
        gap = self.centers.take(index, axis=0) - xy[:, None]
        d_max[index] = np.maximum(old, np.hypot(gap[..., 0], gap[..., 1]).max(axis=1))
        self.centers[index, n] = xy
        n_c[index] = n + 1


def _widen(centers: np.ndarray, k: int) -> np.ndarray:
    """centers with room for k per row, the new slots repeating the first."""
    pad = k - centers.shape[1]
    return centers if pad <= 0 else np.concatenate(
        (centers, np.repeat(centers[:, :1], pad, axis=1)), axis=1)


def _half_diagonals(boxes: np.ndarray) -> np.ndarray:
    """`diagonal_half` of each box row. math.hypot, as there: np.hypot can
    differ from it in the last bit."""
    return np.fromiter(map(math.hypot, *boxes[:, 2:].T.tolist()), np.float64, len(boxes)) / 2.0


@dataclass
class MatchResult:
    """Accepted (track, detection) pairs plus leftovers for one frame, and
    the prediction of the tracks' filter rows for it, none of them stored.

    Row i of `predicted` and `boxes` belongs to row i of the `LiveRows`
    given to `match_frame`; pair k joins its row `rows[k]` and the
    detection `columns[k]`, a row of `frame`, the checked `Frame` that was
    read. `spawn` indexes the unmatched detections.
    """

    pairs: list[tuple[int, int, float]]  # (track_id, detection_id, score)
    unmatched_tracks: list[int]
    predicted: np.ndarray  # (n, 11) filter rows: kalman.predict_rows of the rows given
    boxes: np.ndarray  # (n, 4) estimated boxes, l and h floored; the boxes scored
    rows: np.ndarray
    columns: np.ndarray
    spawn: np.ndarray
    frame: Frame


@dataclass
class FrameReport:
    frame_id: int
    matches: list[tuple[int, int, float]] = field(default_factory=list)
    new_tracks: list[int] = field(default_factory=list)
    waiting: list[int] = field(default_factory=list)
    terminated: list[int] = field(default_factory=list)
    noise: list[int] = field(default_factory=list)


def match_frame(
    tracks: LiveRows,
    detections: Frame | list,
    cfg: TrackerConfig,
    frame_id: int,
) -> MatchResult:
    """Validate the frame (`Frame.of`), predict the filter rows, score the
    (track, detection) pairs and resolve the assignment, changing nothing.

    Each track is scored at its estimated box, the predicted row with l
    and h floored, within a reach of its `base` times the frames since its
    last match.

    greedy_global accepts pairs one-to-one by descending score (ties broken
    by lower track id then detection id; see `kernels.greedy_pairs`);
    per_track lets each track take its best candidate independently and may
    double-assign detections.
    """
    frame = Frame.of(detections, frame_id, cfg.n_bins)
    real, count = tracks.real, tracks.count
    predicted, tboxes = kalman.predict_rows(real[:, :_KF], cfg)
    dids, tids = frame.ids, count[:, _ID]

    ti = dj = np.zeros(0, dtype=np.intp)
    pairs = []
    if len(tids) and len(dids):
        with np.errstate(over="ignore"):  # an infinite reach takes in every finite distance
            treach = real[:, _BASE] * np.maximum(1, frame.frame_id - count[:, _F_L])
        scores = kernels.score_matrix(tboxes, treach, real[:, _HIST], frame.boxes, frame.hist,
                                      cfg.feature_weights)
        if cfg.assignment_policy == "per_track":
            # argmax over the columns in detection-id order, so a tie goes
            # to the lower detection id
            by_id = np.argsort(dids, kind="stable")
            best = by_id[np.argmax(scores[:, by_id], axis=1)]
            ti = np.flatnonzero(scores[np.arange(len(tids)), best] >= cfg.t1)
            dj = best[ti]
        else:
            index_pairs = kernels.greedy_pairs(scores, tids, dids, cfg.t1)
            ti, dj = np.array(index_pairs, dtype=np.intp).reshape(-1, 2).T
        pairs = list(zip(tids[ti].tolist(), dids[dj].tolist(), scores[ti, dj].tolist()))

    spawn = (np.bincount(dj, minlength=len(dids)) == 0).nonzero()[0]
    return MatchResult(
        pairs=pairs,
        unmatched_tracks=tids[np.bincount(ti, minlength=len(tids)) == 0].tolist(),
        predicted=predicted,
        boxes=tboxes,
        rows=ti,
        columns=dj,
        spawn=spawn,
        frame=frame,
    )


class TrackingEngine:
    """Stateful frame-by-frame tracker over a detection stream.

    `_rows` holds the live tracks as columns, in id order. `_log` holds one
    block per frame processed since the tracks were last read, (frame,
    ids, boxes, matched): the live rows' ids and boxes at that frame
    (corrected, or held while waiting) and whether the frame matched them,
    spawns included; a track ended by the sweep still has its block at its
    end frame. `step` touches no `Track`.

    `tracks` holds every track ever created, in id order. Reading it, or
    any method that lists tracks, first appends each track's rows of the
    log blocks to its columns, which then hold the history alone, and
    copies the counters from the store; the rows the sweep dropped wait
    in `_ended` until then. `trajectories` puts the valid tracks' columns
    end to end. Ids only grow, dense from 1.
    """

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = (cfg or TrackerConfig()).validate()
        self._rows = LiveRows.born(np.zeros(0, dtype=np.int64), np.zeros((0, 4)),
                                   np.zeros((0, self.cfg.n_bins)), 0, self.cfg)
        self._log: deque[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = deque()
        # (frame, count, d_max, hist, noisy) of the rows each sweep ended
        self._ended: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._tracks: dict[int, Track] = {}
        self._n_born = 0
        self.last_frame: int | None = None

    @property
    def tracks(self) -> dict[int, Track]:
        """Every track ever created, in id order, as of the last step."""
        self._read()
        return self._tracks

    def live_tracks(self) -> list[Track]:
        """Every active or waiting track, in id order."""
        tracks = self.tracks
        return [tracks[tid] for tid in self._rows.count[:, _ID].tolist()]

    def valid_tracks(self) -> list[Track]:
        """Every track not flagged as noise, in id order."""
        return [t for t in self.tracks.values() if t.status != NOISE]

    def step(self, frame_id: int, detections: Frame | list) -> FrameReport:
        """Process one frame; frame ids must be strictly increasing.

        The filters of the matched rows are corrected as one block, their
        box, base and histogram written with one scatter, and every other
        per-track fact with one column operation: everything that can
        reject the frame runs before the first write, so a rejected frame
        leaves the engine as it was. Newborn tracks append their rows, the
        frame's block goes to the log, and the rows of the tracks the sweep
        ends are dropped, which keeps row i on the i-th live track. A stage
        with nothing to read is skipped: the correction when nothing
        matched, the log and the sweep when no row is live, and all but the
        frame's checks when there is neither a row nor a detection.
        """
        if self.last_frame is not None and frame_id <= self.last_frame:
            raise SequencingError(
                f"frame {frame_id} not after last processed frame {self.last_frame}")
        cfg, rows = self.cfg, self._rows
        if not len(rows) and not len(detections):
            Frame.of(detections, frame_id, cfg.n_bins)  # nothing else to run but its checks
            self.last_frame = frame_id
            return FrameReport(frame_id)
        try:  # the prediction and the correction check their rows before the first write
            result = match_frame(rows, detections, cfg, frame_id)
            hit, det, frame = result.rows, result.columns, result.frame
            if len(hit):
                cs = kalman.correct_rows(result.predicted, hit, frame.boxes.take(det, axis=0),
                                         result.boxes.take(hit, axis=0), cfg.w,
                                         cfg.measurement_noise)
        except NumericOverflowError as e:
            raise NumericOverflowError(f"{e} in frame {frame_id}") from None
        real, count = rows.real, rows.count
        if len(hit):
            # the matched rows only, one block: a waiting row holds its box and counts
            real[hit, _MATCHED] = np.concatenate(
                (cs, _half_diagonals(cs)[:, None], frame.hist.take(det, axis=0)), axis=1)
            count[:, _F_L][hit] = frame_id  # a column, then its rows: cheaper than [hit, col]
            count[:, _N_R][hit] += 1
            rows.extend(hit, cs[:, :2], cfg.t4)
        # the matched rows corrected in place, a waiting row's its prediction
        real[:, :_KF] = result.predicted

        spawn = result.spawn
        new_ids = list(range(self._n_born + 1, self._n_born + 1 + len(spawn)))
        if new_ids:
            self._n_born += len(spawn)
            rows = rows.join(LiveRows.born(new_ids, frame.boxes[spawn], frame.hist[spawn],
                                           frame_id, cfg))
            real, count = rows.real, rows.count
        terminated, noise = [], []
        if len(count):
            self._log.append((frame_id, count[:, _ID].copy(), real[:, _BOX].copy(),
                              count[:, _F_L] == frame_id))
            dead, noisy = lifecycle.sweep_rows(count[:, _BIRTH], count[:, _F_L], count[:, _N_R],
                                               real[:, _D_MAX], frame_id, cfg)
            ended = dead | noisy
            if np.count_nonzero(ended):
                self._ended.append((frame_id, count[ended], real[ended, _D_MAX],
                                    real[ended, _HIST], noisy[ended]))
                terminated, noise = count[dead, _ID].tolist(), count[noisy, _ID].tolist()
                rows = rows.take((~ended).nonzero()[0])
        self._rows = rows
        self.last_frame = frame_id
        return FrameReport(frame_id, matches=result.pairs, new_tracks=new_ids,
                           waiting=result.unmatched_tracks, terminated=terminated, noise=noise)

    def _read(self) -> None:
        """Bring `_tracks` up to the last step: append each track's rows of
        the log blocks to its columns, a chunk of blocks at a time, each
        chunk dropped from the log as it is read, then copy the counters of
        the ended rows and of the live rows."""
        log, tracks = self._log, self._tracks
        if not log:
            return
        while log:  # a chunk at a time, which bounds the memory the read takes
            blocks = [log.popleft() for _ in range(min(_READ_CHUNK, len(log)))]
            frames = np.repeat(np.array([b[0] for b in blocks], dtype=np.int64),
                               [len(b[1]) for b in blocks])
            ids, boxes, matched = (np.concatenate([b[k] for b in blocks]) for k in (1, 2, 3))
            # step order is frame order within each id: one stable sort by id
            order = np.argsort(ids, kind="stable")
            ids, frames, boxes, matched = ids[order], frames[order], boxes[order], matched[order]
            starts = np.flatnonzero(np.diff(ids, prepend=0))  # ids start at 1
            ends = [*starts[1:].tolist(), len(ids)]
            for tid, lo, hi in zip(ids[starts].tolist(), starts.tolist(), ends):
                t = tracks.get(tid)
                if t is None:  # its first rows: born at the first of their frames
                    tracks[tid] = Track(tid, frames[lo:hi], boxes[lo:hi], matched[lo:hi], None, 0)
                else:
                    t.append(frames[lo:hi], boxes[lo:hi], matched[lo:hi])
        for f_c, count, d_max, hist, noisy in self._ended:
            self._fill(f_c, count, d_max, hist, [NOISE if n else TERMINATED for n in noisy.tolist()])
        self._ended.clear()
        real, count = self._rows.real, self._rows.count
        # a copy of the hist rows, which the next match overwrites
        self._fill(self.last_frame, count, real[:, _D_MAX], real[:, _HIST].copy(),
                   [ACTIVE if hit else WAITING for hit in (count[:, _F_L] == self.last_frame).tolist()])

    def _fill(self, f_c: int, count: np.ndarray, d_max: np.ndarray, hist: np.ndarray,
              statuses: list[str]) -> None:
        """Copy into their tracks the counters that some rows had at frame
        f_c, given as their `LiveRows` count, d_max and hist columns; each
        `last_histogram` is a view of its row of hist, a copy no one else
        writes, marked read-only. The centers behind d_max stay in the store."""
        hist.flags.writeable = False
        for (tid, birth, f_l, n_r, _), d, h, status in zip(
                count.tolist(), d_max.tolist(), hist, statuses):
            t = self._tracks[tid]
            t.f_l, t.n_r, t.t_w, t.status, t.last_histogram, t._d_max = (
                f_l, n_r, f_c - birth + 1 - n_r, status, h, d)

    def trajectories(self) -> Trajectories:
        """The rows of every valid track (noise excluded) as one table."""
        return Trajectories.of_tracks(self.valid_tracks())
