import numpy as np
import pytest

from mftrack.engine import _BIRTH, _D_MAX, _F_L, _N_C, _N_R, LiveRows
from mftrack.types import Frame, Track, TrackerConfig, Trajectories


def boxes(states) -> np.ndarray:
    """(n, 4) array of the box rows (x, y, l, h) of `states`."""
    return np.array([(s.x, s.y, s.l, s.h) for s in states]).reshape(-1, 4)


def table_of(states: dict) -> Trajectories:
    """The table of `states`, {id: {frame: ObjectState}}, every row
    matched. An id without states is a ValueError: no row could keep it."""
    empty = [oid for oid, by_frame in states.items() if not by_frame]
    if empty:
        raise ValueError(f"ids without states: {empty}")
    rows = [(oid, f, s) for oid in sorted(states) for f, s in sorted(states[oid].items())]
    box_rows = [(s.x, s.y, s.l, s.h) for _, _, s in rows]
    return Trajectories(np.array([oid for oid, _, _ in rows], dtype=np.int64),
                        np.array([f for _, f, _ in rows], dtype=np.int64),
                        np.array(box_rows, dtype=np.float64).reshape(-1, 4),
                        np.ones(len(rows), dtype=bool))


def flat_histogram(n=96, value=10.0):
    return np.full(n, value)


def peaked_histogram(n=96, peak=10, total=1000.0):
    k = np.arange(n, dtype=float)
    bump = np.exp(-0.5 * ((k - peak) / 4.0) ** 2)
    return bump / bump.sum() * total


def make_frame(frame_id, centers, ids=None, l=10.0, h=10.0, hist=None, n=96):
    """A Frame with one detection per (x, y) of centers, ids 0, 1, ...
    unless given, each box l by h (one number for all, or one per
    detection) and each histogram row hist, a flat histogram of n bins
    unless given."""
    m = len(centers)
    boxes = np.column_stack((np.reshape(centers, (m, 2)), np.broadcast_to(l, m),
                             np.broadcast_to(h, m)))
    bins = hist if hist is not None else flat_histogram(n)
    return Frame(frame_id, range(m) if ids is None else ids, boxes, np.tile(bins, (m, 1)))


def make_track(track_id, state, birth=0, hist=None, n=96, **kw):
    """Track born in `state`; a filter row seeded at its `last_cs` predicts
    it at `state` again, since the seeded velocity is 0."""
    t = Track(
        track_id=track_id,
        frames=[birth],
        boxes=boxes([state]),
        matched=[True],
        last_histogram=hist if hist is not None else flat_histogram(n),
        f_l=birth,
        **kw,
    )
    t.update_extent(state.x, state.y)
    return t


def live_rows(tracks, cfg=None):
    """The tracks as an engine's live rows, row i for tracks[i], its filter
    seeded at the track's last state."""
    cfg = cfg or TrackerConfig()
    n_bins = len(tracks[0].last_histogram) if tracks else cfg.n_bins
    rows = LiveRows.born(np.array([t.track_id for t in tracks], dtype=np.int64),
                         boxes([t.last_cs for t in tracks]),
                         np.array([t.last_histogram for t in tracks]).reshape(-1, n_bins),
                         0, cfg)
    rows.count[:, _BIRTH] = [t.birth_frame for t in tracks]
    rows.count[:, _F_L], rows.count[:, _N_R] = [t.f_l for t in tracks], [t.n_r for t in tracks]
    rows.real[:, _D_MAX] = [t.d_max for t in tracks]
    rows.count[:, _N_C] = [len(t._centers) for t in tracks]
    rows.centers = np.zeros((len(tracks), max([1, *rows.count[:, _N_C].tolist()]), 2))
    for i, t in enumerate(tracks):
        if t._centers:  # the slots after a row's centers repeat its first
            rows.centers[i] = t._centers[0]
            rows.centers[i, :len(t._centers)] = t._centers
    return rows


@pytest.fixture
def cfg():
    return TrackerConfig()
