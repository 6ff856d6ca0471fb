import numpy as np
import pytest

from mftrack.types import ColorHistogram, Detection, ObjectState, Track, TrackerConfig


def flat_histogram(n=96, value=10.0):
    return ColorHistogram(np.full(n, value))


def peaked_histogram(n=96, peak=10, total=1000.0):
    k = np.arange(n, dtype=float)
    bump = np.exp(-0.5 * ((k - peak) / 4.0) ** 2)
    return ColorHistogram(bump / bump.sum() * total)


def make_detection(frame_id, det_id, x, y, l=10.0, h=10.0, hist=None, n=96):
    return Detection(frame_id, det_id, ObjectState(x, y, l, h),
                     hist if hist is not None else flat_histogram(n))


def make_track(track_id, state, birth=0, hist=None, n=96, **kw):
    """Track born in `state`; a filter row seeded at its `last_cs` predicts
    it at `state` again, since the seeded velocity is 0."""
    t = Track(
        track_id=track_id,
        birth_frame=birth,
        states={birth: state},
        last_histogram=hist if hist is not None else flat_histogram(n),
        f_l=birth,
        **kw,
    )
    t.matched_frames.add(birth)
    t.update_extent(state.x, state.y)
    return t


@pytest.fixture
def cfg():
    return TrackerConfig()
