import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import live_rows, make_track, peaked_histogram
from mftrack.engine import _BIRTH, _D_MAX, _F_L, _N_R, TrackingEngine
from mftrack.lifecycle import is_noise, should_terminate, sweep, sweep_rows
from mftrack.scenario import MotionScript, ScenarioSpec, generate
from mftrack.pipeline import track_stream
from mftrack.types import ACTIVE, WAITING, ObjectState, TrackerConfig
from conftest import make_frame


def track_with(n_r=5, f_l=100, birth=0, t_w=0, frames=None, centers=None):
    t = make_track(1, ObjectState(10, 10, 10, 10), birth=birth)
    t.n_r = n_r
    t.f_l = f_l
    t.t_w = t_w
    if frames:  # held at the birth state after birth
        rest = [f for f in frames if f != birth]
        t.append(rest, t.boxes[[0] * len(rest)], [False] * len(rest))
    if centers:
        for x, y in centers:
            t.update_extent(x, y)
    return t


class TestShouldTerminate:
    def test_overdue(self):
        assert should_terminate(track_with(n_r=5, f_l=100), f_c=106, t2=20)

    def test_boundary_not_overdue(self):
        assert not should_terminate(track_with(n_r=5, f_l=100), f_c=105, t2=20)

    def test_waiting_capped_by_t2(self):
        t = track_with(n_r=50, f_l=100)
        assert not should_terminate(t, f_c=120, t2=20)
        assert should_terminate(t, f_c=121, t2=20)


class TestIsNoise:
    def test_short_life_only_at_end_of_life(self, cfg):
        t = track_with(frames=range(0, 10), centers=[(10, 10), (60, 60)])
        assert t.span == 10
        assert is_noise(t, at_end_of_life=True, cfg=cfg)
        assert not is_noise(t, at_end_of_life=False, cfg=cfg)

    def test_small_spatial_extent(self, cfg):
        # 30 frames, every center within a 3-pixel disc
        t = track_with(frames=range(0, 30), centers=[(10, 10), (12, 11), (11, 12)])
        assert t.d_max < 5
        assert is_noise(t, at_end_of_life=False, cfg=cfg)

    def test_waiting_ratio(self, cfg):
        far = [(10, 10), (200, 200)]
        t = track_with(frames=range(0, 50), t_w=25, centers=far)
        assert is_noise(t, at_end_of_life=False, cfg=cfg)  # 0.5 >= 0.4
        t2 = track_with(frames=range(0, 50), t_w=15, centers=far)
        assert not is_noise(t2, at_end_of_life=False, cfg=cfg)  # 0.3 < 0.4

    def test_monotone_under_stricter_thresholds(self, cfg):
        # tightening = raising t3 or t4, or lowering t5; a trajectory judged
        # noise at end of life stays noise under any stricter setting
        tracks = [
            track_with(frames=range(0, 10), centers=[(10, 10), (60, 60)]),
            track_with(frames=range(0, 30), centers=[(10, 10), (11, 11)]),
            track_with(frames=range(0, 50), t_w=25, centers=[(10, 10), (200, 200)]),
            track_with(frames=range(0, 50), t_w=5, centers=[(10, 10), (200, 200)]),
            track_with(frames=range(0, 25), t_w=3, centers=[(10, 10), (14, 10)]),
        ]
        stricter = [{"t3": 40}, {"t3": 60}, {"t4": 9.0}, {"t4": 20.0}, {"t5": 0.3}, {"t5": 0.05}]
        for t in tracks:
            base = is_noise(t, at_end_of_life=True, cfg=cfg)
            if not base:
                continue
            for kw in stricter:
                assert is_noise(t, at_end_of_life=True, cfg=dataclasses.replace(cfg, **kw))


class TestSweep:
    def test_no_terminations_when_all_matched(self, cfg):
        eng = TrackingEngine(cfg)
        for f in range(30):
            r = eng.step(f, make_frame(f, [(30.0 + 2 * f, 50)]))
            assert r.terminated == [] and r.noise == []

    def test_waiting_streak_never_exceeds_t2(self, cfg):
        # heavily dropped single object; track waiting streaks must stay <= t2
        obj = MotionScript(waypoints=((0, 20, 100, 20, 40), (199, 320, 100, 20, 40)), hist_peak=8)
        spec = ScenarioSpec(seed=13, duration=200, objects=(obj,), drop_probability=0.35)
        res = generate(spec)
        eng = TrackingEngine(cfg)
        streaks: dict[int, int] = {}
        for f in range(200):
            report = eng.step(f, res.detections_by_frame.get(f, []))
            for tid in report.waiting:
                streaks[tid] = streaks.get(tid, 0) + 1
                assert streaks[tid] <= cfg.t2
            for tid, _, _ in report.matches:
                streaks[tid] = 0

    def test_terminated_valid_tracks_are_long_enough(self, cfg):
        # any track ended by the termination rule that survives as valid has span >= t3
        obj = MotionScript(waypoints=((0, 20, 100, 20, 40), (199, 420, 100, 20, 40)), hist_peak=8)
        spec = ScenarioSpec(seed=2, duration=200, objects=(obj,), burst_drops=((0, 80, 30),))
        res = generate(spec)
        eng, _ = track_stream(res.detections_by_frame, cfg)
        terminated = [t for t in eng.tracks.values() if t.status == "terminated"]
        assert terminated
        for t in terminated:
            assert t.span >= cfg.t3

    def test_stationary_flicker_removed_mid_life(self, cfg):
        # a blob alive 25+ frames within 2 px is cut by the spatial filter
        eng = TrackingEngine(cfg)
        noise_ids = []
        for f in range(45):
            x = 100.0 + (0.5 if f % 2 else -0.5)
            r = eng.step(f, make_frame(f, [(x, 100.0)], l=8, h=8))
            noise_ids.extend(r.noise)
        # the removed track's detections respawn a successor, itself flagged
        # once old enough to judge
        assert noise_ids == [1, 2]
        assert eng.tracks[1].status == "noise"
        assert all(t.span < cfg.t3 for t in eng.valid_tracks())


@st.composite
def _live_tracks(draw):
    """A frame f_c and live tracks as the engine holds them there: a state
    at f_c, n_r matched frames from birth to f_l, and the other frames of
    the span waited."""
    f_c = draw(st.integers(0, 60))
    tracks = []
    for tid in range(1, draw(st.integers(0, 8)) + 1):
        birth = draw(st.integers(0, f_c))
        span = f_c - birth + 1
        n_r = draw(st.integers(1, span))
        f_l = draw(st.integers(birth + n_r - 1, f_c))
        t = make_track(tid, ObjectState(10, 10, 10, 10), birth=birth, n_r=n_r, t_w=span - n_r,
                       status=ACTIVE if f_l == f_c else WAITING)
        t.f_l = f_l
        if f_c > birth:  # a row at f_c, the birth state held
            t.append([f_c], t.boxes, [False])
        t._d_max = draw(st.sampled_from([0.0, 2.5, 4.999, 5.0, 7.5, 40.0]))
        tracks.append(t)
    return f_c, tracks


@settings(max_examples=300, deadline=None)
@given(live=_live_tracks(), t2=st.integers(1, 25), t3=st.integers(1, 40),
       t4=st.sampled_from([2.5, 5.0, 6.0]), t5=st.sampled_from([0.0, 0.2, 0.4, 1.0]))
def test_sweep_rows_equal_scalar_sweep(live, t2, t3, t4, t5):
    """The column sweep ends the same tracks, the same way, as the scalar
    rules on Track objects."""
    f_c, tracks = live
    cfg = TrackerConfig(t2=t2, t3=t3, t4=t4, t5=t5)
    rows = live_rows(tracks)
    terminated, noise = sweep_rows(rows.count[:, _BIRTH], rows.count[:, _F_L],
                                   rows.count[:, _N_R], rows.real[:, _D_MAX], f_c, cfg)
    ids = [t.track_id for t in tracks]
    assert ([i for i, end in zip(ids, terminated) if end],
            [i for i, end in zip(ids, noise) if end]) == sweep(tracks, f_c, cfg)
