import math

import numpy as np
import pytest

from mftrack.errors import InputError
from mftrack.pipeline import track_stream
from mftrack.scenario import (
    CLUTTER,
    ClutterBlob,
    MotionScript,
    ScenarioSpec,
    bench_scenario,
    brute_force_tracks,
    generate,
    lanes_scenario,
    spec_from_json,
    spec_to_json,
)
from mftrack.types import TrackerConfig


def single_object_spec(duration=100, speed=2.0, **kw):
    obj = MotionScript(waypoints=((0, 20, 100, 20, 40),
                                  (duration - 1, 20 + speed * (duration - 1), 100, 20, 40)),
                       hist_peak=12)
    return ScenarioSpec(seed=kw.pop("seed", 4), duration=duration, objects=(obj,),
                        arena=(speed * duration + 60, 480), **kw)


class TestGenerate:
    def test_reproducible(self):
        spec = lanes_scenario(n_objects=3, duration=60, seed=9,
                              position_jitter_sigma=1.0, drop_probability=0.1,
                              clutter_rate=2.0)
        a, b = generate(spec), generate(spec)
        assert a.provenance == b.provenance
        for f in range(60):
            da, db = a.detections_by_frame[f], b.detections_by_frame[f]
            assert len(da) == len(db)
            for x, y in zip(da, db):
                assert x == y

    def test_zero_perturbation_equals_gt(self):
        res = generate(single_object_spec())
        for f, dets in res.detections_by_frame.items():
            assert len(dets) == 1
            assert dets[0].state == res.gt[0].states[f]

    def test_burst_drop_single_gap(self):
        res = generate(single_object_spec(burst_drops=((0, 40, 3),)))
        frames = sorted(f for f, dets in res.detections_by_frame.items() if dets)
        missing = sorted(set(range(100)) - set(frames))
        assert missing == [40, 41, 42]

    def test_interpolation_is_piecewise_linear(self):
        obj = MotionScript(waypoints=((0, 0, 0.001, 10, 10), (10, 20, 0.001, 10, 10),
                                      (20, 20, 50, 10, 30)))
        res = generate(ScenarioSpec(seed=0, duration=21, objects=(obj,)))
        s5 = res.gt[0].states[5]
        assert (s5.x, s5.y) == (10, 0.001)
        s15 = res.gt[0].states[15]
        assert s15.y == pytest.approx(25.0005)
        assert s15.h == pytest.approx(20.0)

    def test_clutter_spread_bounded(self):
        blob = ClutterBlob(start_frame=0, lifetime=50, x=100, y=100)
        spec = ScenarioSpec(seed=21, duration=50, objects=(), clutter_blobs=(blob,),
                            clutter_extent=3.0)
        res = generate(spec)
        pts = [(d.state.x, d.state.y) for dets in res.detections_by_frame.values() for d in dets]
        assert len(pts) == 50
        for ax, ay in pts:
            for bx, by in pts:
                assert math.hypot(ax - bx, ay - by) <= 3.0 + 1e-9

    def test_clutter_follows_blob_order_and_lifetime(self):
        # blobs listed out of start order, one never alive; each frame emits
        # the blobs alive in it, in list order (sizes tell them apart)
        blobs = (ClutterBlob(start_frame=20, lifetime=15, x=100, y=100, size=7.0),
                 ClutterBlob(start_frame=5, lifetime=30, x=200, y=100, size=8.0),
                 ClutterBlob(start_frame=12, lifetime=0, x=300, y=100, size=9.0),
                 ClutterBlob(start_frame=5, lifetime=3, x=400, y=100, size=10.0),
                 ClutterBlob(start_frame=-4, lifetime=9, x=500, y=100, size=11.0),
                 ClutterBlob(start_frame=40, lifetime=25, x=600, y=100, size=12.0),
                 ClutterBlob(start_frame=49, lifetime=4, x=100, y=200, size=13.0, hist_peak=9))
        spec = lanes_scenario(n_objects=0, duration=50, seed=3, clutter_blobs=blobs,
                              clutter_rate=0.0)
        res = generate(spec)
        for f, dets in res.detections_by_frame.items():
            want = [b.size for b in blobs if b.start_frame <= f < b.start_frame + b.lifetime]
            assert [d.state.l for d in dets] == want
        # one histogram per blob, whatever the frame
        first = {}
        for dets in res.detections_by_frame.values():
            for d in dets:
                assert first.setdefault(d.state.l, d.histogram) == d.histogram
        assert sorted(first) == [7.0, 8.0, 10.0, 11.0, 12.0, 13.0]

    def test_clutter_rate_roughly_met(self):
        spec = lanes_scenario(n_objects=1, duration=400, seed=6, clutter_rate=4.0)
        res = generate(spec)
        clutter_counts = [
            sum(1 for d in dets if res.provenance[(f, d.detection_id)] == CLUTTER)
            for f, dets in res.detections_by_frame.items()
        ]
        mean = np.mean(clutter_counts[50:])  # after warm-in
        assert 2.0 < mean < 6.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(InputError):
            ScenarioSpec(duration=0).validate()
        with pytest.raises(InputError):
            ScenarioSpec(drop_probability=1.5).validate()


class TestBruteForceOracle:
    def test_noiseless_matches_engine(self, cfg):
        spec = lanes_scenario(n_objects=3, duration=150, seed=2)
        res = generate(spec)
        fragments = brute_force_tracks(res, cfg)
        eng, _ = track_stream(res.detections_by_frame, cfg)
        assert len(fragments) == 3
        assert len(eng.valid_tracks()) == 3
        for (gid, frames), t in zip(fragments, eng.valid_tracks()):
            assert frames == sorted(t.matched_frames)

    def test_short_gap_one_fragment(self, cfg):
        res = generate(single_object_spec(duration=120, burst_drops=((0, 60, 3),)))
        assert len(brute_force_tracks(res, cfg)) == 1

    def test_long_gap_two_fragments(self, cfg):
        g = cfg.t2 + 5
        res = generate(single_object_spec(duration=150, burst_drops=((0, 60, g),)))
        fragments = brute_force_tracks(res, cfg)
        assert len(fragments) == 2
        eng, _ = track_stream(res.detections_by_frame, cfg)
        assert len(eng.valid_tracks()) == 2

    def test_guard_refuses_large_instances(self, cfg):
        res = generate(lanes_scenario(n_objects=2, duration=300, seed=1))
        with pytest.raises(InputError):
            brute_force_tracks(res, cfg)
        res6 = generate(lanes_scenario(n_objects=6, duration=50, seed=1))
        with pytest.raises(InputError):
            brute_force_tracks(res6, cfg)


class TestSpecJson:
    def test_round_trip(self):
        spec = bench_scenario(frames=50, objects=2, clutter=1.0, seed=3)
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_bad_json_rejected(self):
        with pytest.raises(InputError):
            spec_from_json("{not json")
        with pytest.raises(InputError):
            spec_from_json('["list"]')
        with pytest.raises(InputError):
            spec_from_json('{"no_such_field": 1}')
