import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mftrack.types import Frame, TrackerConfig


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
            for x, y in ((da.ids, db.ids), (da.boxes, db.boxes), (da.hist, db.hist)):
                assert x.tobytes() == y.tobytes()

    def test_zero_perturbation_equals_gt(self):
        res = generate(single_object_spec())
        for f, dets in res.detections_by_frame.items():
            assert len(dets) == 1
            assert dets.boxes[0].tolist() == res.gt.boxes[res.gt.frames == f][0].tolist()

    def test_burst_drop_single_gap(self):
        res = generate(single_object_spec(burst_drops=((0, 40, 3),)))
        frames = sorted(f for f, dets in res.detections_by_frame.items() if dets)
        missing = sorted(set(range(100)) - set(frames))
        assert missing == [40, 41, 42]

    def test_interpolation_is_piecewise_linear(self):
        obj = MotionScript(waypoints=((0, 0, 0.001, 10, 10), (10, 20, 0.001, 10, 10),
                                      (20, 20, 50, 10, 30)))
        res = generate(ScenarioSpec(seed=0, duration=21, objects=(obj,)))
        assert res.gt.frames.tolist() == list(range(21))  # object 0's rows, in frame order
        x5, y5, _, _ = res.gt.boxes[5]
        assert (x5, y5) == (10, 0.001)
        _, y15, _, h15 = res.gt.boxes[15]
        assert y15 == pytest.approx(25.0005)
        assert h15 == pytest.approx(20.0)

    def test_clutter_spread_bounded(self):
        blob = ClutterBlob(start_frame=0, lifetime=50, x=100, y=100)
        spec = ScenarioSpec(seed=21, duration=50, objects=(), clutter_blobs=(blob,),
                            clutter_extent=3.0)
        res = generate(spec)
        pts = [(x, y) for frame in res.detections_by_frame.values()
               for x, y in frame.boxes[:, :2].tolist()]
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
        for f, frame in res.detections_by_frame.items():
            want = [b.size for b in blobs if b.start_frame <= f < b.start_frame + b.lifetime]
            assert frame.boxes[:, 2].tolist() == want
        # one histogram per blob, whatever the frame
        first = {}
        for frame in res.detections_by_frame.values():
            for size, hist in zip(frame.boxes[:, 2].tolist(), frame.hist):
                assert first.setdefault(size, hist.tobytes()) == hist.tobytes()
        assert sorted(first) == [7.0, 8.0, 10.0, 11.0, 12.0, 13.0]

    def test_clutter_rate_roughly_met(self):
        spec = lanes_scenario(n_objects=1, duration=400, seed=6, clutter_rate=4.0)
        res = generate(spec)
        clutter_counts = [
            sum(1 for did in frame.ids.tolist() if res.provenance[(f, did)] == CLUTTER)
            for f, frame in res.detections_by_frame.items()
        ]
        mean = np.mean(clutter_counts[50:])  # after warm-in
        assert 2.0 < mean < 6.0

    def test_one_frame_lanes(self):
        res = generate(bench_scenario(frames=1, objects=5, clutter=0.0))
        assert list(res.detections_by_frame) == [0]
        frame = res.detections_by_frame[0]
        assert frame.ids.tolist() == [0, 1, 2, 3, 4]
        assert [res.provenance[(0, i)] for i in range(5)] == [0, 1, 2, 3, 4]

    def test_every_frame_is_a_frame_in_source_order(self):
        """Every frame 0..duration-1 is a read-only Frame, empty ones
        included, whose rows are its detections in source order, ids 0..m-1."""
        spec = lanes_scenario(n_objects=2, duration=30, seed=3, burst_drops=((0, 5, 4), (1, 6, 2)),
                              clutter_rate=1.0, histogram_noise=0.1)
        res = generate(spec)
        assert list(res.detections_by_frame) == list(range(30))
        for f, frame in res.detections_by_frame.items():
            assert isinstance(frame, Frame) and frame.frame_id == f and frame.n_bins == 96
            assert frame.ids.tolist() == list(range(len(frame)))
            assert not (frame.boxes.flags.writeable or frame.hist.flags.writeable)
            sources = [res.provenance[(f, i)] for i in range(len(frame))]
            objects = [s for s in sources if s != CLUTTER]
            assert sources == objects + [CLUTTER] * (len(sources) - len(objects))
            assert objects == sorted(objects)
        assert len(res.detections_by_frame[7]) == sum(s == CLUTTER for (f, _), s in
                                                      res.provenance.items() if f == 7)

    def test_invalid_interpolated_box_is_input_error(self):
        """Valid waypoints whose interpolation gives a box of height 0 (here
        1 + (1e-300 - 1) at frame 5): an input error naming object and frame."""
        spec = spec_from_json('{"duration": 10, "objects": [{"waypoints": '
                              '[[0, 40, 60, 10, 1], [5, 100, 60, 10, 1e-300]]}]}')
        with pytest.raises(InputError, match="^object 0 at frame 5: box dimensions must be positive"):
            generate(spec)

    def test_first_bad_frame_named(self):
        """Of an object whose interpolated boxes break the box rules at
        several frames, the first is named; an earlier valid object is not."""
        spec = spec_from_json('{"duration": 20, "objects": ['
                              '{"waypoints": [[0, 40, 60, 10, 10], [19, 90, 60, 10, 10]]}, '
                              '{"waypoints": [[0, 40, 60, 10, 1], [5, 100, 60, 10, 1e-300], '
                              '[6, 100, 60, 10, 1], [12, 100, 60, 10, 1e-300]]}]}')
        with pytest.raises(InputError, match="^object 1 at frame 5: box dimensions must be positive"):
            generate(spec)

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
        spec = ScenarioSpec(objects=spec.objects, burst_drops=((1, 5, 3),),
                            clutter_blobs=(ClutterBlob(-2, 5, 50.0, 60.0, hist_peak=9),))
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_bad_json_rejected(self):
        with pytest.raises(InputError):
            spec_from_json("{not json")
        with pytest.raises(InputError):
            spec_from_json('["list"]')
        with pytest.raises(InputError):
            spec_from_json('{"no_such_field": 1}')


def _state_at(waypoints, frame):
    """The box at frame, interpolated one frame at a time in Python
    arithmetic: the first waypoint's box up to its frame, after it along
    the first segment that ends at or after the frame."""
    if frame <= waypoints[0][0]:
        return tuple(waypoints[0][1:])
    for (f0, *b0), (f1, *b1) in zip(waypoints, waypoints[1:]):
        if frame <= f1:
            a = (frame - f0) / (f1 - f0)
            return tuple(v0 + a * (v1 - v0) for v0, v1 in zip(b0, b1))
    raise AssertionError(f"frame {frame} past the last waypoint")


_value = st.one_of(st.integers(-1000, 1000), st.floats(-1e3, 1e3, allow_nan=False),
                   st.sampled_from([-0.0, 0.1, 0.3, 1e-300, 2.0**52 + 1]))
_frame = st.one_of(st.integers(-30, 60), st.integers(-60, 120).map(lambda k: k / 2))


@settings(max_examples=300, deadline=None)
@given(frames=st.lists(_frame, min_size=1, max_size=5, unique=True),
       boxes=st.lists(st.tuples(_value, _value, _value, _value), min_size=5, max_size=5),
       duration=st.integers(1, 40))
def test_boxes_at_equals_per_frame_interpolation(frames, boxes, duration):
    """The block of an object's boxes in the stream is, bit for bit, the
    per-frame interpolation of its waypoints, integers, halves and -0.0
    included."""
    script = MotionScript(tuple((f, *b) for f, b in zip(sorted(frames), boxes)))
    f0, f1 = script.frame_range()
    stream = np.arange(max(f0, 0), min(f1 + 1, duration), dtype=np.int64)
    want = np.array([_state_at(script.waypoints, f) for f in stream.tolist()],
                    dtype=np.float64).reshape(-1, 4)
    assert script.boxes_at(stream).tobytes() == want.tobytes()
