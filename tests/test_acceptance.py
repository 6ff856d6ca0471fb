"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import math
import time

import numpy as np
import pytest

from mftrack import kalman, metrics
from mftrack.bench import run_bench
from mftrack.cli import main
from mftrack.lifecycle import should_terminate
from mftrack.pipeline import track_stream
from mftrack.scenario import (
    ClutterBlob,
    MotionScript,
    ScenarioSpec,
    generate,
    lanes_scenario,
    spec_to_json,
)
from mftrack.similarity import (
    area_similarity,
    color_similarity,
    distance_similarity,
    global_similarity,
    shape_similarity,
)
from mftrack.types import ObjectState, TrackerConfig

from conftest import make_track, table_of

TOL = 1e-9


def report(num, name, ok):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_1_formula_unit_suite():
    t0 = time.perf_counter()
    ok = True

    # distance (derived + trivial)
    a, b = ObjectState(0, 0, 10, 10), ObjectState(3, 4, 10, 10)
    ok &= distance_similarity(a, a, 5.0, 1) == 1.0
    ok &= distance_similarity(a, ObjectState(5, 0, 10, 10), 5.0, 1) == 0.0
    ok &= abs(distance_similarity(a, b, 5.0, 2) - 0.5) < TOL
    # area
    ok &= area_similarity(a, a) == 1.0
    ok &= abs(area_similarity(ObjectState(0, 0, 10, 10), ObjectState(0, 0, 10, 20)) - 0.5) < TOL
    ok &= abs(area_similarity(ObjectState(0, 0, 10, 10), ObjectState(0, 0, 20, 20)) - 0.25) < TOL
    # shape
    ok &= shape_similarity(ObjectState(0, 0, 10, 20), ObjectState(0, 0, 5, 10)) == 1.0
    ok &= abs(shape_similarity(ObjectState(0, 0, 5, 10), ObjectState(0, 0, 10, 10)) - 0.5) < TOL
    ok &= abs(shape_similarity(ObjectState(0, 0, 4, 2), ObjectState(0, 0, 2, 4)) - 0.25) < TOL
    # color
    ha, hb = np.array([10.0, 30.0]), np.array([20.0, 30.0])
    ok &= color_similarity(ha, ha) == 1.0
    ok &= color_similarity(np.array([10.0, 0.0]), np.array([0.0, 10.0])) == 0.0
    ok &= abs(color_similarity(ha, hb) - 0.75) < TOL
    # global
    ok &= global_similarity([0, 1, 1, 1], [1, 1, 1, 1]) == 0.0
    ok &= global_similarity([1, 1, 1, 1], [1, 1, 1, 1]) == 1.0
    ok &= abs(global_similarity([0.5, 1, 1, 1], [1, 1, 1, 1]) - 0.875) < TOL
    # correction blend
    ks = np.array([20.0, 0, 10, 10, 0, 0, 0, 0, 1.0, 0.0, 0.0])  # filter row: p = 1, c = v = 0
    _, cs = kalman.correct(ks, ObjectState(20, 0, 10, 10), ObjectState(10, 0, 10, 10),
                           ObjectState(20, 0, 10, 10), w=0.7)
    ok &= abs(cs.x - 13.0) < TOL
    prev = ObjectState(4, 4, 2, 2)
    _, cs = kalman.correct(ks, ObjectState(9, 9, 2, 2), None, prev, w=0.7)
    ok &= cs == prev
    s = ObjectState(10, 20, 5, 8)
    _, cs = kalman.correct(ks, s, s, s, w=0.3)
    ok &= cs == s
    # termination rule
    t = make_track(1, ObjectState(10, 10, 10, 10))
    t.n_r, t.f_l = 5, 100
    ok &= should_terminate(t, 106, 20) is True
    ok &= should_terminate(t, 105, 20) is False
    t.n_r = 50
    ok &= should_terminate(t, 120, 20) is False
    ok &= should_terminate(t, 121, 20) is True

    elapsed = time.perf_counter() - t0
    report(1, "formula unit suite", ok and elapsed < 1.0)


def test_criterion_2_similarity_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 10_000
    ok = True
    boxes_a = [ObjectState(*xy, *lh) for xy, lh in
               zip(rng.uniform(-500, 500, (n, 2)), rng.uniform(0.1, 300, (n, 2)))]
    boxes_b = [ObjectState(*xy, *lh) for xy, lh in
               zip(rng.uniform(-500, 500, (n, 2)), rng.uniform(0.1, 300, (n, 2)))]
    d_maxes = rng.uniform(0.5, 50, n)
    ms = rng.integers(1, 30, n)
    hists_a = rng.uniform(0, 40, (n, 16)) * (rng.random((n, 16)) < 0.8)
    hists_b = rng.uniform(0, 40, (n, 16)) * (rng.random((n, 16)) < 0.8)
    weights = (1.0, 1.0, 1.0, 1.0)
    for i in range(n):
        a, b = boxes_a[i], boxes_b[i]
        ha, hb = hists_a[i], hists_b[i]
        ls = (distance_similarity(a, b, float(d_maxes[i]), int(ms[i])),
              area_similarity(a, b), shape_similarity(a, b), color_similarity(ha, hb))
        gs = global_similarity(ls, weights)
        ok &= all(0.0 <= v <= 1.0 for v in (*ls, gs))
        ok &= abs(ls[1] - area_similarity(b, a)) < 1e-12
        ok &= abs(ls[2] - shape_similarity(b, a)) < 1e-12
        ok &= abs(ls[3] - color_similarity(hb, ha)) < 1e-12
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(2, "similarity bounds, 10k random pairs", ok and elapsed < 5.0)


def test_criterion_3_perfect_tracking_oracle():
    spec = lanes_scenario(n_objects=5, duration=500, seed=1)
    result = generate(spec)
    t0 = time.perf_counter()
    engine, _ = track_stream(result.detections_by_frame, TrackerConfig())
    rep = metrics.evaluate(result.gt, engine.trajectories())
    elapsed = time.perf_counter() - t0
    ok = (rep.m1 == 1.0 and rep.m2 == 1.0 and rep.m3 == 1.0 and rep.m_bar == 1.0
          and len(engine.valid_tracks()) == 5 and elapsed < 2.0)
    report(3, "perfect-tracking oracle", ok)


def test_criterion_4_fragmentation_repair_boundary():
    cfg = TrackerConfig()
    ok = True
    for g in range(1, 31):
        duration = 60 + g + 40
        obj = MotionScript(
            waypoints=((0, 30, 100, 20, 40), (duration - 1, 30 + 3 * (duration - 1), 100, 20, 40)),
            hist_peak=10)
        spec = ScenarioSpec(seed=3, duration=duration, objects=(obj,),
                            burst_drops=((0, 60, g),), arena=(3 * duration + 60, 480))
        result = generate(spec)
        engine, _ = track_stream(result.detections_by_frame, cfg)
        expected = 1 if g <= cfg.t2 else 2
        ok &= len(engine.valid_tracks()) == expected
        ok &= not any(t.status == "noise" for t in engine.tracks.values())
    report(4, "fragmentation repair boundary (gap 1..30, T2=20)", ok)


def test_criterion_5_noise_filtering():
    duration = 200
    objects = (
        MotionScript(waypoints=((0, 30, 80, 24, 48), (duration - 1, 30 + 1.5 * (duration - 1), 80, 24, 48)),
                     hist_peak=5),
        MotionScript(waypoints=((0, 40, 400, 24, 48), (duration - 1, 40 + 1.5 * (duration - 1), 400, 24, 48)),
                     hist_peak=60),
    )
    blobs = tuple(
        ClutterBlob(start_frame=10 + 12 * i, lifetime=5 + i, x=100 + 40 * i, y=240,
                    size=8, hist_peak=(7 * i) % 96)
        for i in range(10))
    spec = ScenarioSpec(seed=5, duration=duration, objects=objects, clutter_blobs=blobs,
                        clutter_extent=2.0, arena=(900, 480))
    result = generate(spec)
    engine, _ = track_stream(result.detections_by_frame, TrackerConfig())
    noise = [t for t in engine.tracks.values() if t.status == "noise"]
    valid = engine.valid_tracks()
    ok = len(noise) == 10 and len(valid) == 2
    report(5, "noise filtering (10 clutter, 2 real)", ok)


def test_criterion_6_m2_fragmentation_sensitivity():
    gt = table_of({0: {f: ObjectState(50.0 + f, 50, 10, 10) for f in range(100)}})
    # 5 fragments of 20 frames each
    tracks = {tid: {} for tid in range(1, 6)}
    for f in range(100):
        tracks[1 + f // 20][f] = ObjectState(50.0 + f, 50, 10, 10)
    _, gt_ids, track_ids = metrics.associate(gt, table_of(tracks))
    ok = metrics.score(gt, gt_ids, track_ids).m2 == 0.2
    report(6, "M2 with 5 forced fragments = 0.20", ok)


def test_criterion_7_throughput_floor():
    fps = run_bench(frames=5000, objects=5, clutter=5.0, seed=7)
    ok = fps >= 500.0
    print(f"\n  bench fps: {fps:.1f}")
    report(7, "bench >= 500 fps on 5 objects / 5000 frames", ok)


def test_criterion_8_determinism(tmp_path):
    spec = lanes_scenario(n_objects=3, duration=200, seed=11,
                          position_jitter_sigma=0.5, drop_probability=0.05,
                          clutter_rate=2.0)
    spec_path = tmp_path / "s.json"
    spec_path.write_text(spec_to_json(spec))
    assert main(["simulate", "--scenario", str(spec_path), "--out", str(tmp_path / "sim")]) == 0
    det = str(tmp_path / "sim.det.txt")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["track", "--detections", det, "--out", str(a)]) == 0
    assert main(["track", "--detections", det, "--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes() and a.stat().st_size > 0
    report(8, "byte-identical trajectory files", ok)
