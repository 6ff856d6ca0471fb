import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_histogram, make_detection, make_track, peaked_histogram
from mftrack import kernels, lifecycle, scenario
from mftrack.engine import TrackingEngine, match_frame
from mftrack.errors import InputError, SequencingError
from mftrack.similarity import distance_similarity, global_similarity
from mftrack.types import ObjectState, TrackerConfig


class TestMatchFrame:
    def test_no_detections(self, cfg):
        tracks = [make_track(1, ObjectState(0, 0, 10, 10))]
        r = match_frame(tracks, [], cfg, frame_id=1)
        assert r.pairs == []
        assert r.unmatched_tracks == [1]
        assert r.unmatched_detections == []

    def test_exact_match_scores_one(self, cfg):
        t = make_track(1, ObjectState(50, 50, 10, 10))
        d = make_detection(1, 0, 50, 50)
        r = match_frame([t], [d], cfg, frame_id=1)
        assert r.pairs == [(1, 0, pytest.approx(1.0))]
        assert r.unmatched_tracks == [] and r.unmatched_detections == []

    def test_greedy_prefers_higher_score(self, cfg):
        # the nearer track wins the single detection; the other stays unmatched
        t1 = make_track(1, ObjectState(50.0, 50.0, 10, 10))
        t2 = make_track(2, ObjectState(52.0, 50.0, 10, 10))
        d = make_detection(1, 0, 50.5, 50.0)
        r = match_frame([t1, t2], [d], cfg, frame_id=1)
        assert len(r.pairs) == 1
        assert r.pairs[0][0] == 1
        assert r.unmatched_tracks == [2]

    def test_tie_broken_by_lower_track_id(self, cfg):
        t1 = make_track(3, ObjectState(48, 50, 10, 10))
        t2 = make_track(7, ObjectState(52, 50, 10, 10))
        d = make_detection(1, 0, 50, 50)  # equidistant
        r = match_frame([t1, t2], [d], cfg, frame_id=1)
        assert r.pairs[0][0] == 3
        assert r.unmatched_tracks == [7]

    def test_below_threshold_not_matched(self, cfg):
        # d_max = 5 (6x8 box), distance 4.5 -> LS1 = 0.1, GS = 0.775 < 0.8
        t = make_track(1, ObjectState(0, 0, 6, 8))
        d = make_detection(1, 0, 4.5, 0, l=6, h=8)
        r = match_frame([t], [d], cfg, frame_id=1)
        assert r.pairs == []
        assert r.unmatched_tracks == [1]
        assert r.unmatched_detections == [0]

    @pytest.mark.parametrize("frame_id", [1, 2, 3, 5])
    def test_reach_grows_with_frames_since_last_match(self, frame_id):
        # d_max = 5 (6x8 box), last match at frame 0, detection 8 px away:
        # gated after one frame, inside the reach 5 * m after more
        cfg = TrackerConfig(t1=0.0)
        t = make_track(1, ObjectState(0, 0, 6, 8))
        d = make_detection(frame_id, 0, 8.0, 0, l=6, h=8)
        r = match_frame([t], [d], cfg, frame_id=frame_id)
        ls1 = distance_similarity(t.prediction, d.state, 5.0, frame_id)
        assert (ls1 > 0.0) == (frame_id > 1)
        assert r.pairs == [(1, 0, pytest.approx(global_similarity([ls1, 1.0, 1.0, 1.0],
                                                                   cfg.feature_weights)))]

    def test_mixed_frame_ids_rejected(self, cfg):
        dets = [make_detection(1, 0, 0, 0), make_detection(2, 1, 5, 5)]
        with pytest.raises(InputError):
            match_frame([], dets, cfg)

    def test_per_track_policy_can_share_a_detection(self):
        cfg = TrackerConfig(assignment_policy="per_track")
        t1 = make_track(1, ObjectState(49, 50, 10, 10))
        t2 = make_track(2, ObjectState(51, 50, 10, 10))
        d = make_detection(1, 0, 50, 50)
        r = match_frame([t1, t2], [d], cfg, frame_id=1)
        assert [p[0] for p in r.pairs] == [1, 2]
        assert all(p[1] == 0 for p in r.pairs)

    def test_per_track_tie_goes_to_lower_detection_id(self):
        # both detections equidistant from the track, listed in descending id
        cfg = TrackerConfig(assignment_policy="per_track")
        t = make_track(1, ObjectState(50, 50, 10, 10))
        dets = [make_detection(1, 9, 52, 50), make_detection(1, 4, 48, 50)]
        r = match_frame([t], dets, cfg, frame_id=1)
        assert [p[:2] for p in r.pairs] == [(1, 4)]
        assert r.unmatched_detections == [9]

    @pytest.mark.parametrize("policy", ["greedy_global", "per_track"])
    @pytest.mark.parametrize("t1", [0.0, 0.8, 1.0])
    def test_candidates_match_pairwise_loop(self, policy, t1, monkeypatch):
        """Pairs equal those of a loop over every pair, gated ones included,
        on grid frames where many scores tie and ids are out of order."""
        cfg = TrackerConfig(t1=t1, assignment_policy=policy)
        real = kernels.score_matrix
        scored = []
        monkeypatch.setattr(kernels, "score_matrix", lambda *a: scored.append(real(*a)) or scored[-1])
        rng = np.random.default_rng(41)
        n_zero = 0
        for _ in range(60):
            nt, nd = rng.integers(1, 7, 2)
            tracks = [make_track(int(tid), ObjectState(*(50.0 + 4.0 * rng.integers(0, 5, 2)), 10, 10))
                      for tid in rng.permutation(20)[:nt] + 1]
            dets = [make_detection(1, int(did), *(50.0 + 4.0 * rng.integers(0, 5, 2)))
                    for did in rng.permutation(20)[:nd]]
            pairs = match_frame(tracks, dets, cfg, frame_id=1).pairs
            assert pairs == _pairwise_loop(tracks, dets, scored[-1], cfg)
            n_zero += sum(p[2] == 0.0 for p in pairs)
        assert (n_zero > 0) == (t1 == 0.0)

    def test_greedy_never_shares_detections_random(self, cfg):
        rng = np.random.default_rng(17)
        for _ in range(30):
            tracks = [make_track(i + 1, ObjectState(*rng.uniform(10, 200, 2), 12, 24))
                      for i in range(rng.integers(1, 8))]
            dets = [make_detection(1, j, *rng.uniform(10, 200, 2), l=12, h=24)
                    for j in range(rng.integers(0, 8))]
            r = match_frame(tracks, dets, cfg, frame_id=1)
            tids = [p[0] for p in r.pairs]
            dids = [p[1] for p in r.pairs]
            assert len(tids) == len(set(tids))
            assert len(dids) == len(set(dids))
            assert all(p[2] >= cfg.t1 for p in r.pairs)


def _pairwise_loop(tracks, detections, scores, cfg):
    """Assignment by a loop over every (track, detection) pair."""
    pairs = []
    if cfg.assignment_policy == "per_track":
        for i, t in enumerate(tracks):
            j = min(range(len(detections)),
                    key=lambda j: (-scores[i, j], detections[j].detection_id))
            if scores[i, j] >= cfg.t1:
                pairs.append((t.track_id, detections[j].detection_id, float(scores[i, j])))
        return pairs
    candidates = sorted(
        (-float(scores[i, j]), tracks[i].track_id, detections[j].detection_id, i, j)
        for i in range(len(tracks))
        for j in range(len(detections))
        if scores[i, j] >= cfg.t1)
    taken_t, taken_d = set(), set()
    for neg, tid, did, i, j in candidates:
        if i not in taken_t and j not in taken_d:
            taken_t.add(i)
            taken_d.add(j)
            pairs.append((tid, did, -neg))
    return pairs


class TestStep:
    def test_detections_spawn_tracks(self, cfg):
        eng = TrackingEngine(cfg)
        report = eng.step(0, [make_detection(0, j, 50 + 100 * j, 50) for j in range(3)])
        assert report.new_tracks == [1, 2, 3]
        assert all(t.n_r == 1 and t.t_w == 0 for t in eng.tracks.values())

    def test_gap_resume_keeps_identity(self, cfg):
        eng = TrackingEngine(cfg)
        hist = peaked_histogram()
        for f in range(1, 6):  # matched frames 1..5
            eng.step(f, [make_detection(f, 0, 10.0 + 2 * f, 50, hist=hist)])
        for f in range(6, 9):  # absent 6..8
            eng.step(f, [])
        eng.step(9, [make_detection(9, 0, 10.0 + 2 * 9, 50, hist=hist)])
        assert len(eng.tracks) == 1
        t = eng.tracks[1]
        assert t.status == "active"
        assert t.t_w == 3
        assert t.n_r == 6
        assert t.f_l == 9

    def test_low_score_detection_spawns_new_track(self, cfg):
        eng = TrackingEngine(cfg)
        eng.step(0, [make_detection(0, 0, 0, 0, l=6, h=8)])
        report = eng.step(1, [make_detection(1, 0, 4.5, 0, l=6, h=8)])
        assert report.new_tracks == [2]
        assert eng.tracks[1].status == "waiting"
        assert report.waiting == [1]

    def test_waiting_bookkeeping(self, cfg):
        eng = TrackingEngine(cfg)
        eng.step(0, [make_detection(0, 0, 50, 50)])
        t = eng.tracks[1]
        eng.step(1, [make_detection(1, 0, 51, 50)])
        assert (t.n_r, t.t_w) == (2, 0)
        eng.step(2, [])
        assert (t.n_r, t.t_w) == (2, 1)
        assert t.states[2] == t.states[1]  # held corrected state

    def test_span_invariant_every_step(self, cfg):
        rng = np.random.default_rng(23)
        eng = TrackingEngine(cfg)
        for f in range(60):
            dets = []
            if rng.random() < 0.8:
                dets.append(make_detection(f, 0, 30.0 + f, 50))
            if rng.random() < 0.5:
                dets.append(make_detection(f, 1, 30.0 + f, 300))
            eng.step(f, dets)
            for t in eng.tracks.values():
                if t.is_live():
                    assert t.t_w + t.n_r == f - t.birth_frame + 1

    def test_out_of_order_frame_rejected(self, cfg):
        eng = TrackingEngine(cfg)
        eng.step(5, [])
        with pytest.raises(SequencingError):
            eng.step(5, [])
        with pytest.raises(SequencingError):
            eng.step(3, [])

    def test_duplicate_detection_id_rejected(self, cfg):
        eng = TrackingEngine(cfg)
        with pytest.raises(InputError):
            eng.step(0, [make_detection(0, 1, 10, 10), make_detection(0, 1, 90, 90)])

    def test_deterministic(self, cfg):
        def run():
            rng = np.random.default_rng(99)
            eng = TrackingEngine(cfg)
            for f in range(80):
                dets = [make_detection(f, j, float(rng.uniform(10, 400)), float(rng.uniform(10, 400)))
                        for j in range(int(rng.integers(0, 5)))]
                eng.step(f, dets)
            return eng.trajectories()

        a, b = run(), run()
        assert a == b


def _engine_state(eng):
    """Everything step may mutate, in comparable form."""
    def filt(ks):
        return {k: np.asarray(v).tolist() for k, v in vars(ks).items()}
    return (eng.last_frame, eng._next_id, [t.track_id for t in eng.live_tracks()], {
        tid: (t.status, t.end_frame, t.f_l, t.n_r, t.t_w, dict(t.states), t.prediction,
              t.last_cs, t.last_histogram, set(t.matched_frames), t.d_max, filt(t.kalman))
        for tid, t in eng.tracks.items()})


@st.composite
def _streams(draw):
    """Frames 0..n of up to four objects in straight-line motion, each seen or
    missed per frame; frame n is the one the rejected call replaces."""
    coord, speed = st.floats(50.0, 400.0), st.floats(-4.0, 4.0)
    objects = draw(st.lists(st.tuples(coord, coord, speed, speed), min_size=1, max_size=4))
    frames = []
    for f in range(draw(st.integers(1, 12)) + 1):
        seen = draw(st.lists(st.booleans(), min_size=len(objects), max_size=len(objects)))
        frames.append([make_detection(f, j, x + vx * f, y + vy * f)
                       for j, ((x, y, vx, vy), on) in enumerate(zip(objects, seen)) if on])
    return frames


@settings(max_examples=60, deadline=None)
@given(frames=_streams(),
       rejection=st.sampled_from(["wrong_frame_id", "duplicate_id", "stale_frame"]),
       data=st.data())
def test_rejected_step_leaves_engine_unchanged(frames, rejection, data):
    *warm, valid = frames
    n = len(warm)
    eng, ref = TrackingEngine(), TrackingEngine()
    for f, dets in enumerate(warm):
        eng.step(f, dets)
        ref.step(f, dets)
    before = _engine_state(eng)

    if rejection == "wrong_frame_id":
        with pytest.raises(InputError):
            eng.step(n, valid + [make_detection(n + 99, 100, 60, 60)])
    elif rejection == "duplicate_id":
        with pytest.raises(InputError):
            eng.step(n, valid + [make_detection(n, 100, 60, 60), make_detection(n, 100, 90, 90)])
    else:
        stale = data.draw(st.integers(0, n - 1))
        with pytest.raises(SequencingError):
            eng.step(stale, frames[stale])

    assert _engine_state(eng) == before
    assert eng.step(n, valid) == ref.step(n, valid)
    assert _engine_state(eng) == _engine_state(ref)


def test_sweep_and_live_set_stay_at_live_size(monkeypatch):
    """Over a long clutter stream, the lifecycle sweep is handed exactly the
    live tracks (last frame's live set plus newborns), never the history."""
    stream = scenario.generate(scenario.bench_scenario(frames=600, seed=7)).detections_by_frame
    handed = []
    real_sweep = lifecycle.sweep

    def counting_sweep(live, f_c, cfg):
        handed.append(len(live))
        return real_sweep(live, f_c, cfg)

    monkeypatch.setattr(lifecycle, "sweep", counting_sweep)
    eng = TrackingEngine()
    for f in range(min(stream), max(stream) + 1):
        before = len(eng.live_tracks())
        report = eng.step(f, stream.get(f, []))
        assert handed[-1] == before + len(report.new_tracks)
        live = eng.live_tracks()
        assert [t.track_id for t in live] == [t.track_id for t in eng.tracks.values() if t.is_live()]
        assert len(live) == handed[-1] - len(report.terminated) - len(report.noise)
    assert len(handed) == 600
    assert 10 * max(handed) < len(eng.tracks)
