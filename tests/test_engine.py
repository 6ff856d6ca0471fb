import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes, extent, live_rows, make_frame, make_track, peaked_histogram, table_of
from mftrack import bench, fileio, kalman, kernels, lifecycle, scenario
from mftrack.engine import (_BASE, _BOX, _D_MAX, _ID, _KF, _N_C, FrameReport, TrackingEngine,
                            match_frame)
from mftrack.errors import HistogramShapeError, InputError, NumericOverflowError, SequencingError
from mftrack.similarity import distance_similarity, global_similarity
from mftrack.types import (ACTIVE, NOISE, TERMINATED, WAITING, Frame, ObjectState, Track,
                           TrackerConfig, Trajectories, check_boxes, diagonal_half)


class TestMatchFrame:
    def test_no_detections(self, cfg):
        tracks = [make_track(1, ObjectState(0, 0, 10, 10))]
        r = match_frame(live_rows(tracks), [], cfg, frame_id=1)
        assert r.pairs == []
        assert r.unmatched_tracks == [1]
        assert r.frame.ids[r.spawn].tolist() == []

    def test_exact_match_scores_one(self, cfg):
        t = make_track(1, ObjectState(50, 50, 10, 10))
        r = match_frame(live_rows([t]), make_frame(1, [(50, 50)]), cfg, frame_id=1)
        assert r.pairs == [(1, 0, pytest.approx(1.0))]
        assert r.unmatched_tracks == [] and r.frame.ids[r.spawn].tolist() == []

    def test_greedy_prefers_higher_score(self, cfg):
        # the nearer track wins the single detection; the other stays unmatched
        t1 = make_track(1, ObjectState(50.0, 50.0, 10, 10))
        t2 = make_track(2, ObjectState(52.0, 50.0, 10, 10))
        r = match_frame(live_rows([t1, t2]), make_frame(1, [(50.5, 50.0)]), cfg, frame_id=1)
        assert len(r.pairs) == 1
        assert r.pairs[0][0] == 1
        assert r.unmatched_tracks == [2]

    def test_tie_broken_by_lower_track_id(self, cfg):
        t1 = make_track(3, ObjectState(48, 50, 10, 10))
        t2 = make_track(7, ObjectState(52, 50, 10, 10))
        d = make_frame(1, [(50, 50)])  # equidistant
        r = match_frame(live_rows([t1, t2]), d, cfg, frame_id=1)
        assert r.pairs[0][0] == 3
        assert r.unmatched_tracks == [7]

    def test_below_threshold_not_matched(self, cfg):
        # d_max = 5 (6x8 box), distance 4.5 -> LS1 = 0.1, GS = 0.775 < 0.8
        t = make_track(1, ObjectState(0, 0, 6, 8))
        d = make_frame(1, [(4.5, 0)], l=6, h=8)
        r = match_frame(live_rows([t]), d, cfg, frame_id=1)
        assert r.pairs == []
        assert r.unmatched_tracks == [1]
        assert r.frame.ids[r.spawn].tolist() == [0]

    @pytest.mark.parametrize("frame_id", [1, 2, 3, 5])
    def test_reach_grows_with_frames_since_last_match(self, frame_id):
        # d_max = 5 (6x8 box), last match at frame 0, detection 8 px away:
        # gated after one frame, inside the reach 5 * m after more
        cfg = TrackerConfig(t1=0.0)
        t = make_track(1, ObjectState(0, 0, 6, 8))
        d = make_frame(frame_id, [(8.0, 0)], l=6, h=8)
        r = match_frame(live_rows([t]), d, cfg, frame_id=frame_id)
        ls1 = distance_similarity(ObjectState(*r.boxes[0]), ObjectState(*d.boxes[0]), 5.0, frame_id)
        assert (ls1 > 0.0) == (frame_id > 1)
        assert r.pairs == [(1, 0, pytest.approx(global_similarity([ls1, 1.0, 1.0, 1.0],
                                                                   cfg.feature_weights)))]

    @pytest.mark.parametrize("n_tracks", [0, 2])
    @pytest.mark.parametrize("wrong", ["one", "all"])
    def test_wrong_histogram_length_rejected(self, cfg, n_tracks, wrong):
        """A frame of one detection, or of all three, whose histograms have
        half the bins, with and without tracks to score."""
        tracks = [make_track(i + 1, ObjectState(50.0 * i, 50, 10, 10)) for i in range(n_tracks)]
        dets = make_frame(1, [(50.0 * j, 50) for j in range(1 if wrong == "one" else 3)],
                          n=cfg.n_bins // 2)
        with pytest.raises(HistogramShapeError, match="histogram bins, expected 96$"):
            match_frame(live_rows(tracks), dets, cfg, frame_id=1)

    def test_reads_tracks_without_changing_them(self, cfg):
        eng = TrackingEngine(cfg)
        replay = _ScalarReplay(cfg)
        for f in range(6):
            seen = [j for j in range(3) if (f + j) % 3]
            dets = make_frame(f, [(40.0 + 3 * f + 100 * j, 50.0 + f) for j in seen], seen)
            replay.follow(eng, dets, eng.step(f, dets))
        before = _engine_state(eng)
        tracks = eng.live_tracks()
        dets = make_frame(6, [(58.0 + 100 * j, 56.0) for j in range(3)])
        r = match_frame(eng._rows, dets, cfg, frame_id=6)
        assert _engine_state(eng) == before
        assert len(kalman.columns(r.predicted)[2]) == len(r.boxes) == len(tracks)
        for i, t in enumerate(tracks):
            ref_ks, ref_es = kalman.predict(replay.filters[t.track_id], cfg)
            assert ObjectState(*r.boxes[i]) == ref_es
            assert r.predicted[i].tolist() == ref_ks.tolist()

    def test_mixed_frame_ids_rejected(self, cfg):
        # a frame's detections all carry its frame id, 2 here, not the one matched
        dets = make_frame(2, [(0, 0), (5, 5)])
        with pytest.raises(InputError, match="^detection 0 carries frame 2, expected 1$"):
            match_frame(live_rows([]), dets, cfg, frame_id=1)

    def test_per_track_policy_can_share_a_detection(self):
        cfg = TrackerConfig(assignment_policy="per_track")
        t1 = make_track(1, ObjectState(49, 50, 10, 10))
        t2 = make_track(2, ObjectState(51, 50, 10, 10))
        r = match_frame(live_rows([t1, t2]), make_frame(1, [(50, 50)]), cfg, frame_id=1)
        assert [p[0] for p in r.pairs] == [1, 2]
        assert all(p[1] == 0 for p in r.pairs)

    def test_per_track_tie_goes_to_lower_detection_id(self):
        # both detections equidistant from the track, listed in descending id
        cfg = TrackerConfig(assignment_policy="per_track")
        t = make_track(1, ObjectState(50, 50, 10, 10))
        dets = make_frame(1, [(52, 50), (48, 50)], ids=[9, 4])
        r = match_frame(live_rows([t]), dets, cfg, frame_id=1)
        assert [p[:2] for p in r.pairs] == [(1, 4)]
        assert r.frame.ids[r.spawn].tolist() == [9]

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
            dids = rng.permutation(20)[:nd]
            dets = make_frame(1, [50.0 + 4.0 * rng.integers(0, 5, 2) for _ in dids], dids)
            pairs = match_frame(live_rows(tracks), dets, cfg, frame_id=1).pairs
            assert pairs == _pairwise_loop(tracks, dets, scored[-1], cfg)
            n_zero += sum(p[2] == 0.0 for p in pairs)
        assert (n_zero > 0) == (t1 == 0.0)

    def test_greedy_never_shares_detections_random(self, cfg):
        rng = np.random.default_rng(17)
        for _ in range(30):
            tracks = [make_track(i + 1, ObjectState(*rng.uniform(10, 200, 2), 12, 24))
                      for i in range(rng.integers(1, 8))]
            dets = make_frame(1, [rng.uniform(10, 200, 2) for _ in range(rng.integers(0, 8))],
                              l=12, h=24)
            r = match_frame(live_rows(tracks), dets, cfg, frame_id=1)
            tids = [p[0] for p in r.pairs]
            dids = [p[1] for p in r.pairs]
            assert len(tids) == len(set(tids))
            assert len(dids) == len(set(dids))
            assert all(p[2] >= cfg.t1 for p in r.pairs)


def _pairwise_loop(tracks, frame, scores, cfg):
    """Assignment by a loop over every (track, detection) pair."""
    pairs, dids = [], frame.ids.tolist()
    if cfg.assignment_policy == "per_track":
        for i, t in enumerate(tracks):
            j = min(range(len(dids)), key=lambda j: (-scores[i, j], dids[j]))
            if scores[i, j] >= cfg.t1:
                pairs.append((t.track_id, dids[j], float(scores[i, j])))
        return pairs
    candidates = sorted(
        (-float(scores[i, j]), tracks[i].track_id, dids[j], i, j)
        for i in range(len(tracks))
        for j in range(len(dids))
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
        report = eng.step(0, make_frame(0, [(50 + 100 * j, 50) for j in range(3)]))
        assert report.new_tracks == [1, 2, 3]
        assert all(t.n_r == 1 and t.t_w == 0 for t in eng.tracks.values())

    def test_gap_resume_keeps_identity(self, cfg):
        eng = TrackingEngine(cfg)
        hist = peaked_histogram()
        for f in range(1, 6):  # matched frames 1..5
            eng.step(f, make_frame(f, [(10.0 + 2 * f, 50)], hist=hist))
        for f in range(6, 9):  # absent 6..8
            eng.step(f, [])
        eng.step(9, make_frame(9, [(10.0 + 2 * 9, 50)], hist=hist))
        assert len(eng.tracks) == 1
        t = eng.tracks[1]
        assert t.status == "active"
        assert t.t_w == 3
        assert t.n_r == 6
        assert t.f_l == 9

    def test_low_score_detection_spawns_new_track(self, cfg):
        eng = TrackingEngine(cfg)
        eng.step(0, make_frame(0, [(0, 0)], l=6, h=8))
        report = eng.step(1, make_frame(1, [(4.5, 0)], l=6, h=8))
        assert report.new_tracks == [2]
        assert eng.tracks[1].status == "waiting"
        assert report.waiting == [1]

    def test_waiting_bookkeeping(self, cfg):
        eng = TrackingEngine(cfg)
        eng.step(0, make_frame(0, [(50, 50)]))
        t = eng.tracks[1]
        eng.step(1, make_frame(1, [(51, 50)]))
        # a track is brought up to the last step when the engine's tracks are read
        assert eng.tracks[1] is t
        assert (t.n_r, t.t_w) == (2, 0)
        eng.step(2, [])
        assert eng.tracks[1] is t
        assert (t.n_r, t.t_w) == (2, 1)
        assert t.frames.tolist() == [0, 1, 2]
        assert t.boxes[2].tolist() == t.boxes[1].tolist()  # held corrected state

    def test_read_empties_log_and_held_track_follows(self, cfg):
        """A read appends the log, over several chunks of blocks, to the
        tracks' rows and keeps none of it; a track held from an earlier read is
        brought up to date by the next."""
        eng = TrackingEngine(cfg)
        eng.step(0, make_frame(0, [(50, 50)]))
        t = eng.tracks[1]
        assert not eng._log
        matched = [f for f in range(151) if f % 3]
        for f in range(1, 151):  # waiting on every third frame
            eng.step(f, make_frame(f, [(50 + f, 50)]) if f % 3 else [])
        assert len(eng._log) == 150
        assert eng.tracks[1] is t and not eng._log
        assert t.frames.tolist() == list(range(151)) and t.frames[t.matched].tolist() == [0, *matched]
        assert (t.status, t.n_r, t.t_w, t.f_l) == (WAITING, 101, 50, 149)
        assert t.boxes[150].tolist() == t.boxes[149].tolist() == eng._rows.real[0, _BOX].tolist()
        eng.step(151, make_frame(151, [(201, 50)]))
        assert eng.tracks[1] is t and (t.status, t.n_r, t.f_l) == (ACTIVE, 102, 151)
        assert t.frames.tolist() == list(range(152)) and not eng._log

    def test_last_histogram_read_is_kept(self, cfg):
        """A track's last_histogram is a view of a copy of its row when
        read; one held from an earlier read keeps its counts when the row
        is overwritten."""
        eng = TrackingEngine(cfg)
        first, second = peaked_histogram(total=1000.0), peaked_histogram(total=1100.0)
        eng.step(0, make_frame(0, [(50, 50)], hist=first))
        held = eng.tracks[1].last_histogram
        eng.step(1, make_frame(1, [(51, 50)], hist=second))
        assert eng.tracks[1].n_r == 2
        assert np.array_equal(held, first) and np.array_equal(eng.tracks[1].last_histogram, second)

    def test_last_histogram_is_read_only_row_of_last_match(self):
        """After every read, each track's last_histogram is a read-only
        1-D float64 row, byte for byte the histogram of the detection that
        last matched it, whether the track is active, waiting, terminated
        or noise."""
        cfg = TrackerConfig(t2=3, t3=4)
        # lane j at y = 50 + 80 j moves 2 px a frame while seen: lane 0 ends
        # overdue after frame 9 (terminated), lane 1 barely lives (noise),
        # lane 2 stays seen (active), lane 3 is missed at the end (waiting)
        seen = (range(10), range(2), range(17), range(15))
        rng = np.random.default_rng(5)
        eng, last = TrackingEngine(cfg), {}
        for f in range(17):
            lanes = [j for j in range(4) if f in seen[j]]
            hist = rng.uniform(9.5, 10.5, (len(lanes), cfg.n_bins))  # each row its own
            eng.step(f, Frame(f, lanes, [(10.0 + 2 * f, 50.0 + 80 * j, 10.0, 10.0) for j in lanes],
                              hist))
            last.update({j + 1: row.tobytes() for j, row in zip(lanes, hist)})
            for t in eng.tracks.values():
                h = t.last_histogram
                assert (h.ndim, h.dtype, h.flags.writeable) == (1, np.float64, False)
                assert h.tobytes() == last[t.track_id]
        assert {tid: t.status for tid, t in eng.tracks.items()} == {
            1: TERMINATED, 2: NOISE, 3: ACTIVE, 4: WAITING}

    def test_span_invariant_every_step(self, cfg):
        rng = np.random.default_rng(23)
        eng = TrackingEngine(cfg)
        for f in range(60):
            seen = [j for j, p in enumerate((0.8, 0.5)) if rng.random() < p]
            eng.step(f, make_frame(f, [(30.0 + f, (50, 300)[j]) for j in seen], seen))
            for t in eng.tracks.values():
                if t.status in (ACTIVE, WAITING):
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
        with pytest.raises(InputError, match="^duplicate detection_id 1 in frame 0$"):
            eng.step(0, make_frame(0, [(10, 10), (90, 90)], ids=[1, 1]))
        assert _engine_state(eng) == _engine_state(TrackingEngine(cfg))

    def test_deterministic(self, cfg):
        def run():
            rng = np.random.default_rng(99)
            eng = TrackingEngine(cfg)
            for f in range(80):
                eng.step(f, make_frame(f, [(float(rng.uniform(10, 400)), float(rng.uniform(10, 400)))
                                           for _ in range(int(rng.integers(0, 5)))]))
            return eng.trajectories()

        a, b = run(), run()
        assert a == b


def _engine_state(eng):
    """Everything step may mutate, in comparable form: the live rows, the
    log, every track as the engine reports it and the trajectory table.
    The tracks are read first: a read appends the log to their rows and
    empties it."""
    tracks = {tid: (t.status, t.end_frame, t.f_l, t.n_r, t.t_w, t.frames.tolist(),
                    t.boxes.tolist(), t.last_histogram.tolist(), t.matched.tolist(), t.d_max)
              for tid, t in eng.tracks.items()}
    rows = {name: a.tolist() for name, a in vars(eng._rows).items()}  # histograms by value
    log = [(f, ids.tolist(), boxes.tolist(), matched.tolist()) for f, ids, boxes, matched in eng._log]
    return (eng.last_frame, [t.track_id for t in eng.live_tracks()], rows, log, tracks,
            eng.trajectories())


class _ScalarReplay:
    """The engine's frames rerun through the scalar rules, from its frame
    reports: every track's filter through the scalar kalman functions, and
    its counters, extent and lifecycle through `extent` and
    `lifecycle.sweep` on shadow tracks, which the engine's columns must
    agree with."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.filters = {}  # track id -> filter row
        self.shadows = {}  # track id -> Track, live ones only
        self.centers = {}  # track id -> the centers `extent` keeps

    def follow(self, eng, detections, report):
        """Advance the replay over the frame `report` describes, a `Frame`
        or an empty list, checking each recorded state, the sweep's verdicts
        and every track the engine reports against the scalar ones. A
        detection is read from its row of the frame: its box as a state,
        its histogram row as a histogram of the same bins."""
        cfg, f = self.cfg, report.frame_id
        frame = Frame.of(detections, f, cfg.n_bins)
        states = [ObjectState(*box) for box in frame.boxes.tolist()]
        row = {did: i for i, did in enumerate(frame.ids.tolist())}
        matched = {tid: row[did] for tid, did, _ in report.matches}
        for tid in [tid for tid, _, _ in report.matches] + report.waiting:
            shadow, i = self.shadows[tid], matched.get(tid)
            ks, es = kalman.predict(self.filters[tid], cfg)
            self.filters[tid], cs = kalman.correct(ks, es, None if i is None else states[i],
                                                   ObjectState(*shadow.boxes[-1].tolist()), cfg.w,
                                                   cfg.measurement_noise)
            shadow.append([f], boxes([cs]), [i is not None])
            if i is None:
                shadow.t_w += 1
                shadow.status = WAITING
            else:
                shadow.last_histogram = frame.hist[i]
                shadow.f_l, shadow.status = f, ACTIVE
                shadow.n_r += 1
                shadow.d_max = extent(self.centers[tid], shadow.d_max, cs.x, cs.y, cfg.t4)
        spawned = [i for i in range(len(frame)) if i not in matched.values()]
        assert len(spawned) == len(report.new_tracks)
        for tid, i in zip(report.new_tracks, spawned):
            s = states[i]
            self.filters[tid] = kalman.init_kalman(s, cfg)
            self.shadows[tid] = shadow = Track(tid, [f], boxes([s]), [True], frame.hist[i], f)
            self.centers[tid] = []
            shadow.d_max = extent(self.centers[tid], shadow.d_max, s.x, s.y, cfg.t4)
        shadows = list(self.shadows.values())
        assert lifecycle.sweep(shadows, f, cfg) == (report.terminated, report.noise)
        for shadow in shadows:
            t = eng.tracks[shadow.track_id]
            assert (t.status, t.birth_frame, t.f_l, t.n_r, t.t_w, t.d_max, t.frames.tolist(),
                    t.boxes.tolist(), t.matched.tolist()) == (
                shadow.status, shadow.birth_frame, shadow.f_l, shadow.n_r, shadow.t_w,
                shadow.d_max, shadow.frames.tolist(), shadow.boxes.tolist(),
                shadow.matched.tolist())
            # a view of the track's hist row when read: the same counts, bit for bit
            assert t.last_histogram.tobytes() == shadow.last_histogram.tobytes()
            if shadow.status not in (ACTIVE, WAITING):
                del self.shadows[shadow.track_id], self.centers[shadow.track_id]

    def check_rows(self, eng):
        """The engine's rows are the live tracks' scalar filters, boxes and
        search bases, in order."""
        rows, live = eng._rows, eng.live_tracks()
        assert rows.count[:, _ID].tolist() == [t.track_id for t in live] == list(self.shadows)
        for i, t in enumerate(live):
            assert rows.real[i, :_KF].tolist() == self.filters[t.track_id].tolist()
            assert rows.real[i, _BOX].tolist() == t.boxes[-1].tolist()
            assert rows.real[i, _BASE] == diagonal_half(ObjectState(*t.boxes[-1].tolist()))


@st.composite
def _streams(draw):
    """Frames 0..n of up to four objects in straight-line motion, each seen or
    missed per frame, as (detection id, center) rows; frame n is the one the
    rejected call replaces."""
    coord, speed = st.floats(50.0, 400.0), st.floats(-4.0, 4.0)
    objects = draw(st.lists(st.tuples(coord, coord, speed, speed), min_size=1, max_size=4))
    frames = []
    for f in range(draw(st.integers(1, 12)) + 1):
        seen = draw(st.lists(st.booleans(), min_size=len(objects), max_size=len(objects)))
        frames.append([(j, (x + vx * f, y + vy * f))
                       for j, ((x, y, vx, vy), on) in enumerate(zip(objects, seen)) if on])
    return frames


def _frame(rows, frame_id, n_bins=96):
    """The Frame of (detection id, center) rows, at frame_id."""
    return make_frame(frame_id, [c for _, c in rows], [j for j, _ in rows], n=n_bins)


@settings(max_examples=60, deadline=None)
@given(frames=_streams(),
       rejection=st.sampled_from(["wrong_frame_id", "empty_frame_id", "non_empty_list",
                                  "stale_frame", "wrong_bins"]),
       data=st.data())
def test_rejected_step_leaves_engine_unchanged(frames, rejection, data):
    """A stream stepped as Frames, and as empty lists where a frame holds
    nothing: a rejected step changes nothing, and the engine goes on as one
    that never saw it."""
    *warm, valid = frames
    n = len(warm)
    eng, ref = TrackingEngine(), TrackingEngine()
    for f, rows in enumerate(warm):
        eng.step(f, _frame(rows, f) if rows else [])
        ref.step(f, _frame(rows, f) if rows else [])
    before = _engine_state(eng)

    bad = valid + [(100, (60.0, 60.0))]
    if rejection == "wrong_frame_id":
        with pytest.raises(InputError, match=f"^detection {bad[0][0]} carries frame {n + 99}, "):
            eng.step(n, _frame(bad, n + 99))
    elif rejection == "empty_frame_id":
        with pytest.raises(InputError, match=f"^empty frame {n + 99} stepped as frame {n}$"):
            eng.step(n, _frame([], n + 99))
    elif rejection == "non_empty_list":
        with pytest.raises(TypeError, match=f"^frame {n}: detections must be a Frame "):
            eng.step(n, bad)
    elif rejection == "wrong_bins":
        with pytest.raises(HistogramShapeError):
            eng.step(n, _frame(bad, n, eng.cfg.n_bins // 2))
    else:
        stale = data.draw(st.integers(0, n - 1))
        with pytest.raises(SequencingError):
            eng.step(stale, _frame(frames[stale], stale))

    assert _engine_state(eng) == before
    valid = _frame(valid, n)
    assert eng.step(n, valid) == ref.step(n, valid)
    assert _engine_state(eng) == _engine_state(ref)


def test_wrong_bins_on_first_frame_rejected():
    """With no live track to score against, a frame of wrong-length
    histograms is still rejected, and spawns nothing."""
    eng = TrackingEngine()
    centers = [(50.0 + 100 * j, 50) for j in range(3)]
    with pytest.raises(HistogramShapeError):
        eng.step(0, make_frame(0, centers, n=eng.cfg.n_bins // 2))
    assert _engine_state(eng) == _engine_state(TrackingEngine())
    assert eng.step(0, make_frame(0, centers)).new_tracks == [1, 2, 3]


def test_update_overflow_leaves_engine_unchanged():
    """A correction that overflows rejects the frame before anything is stored."""
    eng = TrackingEngine(TrackerConfig(t1=0.0))
    eng.step(0, make_frame(0, [(1.5e308, 50)]))
    before = _engine_state(eng)
    with pytest.raises(NumericOverflowError):
        eng.step(1, make_frame(1, [(-1.5e308, 50)]))
    assert _engine_state(eng) == before


def test_reach_past_largest_float_takes_in_every_distance():
    """A reach base * frames past the largest float is infinite, which takes
    in every finite distance: the pair matches, with no overflow warning,
    with the score it gets one frame apart."""
    matches = []
    for gap in (1, 10**10):
        eng = TrackingEngine()
        eng.step(0, make_frame(0, [(10, 10)], l=1e300, h=1))
        matches.append(eng.step(gap, make_frame(gap, [(10, 10)], l=1e300, h=1)).matches)
    assert matches[1] == matches[0] == [(1, 0, 1.0)]


@settings(max_examples=100, deadline=None)
@given(starts=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=6),
       cap=st.sampled_from([2.0, 5.0, 9.0]), data=st.data())
def test_extend_equals_update_extent(starts, cap, data):
    """LiveRows.extend keeps, row by row, the d_max and centers that the
    scalar rule `extent` keeps, across the widening of the centers block."""
    tracks = [make_track(i + 1, ObjectState(float(x), float(y), 10, 10))
              for i, (x, y) in enumerate(starts)]
    rows = live_rows(tracks)
    kept = [[(float(x), float(y))] for x, y in starts]  # each track's birth center
    for _ in range(data.draw(st.integers(1, 20))):
        index = data.draw(st.lists(st.sampled_from(range(len(tracks))), unique=True))
        xy = [(float(x), float(y)) for x, y in
              data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                 min_size=len(index), max_size=len(index)))]
        rows.extend(np.array(index, dtype=np.intp), np.array(xy).reshape(-1, 2), cap)
        for i, (x, y) in zip(index, xy):
            tracks[i].d_max = extent(kept[i], tracks[i].d_max, x, y, cap)
        assert rows.real[:, _D_MAX].tolist() == [t.d_max for t in tracks]
        for i, t in enumerate(tracks):
            if t.d_max < cap:
                assert rows.centers[i, :rows.count[i, _N_C]].tolist() == [list(c) for c in kept[i]]


def test_sweep_and_live_set_stay_at_live_size(monkeypatch):
    """Over a long clutter stream, the lifecycle sweep is handed exactly the
    live rows (last frame's live set plus newborns), never the history, and
    the engine agrees with the scalar replay on every frame."""
    stream = scenario.generate(scenario.bench_scenario(frames=600, seed=7)).detections_by_frame
    handed = []
    real_sweep = lifecycle.sweep_rows

    def counting_sweep(birth, f_l, n_r, d_max, f_c, cfg):
        handed.append(len(birth))
        assert len(f_l) == len(n_r) == len(d_max) == len(birth)
        return real_sweep(birth, f_l, n_r, d_max, f_c, cfg)

    monkeypatch.setattr(lifecycle, "sweep_rows", counting_sweep)
    eng = TrackingEngine()
    replay = _ScalarReplay(eng.cfg)
    for f in range(min(stream), max(stream) + 1):
        before = len(eng.live_tracks())
        report = eng.step(f, stream.get(f, []))
        replay.follow(eng, stream.get(f, []), report)
        replay.check_rows(eng)
        assert all(len(column) == len(eng._rows) for column in vars(eng._rows).values())
        assert handed[-1] == before + len(report.new_tracks)
        live = eng.live_tracks()
        assert [t.track_id for t in live] == [t.track_id for t in eng.tracks.values()
                                              if t.status in (ACTIVE, WAITING)]
        assert len(live) == handed[-1] - len(report.terminated) - len(report.noise)
        assert all(eng.tracks[tid].end_frame == f for tid in report.terminated + report.noise)
        assert all(t.end_frame is None for t in live)
    assert len(handed) == 600
    assert 10 * max(handed) < len(eng.tracks)


def _table_of_tracks(tracks):
    """The trajectory table of the tracks' own states and matched frames,
    put together state by state."""
    states = table_of({t.track_id: {f: ObjectState(*box) for f, box in
                                    zip(t.frames.tolist(), t.boxes.tolist())} for t in tracks})
    matched = {(t.track_id, f) for t in tracks for f in t.frames[t.matched].tolist()}
    rows = zip(states.ids.tolist(), states.frames.tolist())
    return Trajectories(states.ids, states.frames, states.boxes,
                        np.array([row in matched for row in rows], dtype=bool))


@pytest.mark.parametrize("reads", [0, 9])
def test_trajectories_are_the_valid_tracks_states(reads):
    """The table `trajectories` puts together from the tracks' columns
    holds the states and matched frames of the valid tracks, whether the
    engine is read once at the end or between steps too."""
    stream = scenario.generate(scenario.bench_scenario(frames=200, seed=3)).detections_by_frame
    eng = TrackingEngine()
    frames = range(min(stream), max(stream) + 1)
    for f in frames:
        eng.step(f, stream.get(f, []))
        if reads and f % (len(frames) // reads) == 0:
            assert eng.trajectories() == _table_of_tracks(eng.valid_tracks())
    table = eng.trajectories()
    assert table == _table_of_tracks(eng.valid_tracks())
    # noise tracks left out, and held rows kept as unmatched
    assert any(t.status == NOISE for t in eng.tracks.values()) and not table.matched.all()


def _columns(t):
    """A track's rows, bit for bit."""
    return (t.track_id, t.frames.tobytes(), t.boxes.tobytes(), t.matched.tobytes())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1000), n=st.integers(1, 90), clutter=st.sampled_from([0.0, 2.0, 6.0]),
       reads=st.sets(st.integers(0, 89), max_size=12), chunk=st.sampled_from([1, 3, 64]))
def test_track_columns_are_their_rows_of_the_table(tmp_path_factory, seed, n, clutter, reads,
                                                    chunk):
    """Over a generated stream, read between arbitrary steps and in chunks
    of any size, every track holds a row per frame from its birth, matched
    where a frame report matched or spawned it and held at its previous
    box elsewhere; its rows equal those of an engine read once at the end,
    noise tracks' too, and a valid track's rows are its rows of the table.
    The table reloads from the file written from the valid tracks, whose
    bytes are those the engine read once writes."""
    stream = scenario.generate(scenario.bench_scenario(frames=n, objects=3, clutter=clutter,
                                                       seed=seed)).detections_by_frame
    eng, once = TrackingEngine(), TrackingEngine()
    matched_at = {}  # track id -> frames a report matched or spawned it
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("mftrack.engine._READ_CHUNK", chunk)
        for f in range(n):
            report = eng.step(f, stream[f])
            once.step(f, stream[f])
            for tid in [tid for tid, _, _ in report.matches] + report.new_tracks:
                matched_at.setdefault(tid, []).append(f)
            if f in reads:
                eng.tracks
        once.tracks
    assert list(map(_columns, eng.tracks.values())) == list(map(_columns, once.tracks.values()))
    for t in eng.tracks.values():
        last = n - 1 if t.end_frame is None else t.end_frame
        assert t.frames.tolist() == list(range(t.birth_frame, last + 1))
        assert t.frames[t.matched].tolist() == matched_at[t.track_id]
        held = (~t.matched).nonzero()[0]
        assert t.boxes[held].tobytes() == t.boxes[held - 1].tobytes()
    table = eng.trajectories()
    valid = eng.valid_tracks()
    assert table.ids.tolist() == [t.track_id for t in valid for _ in t.frames]
    for t in valid:
        rows = table.ids == t.track_id
        assert _columns(t) == (t.track_id, table.frames[rows].tobytes(),
                               table.boxes[rows].tobytes(), table.matched[rows].tobytes())
    folder = tmp_path_factory.mktemp("trk")
    fileio.write_trajectories(folder / "read.txt", valid)
    fileio.write_trajectories(folder / "once.txt", once.valid_tracks())
    assert fileio.load_trajectories(folder / "read.txt") == table
    assert (folder / "read.txt").read_bytes() == (folder / "once.txt").read_bytes()


def test_track_columns_are_read_only(cfg):
    """A track's columns cannot be written, as the engine reads them, as
    built by hand and after `append`; append replaces them by copies."""
    eng = TrackingEngine(cfg)
    for f in range(3):
        eng.step(f, make_frame(f, [(50 + f, 50)]))
    made = make_track(1, ObjectState(0, 0, 10, 10))
    before = made.frames
    made.append([1], boxes([ObjectState(1, 0, 10, 10)]), [False])
    assert before.tolist() == [0] and made.frames.tolist() == [0, 1]
    for t in (eng.tracks[1], make_track(1, ObjectState(0, 0, 10, 10)), made):
        for column in (t.frames, t.boxes, t.matched):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0


def test_reads_and_writes_build_no_state(tmp_path, monkeypatch):
    """Stepping, reading the tracks, `trajectories` and `write_trajectories`
    build no `ObjectState`: a track's history is its columns alone."""
    stream = scenario.generate(scenario.bench_scenario(frames=120, seed=5)).detections_by_frame

    def refuse(*args):
        raise AssertionError("an ObjectState was built")

    monkeypatch.setattr(ObjectState, "__post_init__", refuse)
    eng = TrackingEngine()
    for f in range(120):
        eng.step(f, stream[f])
        if f % 50 == 0:
            eng.tracks
    eng.trajectories()
    fileio.write_trajectories(tmp_path / "t.txt", eng.valid_tracks())
    with pytest.raises(AssertionError):
        ObjectState(1, 1, 1, 1)


def test_bench_steps_generated_frames_as_they_are(monkeypatch):
    """run_bench steps the generator's `Frame`s, each handed back by
    `Frame.of` as it is."""
    handed_back = []
    real_of = Frame.of.__func__

    def of(cls, detections, frame_id, n_bins):
        frame = real_of(cls, detections, frame_id, n_bins)
        handed_back.append(frame is detections)
        return frame

    monkeypatch.setattr(Frame, "of", classmethod(of))
    bench.run_bench(frames=50)
    assert len(handed_back) == 50 and all(handed_back)


# (exception class, message) of each rejection of a frame stepped at frame 1
_REJECTIONS = {
    "duplicate_id": (InputError, "duplicate detection_id 1 in frame 1"),
    "wrong_bins": (HistogramShapeError, "detection 0 in frame 1 has 48 histogram bins, expected 96"),
    "wrong_frame_id": (InputError, "detection 0 carries frame 7, expected 1"),
    "negative_frame_id": (ValueError, "frame_id must be non-negative"),
    "fractional_frame_id": (InputError, "frame id 1.5 is not an integer"),
    "fractional_detection_id": (InputError, "detection id 1.5 in frame 1 is not an integer"),
    "overflow": (NumericOverflowError, "filter update produced non-finite values in frame 1"),
}


@pytest.mark.parametrize("rejection", list(_REJECTIONS))
def test_rejected_frame_raises_as_list_does(rejection):
    """Each rejection of a frame raises its exception class with its
    message, and leaves the engine as it was. A repeated detection id, a
    negative or fractional frame id and a fractional detection id are
    refused as the `Frame` is built, the others by `step`."""
    cfg = TrackerConfig(t1=0.0)  # every pair is accepted, so the overflow case corrects
    f, n_bins, ids = 1, cfg.n_bins, [0, 1, 2]
    centers = [(40.0 + 100 * j, 50.0) for j in ids]
    if rejection == "duplicate_id":
        ids, centers = ids + [1], centers + [(300.0, 50.0)]
    elif rejection == "wrong_bins":
        n_bins = cfg.n_bins // 2
    elif rejection == "wrong_frame_id":
        f = 7
    elif rejection == "negative_frame_id":
        f = -1
    elif rejection == "fractional_frame_id":
        f = 1.5
    elif rejection == "fractional_detection_id":
        ids = [0, 1.5, 2]
    elif rejection == "overflow":
        ids, centers = [0], [(-1.5e308, 50.0)]
    error, message = _REJECTIONS[rejection]
    eng = TrackingEngine(cfg)
    eng.step(0, make_frame(0, [(1.5e308, 50.0)]))
    before = _engine_state(eng)
    with pytest.raises(error) as raised:
        eng.step(1, make_frame(f, centers, ids, n=n_bins))
    assert type(raised.value) is error and str(raised.value) == message
    assert _engine_state(eng) == before


@pytest.mark.parametrize("box", [(float("nan"), 50.0, 10.0, 10.0), (40.0, float("inf"), 10.0, 10.0),
                                 (40.0, 50.0, 0.0, 10.0), (40.0, 50.0, 10.0, -1.0),
                                 (10.0, 10.0, 1e300, 1e300), (10.0, 10.0, 1e300, 1e-10)])
def test_frame_rejects_bad_box_as_states_do(box):
    """A non-finite or non-positive box row, or one whose area l * h or
    aspect l / h overflows, is the ValueError, with the message, of the bulk
    box check `check_boxes`, and so is a single `ObjectState` of it."""
    boxes = np.array([[10.0, 10.0, 5.0, 5.0], box])
    with pytest.raises(ValueError) as state_error:
        check_boxes(boxes)
    with pytest.raises(ValueError) as one_error:
        ObjectState(*box)
    with pytest.raises(ValueError) as frame_error:
        Frame(0, [0, 1], boxes, np.ones((2, 96)))
    assert str(frame_error.value) == str(one_error.value) == str(state_error.value)


@settings(max_examples=60, deadline=None)
@given(frames=_streams(),
       rejection=st.sampled_from(["wrong_frame_id", "wrong_bins", "stale_frame"]),
       data=st.data())
def test_rejected_frame_leaves_engine_unchanged(frames, rejection, data):
    """A stream fed as Frames, empty ones too: a rejected Frame changes
    nothing, and the engine goes on as one that never saw it."""
    *warm, valid = frames
    n = len(warm)
    eng, ref = TrackingEngine(), TrackingEngine()
    for f, rows in enumerate(warm):
        eng.step(f, _frame(rows, f))
        ref.step(f, _frame(rows, f))
    before = _engine_state(eng)

    bad = valid + [(100, (60.0, 60.0))]
    if rejection == "wrong_frame_id":
        with pytest.raises(InputError, match=f"^detection {bad[0][0]} carries frame "
                                             f"{n + 99}, expected {n}$"):
            eng.step(n, _frame(bad, n + 99))
    elif rejection == "wrong_bins":
        half = eng.cfg.n_bins // 2
        with pytest.raises(HistogramShapeError):
            eng.step(n, _frame(bad, n, half))
    else:
        stale = data.draw(st.integers(0, n - 1))
        with pytest.raises(SequencingError):
            eng.step(stale, _frame(frames[stale], stale))

    assert _engine_state(eng) == before
    valid = _frame(valid, n)
    assert eng.step(n, valid) == ref.step(n, valid)
    assert _engine_state(eng) == _engine_state(ref)


def _emptied_engine():
    """An engine whose one track has ended, so it holds history and no live row."""
    eng = TrackingEngine()
    eng.step(0, make_frame(0, [(50.0, 50.0)]))
    f = 1
    while len(eng._rows):
        eng.step(f, [])
        f += 1
    return eng


@pytest.mark.parametrize("form", ["list", "frame"])
@pytest.mark.parametrize("history", [False, True])
def test_empty_frame_on_engine_without_rows_runs_no_stage(monkeypatch, form, history):
    """With no live row, an empty frame, as a list or as a Frame, is
    neither predicted, scored, assigned, corrected nor swept: it returns an
    empty report and changes nothing but the last frame id."""
    eng = _emptied_engine() if history else TrackingEngine()

    def stage(*args, **kwargs):
        raise AssertionError("a frame stage ran on an empty frame without rows")

    for module, name in [(kalman, "predict_rows"), (kalman, "correct_rows"),
                         (kernels, "score_matrix"), (kernels, "greedy_pairs"),
                         (lifecycle, "sweep_rows")]:
        monkeypatch.setattr(module, name, stage)
    before = _engine_state(eng)
    f = 0 if eng.last_frame is None else eng.last_frame + 3
    assert eng.step(f, [] if form == "list" else _frame([], f)) == FrameReport(f)
    after = _engine_state(eng)
    assert after[0] == f
    assert after[1:] == before[1:]


@pytest.mark.parametrize("live", [False, True])
def test_empty_frame_under_another_frame_id_rejected(live):
    """An empty Frame stepped or matched under another frame id is an
    InputError naming both ids, as a Frame with detections is, with or
    without live rows, and leaves the engine as it was; an empty list takes
    the step's frame id."""
    eng = TrackingEngine()
    if live:
        eng.step(0, make_frame(0, [(50.0, 50.0)]))
    before = _engine_state(eng)
    for call in (lambda: eng.step(7, _frame([], 5)),
                 lambda: match_frame(eng._rows, _frame([], 5), eng.cfg, frame_id=7)):
        with pytest.raises(InputError, match="^empty frame 5 stepped as frame 7$"):
            call()
        assert _engine_state(eng) == before
    assert eng.step(7, []).frame_id == 7
    assert eng.step(8, _frame([], 8)).frame_id == eng.last_frame == 8


@pytest.mark.parametrize("frame_id, ids", [
    (10**20, None),
    (2**63 - 1, None),  # the span f_c + 1 - birth would not fit in int64
    (2**63, [0]),
    (1, [10**20]),
    (1, [-2**63 - 1]),
], ids=["empty_frame", "largest_int64_frame", "detection_frame", "detection_id", "negative_id"])
def test_id_beyond_int64_rejected_before_any_write(frame_id, ids):
    """A frame id past MAX_FRAME_ID, an empty list stepped under it or a
    `Frame` of it, or a detection id beyond int64 is an InputError, and the
    engine, a live track in it, pickles to the same bytes before and
    after."""
    eng = TrackingEngine()
    eng.step(0, make_frame(0, [(50.0, 50.0)]))
    before = pickle.dumps(eng)
    with pytest.raises(InputError, match="past 9223372036854775806$|beyond int64 in frame 1$"):
        eng.step(frame_id, [] if ids is None else make_frame(frame_id, [(50.0, 50.0)], ids))
    assert pickle.dumps(eng) == before


@pytest.mark.parametrize("ids, message", [
    (np.array([1.0, 2.0]), "detection id 1.0 in frame 1 is not an integer"),
    (np.array([2**63], dtype=np.uint64), "detection id 9223372036854775808 beyond int64 in frame 1"),
    (["7"], "detection id '7' in frame 1 is not an integer"),
    ([True], "detection id True in frame 1 is not an integer"),
    ([3, True], "detection id True in frame 1 is not an integer"),
], ids=["float_column", "uint64_past_int64", "string", "bool", "bool_among_ints"])
def test_frame_refuses_id_that_is_not_an_int64(ids, message):
    """A detection id is taken as it is or refused, never truncated,
    parsed or wrapped: an InputError naming it."""
    with pytest.raises(InputError) as raised:
        make_frame(1, [(50.0, 50.0)] * len(ids), ids)
    assert str(raised.value) == message


@pytest.mark.parametrize("frame_id, form", [(1.5, "list"), (2.0, "frame"), (True, "frame"),
                                            ("2", "frame")])
def test_step_refuses_frame_id_that_is_not_an_integer(frame_id, form):
    """A frame id that is not an integer is an InputError naming it before
    any write, whether the frame is an empty list or a `Frame` of an equal
    integer id; a fractional id stepped between two frames would give a
    track two rows in one frame."""
    eng = TrackingEngine()
    for f in (0, 1):
        eng.step(f, make_frame(f, [(50.0 + f, 50.0)]))
    before = _engine_state(eng)
    detections = [] if form == "list" else make_frame(2, [(52.0, 50.0)])
    with pytest.raises(InputError) as raised:
        eng.step(frame_id, detections)
    assert str(raised.value) == f"frame id {frame_id!r} is not an integer"
    assert _engine_state(eng) == before
    eng.step(2, [])
    assert eng.tracks[1].frames.tolist() == [0, 1, 2]


@pytest.mark.parametrize("cfg", [
    TrackerConfig(),
    TrackerConfig(t2=3, t3=4, t4=1.0, motion_model="static"),
    TrackerConfig(t2=2, t3=3, assignment_policy="per_track"),
], ids=["default", "short_static", "per_track_judged_early"])
def test_live_set_empties_and_refills_as_scalar_replay(cfg):
    """A stream whose live set empties, over a run of empty frames longer
    than t2, and then refills: frames with rows and no detections, with
    neither, and with detections and no rows all agree with the scalar
    replay, rows included, on every frame."""
    eng, replay = TrackingEngine(cfg), _ScalarReplay(cfg)
    gap = [False] * (cfg.t2 + 25)
    schedule = [True] * 8 + gap + [True] * 6 + gap + [True] * 3
    kinds = set()
    for f, on in enumerate(schedule):
        centers = [(40.0 + 2.0 * f + 100 * j, 50.0 + f) for j in range(2)] if on else []
        kinds.add((len(eng._rows) > 0, on))
        # a frame without detections is an empty Frame or an empty list, in turn
        dets = make_frame(f, centers) if on or f % 2 else []
        report = eng.step(f, dets)
        replay.follow(eng, dets, report)
        replay.check_rows(eng)
    # every pairing of (live rows, detections) occurred
    assert kinds == {(True, True), (True, False), (False, False), (False, True)}
