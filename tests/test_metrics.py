import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes, table_of
from mftrack.errors import MeasurementError, MetricError
from mftrack.metrics import (
    EvalReport,
    _edge_iou,
    _edges,
    associate,
    evaluate,
    iou,
    score,
    throughput,
)
from mftrack.types import ObjectState


def moving(frames, x=50.0, y=50.0, step=0.0):
    """A ground-truth object's states: a 10x10 box stepping along x."""
    return {f: ObjectState(x + step * f, y, 10, 10) for f in frames}


# {id: {frame: state}} of up to 5 ids and 8 of frames 0..9, each box one
# of a few positions and sizes, so that boxes coincide and IoUs tie
_OBJECTS = st.dictionaries(
    st.integers(0, 12),
    st.dictionaries(st.integers(0, 9),
                    st.builds(ObjectState, st.sampled_from([45.0, 50.0, 55.0]), st.just(50.0),
                              st.sampled_from([10.0, 20.0]), st.just(10.0)),
                    min_size=1, max_size=8),
    max_size=5)


@st.composite
def _swapping(draw):
    """Ground truth drawn as _OBJECTS, and tracks on its boxes whose id is
    drawn anew for each (gt id, frame) state: tracks cover several gt ids,
    so that m3 averages mixed reciprocals, the case where the order of its
    terms shows in the last bit."""
    gt = draw(_OBJECTS)
    tracks = {}
    for gid in sorted(gt):
        for f, state in sorted(gt[gid].items()):
            tracks.setdefault(draw(st.integers(-2, 6)), {}).setdefault(f, state)
    return gt, tracks


def _pairs_by_frame(gt, columns):
    """{frame: [(gt id, track id), ...]} of `associate`'s columns, a key for
    every frame of gt; the columns must be int64 and sorted by (frame, gt
    id)."""
    frames, gt_ids, track_ids = columns
    assert frames.dtype == gt_ids.dtype == track_ids.dtype == np.int64
    assert np.all(np.lexsort((gt_ids, frames)) == np.arange(len(frames)))
    correspondence = {f: [] for f in sorted(set(gt.frames.tolist()))}
    for f, gid, tid in zip(frames.tolist(), gt_ids.tolist(), track_ids.tolist()):
        correspondence[f].append((gid, tid))
    return correspondence


def _score(gt, correspondence):
    """`score` of a {frame: [(gt id, track id), ...]} correspondence."""
    pairs = [pair for f in sorted(correspondence) for pair in correspondence[f]]
    gt_ids, track_ids = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return score(gt, gt_ids, track_ids)


def _gt_of(correspondence):
    """Ground truth with each gt id of the correspondence in the frames
    where it is matched."""
    frames = {}
    for f, pairs in correspondence.items():
        for gid, _ in pairs:
            frames.setdefault(gid, []).append(f)
    return table_of({gid: moving(fs) for gid, fs in frames.items()})


class TestIoU:
    def test_identical(self):
        a = ObjectState(5, 5, 10, 10)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(ObjectState(0, 0, 10, 10), ObjectState(100, 100, 10, 10)) == 0.0

    def test_hand_arithmetic(self):
        # centers (0,0) and (5,5), both 10x10: intersection 25, union 175
        v = iou(ObjectState(0, 0, 10, 10), ObjectState(5, 5, 10, 10))
        assert v == pytest.approx(1 / 7, abs=1e-9)


    def test_matrix_equals_scalar_iou_exactly(self):
        rng = np.random.default_rng(4)
        states = [ObjectState(*rng.uniform(0, 60, 2), *rng.uniform(1, 30, 2)) for _ in range(40)]
        gs, ts = states[:15], states[15:] + states[:3]
        want = np.array([[iou(g, t) for t in ts] for g in gs])
        assert np.array_equal(_edge_iou(_edges(boxes(gs)), _edges(boxes(ts))), want)
        assert 0 < np.count_nonzero(want) < want.size

class TestAssociate:
    def test_matches_identical_boxes(self):
        gt = table_of({0: moving(range(3))})
        tracks = table_of({1: {f: ObjectState(50, 50, 10, 10) for f in range(3)}})
        corr = _pairs_by_frame(gt, associate(gt, tracks))
        assert corr == {0: [(0, 1)], 1: [(0, 1)], 2: [(0, 1)]}

    def test_below_threshold_unmatched(self):
        gt = table_of({0: moving([0])})
        tracks = table_of({1: {0: ObjectState(55, 55, 10, 10)}})  # IoU = 1/7 < 0.5
        assert _pairs_by_frame(gt, associate(gt, tracks)) == {0: []}

    def test_greedy_and_hungarian_agree_on_clear_case(self):
        gt = table_of({0: moving([0], x=50), 1: moving([0], x=200)})
        tracks = table_of({1: {0: ObjectState(51, 50, 10, 10)},
                           2: {0: ObjectState(201, 50, 10, 10)}})
        assert _pairs_by_frame(gt, associate(gt, tracks, method="greedy")) == \
            _pairs_by_frame(gt, associate(gt, tracks, method="hungarian"))

    def test_one_to_one(self):
        gt = table_of({0: moving([0], x=50), 1: moving([0], x=52)})
        tracks = table_of({1: {0: ObjectState(51, 50, 10, 10)}})
        corr = _pairs_by_frame(gt, associate(gt, tracks))
        assert len(corr[0]) == 1

    @pytest.mark.parametrize("method", ["greedy", "hungarian"])
    def test_frame_without_tracks_has_no_pairs(self, method):
        gt = table_of({0: moving(range(3))})
        tracks = table_of({1: {f: ObjectState(50, 50, 10, 10) for f in (0, 2)}})
        assert _pairs_by_frame(gt, associate(gt, tracks, method=method)) == \
            {0: [(0, 1)], 1: [], 2: [(0, 1)]}
        assert evaluate(gt, tracks, method=method).m1 == pytest.approx(2 / 3)

    @pytest.mark.parametrize("kw", [{"iou_threshold": 0.0}, {"iou_threshold": 1.5},
                                    {"method": "optimal"}])
    def test_rejects_bad_arguments(self, kw):
        with pytest.raises(ValueError):
            associate(table_of({0: moving([0])}), table_of({1: moving([0])}), **kw)


    @pytest.mark.parametrize("method", ["greedy", "hungarian"])
    def test_matches_pairwise_iou_loop(self, method):
        """Fragmented, id-swapping tracks, plus a duplicate track and a
        duplicate gt object listed first (so IoUs tie): the correspondence
        equals a loop calling `iou` per pair."""
        rng = np.random.default_rng(8)
        for _ in range(40):
            gt = {int(g): moving(range(int(rng.integers(0, 10)), int(rng.integers(10, 30))),
                                 x=50 + 8 * k, step=float(rng.uniform(-2, 2)))
                  for k, g in enumerate(rng.permutation(6)[:rng.integers(1, 5)])}
            tracks = {}
            for states in gt.values():
                tid = int(rng.integers(1, 40))
                for f, s in states.items():
                    if rng.random() < 0.15:
                        tid = int(rng.integers(1, 40))
                    jitter = rng.normal(0, 1.5, 2) if rng.random() < 0.8 else (0, 0)
                    tracks.setdefault(tid, {}).setdefault(
                        f, ObjectState(s.x + jitter[0], s.y + jitter[1], s.l, s.h))
            tracks[40] = dict(tracks[max(tracks)])
            gt = {9: dict(list(gt.values())[-1]), **gt}
            gt_table, track_table = table_of(gt), table_of(tracks)
            for thr in (0.3, 0.5):
                assert _pairs_by_frame(gt_table, associate(gt_table, track_table, thr, method)) == \
                    _pairwise_iou_loop(gt, tracks, thr, method)

    @pytest.mark.parametrize("method", ["greedy", "hungarian"])
    @settings(max_examples=100, deadline=None)
    @given(gt=_OBJECTS, tracks=_OBJECTS, thr=st.sampled_from([0.3, 0.5, 1.0]))
    def test_matches_pairwise_iou_loop_on_generated_sets(self, method, gt, tracks, thr):
        """Generated sets, boxes on a coarse grid so that IoUs tie: frames
        that no track covers, objects of one row, and tracks in frames
        without ground truth; the correspondence equals the loop's."""
        gt_table = table_of(gt)
        assert _pairs_by_frame(gt_table, associate(gt_table, table_of(tracks), thr, method)) == \
            _pairwise_iou_loop(gt, tracks, thr, method)


def _pairwise_iou_loop(gt, tracks, iou_threshold, method):
    """The correspondence of one `iou` call per pair, frame by frame,
    ground truth and tracks each in id order, the order of their tables."""
    from scipy.optimize import linear_sum_assignment

    correspondence = {}
    for f in sorted({f for states in gt.values() for f in states}):
        gts = [(gid, gt[gid][f]) for gid in sorted(gt) if f in gt[gid]]
        trs = [(tid, tracks[tid][f]) for tid in sorted(tracks) if f in tracks[tid]]
        if not trs:
            correspondence[f] = []
            continue
        mat = np.array([[iou(gs, ts) for _, ts in trs] for _, gs in gts])
        pairs = []
        if method == "hungarian":
            for i, j in zip(*linear_sum_assignment(-mat)):
                if mat[i, j] >= iou_threshold:
                    pairs.append((gts[i][0], trs[j][0]))
        else:
            used_g, used_t = set(), set()
            for _, gid, tid, i, j in sorted(
                    (-mat[i, j], gts[i][0], trs[j][0], i, j)
                    for i in range(len(gts)) for j in range(len(trs))
                    if mat[i, j] >= iou_threshold):
                if i not in used_g and j not in used_t:
                    used_g.add(i)
                    used_t.add(j)
                    pairs.append((gid, tid))
        correspondence[f] = sorted(pairs)
    return correspondence


def _reference_report(correspondence, gt):
    """The report of a {frame: [(gt id, track id), ...]} correspondence,
    its frames in order, tallied pair by pair into per-id dicts and sets:
    m1 and m2 over gt ids in id order, m3 over tracks in the order the
    pairs first name them."""
    objects = {}
    for gid in gt.ids.tolist():
        objects[gid] = objects.get(gid, 0) + 1
    frames = dict.fromkeys(objects, 0)
    gt_tracks = {gid: set() for gid in objects}
    track_gts = {}
    for pairs in correspondence.values():
        for gid, tid in pairs:
            frames[gid] += 1
            gt_tracks[gid].add(tid)
            track_gts.setdefault(tid, set()).add(gid)

    def mean_reciprocal(id_sets):
        vals = [1.0 / len(s) for s in id_sets if s]
        return float(np.mean(vals)) if vals else 0.0

    v1 = float(np.mean([frames[gid] / n for gid, n in objects.items()]))
    v2, v3 = mean_reciprocal(gt_tracks.values()), mean_reciprocal(track_gts.values())
    return EvalReport(
        m1=v1, m2=v2, m3=v3, m_bar=(v1 + v2 + v3) / 3.0,
        per_gt_coverage={gid: frames[gid] / n for gid, n in objects.items()},
        per_gt_track_ids={gid: len(s) for gid, s in gt_tracks.items()},
        per_track_gt_ids={tid: len(s) for tid, s in track_gts.items()},
    )


def _assert_reference_report(gt, tracks, thr, method):
    """evaluate equals the reference tally of the pairwise loop's
    correspondence bit for bit, its per-id dicts in the same order; an
    empty ground truth is a MetricError for both."""
    if not gt:
        with pytest.raises(MetricError):
            evaluate(table_of(gt), table_of(tracks), thr, method)
        return
    want = _reference_report(_pairwise_iou_loop(gt, tracks, thr, method), table_of(gt))
    rep = evaluate(table_of(gt), table_of(tracks), thr, method)
    assert rep == want
    for name in ("per_gt_coverage", "per_gt_track_ids", "per_track_gt_ids"):
        assert list(getattr(rep, name).items()) == list(getattr(want, name).items())


class TestReferenceTally:
    @pytest.mark.parametrize("method", ["greedy", "hungarian"])
    @settings(max_examples=100, deadline=None)
    @given(gt=_OBJECTS, tracks=_OBJECTS, thr=st.sampled_from([0.3, 0.5, 1.0]))
    def test_generated_sets(self, method, gt, tracks, thr):
        _assert_reference_report(gt, tracks, thr, method)

    @pytest.mark.parametrize("method", ["greedy", "hungarian"])
    @settings(max_examples=100, deadline=None)
    @given(sets=_swapping(), thr=st.sampled_from([0.3, 0.5, 1.0]))
    def test_swapping_tracks(self, method, sets, thr):
        _assert_reference_report(*sets, thr, method)


class TestM1:
    def test_full_coverage(self):
        gt = table_of({0: moving(range(10))})
        corr = {f: [(0, 1)] for f in range(10)}
        assert _score(gt, corr).m1 == 1.0

    def test_partial(self):
        gt = table_of({0: moving(range(100))})
        corr = {f: ([(0, 1)] if f < 36 else []) for f in range(100)}
        assert _score(gt, corr).m1 == pytest.approx(0.36)

    def test_no_matches(self):
        gt = table_of({0: moving(range(5))})
        assert _score(gt, {f: [] for f in range(5)}).m1 == 0.0

    def test_empty_gt_rejected(self):
        with pytest.raises(MetricError):
            _score(table_of({}), {})


class TestM2:
    def test_single_id(self):
        gt = table_of({0: moving(range(4))})
        corr = {f: [(0, 7)] for f in range(4)}
        assert _score(gt, corr).m2 == 1.0

    def test_five_fragments(self):
        gt = table_of({0: moving(range(100))})
        corr = {f: [(0, 1 + f // 20)] for f in range(100)}
        assert _score(gt, corr).m2 == pytest.approx(0.2)

    def test_mixed(self):
        gt = table_of({0: moving(range(4)), 1: moving(range(4))})
        corr = {0: [(0, 1), (1, 2)], 1: [(0, 1), (1, 3)], 2: [], 3: []}
        assert _score(gt, corr).m2 == pytest.approx(0.75)  # (1 + 1/2) / 2

    def test_unmatched_objects_excluded(self):
        gt = table_of({0: moving(range(4)), 1: moving(range(4))})
        corr = {f: [(0, 1)] for f in range(4)}
        assert _score(gt, corr).m2 == 1.0

    def test_fragmentation_strictly_decreases_m2(self):
        gt = table_of({0: moving(range(120))})
        vals = []
        for k in (1, 2, 3, 4, 6):
            corr = {f: [(0, 1 + f * k // 120)] for f in range(120)}
            vals.append(_score(gt, corr).m2)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestM3:
    def test_single_gt_per_track(self):
        corr = {0: [(0, 1), (1, 2)], 1: [(0, 1), (1, 2)]}
        assert _score(_gt_of(corr), corr).m3 == 1.0

    def test_swapping_track(self):
        corr = {0: [(0, 1)], 1: [(1, 1)]}
        assert _score(_gt_of(corr), corr).m3 == 0.5

    def test_mixed_counts(self):
        corr = {0: [(0, 1), (1, 2), (2, 3)], 1: [(0, 1), (1, 2), (3, 3)]}
        assert _score(_gt_of(corr), corr).m3 == pytest.approx((1 + 1 + 0.5) / 3)


class TestEvaluate:
    def test_mbar_identity(self):
        gt = table_of({0: moving(range(50), step=1.0)})
        tracks = table_of({1: {f: ObjectState(50 + f, 50, 10, 10) for f in range(50)}})
        rep = evaluate(gt, tracks)
        assert rep.m_bar == pytest.approx((rep.m1 + rep.m2 + rep.m3) / 3, abs=1e-12)
        assert rep.m1 == rep.m2 == rep.m3 == 1.0
        assert rep.per_gt_coverage == {0: 1.0}

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(31)
        gt = table_of({i: moving(range(20), x=50 + 40 * i) for i in range(3)})
        tracks = table_of({
            j: {f: ObjectState(float(rng.uniform(30, 180)), 50, 10, 10) for f in range(20)}
            for j in range(1, 5)
        })
        rep = evaluate(gt, tracks)
        for v in (rep.m1, rep.m2, rep.m3, rep.m_bar):
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("method", ["greedy", "hungarian"])
    def test_scores_are_the_metric_functions(self, method):
        """evaluate reports the score of its association, bit for bit."""
        rng = np.random.default_rng(5)
        gt = table_of({i: moving(range(30), x=50 + 15 * i) for i in range(4)})
        tracks = table_of({j: {f: ObjectState(float(rng.uniform(30, 120)), 50, 10, 10)
                               for f in range(int(rng.integers(0, 5)), 30)}
                           for j in range(1, 7)})
        _, gt_ids, track_ids = associate(gt, tracks, method=method)
        scored = score(gt, gt_ids, track_ids)
        rep = evaluate(gt, tracks, method=method)
        assert (rep.m1, rep.m2, rep.m3) == (scored.m1, scored.m2, scored.m3)
        assert 0.0 < rep.m2 < 1.0 and 0.0 < rep.m3 < 1.0

    @pytest.mark.parametrize("method", ["greedy", "hungarian"])
    @pytest.mark.parametrize("tracks", [
        pytest.param({1: moving(range(5), x=500.0)}, id="no_overlap"),
        pytest.param({}, id="no_rows"),
        pytest.param({1: moving(range(10, 15))}, id="frames_without_gt"),
    ])
    def test_no_pair(self, method, tracks):
        """No matched pair: m1 = m2 = m3 = 0, every gt id with no track and
        no track with a gt id."""
        states = {0: moving(range(5)), 3: moving(range(2, 4))}
        gt = table_of(states)
        columns = associate(gt, table_of(tracks), method=method)
        assert [c.dtype for c in columns] == [np.dtype(np.int64)] * 3
        assert [len(c) for c in columns] == [0, 0, 0]
        rep = evaluate(gt, table_of(tracks), method=method)
        assert (rep.m1, rep.m2, rep.m3, rep.m_bar) == (0.0, 0.0, 0.0, 0.0)
        assert rep.per_gt_coverage == {0: 0.0, 3: 0.0}
        assert rep.per_gt_track_ids == {0: 0, 3: 0}
        assert rep.per_track_gt_ids == {}
        _assert_reference_report(states, tracks, 0.5, method)

    def test_empty_gt_rejected(self):
        tracks = table_of({1: moving(range(3))})
        with pytest.raises(MetricError):
            evaluate(table_of({}), tracks)
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(MetricError):
            score(table_of({}), empty, empty)

    @pytest.mark.parametrize("method", ["greedy", "hungarian"])
    def test_negative_and_extreme_ids(self, method):
        """Ids at both ends of int64 and below 0: a track that covers two gt
        ids, a gt id covered by two tracks."""
        lo, hi = -2**63, 2**63 - 1
        gt = {lo: moving(range(4)), -1: moving(range(4), x=200.0), hi: moving(range(4), x=400.0)}
        tracks = {hi: {**moving(range(2)), **moving(range(2, 4), x=200.0)},
                  lo: moving(range(2, 4)),
                  -7: {**moving(range(2), x=200.0), **moving(range(2, 4), x=400.0)}}
        rep = evaluate(table_of(gt), table_of(tracks), method=method)
        assert rep.per_gt_track_ids == {lo: 2, -1: 2, hi: 1}
        assert list(rep.per_track_gt_ids.items()) == [(hi, 2), (-7, 2), (lo, 1)]
        assert rep.per_gt_coverage == {lo: 1.0, -1: 1.0, hi: 0.5}
        _assert_reference_report(gt, tracks, 0.5, method)


class TestThroughput:
    def test_division(self):
        assert throughput(1000, 2.0) == 500.0

    def test_zero_elapsed_rejected(self):
        with pytest.raises(MeasurementError):
            throughput(100, 0.0)
