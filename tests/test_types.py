import math

import numpy as np
import pytest

from conftest import table_of
from mftrack.errors import ConfigError, InputError
from mftrack.types import (
    Frame,
    ObjectState,
    TrackerConfig,
    Trajectories,
    diagonal_half,
)


class TestObjectState:
    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            ObjectState(0, 0, 0, 5)
        with pytest.raises(ValueError):
            ObjectState(0, 0, 5, -1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ObjectState(float("nan"), 0, 5, 5)
        with pytest.raises(ValueError):
            ObjectState(0, float("inf"), 5, 5)

    def test_rejects_area_or_aspect_beyond_float(self):
        with pytest.raises(ValueError, match="area"):
            ObjectState(10, 10, 1e300, 1e300)
        for l, h in ((1e300, 1e-10), (1e-10, 1e300)):
            with pytest.raises(ValueError, match="aspect"):
                ObjectState(10, 10, l, h)

    def test_subpixel_centers_allowed(self):
        s = ObjectState(1.25, -3.5, 0.5, 0.25)
        assert s.center == (1.25, -3.5)
        assert s.area == pytest.approx(0.125)


class TestTrajectories:
    def test_of_sorts_rows_by_id_then_frame(self):
        a, b, c = ObjectState(1, 2, 3, 4), ObjectState(5, 6, 7, 8), ObjectState(9, 9, 1, 1)
        table = table_of({3: {7: c, 2: b}, 0: {5: a}})
        assert (table.ids.tolist(), table.frames.tolist()) == ([0, 3, 3], [5, 2, 7])
        assert table.boxes.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8], [9, 9, 1, 1]]
        assert table.matched.tolist() == [True, True, True]
        assert [c.dtype for c in (table.ids, table.frames, table.boxes, table.matched)] == \
            [np.int64, np.int64, np.float64, np.bool_]
        for column in (table.ids, table.frames, table.boxes, table.matched):
            assert not column.flags.writeable

    def test_of_nothing_is_the_empty_table(self):
        table = table_of({})
        assert (table.ids.shape, table.frames.shape, table.boxes.shape, table.matched.shape) == \
            ((0,), (0,), (0, 4), (0,))

    @pytest.mark.parametrize("states", [{0: {}}, {0: {}, 1: {0: ObjectState(50, 50, 10, 10)}}],
                             ids=["alone", "among_others"])
    def test_of_refuses_id_without_states(self, states):
        """An object without states has no row to keep it: refused, not dropped."""
        with pytest.raises(ValueError, match=r"^ids without states: \[0\]$"):
            table_of(states)

    def test_equal_when_every_column_is(self):
        s, t = ObjectState(1, 2, 3, 4), ObjectState(1, 2, 3, 4.5)
        table = table_of({1: {0: s, 1: s}})
        assert table == table_of({1: {1: s, 0: s}})
        held = Trajectories(table.ids, table.frames, table.boxes, np.array([True, False]))
        for other in (table_of({1: {0: s, 1: t}}), table_of({1: {0: s, 2: s}}),
                      table_of({2: {0: s, 1: s}}), table_of({1: {0: s}}), held):
            assert table != other and not table == other
        assert table != {1: {0: s, 1: s}}

    def test_no_length_iteration_or_truth(self):
        """A table is no dict of objects: using it as one fails at once."""
        table = table_of({1: {0: ObjectState(1, 2, 3, 4)}})
        with pytest.raises(TypeError):
            len(table)
        with pytest.raises(TypeError):
            iter(table)
        with pytest.raises(TypeError, match="no truth value"):
            bool(table)
        assert not hasattr(table, "items")


class TestDiagonalHalf:
    def test_pythagorean_triples(self):
        assert diagonal_half(ObjectState(0, 0, 6, 8)) == pytest.approx(5.0)
        assert diagonal_half(ObjectState(0, 0, 3, 4)) == pytest.approx(2.5)

    def test_unit_diagonal(self):
        s = ObjectState(0, 0, math.sqrt(2), math.sqrt(2))
        assert diagonal_half(s) == pytest.approx(1.0)


class TestFrame:
    def test_rows_copied_read_only_and_read_back_as_detections(self):
        ids, boxes, hist = [4, 2], [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]], np.ones((2, 3))
        frame = Frame(9, ids, boxes, hist)
        hist[0, 0] = 5.0  # the frame holds a copy
        assert len(frame) == 2 and frame.n_bins == 3
        for column in (frame.ids, frame.boxes, frame.hist):
            assert not column.flags.writeable
        assert (frame.ids.tolist(), frame.boxes.tolist(), frame.hist.tolist()) == (
            ids, boxes, np.ones((2, 3)).tolist())
        assert Frame.of(frame, 9, 3) is frame

    def test_first_repeated_id_named_as_the_list_check_names_it(self):
        # in order, 5 is the first id seen before; 3 repeats only later
        with pytest.raises(InputError, match="^duplicate detection_id 5 in frame 0$"):
            Frame(0, [3, 5, 5, 3], np.ones((4, 4)), np.ones((4, 2)))

    @pytest.mark.parametrize("detections", [[(1, 1.0, 2.0, 3.0, 4.0)],
                                            [Frame(9, [1], np.ones((1, 4)), np.ones((1, 3)))]])
    def test_non_empty_list_rejected(self, detections):
        """A frame is a `Frame`; of lists, only the empty one is taken."""
        with pytest.raises(TypeError, match="^frame 9: detections must be a Frame or an empty "
                                            "list, got a list of 1$"):
            Frame.of(detections, 9, 3)

    @pytest.mark.parametrize("hist", [np.full((1, 3), -1.0), np.full((1, 3), np.nan),
                                      np.ones((1, 0)), np.ones((2, 3)), np.ones(3)])
    def test_rejects_bad_counts(self, hist):
        with pytest.raises(ValueError):
            Frame(0, [1], [[0.0, 0.0, 1.0, 1.0]], hist)

    def test_empty_frame(self):
        frame = Frame.of([], 4, 96)
        assert (frame.frame_id, len(frame), frame.ids.shape, frame.boxes.shape, frame.hist.shape) \
            == (4, 0, (0,), (0, 4), (0, 96))


class TestTrackerConfig:
    def test_defaults_valid(self):
        cfg = TrackerConfig().validate()
        assert cfg.w == 0.7
        assert cfg.feature_weights == (1.0, 1.0, 1.0, 1.0)
        assert (cfg.t1, cfg.t2, cfg.t3, cfg.t4, cfg.t5) == (0.8, 20, 20, 5.0, 0.40)
        assert cfg.n_bins == 96

    @pytest.mark.parametrize("kw", [
        {"w": 1.5},
        {"t1": 1.01},
        {"t2": 0},
        {"t5": -0.1},
        {"n_bins": 0},
        {"n_bins": 800},
        {"feature_weights": (0.0, 0.0, 0.0, 0.0)},
        {"feature_weights": (1.0, -1.0, 1.0, 1.0)},
        {"assignment_policy": "optimal"},
        {"eval_assignment": "x"},
        {"eval_iou_threshold": 0.0},
        {"motion_model": "brownian"},
        {"feature_weights": (math.nan, 1.0, 1.0, 1.0)},
        {"feature_weights": (math.inf, 1.0, 1.0, 1.0)},
        {"t4": math.nan},
        {"t4": math.inf},
        {"process_noise_pos": math.nan},
        {"process_noise_vel": math.inf},
        {"measurement_noise": math.inf},
        {"n_bins": 96.5},
        {"n_bins": True},
        {"t2": 2.5},
        {"t3": 1.5},
        {"t2": True},
        {"t3": True},
        {"w": True},
        {"t1": True},
        {"t4": True},
    ])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ConfigError):
            TrackerConfig(**kw).validate()

    @pytest.mark.parametrize("name", ["t2", "t3", "n_bins"])
    def test_numpy_integers_accepted(self, name):
        cfg = TrackerConfig(**{name: np.int64(5)}).validate()
        assert getattr(cfg, name) == 5
