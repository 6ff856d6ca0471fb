import math

import numpy as np
import pytest

from mftrack.errors import ConfigError, InputError
from mftrack.types import (
    ColorHistogram,
    Detection,
    Frame,
    ObjectState,
    TrackerConfig,
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

    def test_subpixel_centers_allowed(self):
        s = ObjectState(1.25, -3.5, 0.5, 0.25)
        assert s.center == (1.25, -3.5)
        assert s.area == pytest.approx(0.125)


class TestDiagonalHalf:
    def test_pythagorean_triples(self):
        assert diagonal_half(ObjectState(0, 0, 6, 8)) == pytest.approx(5.0)
        assert diagonal_half(ObjectState(0, 0, 3, 4)) == pytest.approx(2.5)

    def test_unit_diagonal(self):
        s = ObjectState(0, 0, math.sqrt(2), math.sqrt(2))
        assert diagonal_half(s) == pytest.approx(1.0)


class TestColorHistogram:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ColorHistogram(np.array([1.0, -2.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            ColorHistogram(np.zeros(0))
        with pytest.raises(ValueError):
            ColorHistogram(np.zeros(769))

    def test_immutable_and_equality(self):
        h = ColorHistogram(np.arange(4, dtype=float))
        with pytest.raises(ValueError):
            h.bins[0] = 99
        assert h == ColorHistogram(np.arange(4, dtype=float))
        assert h != ColorHistogram(np.zeros(4))


class TestFrame:
    def test_rows_copied_read_only_and_read_back_as_detections(self):
        ids, boxes, hist = [4, 2], [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]], np.ones((2, 3))
        frame = Frame(9, ids, boxes, hist)
        hist[0, 0] = 5.0  # the frame holds a copy
        assert len(frame) == 2 and frame.n_bins == 3
        for column in (frame.ids, frame.boxes, frame.hist):
            assert not column.flags.writeable
        want = [Detection(9, 4, ObjectState(1, 2, 3, 4), ColorHistogram(np.ones(3))),
                Detection(9, 2, ObjectState(5, 6, 7, 8), ColorHistogram(np.ones(3)))]
        assert list(frame) == want
        assert list(Frame.of(want, 9, 3)) == want

    def test_first_repeated_id_named_as_the_list_check_names_it(self):
        # in order, 5 is the first id seen before; 3 repeats only later
        with pytest.raises(InputError, match="^duplicate detection_id 5 in frame 0$"):
            Frame(0, [3, 5, 5, 3], np.ones((4, 4)), np.ones((4, 2)))

    @pytest.mark.parametrize("fault,message", [
        ("frame_id", "^detection 2 carries frame 8, expected 9$"),
        ("bins", "^detection 2 in frame 9 has 4 histogram bins, expected 3$")])
    def test_list_fault_named_before_repeated_id(self, fault, message):
        """Of two faults in a list, a repeated id and a later detection's
        frame id or bin count, `Frame.of` names the second: it checks every
        detection's frame id and bin count before the constructor checks
        the ids."""
        dets = [Detection(9, 1, ObjectState(1, 2, 3, 4), ColorHistogram(np.ones(3))),
                Detection(9, 1, ObjectState(5, 6, 7, 8), ColorHistogram(np.ones(3))),
                Detection(8 if fault == "frame_id" else 9, 2, ObjectState(5, 6, 7, 8),
                          ColorHistogram(np.ones(4 if fault == "bins" else 3)))]
        with pytest.raises(InputError, match=message):
            Frame.of(dets, 9, 3)
        with pytest.raises(InputError, match="^duplicate detection_id 1 in frame 9$"):
            Frame.of(dets[:2], 9, 3)

    @pytest.mark.parametrize("hist", [np.full((1, 3), -1.0), np.full((1, 3), np.nan),
                                      np.ones((1, 0)), np.ones((2, 3)), np.ones(3)])
    def test_rejects_bad_counts(self, hist):
        with pytest.raises(ValueError):
            Frame(0, [1], [[0.0, 0.0, 1.0, 1.0]], hist)

    def test_empty_frame(self):
        frame = Frame.of([], 4, 96)
        assert (frame.frame_id, len(frame), frame.hist.shape, list(frame)) == (4, 0, (0, 96), [])


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
    ])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ConfigError):
            TrackerConfig(**kw).validate()
