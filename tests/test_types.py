import math

import numpy as np
import pytest

from mftrack.errors import ConfigError
from mftrack.types import ColorHistogram, ObjectState, TrackerConfig, diagonal_half


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
    ])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ConfigError):
            TrackerConfig(**kw).validate()
