import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mftrack.errors import ConfigError, HistogramShapeError
from mftrack.fileio import _rebin
from mftrack.similarity import (
    area_similarity,
    color_similarity,
    distance_similarity,
    global_similarity,
    shape_similarity,
)
from mftrack.types import ObjectState

box = st.builds(
    ObjectState,
    x=st.floats(-1000, 1000),
    y=st.floats(-1000, 1000),
    l=st.floats(0.1, 500),
    h=st.floats(0.1, 500),
)


class TestDistance:
    def test_coincident_centers(self):
        a = ObjectState(5, 5, 10, 10)
        assert distance_similarity(a, a, d_max=3.0, m=1) == 1.0

    def test_boundary_zero(self):
        a = ObjectState(0, 0, 10, 10)
        b = ObjectState(6, 0, 10, 10)
        assert distance_similarity(a, b, d_max=6.0, m=1) == 0.0

    def test_hand_arithmetic(self):
        a = ObjectState(0, 0, 10, 10)
        b = ObjectState(3, 4, 10, 10)  # d = 5
        assert distance_similarity(a, b, d_max=5.0, m=2) == pytest.approx(0.5, abs=1e-9)

    def test_larger_temporal_gap_widens_radius(self):
        a = ObjectState(0, 0, 10, 10)
        b = ObjectState(8, 0, 10, 10)
        assert distance_similarity(a, b, 5.0, m=1) == 0.0
        assert distance_similarity(a, b, 5.0, m=4) == pytest.approx(0.6, abs=1e-9)

    def test_invalid_args(self):
        a = ObjectState(0, 0, 1, 1)
        with pytest.raises(ValueError):
            distance_similarity(a, a, d_max=0.0, m=1)
        with pytest.raises(ValueError):
            distance_similarity(a, a, d_max=1.0, m=0)


class TestArea:
    def test_identical(self):
        a = ObjectState(0, 0, 10, 10)
        assert area_similarity(a, a) == 1.0

    def test_ratio(self):
        assert area_similarity(ObjectState(0, 0, 10, 10), ObjectState(0, 0, 10, 20)) == pytest.approx(0.5, abs=1e-9)
        assert area_similarity(ObjectState(0, 0, 10, 10), ObjectState(0, 0, 20, 20)) == pytest.approx(0.25, abs=1e-9)


class TestShape:
    def test_scale_invariant_identical_ratio(self):
        assert shape_similarity(ObjectState(0, 0, 10, 20), ObjectState(0, 0, 5, 10)) == 1.0

    def test_ratio(self):
        assert shape_similarity(ObjectState(0, 0, 5, 10), ObjectState(0, 0, 10, 10)) == pytest.approx(0.5, abs=1e-9)
        assert shape_similarity(ObjectState(0, 0, 4, 2), ObjectState(0, 0, 2, 4)) == pytest.approx(0.25, abs=1e-9)


class TestColor:
    def test_identical(self):
        h = np.array([1.0, 5.0, 0.0])
        assert color_similarity(h, h) == 1.0

    def test_disjoint_support(self):
        assert color_similarity(np.array([10.0, 0.0]), np.array([0.0, 10.0])) == 0.0

    def test_hand_arithmetic(self):
        ha = np.array([10.0, 30.0])
        hb = np.array([20.0, 30.0])
        assert color_similarity(ha, hb) == pytest.approx(0.75, abs=1e-9)

    def test_empty_bins_count_as_match(self):
        ha = np.array([0.0, 10.0, 0.0])
        hb = np.array([0.0, 10.0, 0.0])
        assert color_similarity(ha, hb) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(HistogramShapeError):
            color_similarity(np.ones(4), np.ones(5))

    def test_rejects_2d_rows(self):
        with pytest.raises(HistogramShapeError):
            color_similarity(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(HistogramShapeError):
            color_similarity(np.ones((1, 3)), np.ones(3))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            color_similarity(np.array([1.0, -2.0]), np.ones(2))
        with pytest.raises(ValueError, match="non-negative"):
            color_similarity(np.ones(2), np.array([1.0, -2.0]))

    def test_rejects_bad_length(self):
        for n in (0, 769):
            with pytest.raises(ValueError, match="outside 1..768"):
                color_similarity(np.zeros(n), np.zeros(n))

    def test_against_brute_force_on_raw_histograms(self):
        # independent oracle: plain loop over rebinned raw-768 histograms
        rng = np.random.default_rng(11)
        for _ in range(25):
            raw_a = rng.uniform(0, 50, size=768) * (rng.random(768) < 0.7)
            raw_b = rng.uniform(0, 50, size=768) * (rng.random(768) < 0.7)
            ha, hb = _rebin(raw_a, 96), _rebin(raw_b, 96)
            total = 0.0
            for i, j in zip(ha, hb):
                lo, hi = (i, j) if i <= j else (j, i)
                total += 1.0 if hi == 0 else lo / hi
            assert color_similarity(ha, hb) == pytest.approx(total / 96, abs=1e-12)


class TestGlobal:
    def test_zero_distance_gates_everything(self):
        assert global_similarity([0.0, 1.0, 1.0, 1.0], [1, 1, 1, 1]) == 0.0
        assert global_similarity([0.0, 1.0, 1.0, 1.0], [0.1, 5, 5, 5]) == 0.0

    def test_all_ones(self):
        assert global_similarity([1.0] * 4, [1.0] * 4) == 1.0

    def test_weighted_mean(self):
        assert global_similarity([0.5, 1, 1, 1], [1, 1, 1, 1]) == pytest.approx(0.875, abs=1e-9)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigError):
            global_similarity([1.0] * 4, [0.0] * 4)

    def test_monotone_in_each_feature(self):
        base = [0.5, 0.5, 0.5, 0.5]
        w = [1.0, 2.0, 0.5, 1.0]
        g0 = global_similarity(base, w)
        for i in range(4):
            bumped = list(base)
            bumped[i] += 0.3
            assert global_similarity(bumped, w) >= g0


class TestProperties:
    @given(a=box, b=box, d_max=st.floats(0.5, 100), m=st.integers(1, 50))
    @settings(max_examples=200, deadline=None)
    def test_all_scores_in_unit_interval(self, a, b, d_max, m):
        ls = [distance_similarity(a, b, d_max, m), area_similarity(a, b),
              shape_similarity(a, b)]
        for s in ls:
            assert 0.0 <= s <= 1.0
        gs = global_similarity(ls + [1.0], [1, 1, 1, 1])
        assert 0.0 <= gs <= 1.0

    @given(a=box, b=box)
    @settings(max_examples=200, deadline=None)
    def test_area_shape_symmetric(self, a, b):
        assert area_similarity(a, b) == pytest.approx(area_similarity(b, a), abs=1e-12)
        assert shape_similarity(a, b) == pytest.approx(shape_similarity(b, a), abs=1e-12)

    def test_color_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            ha = rng.uniform(0, 9, size=16)
            hb = rng.uniform(0, 9, size=16)
            assert color_similarity(ha, hb) == pytest.approx(color_similarity(hb, ha), abs=1e-12)

    def test_shape_invariant_under_independent_uniform_scaling(self):
        # aspect ratio ignores scale entirely, even per-box scales
        a, b = ObjectState(0, 0, 8, 4), ObjectState(0, 0, 3, 9)
        ref = shape_similarity(a, b)
        for fa, fb in [(2, 3), (0.5, 7), (10, 0.1)]:
            sa = ObjectState(0, 0, 8 * fa, 4 * fa)
            sb = ObjectState(0, 0, 3 * fb, 9 * fb)
            assert shape_similarity(sa, sb) == pytest.approx(ref, abs=1e-12)

    def test_area_invariant_only_under_equal_area_scaling(self):
        a, b = ObjectState(0, 0, 8, 4), ObjectState(0, 0, 3, 9)
        ref = area_similarity(a, b)
        # both areas scaled by the same factor: invariant
        sa = ObjectState(0, 0, 16, 8)
        sb = ObjectState(0, 0, 6, 18)
        assert area_similarity(sa, sb) == pytest.approx(ref, abs=1e-12)
        # one box scaled alone: not invariant
        sb_only = ObjectState(0, 0, 6, 18)
        assert area_similarity(a, sb_only) != pytest.approx(ref, abs=1e-6)
