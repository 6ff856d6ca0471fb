import numpy as np
import pytest

from conftest import make_detection, make_track
from mftrack import fileio
from mftrack.errors import ConfigError, HistogramShapeError, ParseError
from mftrack.metrics import GroundTruthObject
from mftrack.scenario import generate, lanes_scenario
from mftrack.types import ColorHistogram, ObjectState, TrackerConfig


class TestRebin:
    def test_identity_at_768(self):
        raw = np.arange(768, dtype=float)
        assert np.array_equal(fileio.rebin(raw, 768).bins, raw)

    def test_per_channel_totals_at_3(self):
        raw = np.concatenate([np.full(256, 1.0), np.full(256, 2.0), np.full(256, 3.0)])
        assert np.array_equal(fileio.rebin(raw, 3).bins, [256.0, 512.0, 768.0])

    def test_group_sum_at_96(self):
        raw = np.zeros(768)
        raw[0], raw[7] = 5.0, 7.0  # same group of 8 levels
        binned = fileio.rebin(raw, 96)
        assert binned.bins[0] == 12.0
        assert binned.bins[1:].sum() == 0.0

    @pytest.mark.parametrize("n", [4, 9, 100, 0])
    def test_unrepresentable_bin_counts(self, n):
        with pytest.raises(ConfigError):
            fileio.rebin(np.zeros(768), n)

    def test_wrong_raw_length(self):
        with pytest.raises(HistogramShapeError):
            fileio.rebin(np.zeros(100), 96)


class TestDetectionsIO:
    def test_round_trip(self, tmp_path):
        res = generate(lanes_scenario(n_objects=3, duration=25, seed=8,
                                      position_jitter_sigma=0.7, histogram_noise=0.1))
        path = tmp_path / "dets.txt"
        fileio.write_detections(path, res.detections_by_frame)
        loaded = fileio.load_detections(path, n_bins=96)
        assert set(loaded) == {f for f, d in res.detections_by_frame.items() if d}
        for f in loaded:
            assert loaded[f] == res.detections_by_frame[f]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert fileio.load_detections(path, 96) == {}

    def test_two_rows_one_frame(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("3 0 10 10 5 5\n3 1 80 80 5 5\n")
        loaded = fileio.load_detections(path, 96)
        assert list(loaded) == [3]
        assert len(loaded[3]) == 2
        assert np.all(loaded[3][0].histogram.bins == 0)  # missing histogram -> zeros

    def test_raw_histogram_rebinned_on_load(self, tmp_path):
        raw = " ".join(["1.0"] * 768)
        path = tmp_path / "d.txt"
        path.write_text(f"0 0 10 10 5 5 {raw}\n")
        loaded = fileio.load_detections(path, 96)
        assert np.allclose(loaded[0][0].histogram.bins, 8.0)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 10 10 5 5\nnot a row\n")
        with pytest.raises(ParseError, match=":2:"):
            fileio.load_detections(path, 96)

    def test_bad_histogram_length(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 10 10 5 5 1 2 3\n")
        with pytest.raises(HistogramShapeError):
            fileio.load_detections(path, 96)

    @pytest.mark.parametrize("bad", ["-3", "nan", "inf"])
    @pytest.mark.parametrize("n_bins,raw", [(3, False), (96, True)])
    def test_bad_histogram_count_is_parse_error(self, tmp_path, bad, n_bins, raw):
        # in the raw row the bad count shares its rebinning group with a
        # larger one, so the group's sum alone would look valid
        counts = ["10", bad] + ["1"] * (766 if raw else 1)
        path = tmp_path / "bad.txt"
        path.write_text("0 0 10 10 5 5\n0 1 10 10 5 5 " + " ".join(counts) + "\n")
        with pytest.raises(ParseError, match=f"^{path}:2: histogram counts must be finite"):
            fileio.load_detections(path, n_bins)

    def test_duplicate_detection_id(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1 10 10 5 5\n0 1 20 20 5 5\n")
        with pytest.raises(ParseError):
            fileio.load_detections(path, 96)


class TestGroundTruthIO:
    def test_round_trip(self, tmp_path):
        gt = [GroundTruthObject(0, {f: ObjectState(1.5 + f, 2.25, 3, 4) for f in range(5)}),
              GroundTruthObject(3, {7: ObjectState(9, 9, 1, 1)})]
        path = tmp_path / "gt.txt"
        fileio.write_ground_truth(path, gt)
        assert fileio.load_ground_truth(path) == gt


class TestTrajectoriesIO:
    def test_round_trip_with_status_flags(self, tmp_path):
        t = make_track(4, ObjectState(10, 10, 6, 8))
        t.states[1] = ObjectState(12.5, 10, 6, 8)
        t.matched_frames.add(1)
        t.states[2] = t.states[1]  # held
        path = tmp_path / "trk.txt"
        fileio.write_trajectories(path, [t])
        loaded = fileio.load_trajectories(path)
        assert loaded == {4: dict(t.states)}
        lines = path.read_text().splitlines()
        assert [ln.split()[-1] for ln in lines] == ["1", "1", "0"]


@pytest.mark.parametrize("load,row,message", [
    (fileio.load_ground_truth, "0 0 10 10 5", "expected 6 columns, got 5"),
    (fileio.load_ground_truth, "0 x 10 10 5 5", "invalid literal for int() with base 10: 'x'"),
    (fileio.load_trajectories, "0 0 10 10 5 5", "expected 7 columns, got 6"),
    (fileio.load_trajectories, "0 0 10 10 5 5 y", "invalid literal for int() with base 10: 'y'"),
    (fileio.load_config, "w 0.7", "expected 'key = value'"),
])
def test_error_names_file_and_line(tmp_path, load, row, message):
    path = tmp_path / "in.txt"
    path.write_text(f"# header\n\n{row}  # third line\n")
    with pytest.raises((ParseError, ConfigError)) as e:
        load(path)
    assert str(e.value) == f"{path}:3: {message}"


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        cfg = TrackerConfig(w=0.6, t1=0.75, t2=11, feature_weights=(1, 2, 3, 4),
                            assignment_policy="per_track")
        path = tmp_path / "cfg.txt"
        fileio.write_config(path, cfg)
        assert fileio.load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("w = 0.7\nturbo = yes\n")
        with pytest.raises(ConfigError, match="turbo"):
            fileio.load_config(path)

    def test_out_of_range_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("t1 = 1.01\n")
        with pytest.raises(ConfigError):
            fileio.load_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# tuned for the night camera\n\nw = 0.8  # heavier measurement\n")
        assert fileio.load_config(path).w == 0.8
