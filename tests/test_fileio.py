import dataclasses
import re

import numpy as np
import pytest

from conftest import make_detection, make_track
from mftrack import fileio
from mftrack.errors import ConfigError, HistogramShapeError, ParseError
from mftrack.metrics import GroundTruthObject
from mftrack.pipeline import track_stream
from mftrack.scenario import bench_scenario, generate, lanes_scenario
from mftrack.types import ColorHistogram, Frame, ObjectState, TrackerConfig


class TestRebin:
    def test_identity_at_768(self):
        raw = np.arange(768, dtype=float)
        assert np.array_equal(fileio._rebin(raw, 768), raw)

    def test_per_channel_totals_at_3(self):
        raw = np.concatenate([np.full(256, 1.0), np.full(256, 2.0), np.full(256, 3.0)])
        assert np.array_equal(fileio._rebin(raw, 3), [256.0, 512.0, 768.0])

    def test_group_sum_at_96(self):
        raw = np.zeros(768)
        raw[0], raw[7] = 5.0, 7.0  # same group of 8 levels
        binned = fileio._rebin(raw, 96)
        assert binned[0] == 12.0
        assert binned[1:].sum() == 0.0

    @pytest.mark.parametrize("n", [4, 9, 100, 0])
    def test_unrepresentable_bin_counts(self, n):
        with pytest.raises(ConfigError):
            fileio._rebin(np.zeros(768), n)

    @pytest.mark.parametrize("n", [3 * b for b in (1, 2, 4, 8, 16, 32, 64, 128, 256)])
    def test_block_rebin_equals_row_formula(self, tmp_path, n):
        """One rebin serves a row and a block; over a block, the loader's
        strided one included, every row equals the per-channel group sum
        of that row alone, bit for bit."""
        path = tmp_path / "raw.txt"
        path.write_text(_raw_rows(50))
        raw = np.array([[float(c) for c in line.split()[6:]]
                        for line in path.read_text().splitlines()])
        want = [row.reshape(3, n // 3, -1).sum(axis=2).reshape(-1).tolist() for row in raw]
        assert [fileio._rebin(row, n).tolist() for row in raw] == want
        assert fileio._rebin(raw, n).tolist() == want
        assert fileio.load_detections(path, n)[0].hist.tolist() == want


class TestDetectionsIO:
    def test_round_trip(self, tmp_path):
        res = generate(lanes_scenario(n_objects=3, duration=25, seed=8,
                                      position_jitter_sigma=0.7, histogram_noise=0.1))
        path = tmp_path / "dets.txt"
        fileio.write_detections(path, res.detections_by_frame)
        loaded = fileio.load_detections(path, n_bins=96)
        assert set(loaded) == {f for f, d in res.detections_by_frame.items() if d}
        for f in loaded:
            assert list(loaded[f]) == list(res.detections_by_frame[f])

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
        assert np.all(list(loaded[3])[0].histogram.bins == 0)  # missing histogram -> zeros

    def test_raw_histogram_rebinned_on_load(self, tmp_path):
        raw = " ".join(["1.0"] * 768)
        path = tmp_path / "d.txt"
        path.write_text(f"0 0 10 10 5 5 {raw}\n")
        loaded = fileio.load_detections(path, 96)
        assert np.allclose(list(loaded[0])[0].histogram.bins, 8.0)

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


def _raw_rows(n_rows, seed=5):
    rng = np.random.default_rng(seed)
    counts = rng.random((n_rows, 768)) * rng.integers(1, 10**6, (n_rows, 1))
    return "".join(f"0 {i} 10 10 5 5 " + " ".join(repr(float(c)) for c in row) + "\n"
                   for i, row in enumerate(counts))


_HIST = " ".join(repr(0.5 * k) for k in range(96))

# (id, file text, n_bins): every case loads both ways to the same result
# or fails both ways with the same error
_DETECTION_CORPUS = [
    ("signed_id", "+3 1 10 10 5 5\n3 2 11 10 5 5\n", 96),
    ("underscored_id", "3 1_000 10 10 5 5\n3 2 11 10 5 5\n", 96),
    ("float_id", "0 0 10 10 5 5\n1.0 0 10 10 5 5\n", 96),
    ("exponent_id", "1e3 0 10 10 5 5\n", 96),
    ("non_ascii_before_id", "\u01fe1 0 10 10 5 5\n", 96),
    ("nan_box", "0 0 nan 10 5 5\n", 96),
    ("inf_box", "0 0 10 10 inf 5\n", 96),
    ("negative_zero", "0 0 -0.0 10 5 5\n0 1 10 -0.0 5 5\n", 96),
    ("comments_and_blank_lines", "# header\n\n0 0 10 10 5 5  # a box\n   \n# end\n1 0 11 10 5 5\n", 96),
    ("mixed_widths", f"0 0 10 10 5 5\n0 1 20 20 5 5 {_HIST}\n1 0 11 10 5 5\n", 96),
    ("full_histograms", f"0 0 10 10 5 5 {_HIST}\n0 1 20 20 5 5 {_HIST}\n", 96),
    ("raw_rebinned_to_96", _raw_rows(3), 96),
    ("raw_rebinned_to_3", _raw_rows(3), 3),
    ("raw_kept_at_768", _raw_rows(2), 768),
    ("raw_unrepresentable_bins", _raw_rows(2), 100),
    # the negative count shares its rebinning group with a larger one
    ("raw_negative_count", _raw_rows(1) + "1 0 10 10 5 5 10 -3 " + " ".join(["1"] * 766) + "\n", 96),
    ("wrong_histogram_length", "0 0 10 10 5 5 1 2 3\n", 96),
    ("duplicate_frame_and_id", "0 1 10 10 5 5\n1 1 10 10 5 5\n0 1 20 20 5 5\n", 96),
    ("duplicate_pair_interleaved",
     "0 1 10 10 5 5\n1 1 10 10 5 5\n0 2 20 20 5 5\n1 2 20 20 5 5\n1 1 30 30 5 5\n", 96),
    ("negative_frame", "0 0 10 10 5 5\n-1 0 10 10 5 5\n", 96),
    ("negative_frame_later", "0 0 10 10 5 5\n1 0 10 10 5 5\n2 0 10 10 5 5\n-3 0 10 10 5 5\n", 96),
    ("frames_out_of_order", "5 0 10 10 5 5\n2 0 10 10 5 5\n5 1 20 20 5 5\n3 0 1 1 1 1\n", 96),
    ("only_comments", "# nothing here\n\n   # nor here\n", 96),
    ("empty", "", 96),
    ("too_few_columns", "0 0 10 10 5\n", 96),
]


def _outcome(load, *args):
    """What a loader made of a file: its result, bit for bit, or its error."""
    try:
        loaded = load(*args)
    except Exception as e:  # compared between the two loaders
        return type(e), str(e)
    return [(f, [(d.frame_id, d.detection_id, repr(d.state), d.histogram.bins.tobytes())
                 for d in dets]) for f, dets in loaded.items()]


@pytest.mark.parametrize("text,n_bins", [pytest.param(t, n, id=i) for i, t, n in _DETECTION_CORPUS])
def test_load_detections_matches_line_parser(tmp_path, text, n_bins):
    path = tmp_path / "d.txt"
    path.write_text(text)
    assert _outcome(fileio.load_detections, path, n_bins) == \
        _outcome(fileio._detections_by_line, path, n_bins)


@pytest.mark.parametrize("case,line", [("duplicate_frame_and_id", 3),
                                       ("duplicate_pair_interleaved", 5),
                                       ("negative_frame", 2), ("negative_frame_later", 4)])
def test_block_rejection_names_the_line(tmp_path, case, line):
    """A repeated (frame, id) pair or a negative frame id, which the block
    path finds once over all rows, is the line parser's ParseError naming
    the row's line."""
    text, n_bins = next((t, n) for i, t, n in _DETECTION_CORPUS if i == case)
    path = tmp_path / "d.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line}: "):
        fileio.load_detections(path, n_bins)


def test_interleaved_frames_load_as_line_parser(tmp_path):
    """Rows of one frame spread over the file load, grouped by one stable
    sort, to the frames of the line parser: in order of first appearance,
    file order within a frame, each a view of the one sorted block."""
    res = generate(lanes_scenario(n_objects=3, duration=12, seed=4, histogram_noise=0.1))
    path = tmp_path / "by_frame.txt"
    fileio.write_detections(path, res.detections_by_frame)
    lines = path.read_text().splitlines()
    # the rows dealt out by their index modulo 3, which splits every frame
    path.write_text("".join(f"{ln}\n" for k in range(3) for ln in lines[k::3]))
    assert _outcome(fileio.load_detections, path, 96) == \
        _outcome(fileio._detections_by_line, path, 96)
    frames = list(fileio.load_detections(path, 96).values())
    assert len(frames) == len(res.detections_by_frame) > 1
    # the line parser builds each frame on its own; the block path shares one block
    block = frames[0].hist.base
    assert all(np.shares_memory(column, block) for fr in frames for column in (fr.ids, fr.hist))


def test_loaded_frames_are_views_of_one_block(tmp_path):
    res = generate(bench_scenario(frames=40, objects=3, clutter=2.0, seed=9))
    path = tmp_path / "d.txt"
    fileio.write_detections(path, res.detections_by_frame)
    loaded = fileio.load_detections(path, 96)
    assert len(loaded) > 1 and all(isinstance(fr, Frame) for fr in loaded.values())
    block = next(iter(loaded.values())).hist.base
    for fr in loaded.values():
        for column in (fr.ids, fr.boxes, fr.hist):
            assert np.shares_memory(column, block)
            assert not column.flags.writeable


@pytest.mark.parametrize("text", ["", "# nothing here\n\n   # nor here\n"])
def test_file_without_rows_loads_no_frames(tmp_path, text):
    path = tmp_path / "d.txt"
    path.write_text(text)
    assert fileio.load_detections(path, 96) == {}


@pytest.mark.parametrize("text,lineno", [("0 0 10 10 5 5\n1.0 0 10 10 5 5\n", 2),
                                         ("\u01fe1 0 10 10 5 5\n", 1)])
def test_non_integer_id_is_parse_error(tmp_path, text, lineno):
    path = tmp_path / "d.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{path}:{lineno}: invalid literal for int"):
        fileio.load_detections(path, 96)


@pytest.mark.parametrize("text", [
    f"0 0 10 10 5 5 {_HIST}\n0 1 20 20 5 5 {_HIST}\n",  # rows of the parsed block
    _raw_rows(2),  # rebinned as one block
    f"0 0 10 10 5 5 {_HIST}\n0 1 20 20 5 5\n",  # mixed widths, read line by line
])
def test_loaded_histograms_are_read_only(tmp_path, text):
    path = tmp_path / "d.txt"
    path.write_text(text)
    for det in fileio.load_detections(path, 96)[0]:
        with pytest.raises(ValueError):
            det.histogram.bins[0] = 1.0


@pytest.mark.parametrize("ncols,text", [
    (6, "# gt\n3 0 10 10 5 5\n1 0 1 1 1 1  # one\n3 1 -0.0 10 5 5\n3 0 2 2 2 2\n"),
    (6, "1_0 0 10 10 5 5\n"),
    (6, "0 0 10 10 5 0\n"),
    (6, "0 0 10 10 5 5\n0 0 10 10 5 5 1\n"),
    (6, "0 0 10 10 5 5 1\n"),
    (7, "2 0 10 10 5 5 1\n2 1 10 10 5 5 0\n0 4 1 1 1 1 1\n"),
    (7, "2 0 10 10 5 5 1.0\n"),
    (7, "2 0 10 10 5 5 +1\n"),
    (7, "2 0 10 10 nan 5 1\n"),
    (7, "# only a comment\n"),
])
def test_table_reader_matches_line_parser(tmp_path, ncols, text):
    path = tmp_path / "t.txt"
    path.write_text(text)

    def outcome(read):
        try:
            return repr(read(path, ncols))
        except Exception as e:  # compared between the two readers
            return type(e), str(e)

    assert outcome(fileio._load_table) == outcome(fileio._table_by_line)


@pytest.mark.parametrize("load,rows", [
    (fileio.load_ground_truth, ["0 0 10 10 5 5", "1 0 50 50 5 5", "0 0 90 90 5 5"]),
    (fileio.load_trajectories, ["4 2 10 10 5 5 1", "4 3 11 10 5 5 0", "4 2 90 90 5 5 1"]),
])
@pytest.mark.parametrize("reader", ["block", "lines"])
def test_repeated_id_and_frame_rejected(tmp_path, load, rows, reader):
    """A row that repeats an (id, frame) pair is a ParseError naming its
    line, whether the file parses as one block or line by line (a
    non-ASCII comment sends it to the line parser)."""
    path = tmp_path / "t.txt"
    path.write_text(("# café\n" if reader == "lines" else "# header\n") + "\n".join(rows) + "\n",
                    encoding="utf-8")
    oid, fid = rows[2].split()[:2]
    with pytest.raises(ParseError, match=f"^{path}:4: repeated row for id {oid} in frame {fid}$"):
        load(path)


@pytest.mark.parametrize("spec", [
    # the benchmark workloads at seed 7: clutter_long and crowd
    pytest.param(bench_scenario(frames=1000, objects=5, clutter=5.0, seed=7), id="clutter_long"),
    pytest.param(lanes_scenario(n_objects=32, duration=350, seed=7, speed=0.8, lane_gap=40.0,
                                drop_probability=0.1, position_jitter_sigma=0.5,
                                histogram_noise=0.05), id="crowd"),
])
def test_workload_tables_match_line_parser(tmp_path, spec):
    res = generate(spec)
    engine, _ = track_stream(res.detections_by_frame, TrackerConfig())
    traj, gt = tmp_path / "trk.txt", tmp_path / "gt.txt"
    fileio.write_trajectories(traj, engine.valid_tracks())
    fileio.write_ground_truth(gt, res.gt)
    assert fileio.load_trajectories(traj) == engine.trajectories()
    assert fileio.load_ground_truth(gt) == res.gt
    for path, ncols in ((traj, 7), (gt, 6)):
        assert repr(fileio._load_table(path, ncols)) == repr(fileio._table_by_line(path, ncols))


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
        # every field, as `key = value` lines
        path.write_text("".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in dataclasses.fields(cfg)
                                if f.name != "feature_weights") + "feature_weights = 1 2 3 4\n")
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
