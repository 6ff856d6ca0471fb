import dataclasses
import decimal
import errno
import itertools
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes, make_track, table_of
from mftrack import fileio, metrics
from mftrack.errors import ConfigError, HistogramShapeError, ParseError
from mftrack.pipeline import track_stream
from mftrack.scenario import bench_scenario, generate, lanes_scenario
from mftrack.types import Frame, ObjectState, Track, TrackerConfig, Trajectories


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
            assert _columns(loaded[f]) == _columns(res.detections_by_frame[f])

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
        assert np.all(loaded[3].hist == 0)  # missing histogram -> zeros

    def test_raw_histogram_rebinned_on_load(self, tmp_path):
        raw = " ".join(["1.0"] * 768)
        path = tmp_path / "d.txt"
        path.write_text(f"0 0 10 10 5 5 {raw}\n")
        loaded = fileio.load_detections(path, 96)
        assert np.allclose(loaded[0].hist, 8.0)

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

# doubles at the edges of the format: the smallest normal, the smallest
# subnormal and the token that rounds up to it, the largest, 2**53 + 1,
# 1e23, a 17-digit sum, -0.0, a capital exponent, and two 25-digit tokens
# either side of the point halfway from 1.0 to the next double
_EXACT = ("2.2250738585072011e-308 4.9406564584124654e-324 2.4703282292062328e-324 "
          "1.7976931348623157e308 9007199254740993 1e23 0.30000000000000004 -0.0 1E+05 "
          "1.000000000000000111022302 1.000000000000000111022303").split()
# detection rows with 3 bins, each value where a box or a count may hold it,
# every box's l * h, l / h and h / l finite
_EXACT_ROWS = "".join(f"{f} {d} " + " ".join(_EXACT[i] for i in row) + "\n" for f, d, row in [
    (0, 0, (7, 5, 2, 1, 0, 3, 4)),
    (0, 1, (6, 8, 9, 10, 7, 5, 6)),
    (1, 0, (4, 0, 3, 9, 10, 1, 2)),
])

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
    # values JSON reads that no column holds: np.array would make 1.0, nan or 2.0 of some
    ("json_true", "0 0 true 10 5 5\n", 96),
    ("json_false", "0 0 10 10 5 5 1 false 3\n", 3),
    ("json_null", "0 null 10 10 5 5\n", 96),
    ("json_string", '0 0 10 "2" 5 5\n', 96),
    ("json_array", "0 0 10 10 [5] 5\n", 96),
    ("json_object", "0 0 10 10 5 {}\n", 96),
    # -0, which JSON reads as the integer 0 and float() as -0.0
    ("minus_zero_box", "0 0 -0 10 5 5\n", 96),
    ("minus_zero_count", "0 0 10 10 5 5 -0 1 2\n", 3),
    ("minus_zero_id", "-0 0 10 10 5 5\n", 96),
    # integers past int64, which JSON reads as a float or a uint64
    ("id_past_uint64", "0 99999999999999999999 10 10 5 5\n", 96),
    ("id_past_int64", "0 9223372036854775808 10 10 5 5\n", 96),
    ("id_below_int64", "0 -9223372036854775809 10 10 5 5\n", 96),
    ("overflow_box", "0 0 1e400 10 5 5\n", 96),
    # tokens float() or int() reads and JSON refuses
    ("plus_box", "0 0 +1 10 5 5\n", 96),
    ("leading_dot", "0 0 .5 10 5 5\n", 96),
    ("trailing_dot", "0 0 1. 10 5 5\n", 96),
    ("leading_zero", "0 01 10 10 5 5\n", 96),
    ("underscored_box", "0 0 1_000 10 5 5\n", 96),
    ("inf_count", "0 0 10 10 5 5 1 inf 3\n", 3),
    # whitespace str.split() cuts at and the chunk reader does not take
    ("non_ascii_space", "0 0\u00a010 10 5 5\n", 96),
    ("vertical_tab", "0 0\x0b10 10 5 5\n", 96),
    ("file_separator", "0 0\x1c10 10 5 5\n", 96),
    # a short row and a long one whose numbers add up to two rows of the first width
    ("short_and_long_rows", "0 0 10 10 5 5\n0 1 10 10 5\n0 2 10 10 5 5 5\n", 96),
    # layouts the chunk reader takes
    ("crlf_lines", "0 0 10 10 5 5\r\n0 1 20 20 5 5\r\n# end\r\n1 0 11 10 5 5\r\n", 96),
    ("lone_cr_lines", "0 0 10 10 5 5\r0 1 20 20 5 5  # a box\r1 0 11 10 5 5\r", 96),
    ("tabs_and_space_runs", "0\t0  10 \t10 5 5\n\t\n  0 1 20 20 5\t5  \n\n1 0 11 10 5 5", 96),
    ("utf8_comments", "# caf\u00e9\n0 0 10 10 5 5  # \u00e9\u00e9\n1 0 11 10 5 5\n", 96),
    ("exact_doubles", _EXACT_ROWS, 3),
]


def _columns(frame):
    """A frame's id and columns, bit for bit."""
    return (frame.frame_id, frame.ids.dtype, frame.ids.tobytes(), frame.boxes.dtype,
            frame.boxes.tobytes(), frame.hist.shape, frame.hist.tobytes())


def _outcome(load, *args):
    """What a loader made of a file: its result, bit for bit, or its error."""
    try:
        loaded = load(*args)
    except Exception as e:  # compared between the two loaders
        return type(e), str(e)
    return [(f, _columns(frame)) for f, frame in loaded.items()]


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
    text, n_bins = _corpus(case)
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


def test_ordered_load_does_not_import_numpy_ma(tmp_path):
    """Loading a file whose frames are each one run of rows, in a fresh
    interpreter, leaves numpy.ma unimported: np.unique imports it on its
    first call, about 10 ms of every `mftrack track`. So does loading
    ground truth, its rows in order or not, and evaluating against it."""
    res = generate(lanes_scenario(n_objects=2, duration=9))
    path, gt, shuffled = tmp_path / "d.txt", tmp_path / "gt.txt", tmp_path / "shuffled.gt.txt"
    fileio.write_detections(path, res.detections_by_frame)
    fileio.write_ground_truth(gt, res.gt)
    shuffled.write_text("".join(reversed(gt.read_text().splitlines(keepends=True))))
    # ground truth loaded and evaluated too, in (id, frame) order and sorted
    code = ("import sys, numpy; print('numpy.ma' in sys.modules); "
            "from mftrack import fileio, metrics; fileio.load_detections(sys.argv[1], 96); "
            "gts = [fileio.load_ground_truth(p) for p in sys.argv[2:]]; "
            "metrics.evaluate(gts[0], gts[1]); print('numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(fileio.__file__))
    out = subprocess.run([sys.executable, "-c", code, str(path), str(gt), str(shuffled)],
                         capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
    if out[0] == "True":
        pytest.skip("importing numpy alone loads numpy.ma")
    assert out == ["False", "False"]


def test_loaded_frames_are_views_of_one_block(tmp_path, monkeypatch):
    res = generate(bench_scenario(frames=40, objects=3, clutter=2.0, seed=9))
    path = tmp_path / "d.txt"
    fileio.write_detections(path, res.detections_by_frame)
    for parts in (1, 3):
        _split_into(monkeypatch, parts)
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
    for row in fileio.load_detections(path, 96)[0].hist:
        with pytest.raises(ValueError):
            row[0] = 1.0


# (ncols, file text) of tables the chunk reader takes: line ends, tabs,
# blank lines, a UTF-8 comment, and the doubles of _EXACT, with l and h > 0
# and l * h, l / h and h / l finite: an l of _EXACT[:3], below 1e-300, is
# its own h, and the largest double's h is _EXACT[9], which reads as 1.0
_H_OF_L = {0: 0, 1: 1, 2: 2, 3: 9}
_TABLE_BULK = [
    (6, "0 0 10 10 5 5\r\n1 0 11 10 5 5\r\n"),
    (7, "2 0 10 10 5 5 1\r2 1 10 10 5 5 0\r"),
    (6, "# caf\u00e9\n0\t0 10  10 5 5\n\n1 0 11 10 5 5 \n"),
    (6, "".join(f"0 {i} {_EXACT[i]} {_EXACT[(i + 5) % 11]} {_EXACT[(i + 1) % 7]} "
                f"{_EXACT[_H_OF_L.get((i + 1) % 7, 8 + i % 3)]}\n" for i in range(11))),
]

# (ncols, file text): every case reads both ways to the same result or
# fails both ways with the same error
_TABLE_CORPUS = [
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
    (6, "0 0 true 10 5 5\n"),
    (6, "0 0 -0 10 5 5\n"),
    (7, "2 0 10 10 5 5 -0\n"),
    (7, "2 0 10 10 5 5 1e0\n"),
    (7, "2 0 10 10 5 5 9223372036854775808\n"),
    (6, "99999999999999999999 0 10 10 5 5\n"),
    (6, "0 0 1e400 10 5 5\n"),
    (6, "0 0 .5 10 5 5\n"),
    (7, "2 0 10 10 5 5 2\n"),
    (7, "2 1 10 10 5 5 0\n2 0 10 10 5 5 1\n1 5 10 10 5 5 1\n"),
    (6, "0 0 10 10 5 5\n0 0 10 10 5 5\n"),
    *_TABLE_BULK,
]


def _table_columns(table):
    """A trajectory table's columns, bit for bit."""
    return [(c.dtype, c.shape, c.tobytes()) for c in (table.ids, table.frames, table.boxes,
                                                      table.matched)]


def _table_outcome(read, path, ncols):
    """What a table reader made of a file: its table, bit for bit, or its error."""
    try:
        return _table_columns(read(path, ncols))
    except Exception as e:  # compared between the two readers
        return type(e), str(e)


@pytest.mark.parametrize("ncols,text", _TABLE_CORPUS)
def test_table_reader_matches_line_parser(tmp_path, ncols, text):
    path = tmp_path / "t.txt"
    path.write_text(text)
    assert _table_outcome(fileio._load_table, path, ncols) == \
        _table_outcome(fileio._table_by_line, path, ncols)


def _corpus(case):
    return next((t, n) for i, t, n in _DETECTION_CORPUS if i == case)


def _no_line_parser(*args):
    raise AssertionError("the line parser ran")


# corpus files the chunk reader takes, and the ones it hands to the line parser
_BULK_CASES = ["negative_zero", "comments_and_blank_lines", "full_histograms", "raw_rebinned_to_96",
               "crlf_lines", "lone_cr_lines", "tabs_and_space_runs", "utf8_comments", "exact_doubles"]
_REFUSED_CASES = ["signed_id", "underscored_id", "float_id", "exponent_id", "non_ascii_before_id",
                  "nan_box", "inf_box", "json_true", "json_false", "json_null", "json_string",
                  "json_array", "json_object", "minus_zero_box", "minus_zero_count", "minus_zero_id",
                  "id_past_uint64", "id_past_int64", "id_below_int64", "overflow_box", "plus_box",
                  "leading_dot", "trailing_dot", "leading_zero", "underscored_box", "inf_count",
                  "non_ascii_space", "vertical_tab", "file_separator", "short_and_long_rows"]


@pytest.mark.parametrize("case", _BULK_CASES)
def test_chunk_reader_loads_as_line_parser(tmp_path, monkeypatch, case):
    """These files load on the block path alone, to the line parser's
    frames bit for bit: -0.0 and every double of _EXACT included."""
    text, n_bins = _corpus(case)
    path = tmp_path / "d.txt"
    path.write_text(text)
    want = _outcome(fileio._detections_by_line, path, n_bins)
    monkeypatch.setattr(fileio, "_detections_by_line", _no_line_parser)
    for parts in (1, 2):
        _split_into(monkeypatch, parts)
        assert _outcome(fileio.load_detections, path, n_bins) == want


@pytest.mark.parametrize("case", _REFUSED_CASES)
def test_chunk_reader_takes_json_numbers_only(tmp_path, case):
    """A token that is not a JSON number, -0, an id past int64, a number
    past the largest double and whitespace other than spaces, tabs and
    line ends each leave the file to the line parser, which
    test_load_detections_matches_line_parser compares."""
    path = tmp_path / "d.txt"
    path.write_text(_corpus(case)[0])
    assert fileio._read_block(path, np.float64) is None


@pytest.mark.parametrize("ncols,text", _TABLE_BULK)
def test_chunk_reader_reads_tables_as_line_parser(tmp_path, monkeypatch, ncols, text):
    path = tmp_path / "t.txt"
    path.write_text(text)
    want = _table_outcome(fileio._table_by_line, path, ncols)
    monkeypatch.setattr(fileio, "_table_by_line", _no_line_parser)
    assert _table_outcome(fileio._load_table, path, ncols) == want


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_small_chunks_load_as_line_parser(tmp_path, monkeypatch, chunk):
    """Chunks cut at every line end, or a few lines long, a CRLF pair cut
    between its two bytes and lines longer than a chunk included, load
    every corpus file as the line parser does."""
    monkeypatch.setattr(fileio, "_CHUNK_BYTES", chunk)
    path = tmp_path / "d.txt"
    for case, text, n_bins in _DETECTION_CORPUS:
        path.write_text(text)
        assert _outcome(fileio.load_detections, path, n_bins) == \
            _outcome(fileio._detections_by_line, path, n_bins), case
    for ncols, text in _TABLE_CORPUS:
        path.write_text(text)
        assert _table_outcome(fileio._load_table, path, ncols) == \
            _table_outcome(fileio._table_by_line, path, ncols), text


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_chunks_end_at_line_ends(tmp_path, monkeypatch, end):
    """_chunks gives back every byte of its range, in chunks of about
    _CHUNK_BYTES that each end at a line end, whichever line ends the file
    uses, the last chunk of the range alone excepted."""
    monkeypatch.setattr(fileio, "_CHUNK_BYTES", 16)
    data = b"".join(b"%d 0 10 10 5 5" % i + end for i in range(20)) + b"99 0 1 1 1 1"
    path = tmp_path / "d.txt"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        fh.seek(3)
        chunks = list(fileio._chunks(fh, len(data) - 5))
    assert b"".join(chunks) == data[3:-2]
    assert len(chunks) >= 10
    assert all(c.endswith((b"\n", b"\r")) for c in chunks[:-1])


def _double_tokens(x: float, digits: int) -> list[str]:
    """x written with repr and with `digits` significant digits, and the
    point halfway from x to the next double up written with `digits`
    digits and, where it is an integer below 10**25, in full."""
    tokens = [repr(x), f"{x:.{digits - 1}e}"]
    up = math.nextafter(x, math.inf)
    if math.isfinite(up):
        with decimal.localcontext() as ctx:
            ctx.prec = 1200  # the exact sum of two doubles
            mid = (decimal.Decimal(x) + decimal.Decimal(up)) / 2
        tokens.append(f"{mid:.{digits - 1}e}")
        if 2**53 <= abs(mid) < 10**25:
            tokens.append(str(int(mid)))
    return tokens


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
       digits=st.integers(17, 25))
def test_block_reads_doubles_as_float_does(tmp_path_factory, values, digits):
    """Every token of a finite double, with 17 to 25 digits and near a
    halfway point, reads on the block path to the double float() reads,
    which the line parser uses: the same 64 bits."""
    tokens = [t for x in values for t in _double_tokens(x, digits)]
    tokens += ["0"] * (-len(tokens) % 4)
    rows = [tokens[i:i + 4] for i in range(0, len(tokens), 4)]
    path = tmp_path_factory.getbasetemp() / "doubles.txt"
    path.write_text("".join(f"0 {i} {' '.join(row)}\n" for i, row in enumerate(rows)))
    block = fileio._read_block(path, np.int64)
    assert block is not None
    want = np.array([[float(t) for t in row] for row in rows])
    assert block["box"].view(np.uint64).tolist() == want.view(np.uint64).tolist()


def _split_into(monkeypatch, k):
    """Make _read_block cut every file into k parts (fewer where a line
    spans a cut): every byte is a part's worth, and k CPUs are usable."""
    monkeypatch.setattr(fileio, "_PART_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def _cut_at(monkeypatch, cuts):
    """Make _read_block cut every file at the byte offsets `cuts`."""
    read_parts = fileio._read_parts

    def at_cuts(path, ranges, dtype):
        bounds = [0, *cuts, ranges[-1][1]]
        return read_parts(path, list(zip(bounds, bounds[1:])), dtype)
    monkeypatch.setattr(fileio, "_read_parts", at_cuts)


def _line_ends(path):
    """The byte offset just after each b"\\n" of `path`, but the end of the file."""
    data = path.read_bytes()
    return [i + 1 for i, b in enumerate(data[:-1]) if b == ord("\n")]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("text,n_bins", [pytest.param(t, n, id=i) for i, t, n in _DETECTION_CORPUS])
def test_split_load_matches_line_parser(tmp_path, monkeypatch, k, text, n_bins):
    """Cut into k parts at every choice of line ends, a file loads as the
    line parser loads it, or fails with its error."""
    path = tmp_path / "d.txt"
    path.write_text(text)
    want = _outcome(fileio._detections_by_line, path, n_bins)
    for cuts in itertools.combinations(_line_ends(path), k - 1):
        _cut_at(monkeypatch, cuts)
        assert _outcome(fileio.load_detections, path, n_bins) == want, cuts
    _no_child_left()


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("ncols,text", _TABLE_CORPUS)
def test_split_table_matches_line_parser(tmp_path, monkeypatch, k, ncols, text):
    path = tmp_path / "t.txt"
    path.write_text(text)
    want = _table_outcome(fileio._table_by_line, path, ncols)
    for cuts in itertools.combinations(_line_ends(path), k - 1):
        _cut_at(monkeypatch, cuts)
        assert _table_outcome(fileio._load_table, path, ncols) == want, cuts
    _no_child_left()


# the benchmark workloads at seed 7, whose detection files are some 20 MB each
_WORKLOADS = [
    pytest.param(bench_scenario(frames=1000, objects=5, clutter=5.0, seed=7), id="clutter_long"),
    pytest.param(lanes_scenario(n_objects=32, duration=350, seed=7, speed=0.8, lane_gap=40.0,
                                drop_probability=0.1, position_jitter_sigma=0.5,
                                histogram_noise=0.05), id="crowd"),
]


def _rows(n):
    """n detection rows, three to a frame."""
    return "".join(f"{i // 3} {i % 3} 10 10 5 5\n" for i in range(n))


# (id, file bytes, parts the cut rule makes of it at k = 2)
_SPLIT_CASES = [
    # the cut falls just after the last row; the comment fills the part after it
    ("comment_only_tail", _rows(6).encode() + b"# " + b"-" * 60 + b"\n", 2),
    ("crlf_lines", _rows(6).replace("\n", "\r\n").encode(), 2),
    ("lone_cr_lines", _rows(6).replace("\n", "\r").encode(), 1),
    ("lone_cr_lines_then_lf", _rows(12).replace("\n", "\r", 5).encode(), 2),
    # past the first 8 KiB, which the scan for the first row decodes
    ("non_ascii_in_last_part", _rows(1200).encode() + "# caf\u00e9\n".encode(), 2),
    ("short_row_in_last_part", (_rows(12) + "9 0 10 10 5\n").encode(), 2),
]


@pytest.mark.parametrize("data,parts", [pytest.param(d, p, id=i) for i, d, p in _SPLIT_CASES])
def test_split_at_line_ends(tmp_path, monkeypatch, data, parts):
    """Cut where the rule cuts, each part ending just after a b"\\n", a
    file loads as the line parser loads it, or fails with its error."""
    path = tmp_path / "d.txt"
    path.write_bytes(data)
    seen = []
    read_parts = fileio._read_parts
    monkeypatch.setattr(fileio, "_read_parts",
                        lambda path, ranges, dtype: seen.append(ranges) or read_parts(path, ranges, dtype))
    _split_into(monkeypatch, 2)
    assert _outcome(fileio.load_detections, path, 96) == _outcome(fileio._detections_by_line, path, 96)
    assert len(seen[0]) == parts
    assert all(data[end - 1:end] == b"\n" for _, end in seen[0][:-1])
    _no_child_left()


@pytest.mark.parametrize("spec", _WORKLOADS)
def test_workload_block_same_in_one_part_and_two(tmp_path, monkeypatch, spec):
    """The benchmark's seed-7 detection files, some 20 MB each, give the
    same block bytes read as one part and as two."""
    path = tmp_path / "d.txt"
    fileio.write_detections(path, generate(spec).detections_by_frame)
    blocks = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        blocks.append(fileio._read_block(path, np.float64))
    assert blocks[0].dtype == blocks[1].dtype
    assert blocks[0].tobytes() == blocks[1].tobytes()
    _no_child_left()


@pytest.mark.parametrize("spec", _WORKLOADS)
def test_workload_detections_load_as_line_parser(tmp_path, monkeypatch, spec):
    """The benchmark's seed-7 detection files load on the block path, in
    one range and in two, to the line parser's frames bit for bit."""
    path = tmp_path / "d.txt"
    fileio.write_detections(path, generate(spec).detections_by_frame)
    want = _outcome(fileio._detections_by_line, path, 96)
    monkeypatch.setattr(fileio, "_detections_by_line", _no_line_parser)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert _outcome(fileio.load_detections, path, 96) == want
    _no_child_left()


def _split_file(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(_rows(60))
    return path


# the last part of a file of 1200 rows lies past the first 8 KiB
@pytest.mark.parametrize("text,error", [
    pytest.param(_rows(1200), None, id="block"),
    pytest.param(_rows(1199) + "+399 2 10 10 5 5\n", None, id="line_parser"),
    pytest.param(_rows(1200) + "999 0 10 10 5\n", ParseError, id="parse_error"),
])
def test_split_load_leaves_no_child(tmp_path, monkeypatch, text, error):
    path = tmp_path / "d.txt"
    path.write_text(text, encoding="utf-8")
    _split_into(monkeypatch, 3)
    if error is None:
        assert len(fileio.load_detections(path, 96)) == 400
    else:
        with pytest.raises(error):
            fileio.load_detections(path, 96)
    _no_child_left()


@pytest.mark.parametrize("parts", [1, 2])
def test_utf8_comment_keeps_the_block_path(tmp_path, monkeypatch, parts):
    """A UTF-8 comment, here `# café` at the head and at the end of a file
    of more than one range, is cut before the byte check: the file loads
    on the block path, as the line parser loads it."""
    res = generate(bench_scenario(frames=60, objects=3, clutter=2.0, seed=9))
    path = tmp_path / "d.txt"
    fileio.write_detections(path, res.detections_by_frame)
    path.write_text("# caf\u00e9\n" + path.read_text() + "# caf\u00e9\n", encoding="utf-8")
    want = _outcome(fileio._detections_by_line, path, 96)
    monkeypatch.setattr(fileio, "_detections_by_line", _no_line_parser)
    _split_into(monkeypatch, parts)
    assert _outcome(fileio.load_detections, path, 96) == want
    _no_child_left()


@pytest.mark.parametrize("head", [b"", b"# header\n"])
@pytest.mark.parametrize("parts", [1, 2])
def test_byte_order_mark_keeps_the_block_path(tmp_path, monkeypatch, parts, head):
    """A detection, ground-truth or trajectory file that starts with a
    UTF-8 byte-order mark, then a row or a comment, loads on the block
    path, in one range or two, equal to the same file without the mark."""
    res = generate(bench_scenario(frames=60, objects=3, clutter=2.0, seed=9))
    engine, _ = track_stream(res.detections_by_frame, TrackerConfig())
    det, gt, trk = tmp_path / "d.txt", tmp_path / "gt.txt", tmp_path / "trk.txt"
    fileio.write_detections(det, res.detections_by_frame)
    fileio.write_ground_truth(gt, res.gt)
    fileio.write_trajectories(trk, engine.valid_tracks())
    loads = [(det, lambda path: _outcome(fileio.load_detections, path, 96)),
             (gt, lambda path: _table_columns(fileio.load_ground_truth(path))),
             (trk, lambda path: _table_columns(fileio.load_trajectories(path)))]
    for path, _ in loads:
        path.write_bytes(head + path.read_bytes())
    want = [load(path) for path, load in loads]
    for path, _ in loads:
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    monkeypatch.setattr(fileio, "_detections_by_line", _no_line_parser)
    monkeypatch.setattr(fileio, "_table_by_line", _no_line_parser)
    _split_into(monkeypatch, parts)
    assert [load(path) for path, load in loads] == want
    _no_child_left()


@pytest.mark.parametrize("load,rows", [
    (lambda path: fileio.load_detections(path, 96), ["0 0 10 10 5 5", "1 0 11 10 5 5"]),
    (fileio.load_ground_truth, ["0 0 10 10 5 5", "0 1 11 10 5 5"]),
    (fileio.load_trajectories, ["4 2 10 10 5 5 1", "4 3 11 10 5 5 0"]),
])
def test_byte_order_mark_after_line_one_is_parse_error(tmp_path, load, rows):
    """Only the first bytes of a file may be a byte-order mark: one at
    the start of line 2 is a ParseError naming that line."""
    path = tmp_path / "t.txt"
    path.write_bytes(f"{rows[0]}\n\ufeff{rows[1]}\n".encode())
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: "):
        load(path)


@pytest.mark.parametrize("parts", [1, 3])
def test_latin1_comment_is_parse_error_naming_its_line(tmp_path, monkeypatch, parts):
    """A comment that is not UTF-8 still sends the file to the line
    parser, which names its line, from this process's range or a child's."""
    path = tmp_path / "d.txt"
    path.write_bytes(_rows(1200).encode() + "# caf\xe9\n".encode("latin-1"))
    _split_into(monkeypatch, parts)
    assert fileio._read_block(path, np.float64) is None
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:1201: bytes that are not UTF-8 text"):
        fileio.load_detections(path, 96)
    _no_child_left()


@pytest.mark.parametrize("k", [2, 3])
def test_range_that_does_not_parse_is_parsed_once(tmp_path, monkeypatch, k):
    """A bad row in a child's range is parsed once, by that child, which
    sends _NO_PARSE: the file goes straight to the line parser, with no
    parse of the file as one range, and the error names the row's line."""
    path = tmp_path / "d.txt"
    path.write_text(_rows(1200) + "999 0 10 10 5\n")
    calls, seen = tmp_path / "calls.txt", []
    parse_range, read_parts = fileio._parse_range, fileio._read_parts

    def counted(*args):  # each process appends a line, children included
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return parse_range(*args)
    monkeypatch.setattr(fileio, "_parse_range", counted)
    monkeypatch.setattr(fileio, "_read_parts",
                        lambda path, ranges, dtype: seen.append(ranges) or read_parts(path, ranges, dtype))
    _split_into(monkeypatch, k)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:1201: expected at least 6 columns"):
        fileio.load_detections(path, 96)
    assert len(seen) == 1 and len(seen[0]) == k
    assert len(calls.read_text().split()) == k
    _no_child_left()


class _CountOnly:
    """A part of 3 rows that has no bytes to write: its child sends the
    row count and then fails."""

    def __len__(self):
        return 3


@pytest.mark.parametrize("dies", ["before_count", "after_count"])
def test_child_that_dies_gives_one_part_result(tmp_path, monkeypatch, dies):
    path = _split_file(tmp_path)
    one_part = fileio._read_block(path, np.float64)
    parent, parse_range = os.getpid(), fileio._parse_range

    def dies_in_child(*args):
        if os.getpid() != parent:
            if dies == "before_count":
                os._exit(1)
            return _CountOnly()
        return parse_range(*args)
    monkeypatch.setattr(fileio, "_parse_range", dies_in_child)
    _split_into(monkeypatch, 3)
    assert fileio._read_block(path, np.float64).tobytes() == one_part.tobytes()
    _no_child_left()


def test_fork_failure_gives_one_part_result(tmp_path, monkeypatch):
    path = _split_file(tmp_path)
    one_part = fileio._read_block(path, np.float64)

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    _split_into(monkeypatch, 3)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    assert fileio._read_block(path, np.float64).tobytes() == one_part.tobytes()
    assert fds is None or os.listdir("/proc/self/fd") == fds


def test_parent_parse_error_kills_and_reaps_children(tmp_path, monkeypatch):
    """An exception in this process's own part kills the children, which
    would otherwise parse for a minute, and reaps them before it leaves."""
    path = _split_file(tmp_path)
    parent = os.getpid()

    def slow_child_failing_parent(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise RuntimeError("parse interrupted")
    monkeypatch.setattr(fileio, "_parse_range", slow_child_failing_parent)
    _split_into(monkeypatch, 3)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="parse interrupted"):
        fileio._read_block(path, np.float64)
    assert time.monotonic() - started < 30
    _no_child_left()


@pytest.mark.parametrize("load,rows", [
    (fileio.load_ground_truth, ["0 0 10 10 5 5", "1 0 50 50 5 5", "0 0 90 90 5 5"]),
    (fileio.load_trajectories, ["4 2 10 10 5 5 1", "4 3 11 10 5 5 0", "4 2 90 90 5 5 1"]),
    # in (id, frame) order, the repeat right after its first row
    (fileio.load_ground_truth, ["0 0 10 10 5 5", "0 1 50 50 5 5", "0 1 90 90 5 5"]),
])
@pytest.mark.parametrize("reader", ["block", "lines"])
def test_repeated_id_and_frame_rejected(tmp_path, load, rows, reader):
    """A row that repeats an (id, frame) pair is a ParseError naming its
    line, whether the file parses as one block or line by line (an id
    written +0 or +4 sends it to the line parser)."""
    path = tmp_path / "t.txt"
    path.write_text(("# café\n+" if reader == "lines" else "# header\n") + "\n".join(rows) + "\n",
                    encoding="utf-8")
    oid, fid = rows[2].split()[:2]
    with pytest.raises(ParseError, match=f"^{path}:4: repeated row for id {oid} in frame {fid}$"):
        load(path)


@pytest.mark.parametrize("flag", ["2", "-1", "9223372036854775807"])
@pytest.mark.parametrize("reader", ["block", "lines"])
def test_status_flag_outside_0_and_1_rejected(tmp_path, flag, reader):
    """A status flag is 1 (matched) or 0 (held): any other integer is a
    ParseError naming its line, with one message whether the file parses
    as one block or line by line."""
    path = tmp_path / "t.trk.txt"
    path.write_text(("# café\n+" if reader == "lines" else "# header\n") +
                    f"4 2 10 10 5 5 1\n4 3 11 10 5 5 {flag}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{path}:3: status flag {flag} is not 0 or 1$"):
        fileio.load_trajectories(path)


@pytest.mark.parametrize("spec", _WORKLOADS)
def test_workload_tables_match_line_parser(tmp_path, spec):
    res = generate(spec)
    engine, _ = track_stream(res.detections_by_frame, TrackerConfig())
    traj, gt = tmp_path / "trk.txt", tmp_path / "gt.txt"
    fileio.write_trajectories(traj, engine.valid_tracks())
    fileio.write_ground_truth(gt, res.gt)
    assert fileio.load_trajectories(traj) == engine.trajectories()
    assert fileio.load_ground_truth(gt) == res.gt
    for path, ncols in ((traj, 7), (gt, 6)):
        assert _table_outcome(fileio._load_table, path, ncols) == \
            _table_outcome(fileio._table_by_line, path, ncols)


class TestGroundTruthIO:
    def test_round_trip(self, tmp_path):
        gt = table_of({0: {f: ObjectState(1.5 + f, 2.25, 3, 4) for f in range(5)},
                      3: {7: ObjectState(9, 9, 1, 1)}})
        path = tmp_path / "gt.txt"
        fileio.write_ground_truth(path, gt)
        assert fileio.load_ground_truth(path) == gt

    def test_loads_in_gt_id_order(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("3 8 9 9 1 1\n0 1 5 5 2 2\n3 7 9 9 1 1\n")
        gt = fileio.load_ground_truth(path)
        assert (gt.ids.tolist(), gt.frames.tolist()) == ([0, 3, 3], [1, 7, 8])
        assert gt.boxes.tolist() == [[5, 5, 2, 2], [9, 9, 1, 1], [9, 9, 1, 1]]
        assert gt.matched.all()


class TestTrajectoriesIO:
    def test_round_trip_with_status_flags(self, tmp_path):
        t = make_track(4, ObjectState(10, 10, 6, 8))
        t.append([1, 2], boxes([ObjectState(12.5, 10, 6, 8)] * 2), [True, False])  # then held
        path = tmp_path / "trk.txt"
        fileio.write_trajectories(path, [t])
        loaded = fileio.load_trajectories(path)
        assert loaded == Trajectories(np.array([4, 4, 4]), np.array([0, 1, 2]),
                                      t.boxes, np.array([True, True, False]))
        lines = path.read_text().splitlines()
        assert [ln.split()[-1] for ln in lines] == ["1", "1", "0"]


def _repr_rows(table: Trajectories, flags: bool) -> str:
    """The rows of `table` as the table writers wrote them before their
    block formatter, with the status flag where `flags`: tolist gives
    Python floats, whose repr is the text written."""
    rows = zip(table.ids.tolist(), table.frames.tolist(), table.boxes.tolist(),
               table.matched.tolist())
    if flags:
        return "".join(f"{tid} {f} {x!r} {y!r} {l!r} {h!r} {hit:d}\n"
                       for tid, f, (x, y, l, h), hit in rows)
    return "".join(f"{gid} {f} {x!r} {y!r} {l!r} {h!r}\n" for gid, f, (x, y, l, h), _ in rows)


def _tracks_of(table: Trajectories) -> list[Track]:
    """A track per run of one id of `table`, whose ids rise run by run."""
    bounds = metrics._runs(table.ids)
    return [Track(int(table.ids[a]), table.frames[a:b], table.boxes[a:b], table.matched[a:b],
                  np.zeros(3), 0) for a, b in zip(bounds, bounds[1:])]


def _write_both(tmp_path, table: Trajectories) -> tuple[str, str]:
    """The text write_ground_truth writes for `table`, and the text
    write_trajectories writes for the tracks of its runs of one id."""
    gt, trk = tmp_path / "gt.txt", tmp_path / "trk.txt"
    fileio.write_ground_truth(gt, table)
    fileio.write_trajectories(trk, _tracks_of(table))
    return gt.read_text(), trk.read_text()


# the doubles where repr switches between fixed and exponent notation, or
# nearly: either side of 1e-4 and 1e16, subnormals, the extremes and both
# zeros
_EDGE_DOUBLES = sorted({v for x in (1e-4, 1e16) for v in
                        (x, math.nextafter(x, 0), math.nextafter(x, math.inf))} |
                       {5e-324, 2.2250738585072014e-308, 1e-300, 5e-05, 1e-06, 1e+22,
                        sys.float_info.max, 0.0}, key=abs)
_EDGE_DOUBLES += [-x for x in _EDGE_DOUBLES]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(*[st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                            st.sampled_from(_EDGE_DOUBLES))] * 4),
                     max_size=12),
       matched=st.lists(st.booleans(), min_size=12, max_size=12))
def test_table_writers_write_repr_text(tmp_path_factory, rows, matched):
    """Any finite box rows are written byte for byte as repr writes
    them, by both table writers."""
    n = len(rows)
    ids = np.repeat(np.arange(-1, 2), -(-n // 3))[:n]  # three runs of one id
    table = Trajectories(ids, np.arange(n) - 2, np.array(rows, dtype=np.float64).reshape(-1, 4),
                         np.array(matched[:n], dtype=bool))
    gt, trk = _write_both(tmp_path_factory.mktemp("rows"), table)
    assert gt == _repr_rows(table, flags=False)
    assert trk == _repr_rows(table, flags=True)


_ID_EXTREMES = [-2**63, -2**62, -7, 0, 2**63 - 1]


def _mixed_table(n: int, odd_every: int = 7) -> Trajectories:
    """n rows of valid boxes, with a value of _EDGE_DOUBLES (a positive
    one in l and h) in every odd_every-th row, so a block holds rows in
    exponent notation among rows in fixed notation; ids from the int64
    extremes up in five runs, frames from -2**63 up."""
    rng = np.random.default_rng(n)
    box = np.column_stack((rng.uniform(-1e3, 1e3, (n, 2)), rng.uniform(1, 100, (n, 2))))
    edge = [x for x in _EDGE_DOUBLES if 1e-6 <= x <= 1e17]
    for j, i in enumerate(range(0, n, odd_every)):
        values = edge if j % 4 >= 2 else _EDGE_DOUBLES
        box[i, j % 4] = values[j % len(values)]
    ids = np.array(_ID_EXTREMES, dtype=np.int64).repeat(-(-n // 5))[:n]
    frames = np.iinfo(np.int64).min + np.arange(n)
    frames[-1:] = np.iinfo(np.int64).max  # the last row of the last id
    return Trajectories(ids, frames, box, rng.random(n) < 0.8)


_BLOCK = fileio._WRITE_ROWS


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_table_writers_across_blocks(tmp_path, n):
    """Tables that end before, at and after a block boundary, with
    exponent-notation values among fixed-notation ones, and ids and frames
    at the int64 extremes: both writers write the oracle's text, and each
    file loads back to its table."""
    table = _mixed_table(n)
    gt, trk = _write_both(tmp_path, table)
    assert gt == _repr_rows(table, flags=False)
    assert trk == _repr_rows(table, flags=True)
    loaded = fileio._load_table(tmp_path / "gt.txt", 6)
    assert loaded == Trajectories(table.ids, table.frames, table.boxes, np.ones(n, dtype=bool))
    assert fileio.load_trajectories(tmp_path / "trk.txt") == table


def test_ground_truth_writer_holds_one_block(tmp_path):
    """Writing a 100,000-row table holds one block's text at a time: under
    1 MiB traced."""
    table = _mixed_table(100_000, odd_every=1000)
    tracemalloc.start()
    try:
        fileio.write_ground_truth(tmp_path / "gt.txt", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_trajectory_writer_holds_the_columns_and_one_block(tmp_path):
    """Writing 100 tracks of 1,000 rows holds their concatenated columns
    (4.8 MiB) and one block's text: under 6 MiB traced."""
    table = _mixed_table(100_000, odd_every=1000)
    tracks = [Track(i, table.frames[i * 1000:(i + 1) * 1000], table.boxes[i * 1000:(i + 1) * 1000],
                    table.matched[i * 1000:(i + 1) * 1000], np.zeros(3), 0) for i in range(100)]
    tracemalloc.start()
    try:
        fileio.write_trajectories(tmp_path / "trk.txt", tracks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


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

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"\xef\xbb\xbft2 = 5\nw = 0.6\n")
        assert fileio.load_config(path) == TrackerConfig(t2=5, w=0.6)

    def test_repeated_key_names_its_second_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("t2 = 5\nw = 0.6\nt2 = 30\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: repeated config key 't2'$"):
            fileio.load_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# tuned for the night camera\n\nw = 0.8  # heavier measurement\n")
        assert fileio.load_config(path).w == 0.8
