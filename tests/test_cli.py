import errno
import json

import pytest

from mftrack import fileio, metrics
from mftrack.cli import main
from mftrack.engine import TrackingEngine
from mftrack.pipeline import track_stream
from mftrack.scenario import bench_scenario, generate, lanes_scenario, spec_to_json
from mftrack.types import TrackerConfig


@pytest.fixture
def sim_files(tmp_path):
    """Scenario spec on disk plus simulated detections + ground truth."""
    spec = lanes_scenario(n_objects=2, duration=120, seed=14)
    spec_path = tmp_path / "scenario.json"
    spec_path.write_text(spec_to_json(spec))
    prefix = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(spec_path), "--out", str(prefix)]) == 0
    return tmp_path, f"{prefix}.det.txt", f"{prefix}.gt.txt"


def test_simulate_writes_detections_and_gt_sidecar(sim_files):
    tmp_path, det_path, gt_path = sim_files
    assert fileio.load_detections(det_path, 96)
    assert fileio.load_ground_truth(gt_path).ids.tolist() == [0] * 120 + [1] * 120


def test_simulate_seed_override(tmp_path):
    spec = lanes_scenario(n_objects=1, duration=30, seed=1, position_jitter_sigma=1.0)
    spec_path = tmp_path / "s.json"
    spec_path.write_text(spec_to_json(spec))
    main(["simulate", "--scenario", str(spec_path), "--out", str(tmp_path / "a")])
    main(["simulate", "--scenario", str(spec_path), "--seed", "2", "--out", str(tmp_path / "b")])
    assert (tmp_path / "a.det.txt").read_text() != (tmp_path / "b.det.txt").read_text()


def test_track_and_evaluate_end_to_end(sim_files):
    tmp_path, det_path, gt_path = sim_files
    out = tmp_path / "tracks.txt"
    report = tmp_path / "report.json"
    rc = main(["track", "--detections", det_path, "--out", str(out),
               "--ground-truth", gt_path, "--report", str(report)])
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["m1"] == rep["m2"] == rep["m3"] == 1.0
    assert rep["fps"] > 0

    # standalone evaluation of the written trajectory file agrees
    rep2 = tmp_path / "report2.json"
    rc = main(["evaluate", "--trajectories", str(out), "--ground-truth", gt_path,
               "--out", str(rep2)])
    assert rc == 0
    assert json.loads(rep2.read_text())["m_bar"] == 1.0


def test_track_deterministic_output(sim_files):
    tmp_path, det_path, _ = sim_files
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["track", "--detections", det_path, "--out", str(a)]) == 0
    assert main(["track", "--detections", det_path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("config", ["", "motion_model = static\n",
                                    "assignment_policy = per_track\n"])
def test_track_matches_line_parsed_stream(sim_files, config):
    """`mftrack track` writes the same trajectory file as tracking the
    stream the line parser reads."""
    tmp_path, det_path, _ = sim_files
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(config)
    out, ref = tmp_path / "tracks.txt", tmp_path / "ref.txt"
    assert main(["track", "--detections", det_path, "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    cfg = fileio.load_config(cfg_path)
    engine, _ = track_stream(fileio._detections_by_line(det_path, cfg.n_bins), cfg)
    fileio.write_trajectories(ref, engine.valid_tracks())
    assert out.read_bytes() == ref.read_bytes()


def _counted_steps(monkeypatch, limit):
    """Calls to TrackingEngine.step, failing the test past `limit`."""
    calls = []
    step = TrackingEngine.step

    def counted(self, frame_id, detections):
        calls.append(frame_id)
        assert len(calls) <= limit, "stepped a gap without a live track"
        return step(self, frame_id, detections)

    monkeypatch.setattr(TrackingEngine, "step", counted)
    return calls


@pytest.mark.parametrize("config", [TrackerConfig(), TrackerConfig(t2=3, motion_model="static")])
def test_track_stream_skips_gaps_without_live_tracks(tmp_path, monkeypatch, config):
    """A stream with frames removed, some while tracks are live and some
    for longer than a track waits: track_stream writes the trajectories of
    stepping every frame, and steps no frame of a gap once no track is
    live."""
    stream = generate(bench_scenario(frames=300, seed=5)).detections_by_frame
    gaps = [range(40, 45), range(100, 200), range(250, 251)]
    stream = {f: fr for f, fr in stream.items() if not any(f in gap for gap in gaps)}
    every = TrackingEngine(config)
    for f in range(min(stream), max(stream) + 1):
        every.step(f, stream.get(f, []))
    steps = _counted_steps(monkeypatch, 300)
    engine, fps = track_stream(stream, config)
    assert fps > 0 and max(steps) == 299
    assert len(steps) < 300 - config.t2 and set(range(100 + config.t2 + 2, 200)).isdisjoint(steps)
    want, got = tmp_path / "every.txt", tmp_path / "skipped.txt"
    fileio.write_trajectories(want, every.valid_tracks())
    fileio.write_trajectories(got, engine.valid_tracks())
    assert got.read_bytes() == want.read_bytes()


def test_track_far_apart_frames(tmp_path, monkeypatch):
    """`mftrack track` on two frames 10**12 apart steps the first, the
    frames its track waits and the last, not the span between them."""
    det = tmp_path / "far.det.txt"
    det.write_text(f"0 0 10 10 5 5\n{10**12} 0 10 10 5 5\n")
    steps = _counted_steps(monkeypatch, 100)
    assert main(["track", "--detections", str(det), "--out", str(tmp_path / "far.trk.txt")]) == 0
    assert steps[0] == 0 and steps[-1] == 10**12


def test_invalid_config_exit_code(sim_files, tmp_path):
    _, det_path, _ = sim_files
    bad = tmp_path / "bad.cfg"
    bad.write_text("t1 = 1.01\n")
    rc = main(["track", "--detections", det_path, "--config", str(bad),
               "--out", str(tmp_path / "o.txt")])
    assert rc == 3


def test_nonfinite_config_exit_code(sim_files, tmp_path):
    _, det_path, _ = sim_files
    bad = tmp_path / "bad.cfg"
    bad.write_text("feature_weights = nan 1 1 1\n")
    rc = main(["track", "--detections", det_path, "--config", str(bad),
               "--out", str(tmp_path / "o.txt")])
    assert rc == 3


@pytest.mark.parametrize("text,where", [("t2 = many\n", ":1: invalid literal for int()"),
                                        ("feature_weights = 1 1 1\n",
                                         ":1: feature_weights needs 4 values, got 3")])
def test_unparsable_config_value_exit_code(sim_files, capsys, text, where):
    """A config value that does not parse as its field's type is a config
    error, exit 3, naming the file and line."""
    tmp_path, det_path, _ = sim_files
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    rc = main(["track", "--detections", det_path, "--config", str(bad),
               "--out", str(tmp_path / "o.txt")])
    assert rc == 3
    assert f"{bad}{where}" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


def test_missing_input_exit_code(tmp_path):
    rc = main(["track", "--detections", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "o.txt")])
    assert rc == 2


def test_malformed_detections_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 oops 10 5 5\n")
    rc = main(["track", "--detections", str(bad), "--out", str(tmp_path / "o.txt")])
    assert rc == 2


@pytest.mark.parametrize("row", ["0 99999999999999999999 10 10 5 5\n",
                                 "99999999999999999999 0 10 10 5 5\n",
                                 "9223372036854775807 0 10 10 5 5\n"],
                         ids=["detection_id", "frame_id", "largest_int64_frame_id"])
def test_id_beyond_int64_exit_code(tmp_path, capsys, row):
    bad = tmp_path / "bad.txt"
    bad.write_text(row)
    assert main(["track", "--detections", str(bad), "--out", str(tmp_path / "o.txt")]) == 2
    assert f"{bad}:1:" in capsys.readouterr().err


def test_bad_histogram_count_exit_code(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_bins = 3\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 10 10 5 5 1 2 -3\n")
    rc = main(["track", "--detections", str(bad), "--config", str(cfg),
               "--out", str(tmp_path / "o.txt")])
    assert rc == 2
    assert f"{bad}:1:" in capsys.readouterr().err


def test_filter_overflow_exit_code(tmp_path, capsys):
    """Detections that drive the filter past the range of a float are an
    input error naming the frame, exit 2, and no trajectory file is
    written."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("t1 = 0\n")
    det = tmp_path / "d.txt"
    det.write_text("0 0 1.5e308 50 10 10\n1 0 -1.5e308 50 10 10\n")
    out = tmp_path / "o.txt"
    rc = main(["track", "--detections", str(det), "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        "mftrack: error: filter update produced non-finite values in frame 1\n"
    assert not out.exists()


_ZERO_BINS = " 0" * 96


@pytest.mark.parametrize("rows,message", [
    pytest.param(["0 0 100.0 100.0 1e-05 1e+300" + _ZERO_BINS,
                  "1 0 100.0 100.0 1.7e+308 0.95" + _ZERO_BINS],
                 "filter update produced non-finite values in frame 1", id="corrected_area"),
    pytest.param(["0 0 1e307 100 1e-06 1e-06", "1 0 1e307 100 1e308 1.0",
                  "2 0 -1e307 100 1.7e308 0.95"],
                 "filter prediction produced non-finite values in frame 2", id="predicted_position"),
    pytest.param(["0 0 100 100 1e-06 1e154", "1 0 100 100 1e154 1e154", "2 0 100 100 1 1"],
                 "filter prediction produced non-finite values in frame 2", id="estimated_area"),
])
def test_filter_box_overflow_exit_code(tmp_path, capsys, rows, message):
    """A corrected box whose area l * h overflows a float, a predicted
    position that overflows and an estimated box whose area overflows are
    input errors naming the frame: exit 2, the error line alone on stderr,
    with no numpy warning before it, and no trajectory file."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("feature_weights = 1 0 0 0\nt1 = 0.5\n")
    det = tmp_path / "d.txt"
    det.write_text("".join(row + "\n" for row in rows))
    out = tmp_path / "o.txt"
    rc = main(["track", "--detections", str(det), "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"mftrack: error: {message}\n"
    assert not out.exists()


def test_far_apart_pair_tracks_without_warning(tmp_path, capsys):
    """Two detections whose distance is past the largest float are out of
    each other's reach: two tracks, exit 0, and nothing on stderr."""
    det = tmp_path / "d.txt"
    det.write_text("0 0 1e308 10 5 5\n1 0 -1e308 10 5 5\n")
    out = tmp_path / "o.txt"
    assert main(["track", "--detections", str(det), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted({line.split()[0] for line in out.read_text().splitlines()}) == ["1", "2"]


_HUGE_BOX = "10 10 1e300 1e300"  # l * h is past the largest float
_THIN_BOX = "10 10 1e300 1e-10"  # l * h is finite, l / h past the largest float


def _run_on_bad_box_file(sim_files, kind, text):
    """Exit code of the command that reads text as its kind of file, and
    the file's path and the output path."""
    tmp_path, det_path, gt_path = sim_files
    bad = tmp_path / f"bad.{kind}.txt"
    bad.write_text(text)
    out = tmp_path / "o.txt"
    if kind == "trajectories":
        argv = ["evaluate", "--trajectories", str(bad), "--ground-truth", gt_path, "--out", str(out)]
    elif kind == "ground_truth":
        argv = ["track", "--detections", det_path, "--ground-truth", str(bad), "--out", str(out)]
    else:
        argv = ["track", "--detections", str(bad), "--out", str(out)]
    return main(argv), bad, out


@pytest.mark.parametrize("kind", ["detections", "ground_truth", "trajectories"])
def test_box_area_beyond_float_exit_code(sim_files, capsys, kind):
    """A box whose area l * h overflows a float is a parse error naming its
    line, exit 2, in a detection, ground-truth or trajectory file, and no
    output is written."""
    rc, bad, out = _run_on_bad_box_file(sim_files, kind, {
        "detections": f"0 0 10 10 5 5\n1 0 {_HUGE_BOX}\n",
        "ground_truth": f"0 0 10 10 5 5\n0 1 {_HUGE_BOX}\n",
        "trajectories": f"1 0 10 10 5 5 1\n1 1 {_HUGE_BOX} 1\n"}[kind])
    assert rc == 2
    assert f"{bad}:2: box area l * h must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["detections", "ground_truth", "trajectories"])
def test_box_aspect_beyond_float_exit_code(sim_files, capsys, kind):
    """A box whose area is finite but whose aspect l / h overflows a float
    is a parse error naming its line, exit 2, and no output is written: the
    shape score of such a box against itself would be nan, and each frame
    of it would spawn a track."""
    rc, bad, out = _run_on_bad_box_file(sim_files, kind, {
        "detections": "".join(f"{f} 0 {_THIN_BOX}\n" for f in range(3)),
        "ground_truth": f"0 0 {_THIN_BOX}\n",
        "trajectories": f"1 0 {_THIN_BOX} 1\n"}[kind])
    assert rc == 2
    assert f"{bad}:1: box aspect l / h and h / l must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_undecodable_detections_exit_code(sim_files, capsys):
    """A byte that is not UTF-8 text, here a latin-1 e-acute in a comment,
    is a parse error naming its line, exit 2."""
    tmp_path, det_path, _ = sim_files
    bad = tmp_path / "latin1.txt"
    lines = open(det_path, "rb").read().splitlines(keepends=True)
    bad.write_bytes(b"".join(lines[:2]) + "# cam\xe9ra 2\n".encode("latin-1") + b"".join(lines[2:]))
    rc = main(["track", "--detections", str(bad), "--out", str(tmp_path / "o.txt")])
    assert rc == 2
    assert f"{bad}:3: bytes that are not UTF-8 text" in capsys.readouterr().err


def test_report_without_ground_truth_exit_code(sim_files, capsys):
    tmp_path, det_path, _ = sim_files
    out, report = tmp_path / "o.txt", tmp_path / "r.json"
    rc = main(["track", "--detections", det_path, "--out", str(out), "--report", str(report)])
    assert rc == 2
    assert "--ground-truth" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("gt_text", ["0 0 10 10 5\n", "", "# header only\n"])
def test_bad_ground_truth_exit_code(sim_files, capsys, gt_text):
    """A malformed or row-less ground-truth file is an input error naming
    the file, and `track` rejects it before writing any output."""
    tmp_path, det_path, _ = sim_files
    gt = tmp_path / "bad.gt.txt"
    gt.write_text(gt_text)
    out, report = tmp_path / "o.txt", tmp_path / "r.json"
    rc = main(["track", "--detections", det_path, "--out", str(out),
               "--ground-truth", str(gt), "--report", str(report)])
    assert rc == 2
    assert str(gt) in capsys.readouterr().err
    assert not out.exists() and not report.exists()
    assert main(["track", "--detections", det_path, "--out", str(out)]) == 0
    rc = main(["evaluate", "--trajectories", str(out), "--ground-truth", str(gt)])
    assert rc == 2
    assert str(gt) in capsys.readouterr().err


_REPEATED_GT = "0 0 10 10 5 5\n0 0 90 90 5 5\n"  # object 0 twice at frame 0


# a non-ASCII comment sends the file to the line parser
@pytest.mark.parametrize("comment", ["", "# café\n"], ids=["block", "lines"])
def test_repeated_ground_truth_row_exit_code(sim_files, capsys, comment):
    """A ground-truth file that repeats an (id, frame) row is rejected by
    `track --ground-truth` and by `evaluate` with exit 2 naming its line,
    and neither writes an output file."""
    tmp_path, det_path, _ = sim_files
    gt = tmp_path / "dup.gt.txt"
    gt.write_text(comment + _REPEATED_GT, encoding="utf-8")
    line = 2 + comment.count("\n")  # of the repeated row
    where = f"{gt}:{line}: repeated row for id 0 in frame 0"
    out, report = tmp_path / "o.txt", tmp_path / "r.json"
    rc = main(["track", "--detections", det_path, "--out", str(out),
               "--ground-truth", str(gt), "--report", str(report)])
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not out.exists() and not report.exists()
    trk = tmp_path / "one.trk.txt"
    trk.write_text("1 0 10 10 5 5 1\n")
    rc = main(["evaluate", "--trajectories", str(trk), "--ground-truth", str(gt),
               "--out", str(report)])
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("comment", ["", "# café\n"], ids=["block", "lines"])
def test_repeated_trajectory_row_exit_code(tmp_path, capsys, comment):
    """`evaluate` rejects a trajectory file that repeats an (id, frame)
    row with exit 2 naming its line, and writes no report."""
    gt, trk, report = tmp_path / "gt.txt", tmp_path / "trk.txt", tmp_path / "r.json"
    gt.write_text("0 0 10 10 5 5\n")
    trk.write_text(comment + "1 0 10 10 5 5 1\n1 0 90 90 5 5 1\n", encoding="utf-8")
    rc = main(["evaluate", "--trajectories", str(trk), "--ground-truth", str(gt),
               "--out", str(report)])
    assert rc == 2
    line = 2 + comment.count("\n")  # of the repeated row
    assert f"{trk}:{line}: repeated row for id 1 in frame 0" in capsys.readouterr().err
    assert not report.exists()
    trk.write_text("1 0 10 10 5 5 1\n")
    assert main(["evaluate", "--trajectories", str(trk), "--ground-truth", str(gt),
                 "--out", str(report)]) == 0


@pytest.mark.parametrize("comment", ["", "# café\n"], ids=["block", "lines"])
def test_status_flag_outside_0_and_1_exit_code(tmp_path, capsys, comment):
    """`evaluate` rejects a trajectory row whose status flag is neither 1
    (matched) nor 0 (held) with exit 2 naming its line, and writes no
    report; such a row used to score as a matched one, M1 = M2 = M3 = 1."""
    gt, trk, report = tmp_path / "gt.txt", tmp_path / "trk.txt", tmp_path / "r.json"
    gt.write_text("0 0 10 10 5 5\n")
    trk.write_text(comment + "0 0 10 10 5 5 2\n", encoding="utf-8")
    rc = main(["evaluate", "--trajectories", str(trk), "--ground-truth", str(gt),
               "--out", str(report)])
    assert rc == 2
    line = 1 + comment.count("\n")
    assert f"mftrack: error: {trk}:{line}: status flag 2 is not 0 or 1\n" == \
        capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("report", ["missing_dir/r.json", "a_dir"])
def test_failed_report_writes_no_trajectories(sim_files, capsys, report):
    """`track` whose --report cannot be written (its directory is missing,
    or it names a directory) exits 2, writes no --out file, leaves an
    existing one as it was, and leaves no temporary file behind."""
    tmp_path, det_path, gt_path = sim_files
    (tmp_path / "a_dir").mkdir()
    out = tmp_path / "o.trk.txt"
    argv = ["track", "--detections", det_path, "--out", str(out), "--ground-truth", gt_path,
            "--report", str(tmp_path / report)]
    before = set(tmp_path.iterdir())
    assert main(argv) == 2
    assert str(tmp_path / report) in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before
    out.write_text("kept\n")
    assert main(argv) == 2
    assert out.read_text() == "kept\n"
    assert set(tmp_path.iterdir()) == before | {out}


@pytest.mark.parametrize("out,report", [("same.txt", "same.txt"), ("./same.txt", "same.txt"),
                                        ("link/same.txt", "same.txt")])
def test_one_file_named_as_both_outputs(sim_files, monkeypatch, capsys, out, report):
    """`track` whose --out and --report name one file, however spelled (a
    directory through a symbolic link included), exits 2 naming it, writes
    neither output, leaves a file already there as it was, and leaves no
    temporary file behind."""
    tmp_path, det_path, gt_path = sim_files
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
    argv = ["track", "--detections", det_path, "--out", out, "--ground-truth", gt_path,
            "--report", report]
    before = set(tmp_path.iterdir())
    assert main(argv) == 2
    assert "same.txt: one file named as two outputs" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before
    same = tmp_path / "same.txt"
    same.write_text("kept\n")
    assert main(argv) == 2
    assert same.read_text() == "kept\n"
    assert set(tmp_path.iterdir()) == before | {same}


def test_ground_truth_without_report_is_not_evaluated(sim_files, monkeypatch):
    """`track --ground-truth` without --report checks the ground-truth
    file (a bad one exits 2 with no output) and writes the trajectories,
    but evaluates nothing; with --report it evaluates once."""
    tmp_path, det_path, gt_path = sim_files
    evaluate = metrics.evaluate

    def refused(*args, **kwargs):
        raise AssertionError("evaluated without a report")

    monkeypatch.setattr(metrics, "evaluate", refused)
    out, ref = tmp_path / "o.trk.txt", tmp_path / "ref.trk.txt"
    assert main(["track", "--detections", det_path, "--out", str(out),
                 "--ground-truth", gt_path]) == 0
    assert main(["track", "--detections", det_path, "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()
    bad, lost = tmp_path / "bad.gt.txt", tmp_path / "lost.trk.txt"
    bad.write_text("0 0 10 10 5\n")
    assert main(["track", "--detections", det_path, "--out", str(lost),
                 "--ground-truth", str(bad)]) == 2
    assert not lost.exists()
    calls = []
    monkeypatch.setattr(metrics, "evaluate",
                        lambda *args, **kwargs: calls.append(args) or evaluate(*args, **kwargs))
    report = tmp_path / "r.json"
    assert main(["track", "--detections", det_path, "--out", str(out),
                 "--ground-truth", gt_path, "--report", str(report)]) == 0
    assert len(calls) == 1 and json.loads(report.read_text())["m_bar"] == 1.0


def test_comment_only_detections(sim_files):
    """`track` on a detection file with no rows writes an empty trajectory
    file and reports fps 0.0 and M1 0.0."""
    tmp_path, _, gt_path = sim_files
    det = tmp_path / "none.det.txt"
    det.write_text("# no detections\n")
    out, report = tmp_path / "o.trk.txt", tmp_path / "r.json"
    assert main(["track", "--detections", str(det), "--out", str(out),
                 "--ground-truth", gt_path, "--report", str(report)]) == 0
    assert out.read_bytes() == b""
    rep = json.loads(report.read_text())
    assert rep["fps"] == 0.0 and rep["m1"] == 0.0


def test_track_stream_without_frames():
    engine, fps = track_stream({}, TrackerConfig().validate())
    assert fps == 0.0 and engine.tracks == {}


def test_evaluate_prints_metrics_without_out(sim_files, capsys):
    """`evaluate` without --out prints M1, M2, M3 and M_bar to 4 decimals."""
    tmp_path, det_path, gt_path = sim_files
    out = tmp_path / "o.trk.txt"
    assert main(["track", "--detections", det_path, "--out", str(out)]) == 0
    capsys.readouterr()
    before = set(tmp_path.iterdir())
    assert main(["evaluate", "--trajectories", str(out), "--ground-truth", gt_path]) == 0
    assert capsys.readouterr().out == "M1 = 1.0000\nM2 = 1.0000\nM3 = 1.0000\nM_bar = 1.0000\n"
    assert set(tmp_path.iterdir()) == before


def _disk_full(path, _):
    with open(path, "w") as fh:
        fh.write("0 0 1")
    raise OSError(errno.ENOSPC, "No space left on device", str(path))


@pytest.mark.parametrize("unwritable", ["directory", "disk_full"])
def test_simulate_writes_both_files_or_neither(tmp_path, monkeypatch, capsys, unwritable):
    """`simulate` whose ground-truth file cannot be written (a directory
    has its name, or the disk fills up while it is written) exits 2 and
    leaves neither a detection file nor a temporary file."""
    spec_path = tmp_path / "s.json"
    spec_path.write_text(spec_to_json(lanes_scenario(n_objects=2, duration=30, seed=3)))
    if unwritable == "directory":
        (tmp_path / "sim.gt.txt").mkdir()
    else:
        monkeypatch.setattr(fileio, "write_ground_truth", _disk_full)
    before = set(tmp_path.iterdir())
    assert main(["simulate", "--scenario", str(spec_path), "--out", str(tmp_path / "sim")]) == 2
    assert "sim.gt.txt" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


def test_evaluate_failed_report_leaves_no_file(sim_files, capsys):
    """`evaluate --out` into a missing directory exits 2 and writes nothing."""
    tmp_path, det_path, gt_path = sim_files
    out = tmp_path / "o.trk.txt"
    assert main(["track", "--detections", det_path, "--out", str(out)]) == 0
    before = set(tmp_path.iterdir())
    assert main(["evaluate", "--trajectories", str(out), "--ground-truth", gt_path,
                 "--out", str(tmp_path / "missing_dir" / "r.json")]) == 2
    assert "missing_dir" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


def test_bench_one_frame(capsys):
    assert main(["bench", "--frames", "1"]) == 0
    assert "over 1 frames" in capsys.readouterr().out


def test_bench_subcommand_runs(capsys):
    assert main(["bench", "--frames", "120", "--objects", "2", "--clutter", "1"]) == 0
    out = capsys.readouterr().out
    assert "fps" in out



def test_scenario_with_byte_order_mark(tmp_path):
    """A scenario JSON file may start with a UTF-8 byte-order mark, as
    every other input file may: it simulates as the file without it."""
    text = spec_to_json(lanes_scenario(n_objects=2, duration=30, seed=3, clutter_rate=1.0))
    (tmp_path / "plain.json").write_bytes(text.encode())
    (tmp_path / "bom.json").write_bytes(b"\xef\xbb\xbf" + text.encode())
    for name in ("plain", "bom"):
        assert main(["simulate", "--scenario", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 0
    for suffix in (".det.txt", ".gt.txt"):
        assert (tmp_path / f"bom{suffix}").read_bytes() == (tmp_path / f"plain{suffix}").read_bytes()


def _first_object(**fields):
    def edit(raw):
        raw["objects"][0].update(fields)
    return edit


def _blob(**fields):
    def edit(raw):
        raw["clutter_blobs"] = [{"start_frame": 2, "lifetime": 5, "x": 50.0, "y": 60.0, **fields}]
    return edit


@pytest.mark.parametrize("case", [
    pytest.param(lambda raw: raw.update(position_jitter_sigma=-1), id="position_jitter"),
    pytest.param(lambda raw: raw.update(size_jitter_sigma=-1), id="size_jitter"),
    pytest.param(lambda raw: raw.update(n_bins=0), id="zero_bins"),
    pytest.param(lambda raw: raw.update(n_bins=1000), id="too_many_bins"),
    pytest.param(lambda raw: raw.update(n_bins=96.5), id="fractional_bins"),
    pytest.param(lambda raw: raw.update(n_bins=True, objects=[]), id="boolean_bins"),
    pytest.param(lambda raw: raw.update(clutter_rate=float("inf")), id="infinite_clutter"),
    pytest.param(lambda raw: raw.update(clutter_rate=float("nan")), id="nan_clutter"),
    pytest.param(lambda raw: raw.update(histogram_noise=-1), id="histogram_noise"),
    pytest.param(lambda raw: raw.update(duration=10.5), id="fractional_duration"),
    pytest.param(lambda raw: raw.update(arena=[float("nan"), 480.0]), id="nan_arena"),
    pytest.param(_first_object(waypoints=[[0, 10, 10]]), id="three_value_waypoint"),
    pytest.param(_first_object(waypoints=[]), id="no_waypoints"),
    pytest.param(_first_object(waypoints=[[0, 10, 10, 0, 8], [9, 20, 10, 0, 8]]), id="zero_width"),
    pytest.param(_first_object(waypoints=[[0, float("nan"), 10, 4, 8]]), id="nan_waypoint"),
    pytest.param(_first_object(waypoints=[[9, 20, 10, 4, 8], [0, 10, 10, 4, 8]]),
                 id="waypoints_out_of_order"),
    pytest.param(_first_object(hist_width=0), id="zero_hist_width"),
    pytest.param(_first_object(hist_width=1e-300), id="tiny_hist_width"),
    pytest.param(_first_object(waypoints=[[0, 10, 10, 1e200, 8], [9, 20, 10, 4, 1e200]]),
                 id="box_area_overflow"),
    pytest.param(_first_object(waypoints=[[0, 10, 10, 1e300, 1e-10], [9, 20, 10, 4, 8]]),
                 id="box_aspect_overflow"),
    pytest.param(lambda raw: raw.update(size_jitter_sigma=1e200), id="size_jitter_overflows_area"),
    pytest.param(lambda raw: raw.update(position_jitter_sigma=1e308), id="position_jitter_overflows"),
    pytest.param(lambda raw: raw.update(histogram_noise=1e308), id="histogram_noise_overflows"),
    pytest.param(_first_object(waypoints=[[0, 10**400, 10, 4, 8]]), id="huge_int_waypoint"),
    pytest.param(lambda raw: raw.update(size_jitter_sigma=10**400), id="huge_int_jitter"),
    pytest.param(lambda raw: raw.update(clutter_extent=10**400), id="huge_int_clutter_extent"),
    pytest.param(lambda raw: raw.update(arena=[10**400, 480]), id="huge_int_arena"),
    pytest.param(_first_object(hist_width=10**400), id="huge_int_hist_width"),
    pytest.param(lambda raw: raw.update(clutter_lifetime=2.5), id="fractional_clutter_lifetime"),
    pytest.param(lambda raw: raw.update(seed=-1), id="negative_seed"),
    pytest.param(_blob(lifetime=2.5), id="fractional_blob_lifetime"),
    pytest.param(_blob(lifetime=-3), id="negative_blob_lifetime"),
    pytest.param(_blob(start_frame=1.5), id="fractional_blob_start"),
    pytest.param(_blob(x=float("nan")), id="nan_blob_x"),
    pytest.param(_blob(size=0), id="zero_blob_size"),
    pytest.param(_blob(size=1e200), id="blob_area_overflow"),
    pytest.param(_blob(hist_peak=500), id="blob_hist_peak_past_bins"),
    pytest.param(lambda raw: raw.update(objects=raw["objects"][:1], burst_drops=[[5, 0, 3]]),
                 id="burst_drop_missing_object"),
    pytest.param(lambda raw: raw.update(burst_drops=[[0, 1.5, 3]]), id="fractional_burst_drop"),
    # JSON true is no number, and no field is converted on the way in
    pytest.param(lambda raw: raw.update(duration=True), id="boolean_duration"),
    pytest.param(lambda raw: raw.update(seed=True), id="boolean_seed"),
    pytest.param(lambda raw: raw.update(drop_probability=True), id="boolean_drop_probability"),
    pytest.param(lambda raw: raw.update(clutter_lifetime=True), id="boolean_clutter_lifetime"),
    pytest.param(lambda raw: raw.update(arena=[True, 480.0]), id="boolean_arena"),
    pytest.param(_first_object(waypoints=[[0, True, 10, 4, 8], [9, 20, 10, 4, 8]]),
                 id="boolean_waypoint_value"),
    pytest.param(_first_object(hist_peak=True), id="boolean_hist_peak"),
    pytest.param(_blob(lifetime=True), id="boolean_blob_lifetime"),
    pytest.param(lambda raw: raw.update(burst_drops=[[0, True, 3]]), id="boolean_burst_drop"),
    pytest.param(_first_object(hist_peak=5.9), id="fractional_hist_peak"),
    pytest.param(_first_object(hist_peak="7"), id="string_hist_peak"),
    pytest.param(_first_object(hist_pek=7), id="unknown_object_key"),
    # an object that has no frame in 0..duration-1 (duration 30)
    pytest.param(_first_object(waypoints=[[40, 10, 10, 4, 8], [50, 20, 10, 4, 8]]),
                 id="object_after_stream"),
    pytest.param(_first_object(waypoints=[[-10, 10, 10, 4, 8], [-5, 20, 10, 4, 8]]),
                 id="object_before_stream"),
    pytest.param(_first_object(waypoints=[[-10, 10, 10, 4, 8], [-0.5, 20, 10, 4, 8]]),
                 id="object_ending_at_frame_minus_half"),
    # waypoints that validate but interpolate to a box of height 0 at frame 5
    pytest.param(_first_object(waypoints=[[0, 40, 60, 10, 1], [5, 100, 60, 10, 1e-300]]),
                 id="interpolated_height_zero"),
    pytest.param(["--objects", "-1"], id="bench_negative_objects"),
    pytest.param(["--clutter", "inf"], id="bench_infinite_clutter"),
    pytest.param(["--clutter", "nan"], id="bench_nan_clutter"),
])
def test_invalid_scenario_exit_code(tmp_path, capsys, case):
    """A bad scenario spec (edited into a valid one) or bench scene is an
    input error, exit 2, for `simulate` and `bench` alike."""
    if isinstance(case, list):
        argv = ["bench", "--frames", "30", *case]
    else:
        raw = json.loads(spec_to_json(lanes_scenario(n_objects=2, duration=30, seed=3,
                                                     clutter_rate=1.0)))
        case(raw)
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(raw))
        argv = ["simulate", "--scenario", str(spec_path), "--out", str(tmp_path / "s")]
    assert main(argv) == 2
    assert "mftrack: error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("s.*"))
