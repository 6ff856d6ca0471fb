import json

import pytest

from mftrack import fileio
from mftrack.cli import main
from mftrack.pipeline import track_stream
from mftrack.scenario import lanes_scenario, spec_to_json


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
    assert len(fileio.load_ground_truth(gt_path)) == 2


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


def test_missing_input_exit_code(tmp_path):
    rc = main(["track", "--detections", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "o.txt")])
    assert rc == 2


def test_malformed_detections_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 oops 10 5 5\n")
    rc = main(["track", "--detections", str(bad), "--out", str(tmp_path / "o.txt")])
    assert rc == 2


def test_bad_histogram_count_exit_code(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_bins = 3\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 10 10 5 5 1 2 -3\n")
    rc = main(["track", "--detections", str(bad), "--config", str(cfg),
               "--out", str(tmp_path / "o.txt")])
    assert rc == 2
    assert f"{bad}:1:" in capsys.readouterr().err


def test_report_without_ground_truth_exit_code(sim_files, capsys):
    tmp_path, det_path, _ = sim_files
    out, report = tmp_path / "o.txt", tmp_path / "r.json"
    rc = main(["track", "--detections", det_path, "--out", str(out), "--report", str(report)])
    assert rc == 2
    assert "--ground-truth" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


def test_bench_subcommand_runs(capsys):
    assert main(["bench", "--frames", "120", "--objects", "2", "--clutter", "1"]) == 0
    out = capsys.readouterr().out
    assert "fps" in out



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
