import json

import pytest

from mftrack import fileio
from mftrack.cli import main
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


def test_invalid_config_exit_code(sim_files, tmp_path):
    _, det_path, _ = sim_files
    bad = tmp_path / "bad.cfg"
    bad.write_text("t1 = 1.01\n")
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
