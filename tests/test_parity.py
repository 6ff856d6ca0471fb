"""Golden parity: the tracker's output on fixed streams, pinned by SHA-256.

Each case tracks a small generated stream, then 25 empty frames so that
every track ends, and hashes three things: the trajectory file, the
pickled list of frame reports and the public fields of every track. A
refactor that changes any byte of that output fails here; one that means
to change it records the table again and says why. Every case runs twice
against the same table: on the generated `Frame`s, and on the `Frame`s
that writing the stream to a detection file and loading it back gives.
The detection file itself is pinned too, and so are the ground-truth file
and the evaluation report JSON of each stream, under both association
methods at the default IoU threshold and at 0.9, where jitter leaves some
frames unmatched.

    PYTHONPATH=src python tests/test_parity.py   # print the table anew
"""
from __future__ import annotations

import hashlib
import pickle

import pytest

from mftrack import fileio, metrics, scenario
from mftrack.engine import TrackingEngine
from mftrack.types import Frame, TrackerConfig

CONFIGS = {
    "default": TrackerConfig(),
    "static": TrackerConfig(motion_model="static"),
    "per_track": TrackerConfig(assignment_policy="per_track"),
}

# (workload, seed, config) -> (trajectory file, frame reports, tracks)
GOLDEN = {
    ('crowd', 7, 'default'): (
        'a5c447aa3a430dabf0fad05bf236cceea03636260da7bc375e3bbc65a2e10e33',
        '0e2bc3224a314750b2304ebc7f492c02f40d6293f194fb72ce619f7bb17934c2',
        'cd7ff2c5eaba0daacbd43a23c9a989f78f96f4ce995bcd98b6ce67ccd49dfd4e',
    ),
    ('crowd', 7, 'static'): (
        '71dd15e9c5898821bbb5b6dbe2c29b92ef5211d5e88a5ab05c582221e5498abc',
        'ac55acdd062f43f7aa5be0d922924f8a363baf5b93b223351973d94bb92626b1',
        '88ab2918f28cc3e8b708a8823e3722bff045b1585c3b4a535f9ebf7f1dfb9c90',
    ),
    ('crowd', 7, 'per_track'): (
        'a5c447aa3a430dabf0fad05bf236cceea03636260da7bc375e3bbc65a2e10e33',
        'fbc9f0253a37ebfccdbbcab517a938678c1a82e4d6400976d487a66c5b761ba0',
        'cd7ff2c5eaba0daacbd43a23c9a989f78f96f4ce995bcd98b6ce67ccd49dfd4e',
    ),
    ('crowd', 23, 'default'): (
        '499b2cea362258a191d8bfea092bbd8951d1edc2c8541eb22bacaa2158e60fe4',
        '684efecb3dda8c61e2d3b95773ae79a1fceb6a43ae4fadcf919e2d324d147de4',
        '87031c940f6cfb2e82ae8a2bcc6276231b6299c1ee24e929979b3dd8b2cfd4c1',
    ),
    ('crowd', 23, 'static'): (
        'eefd56209557bfa832666ae49552cd8ba87fab5979c6fa9348f71a0a881095fd',
        'c5015ed61764d7b6082a0fbdde40961b460a1bc3b5a5c013285a9d9a78b501a5',
        '35b11b76c79ae2075588af8ceaabd62faac227a39ff7d9a4e7c85164951dcc8e',
    ),
    ('crowd', 23, 'per_track'): (
        '499b2cea362258a191d8bfea092bbd8951d1edc2c8541eb22bacaa2158e60fe4',
        'ac2bd477d3a84cbb893e825638eb5c7f28b84bc988acad8b8d17c8875f377d0a',
        '87031c940f6cfb2e82ae8a2bcc6276231b6299c1ee24e929979b3dd8b2cfd4c1',
    ),
    ('clutter_long', 7, 'default'): (
        '401164494f64a23d03c84b8e8e327dc1a0c84691c3b15ff633fde90639d20a68',
        'd4d7448dbaabf3ecb061e0bb7aef12d39c293176779eda434bf36391aa689e9c',
        'c9287f5f47a28e9ce834a86bed8a83afd5e0dbe58a7b19d07c46177b98550157',
    ),
    ('clutter_long', 7, 'static'): (
        '17ff2998cc0301a49b489538af44c8734a7a7c77301f184b8676b631ec6d907c',
        '179c3524ec8d091f01b00a4c770da24c7911dabb556c2fc1c21449da2e57c75f',
        '3d648ae7dfb8d872ad649b9bf01646903fe867915f4ef92bfb9c5fbfb2b1725c',
    ),
    ('clutter_long', 7, 'per_track'): (
        '401164494f64a23d03c84b8e8e327dc1a0c84691c3b15ff633fde90639d20a68',
        '755a792355fd626326f1c7676160f3ecc580c161f45de5d8234441fb216178b3',
        '056fd06ed1e0eba97f590aadd906ac0246b9b77a65acf6707f2b75b3c041570e',
    ),
    ('clutter_long', 23, 'default'): (
        '7c921a49b39ad33803d014aabba4bd6d118d8f04013e1d7ebcc3c8613dd61898',
        'ef6a710e9b991d8691f40e520926c160e80a8c3f05bbd13f46d51bb04f195e69',
        'c12d055826cff7bb98fa7ce2fde904d026669e3534e95b862ba990b52d843885',
    ),
    ('clutter_long', 23, 'static'): (
        'f2300f04f8b5061ce42d5307c9bd0764fafb3ed7287282986bf3527a16e9dd16',
        '961d16df0dc38b2998f221c41ee8b930227bce0075a04aec14e20c9e025dd349',
        '40e06f2106e457e7d1bfe482ed2d521155b1789ecd7ecb21ad9494b076532a6d',
    ),
    ('clutter_long', 23, 'per_track'): (
        '7c921a49b39ad33803d014aabba4bd6d118d8f04013e1d7ebcc3c8613dd61898',
        '6d39e44909f648ff8116b5ee6b60bf8e233379db2f70fd3f242f325710c8e971',
        '1d64d695a90e4f9f5b16cbfdb54d75b396335e27caa9bbb2e0d37cd914377dc7',
    ),
}


# (workload, seed) -> the detection file write_detections writes for the stream
DETECTION_FILES = {
    ('crowd', 7): '22ba41de897b0f66e317ecfefd8d6b1986c97e91d015fd11734cfdeeae752fae',
    ('crowd', 23): '2989e87b815b8962af9c075de35eccfa9a09aa822e7e9474b7fad6622c73686c',
    ('clutter_long', 7): '96f9367fd9d46c127e86723c5511becaea01ca6010abec97a306a289b470f680',
    ('clutter_long', 23): '1213ff3b3ee90c5487d254e2ab99fe5a8fc76d86d8523213895fe5a92502f238',
}


# (workload, seed) -> the ground-truth file write_ground_truth writes for the stream
GROUND_TRUTH_FILES = {
    ('crowd', 7): '67ec4fee58e73139f0ef1b3fb3e191288531754a0c48e86198400bcfad1f85ac',
    ('crowd', 23): '67ec4fee58e73139f0ef1b3fb3e191288531754a0c48e86198400bcfad1f85ac',
    ('clutter_long', 7): '1a038f7a9794f5961434c86b91f993f0d0311ceca5058440c8d7decf1f0b6f69',
    ('clutter_long', 23): '1a038f7a9794f5961434c86b91f993f0d0311ceca5058440c8d7decf1f0b6f69',
}


# (association method, IoU threshold) of each report digest in REPORTS
EVALUATIONS = (("greedy", 0.5), ("hungarian", 0.5), ("greedy", 0.9), ("hungarian", 0.9))

# (workload, seed) -> the report JSON write_report writes for the default
# config's trajectories, one digest per entry of EVALUATIONS
REPORTS = {
    ('crowd', 7): (
        '847f5ab309ee2778f95a9d4bef4ef0a167ab42164d7a89be2512646d1b629887',
        '847f5ab309ee2778f95a9d4bef4ef0a167ab42164d7a89be2512646d1b629887',
        '60f96dd05c9d4e5a00d41c636cb1c4ac3b99e717f8564516b965e36e92c2b57c',
        '60f96dd05c9d4e5a00d41c636cb1c4ac3b99e717f8564516b965e36e92c2b57c',
    ),
    ('crowd', 23): (
        '847f5ab309ee2778f95a9d4bef4ef0a167ab42164d7a89be2512646d1b629887',
        '847f5ab309ee2778f95a9d4bef4ef0a167ab42164d7a89be2512646d1b629887',
        '5af5734c760f12bb0b941210e31ebdf16e9e49ee5764ded8ac6370b377fa3e77',
        '5af5734c760f12bb0b941210e31ebdf16e9e49ee5764ded8ac6370b377fa3e77',
    ),
    ('clutter_long', 7): (
        '775b0fd98e4fd636701a7db7eed2ef255748599676934d7088005ee513778a7a',
        '775b0fd98e4fd636701a7db7eed2ef255748599676934d7088005ee513778a7a',
        'de8e77cf6eacedf63777a89216d20cb842f66cb0af4f92d4d3b2059516bb2935',
        'de8e77cf6eacedf63777a89216d20cb842f66cb0af4f92d4d3b2059516bb2935',
    ),
    ('clutter_long', 23): (
        '775b0fd98e4fd636701a7db7eed2ef255748599676934d7088005ee513778a7a',
        '775b0fd98e4fd636701a7db7eed2ef255748599676934d7088005ee513778a7a',
        '054582cc3fe4e86013c000113bc6e30c8adc914e4399c76a292fa95d21a3aa2b',
        '054582cc3fe4e86013c000113bc6e30c8adc914e4399c76a292fa95d21a3aa2b',
    ),
}


def _spec(workload: str, seed: int) -> scenario.ScenarioSpec:
    """Small versions of the two benchmark workloads."""
    if workload == "crowd":
        return scenario.lanes_scenario(n_objects=8, duration=120, seed=seed, speed=0.8,
                                       lane_gap=40.0, drop_probability=0.1,
                                       position_jitter_sigma=0.5, histogram_noise=0.05)
    return scenario.bench_scenario(frames=200, objects=5, clutter=5.0, seed=seed)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _track_fields(t) -> tuple:
    return (t.track_id, t.birth_frame, t.status, t.end_frame, t.f_l, t.n_r, t.t_w, t.span,
            t.d_max, t.frames[t.matched].tolist(),
            [(f, *box) for f, box in zip(t.frames.tolist(), t.boxes.tolist())],
            t.last_histogram.tolist())


def _run(stream, cfg: TrackerConfig) -> tuple[TrackingEngine, list]:
    """The engine and its frame reports after every frame of the stream,
    then 25 empty frames, so that every track ends."""
    engine = TrackingEngine(cfg)
    last = max(stream)
    reports = [engine.step(f, stream.get(f, [])) for f in range(min(stream), last + 26)]
    return engine, reports


def digests(workload: str, seed: int, config: str, tmp_path,
            form: str = "frames") -> tuple[str, str, str]:
    """The three digests of one case, the stream stepped as generated
    ("frames") or through a file ("file")."""
    stream = scenario.generate(_spec(workload, seed)).detections_by_frame
    if form == "file":
        det = tmp_path / f"{workload}-{seed}.det.txt"
        fileio.write_detections(det, stream)
        stream = fileio.load_detections(det, CONFIGS[config].n_bins)
        assert all(isinstance(frame, Frame) for frame in stream.values())
    engine, reports = _run(stream, CONFIGS[config])
    path = tmp_path / f"{workload}-{seed}-{config}.txt"
    fileio.write_trajectories(path, engine.valid_tracks())
    tracks = [_track_fields(t) for t in engine.tracks.values()]
    return (_sha(path.read_bytes()), _sha(pickle.dumps(reports, protocol=4)),
            _sha(pickle.dumps(tracks, protocol=4)))


@pytest.mark.parametrize("workload", ["crowd", "clutter_long"])
@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("config", list(CONFIGS))
def test_output_matches_golden(workload, seed, config, tmp_path):
    assert digests(workload, seed, config, tmp_path) == GOLDEN[(workload, seed, config)]


@pytest.mark.parametrize("workload", ["crowd", "clutter_long"])
@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("config", list(CONFIGS))
def test_file_path_matches_golden(workload, seed, config, tmp_path):
    """write_detections, load_detections and step on the loaded frames give
    the output of the generated lists, byte for byte."""
    assert digests(workload, seed, config, tmp_path, form="file") == \
        GOLDEN[(workload, seed, config)]


@pytest.mark.parametrize("workload", ["crowd", "clutter_long"])
@pytest.mark.parametrize("seed", [7, 23])
def test_detection_file_matches_golden(workload, seed, tmp_path):
    path = tmp_path / "d.txt"
    fileio.write_detections(path, scenario.generate(_spec(workload, seed)).detections_by_frame)
    assert _sha(path.read_bytes()) == DETECTION_FILES[(workload, seed)]


def evaluation_digests(workload: str, seed: int, tmp_path) -> tuple[str, tuple[str, ...]]:
    """The digest of the stream's ground-truth file, and of its report
    for each entry of EVALUATIONS. Each report is made twice, from the engine's
    trajectories and the generated ground truth, and from the two files
    written and loaded back; both must give the same bytes."""
    res = scenario.generate(_spec(workload, seed))
    engine, _ = _run(res.detections_by_frame, CONFIGS["default"])
    gt_path, traj_path = tmp_path / "gt.txt", tmp_path / "trk.txt"
    fileio.write_ground_truth(gt_path, res.gt)
    fileio.write_trajectories(traj_path, engine.valid_tracks())
    inputs = [(res.gt, engine.trajectories()),
              (fileio.load_ground_truth(gt_path), fileio.load_trajectories(traj_path))]
    reports = []
    for method, threshold in EVALUATIONS:
        texts = set()
        for gt, tracks in inputs:
            path = tmp_path / "report.json"
            fileio.write_report(path, metrics.evaluate(gt, tracks, threshold, method))
            texts.add(path.read_bytes())
        assert len(texts) == 1, (method, threshold)
        reports.append(_sha(texts.pop()))
    return _sha(gt_path.read_bytes()), tuple(reports)


@pytest.mark.parametrize("workload", ["crowd", "clutter_long"])
@pytest.mark.parametrize("seed", [7, 23])
def test_ground_truth_file_and_report_match_golden(workload, seed, tmp_path):
    assert evaluation_digests(workload, seed, tmp_path) == \
        (GROUND_TRUTH_FILES[(workload, seed)], REPORTS[(workload, seed)])


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for key in [(w, s, c) for w in ("crowd", "clutter_long") for s in (7, 23) for c in CONFIGS]:
            print(f"    {key!r}: (")
            for h in digests(*key, Path(tmp)):
                print(f"        {h!r},")
            print("    ),")
        cases = [(w, s) for w in ("crowd", "clutter_long") for s in (7, 23)]
        evaluated = {key: evaluation_digests(*key, Path(tmp)) for key in cases}
        print()
        for key, (gt, _) in evaluated.items():
            print(f"    {key!r}: {gt!r},")
        print()
        for key, (_, reports) in evaluated.items():
            print(f"    {key!r}: (")
            for h in reports:
                print(f"        {h!r},")
            print("    ),")
