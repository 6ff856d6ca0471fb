"""The phases one benchmark repeat runs, each timed from outside the package.

run.py starts this file as a fresh child process for each phase, as a user
runs `mftrack simulate` and `mftrack track` as separate commands:

  python3 phases.py setup              import, config, engine, warmup
  python3 phases.py simulate ARGS_JSON simulate phase
  python3 phases.py track    ARGS_JSON track phase, output check, peak RSS,
                                       more step-loop passes

With "trace": true in ARGS_JSON the phase runs with tracing.Tracer
installed and returns its spans and counts instead of extra passes.

The child prints one JSON object as the last line of its standard output.
It needs the program's src/ directory on PYTHONPATH.
"""
from __future__ import annotations

import hashlib
import json
import sys
import traceback
from time import perf_counter, perf_counter_ns


# step-loop passes a track child runs after the track phase
EXTRA_PASSES = 2


class CheckFailed(Exception):
    """The program's output did not pass the benchmark's output check."""


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def simulate(spec, det_path, gt_path) -> float:
    """The simulate phase: generate, write detections, write ground truth.
    Returns its wall time in seconds."""
    from mftrack import fileio, scenario

    t0 = perf_counter()
    result = scenario.generate(spec)
    fileio.write_detections(det_path, result.detections_by_frame)
    fileio.write_ground_truth(gt_path, result.gt)
    return perf_counter() - t0


def step_loop(engine, stream: dict, tracer=None) -> dict:
    """Feed every frame to `engine.step` as soon as the previous call
    returns, as `pipeline.track_stream` does, timing each call."""
    lo, hi = min(stream), max(stream)
    n = hi - lo + 1
    step_ns = [0] * n
    reports = [None] * n
    t_loop = perf_counter()
    for i in range(n):
        if tracer is not None:
            tracer.fifth = i * 5 // n
        detections = stream.get(lo + i, [])
        t0 = perf_counter_ns()
        reports[i] = engine.step(lo + i, detections)
        step_ns[i] = perf_counter_ns() - t0
    loop_s = perf_counter() - t_loop
    if tracer is not None:
        tracer.fifth = None
    return {"loop_s": loop_s, "step_ns": step_ns, "reports": reports}


def track(paths: dict, tracer=None) -> dict:
    """The track phase as `mftrack track` runs it: load detections, step
    every frame in a closed loop, write trajectories, load ground truth and
    evaluate. Every call is timed from outside the package."""
    from mftrack import fileio, kernels, metrics
    from mftrack.engine import TrackingEngine
    from mftrack.types import TrackerConfig

    t_start = perf_counter()
    cfg = TrackerConfig().validate()
    t0 = perf_counter()
    stream = fileio.load_detections(paths["det"], cfg.n_bins)
    load_s = perf_counter() - t0

    engine = TrackingEngine(cfg)
    warmup = getattr(kernels, "warmup", None)
    if warmup is not None:
        warmup()
    loop = step_loop(engine, stream, tracer)

    t0 = perf_counter()
    fileio.write_trajectories(paths["traj"], engine.valid_tracks())
    write_s = perf_counter() - t0
    t0 = perf_counter()
    gt = fileio.load_ground_truth(paths["gt"])
    load_gt_s = perf_counter() - t0
    t0 = perf_counter()
    report = metrics.evaluate(gt, engine.trajectories(), iou_threshold=cfg.eval_iou_threshold,
                              method=cfg.eval_assignment)
    eval_s = perf_counter() - t0
    track_run_s = perf_counter() - t_start

    # live tracks when each step starts, from the frame reports
    live, live_before = 0, []
    for r in loop["reports"]:
        live_before.append(live)
        live += len(r.new_tracks) - len(r.terminated) - len(r.noise)
    return {
        "frames": len(loop["step_ns"]),
        "load_detections_s": load_s,
        "write_trajectories_s": write_s,
        "load_ground_truth_s": load_gt_s,
        "evaluate_s": eval_s,
        "track_run_s": track_run_s,
        "passes": [{"loop_s": loop["loop_s"], "step_ns": loop["step_ns"]}],
        "live_before": live_before,
        "new_tracks": [len(r.new_tracks) for r in loop["reports"]],
        "m1": report.m1, "m2": report.m2, "m3": report.m3, "m_bar": report.m_bar,
        # not JSON; removed by check()
        "_check": (engine, gt, report, cfg, paths["traj"], stream),
    }


def check(phase: dict):
    """Output check: the trajectory file reloads to exactly what the engine
    holds, and evaluating the reloaded file reproduces the in-memory report.
    Records the file's SHA-256 for the cross-repeat comparison, and returns
    the loaded stream, the config and the reloaded trajectories."""
    from mftrack import fileio, metrics

    engine, gt, report, cfg, traj_path, stream = phase.pop("_check")
    reloaded = fileio.load_trajectories(traj_path)
    if reloaded != engine.trajectories():
        raise CheckFailed("trajectory file does not reload to engine.trajectories()")
    again = metrics.evaluate(gt, reloaded, iou_threshold=cfg.eval_iou_threshold,
                             method=cfg.eval_assignment)
    if again != report:
        raise CheckFailed("evaluating the reloaded trajectories differs from the in-memory report")
    phase["trajectories_sha256"] = sha256(traj_path)
    return stream, cfg, reloaded


def _peak_rss_mb() -> float:
    # VmHWM is this process's own high-water mark; getrusage's maxrss can
    # also carry the parent's from before exec
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup(args: dict) -> dict:
    t0 = perf_counter()
    import mftrack  # noqa: F401
    from mftrack import kernels
    from mftrack.engine import TrackingEngine
    from mftrack.types import TrackerConfig

    TrackingEngine(TrackerConfig().validate())
    warmup = getattr(kernels, "warmup", None)
    if warmup is not None:
        warmup()
    return {"setup_s": perf_counter() - t0}


def _tracer(args: dict):
    """An installed tracer when the phase runs traced, else None."""
    if not args.get("trace"):
        return None
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    return tracer


def _simulate(args: dict) -> dict:
    import workloads

    spec = workloads.build(args["workload"], args["seed"], args["size"])
    tracer = _tracer(args)
    try:
        simulate_s = simulate(spec, args["det"], args["gt"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"simulate_s": simulate_s, "detections_sha256": sha256(args["det"])}
    if tracer is not None:
        out["trace"] = tracer.to_json()
    return out


def _track(args: dict) -> dict:
    import mftrack  # noqa: F401  (import cost belongs to setup_s, not the track phase)
    from mftrack.engine import TrackingEngine

    tracer = _tracer(args)
    try:
        phase = track(args, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    stream, cfg, trajectories = check(phase)
    if tracer is not None:
        phase["trace"] = tracer.to_json()
        return phase
    phase["peak_rss_mb"] = _peak_rss_mb()
    # more samples of the step loop on the stream already loaded, each with a
    # fresh engine that must produce the same trajectories
    for _ in range(EXTRA_PASSES):
        engine = TrackingEngine(cfg)
        loop = step_loop(engine, stream)
        if engine.trajectories() != trajectories:
            raise CheckFailed("a repeated step loop produced different trajectories")
        phase["passes"].append({"loop_s": loop["loop_s"], "step_ns": loop["step_ns"]})
        del engine, loop
    return phase


_MODES = {"setup": _setup, "simulate": _simulate, "track": _track}


def main(argv: list[str]) -> int:
    args = json.loads(argv[2]) if len(argv) > 2 else {}
    try:
        out = _MODES[argv[1]](args)
        out["ok"] = True
    except Exception:  # reported to run.py, which counts the repeat as failed
        out = {"ok": False, "error": traceback.format_exc(limit=-4)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
