"""mftrack benchmark: end-to-end and per-layer performance of the tracker.

    python3 benchmark/run.py --workload clutter_long --seed 7 --seconds 55 --trace 0

Run it from the root of a checkout: it imports the program from src/.
`--workload all` runs every workload in turn. Each repeat runs the public
API the way `mftrack simulate` and `mftrack track` do, each phase in a fresh
child process, the track phase one frame at a time in a closed loop.
Repeats go on until `--seconds` have passed.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
repeats with traced ones, each in its own process, and prints the per-layer
metrics. Every repeat's output is checked. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; a
results file with the environment, the samples and the per-fifth series is
written under benchmark/out/ (or to --results).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("clutter_long", "crowd")

# name -> unit of every end-to-end metric; the JSON line leaves out those
# in UNBOUNDED, which BENCHMARK.json does not list
END_TO_END = {
    "track_fps": "frames/s",
    "frame_p50_ms": "ms",
    "frame_p99_ms": "ms",
    "late_frame_slowdown": "ratio",
    "track_run_s": "s",
    "simulate_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "m_bar": "score",
}
# over ten seeds on a shared 2-vCPU virtual machine its quartile spread
# reached 0.3 of its median, beyond any bound a regression check could use;
# the traced run times its parts (scenario.generate, fileio.write_detections)
UNBOUNDED = ("simulate_s",)

SETUP_RUNS = 10  # fresh interpreters timed for setup_s, after one untimed
# repeats a run makes at least
MINIMUM = {"full": 3, "tiny": 2}
TRACED_PAIRS = 2  # untraced + traced repeat pairs a traced run makes at least
CHILD_TIMEOUT_S = 100
DEADLINE_S = 150  # no repeat starts that could end after this


def _child(mode: str, args: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH_DIR / "phases.py"), mode]
    if args is not None:
        cmd.append(json.dumps(args))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"{mode} child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}


def environment(seeds: dict) -> dict:
    import platform

    import numpy

    from mftrack import kernels
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        import numba  # noqa: F401
        numba_imported = True
    except ImportError:
        numba_imported = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_imported": numba_imported,
        "backend": getattr(kernels, "DEFAULT_BACKEND", "numpy"),
        "nproc": os.cpu_count(),
        **_git(),
        "seeds": seeds,
    }


def _git() -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"git_commit": None, "git_dirty": None}
        commit = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"git_commit": commit, "git_dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": None, "git_dirty": None}


def _why(name: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == name)


# -- repeats --------------------------------------------------------------------

def _repeat(args: dict) -> dict:
    """One repeat: the simulate phase, then the track phase, each in its own
    child process. A traced repeat also gets its per-layer metrics."""
    sim = _child("simulate", args)
    if not sim.get("ok"):
        return sim
    rep = _child("track", args)
    rep.update(simulate_s=sim["simulate_s"], detections_sha256=sim["detections_sha256"])
    if rep.get("ok") and args.get("trace"):
        spans, counts = tracing.merge([sim["trace"], rep.pop("trace")])
        layer, absent = tracing.layer_metrics(spans, counts, os.path.getsize(args["det"]), rep)
        rep.update(layer=layer, absent=absent, absent_functions=sim["trace"]["absent"],
                   shares=tracing.shares(spans), counts=counts)
    return rep


def _cross_check(repeats: list[dict]) -> None:
    """Every repeat of one workload and seed must write the same detection
    and trajectory files and, when traced, count the same work."""
    ok = [r for r in repeats if r.get("ok")]
    traced = [r for r in ok if "counts" in r]
    for r in ok[1:]:
        for key in ("detections_sha256", "trajectories_sha256"):
            if r[key] != ok[0][key]:
                r.update(ok=False, error=f"{key} differs from the first repeat")
    for r in traced[1:]:
        if r["counts"] != traced[0]["counts"]:
            r.update(ok=False, error="traced counts differ from the first traced repeat")


# -- summaries ------------------------------------------------------------------

def _fifths(values: list, n: int) -> list[list]:
    return [[v for i, v in enumerate(values) if i * 5 // n == k] for k in range(5)]


def _fps(passes: list[dict]) -> float:
    return statistics.median(len(p["step_ns"]) / p["loop_s"] for p in passes)


def end_to_end(ok: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics {name: (value, unit, samples)} and the per-fifth
    series, from the untraced repeats that passed."""
    import numpy as np

    n = ok[0]["frames"]
    passes = [p for r in ok for p in r["passes"]]
    pooled = np.array([ns for p in passes for ns in p["step_ns"]], dtype=np.float64) / 1e6
    # p99 of each repeat's passes, then the median over repeats, so that a
    # burst of machine noise in one repeat does not set the tail
    by_repeat = [np.array([ns for p in r["passes"] for ns in p["step_ns"]], dtype=np.float64) / 1e6
                 for r in ok]
    p99s = [float(np.percentile(x, 99)) for x in by_repeat]
    fifths = [_fifths(p["step_ns"], n) for p in passes]
    # tracks each step handles: the live ones it predicts and the ones it spawns
    handled = _fifths([max(1, a + b) for a, b in zip(ok[0]["live_before"], ok[0]["new_tracks"])], n)

    def per_track(k):
        return statistics.median(ns / t for f in fifths for ns, t in zip(f[k], handled[k]))
    fifth_fps = [statistics.median(len(f[k]) / (sum(f[k]) / 1e9) for f in fifths)
                 for k in range(5)]

    def med(key):
        return statistics.median(r[key] for r in ok)
    reps = len(ok)
    metrics = {
        "track_fps": (_fps(passes), len(passes)),
        "frame_p50_ms": (float(np.median(pooled)), pooled.size),
        "frame_p99_ms": (statistics.median(p99s), len(p99s)),
        "late_frame_slowdown": (per_track(4) / per_track(0),
                                sum(len(f[0]) + len(f[4]) for f in fifths)),
        "track_run_s": (med("track_run_s"), reps),
        "simulate_s": (med("simulate_s"), reps),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (med("peak_rss_mb"), reps),
        "m_bar": (ok[0]["m_bar"], reps),
    }
    series = {
        "fps": fifth_fps,
        "engine.live_tracks.mean_len": [statistics.fmean(f) for f in _fifths(ok[0]["live_before"], n)],
        "frames_beyond_p99": min(int((x > p).sum()) for x, p in zip(by_repeat, p99s)),
    }
    return {k: (v, END_TO_END[k], s) for k, (v, s) in metrics.items()}, series


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str], dict]:
    """Per-layer metrics: the median over traced repeats of each value, plus
    trace.overhead, the absent names and the median shares."""
    names = traced[0]["layer"]
    out = {k: (statistics.median(r["layer"][k][0] for r in traced), names[k][1]) for k in names}
    # first passes only: a traced track child runs one pass
    untraced_fps = _fps([r["passes"][0] for r in untraced])
    traced_fps = _fps([p for r in traced for p in r["passes"]])
    out["trace.overhead"] = (untraced_fps / traced_fps, "ratio")

    def median_tree(values):
        first = values[0]
        if isinstance(first, dict):
            return {k: median_tree([v[k] for v in values]) for k in first}
        if isinstance(first, list):
            return [median_tree(list(col)) for col in zip(*values)]
        return statistics.median(values)
    shares = median_tree([r["shares"] for r in traced]) if traced[0]["shares"] else {}
    return out, traced[0]["absent"], shares


# -- one workload ---------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 work: Path) -> dict:
    started = time.perf_counter()
    args = {k: str(work / f"{name}.{k}.txt") for k in ("det", "gt", "traj")}
    args.update(workload=name, seed=seed, size=size)
    spec = workloads.build(name, seed, size)
    min_repeats = MINIMUM[size]
    setup: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []

    def more() -> bool:
        elapsed = time.perf_counter() - started
        done = len(untraced) + len(traced)
        # one more repeat (a pair when tracing) takes about this long
        step = elapsed / done * (2 if trace else 1) if done else 0.0
        if elapsed + step > DEADLINE_S:
            return False
        # stop at the repeat count whose end lies nearest to `seconds`
        if trace:
            return elapsed + step / 2 < seconds or len(traced) < TRACED_PAIRS
        return elapsed + step / 2 < seconds or len(untraced) < min_repeats

    if not trace:
        for i in range(SETUP_RUNS + 1):
            r = _child("setup")
            if r.get("ok") and i > 0:
                setup.append(r["setup_s"])
    while more():
        untraced.append(_repeat(args))
        if trace:
            traced.append(_repeat(dict(args, trace=True)))
    repeats = untraced + traced
    _cross_check(repeats)

    attempted = sum(r.get("frames", spec.duration) for r in repeats)
    failed = sum(r.get("frames", spec.duration) for r in repeats if not r.get("ok"))
    ok_untraced = [r for r in untraced if r.get("ok")]
    ok_traced = [r for r in traced if r.get("ok")]
    result = {
        "workload": name,
        "why": _why(name),
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment({name: seed}),
        "attempted": attempted,
        "failed": failed,
        "failed_op_ratio": failed / attempted if attempted else 1.0,
        "errors": [r["error"] for r in repeats if not r.get("ok")],
        "repeats": {"untraced": len(untraced), "traced": len(traced)},
        "detections_sha256": next((r["detections_sha256"] for r in repeats if r.get("ok")), None),
        "trajectories_sha256": next((r["trajectories_sha256"] for r in repeats if r.get("ok")), None),
    }
    if trace and ok_traced and ok_untraced:
        layer, absent, shares = per_layer(ok_traced, ok_untraced)
        result.update(per_layer={k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
                      absent=absent, absent_functions=ok_traced[0]["absent_functions"],
                      shares=shares, counts=ok_traced[0]["counts"])
    elif not trace and ok_untraced and setup:
        e2e, series = end_to_end(ok_untraced, setup)
        result.update(end_to_end={k: {"value": v, "unit": u, "samples": s}
                                  for k, (v, u, s) in e2e.items() if k not in UNBOUNDED},
                      unbounded={k: {"value": v, "unit": u, "samples": s}
                                 for k, (v, u, s) in e2e.items() if k in UNBOUNDED},
                      per_fifth=series)
        result["repeat_samples"] = [
            {**{k: r[k] for k in ("simulate_s", "load_detections_s", "write_trajectories_s",
                                  "load_ground_truth_s", "evaluate_s", "track_run_s", "peak_rss_mb")},
             "loop_s": [p["loop_s"] for p in r["passes"]]}
            for r in ok_untraced]
        result["setup_samples"] = setup
    result["correct"] = failed == 0 and ("per_layer" in result or "end_to_end" in result)
    return result


def _print_summary(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']}): "
          f"{result['why']}")
    for key in ("end_to_end", "unbounded", "per_layer"):
        for name, m in result.get(key, {}).items():
            samples = f"  ({m['samples']} samples)" if "samples" in m else ""
            note = "  not bounded" if key == "unbounded" else ""
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{samples}{note}")
    print(f"  {'failed_op_ratio':40s} {result['failed_op_ratio']:14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} frames failed)")
    if "per_fifth" in result:
        pf = result["per_fifth"]
        print("  fps per fifth:        " + " ".join(f"{v:8.1f}" for v in pf["fps"]))
        print("  live tracks per fifth:" + " ".join(f"{v:8.2f}" for v in pf["engine.live_tracks.mean_len"]))
        print(f"  frames beyond p99: {pf['frames_beyond_p99']}")
    if result.get("shares"):
        sh = result["shares"]
        for span, per in sh["loop_share_per_fifth"].items():
            print(f"  share of step loop {span:26s} " + " ".join(f"{v:6.1%}" for v in per)
                  + f"   all {sh['loop_share'][span]:6.1%}")
        print(f"  file I/O {sh['fileio_s']:.3f} s against step loop {sh['step_loop_s']:.3f} s")
    if result.get("absent"):
        print("  absent: " + " ".join(result["absent"]))
    for err in result["errors"]:
        print("  FAILED REPEAT: " + err.strip().replace("\n", "\n    "))
    print(f"  trajectories sha256 {result['trajectories_sha256']}")


def _result_line(result: dict) -> dict:
    metrics = result.get("end_to_end") or result.get("per_layer") or {}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(MINIMUM), default="full",
                   help="tiny streams, for the self-test")
    p.add_argument("--results", default=None,
                   help="results file (default: benchmark/out/<workload>-seed<n>-trace<t>.json)")
    args = p.parse_args(argv)

    if not (SRC / "mftrack" / "__init__.py").is_file():
        print(f"benchmark: no program source under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mftrack
    if Path(mftrack.__file__).resolve().parent != SRC / "mftrack":
        print(f"benchmark: imported mftrack from {mftrack.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size, work)
            results[name] = result
            path = Path(args.results) if args.results and len(names) == 1 else \
                OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1) + "\n")
            _print_summary(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(names) == 1:
        print(json.dumps(_result_line(results[names[0]])))
    else:
        print(json.dumps({n: _result_line(r) for n, r in results.items()}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
