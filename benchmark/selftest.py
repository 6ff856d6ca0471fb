"""Self-test of the benchmark at its smallest size.

    python3 benchmark/selftest.py

Runs every workload with `--size tiny`: once untraced through
`--workload all` and twice traced. It fails unless

  * every run passes its output check with no failed frame,
  * every count metric of the traced run repeats exactly,
  * the printed metric names and units are those in BENCHMARK.json,
  * the tracer puts back every function it wrapped, and
  * run.py refuses, without printing a result, to run in a directory that
    holds only BENCHMARK.json and the benchmark.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# per-layer metrics in these units depend on timing; all others are counts
# or ratios of counts and must repeat exactly
TIMED_UNITS = {"s", "us", "ns"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmark" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_names(metrics: dict, declared: list[dict], what: str) -> None:
    got = {k: m["unit"] for k, m in metrics.items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{what}: printed metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}, "
                             f"unit mismatches {sorted(k for k in got if k in want and got[k] != want[k])}")


def _check_run(res: dict, what: str) -> None:
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        raise AssertionError(f"{what}: correct={res['correct']} failed={res['failed']} "
                             f"attempted={res['attempted']}")


def _check_restore() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import importlib

    import tracing

    def current():
        out = {}
        for module, attr in tracing.TARGETS:
            owner = importlib.import_module(f"mftrack.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            out[(module, attr)] = vars(owner).get(leaf)
        return out
    before = current()
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = current()
    tracer.uninstall()
    if any(wrapped[k] is before[k] for k in before) or current() != before:
        raise AssertionError("tracer did not wrap and then restore every target")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    tiny = ("--size", "tiny", "--seconds", "0", "--seed", "3")

    everything = _result(_run(ROOT, "--workload", "all", "--trace", "0", *tiny))
    for name in workloads:
        _check_run(everything[name], f"{name} untraced")
        _check_names(everything[name]["metrics"], spec["end_to_end"], f"{name} untraced")
        print(f"ok  {name} untraced: {everything[name]['attempted']} frames, none failed")

    for name in workloads:
        runs = []
        for i in range(2):
            res = _result(_run(ROOT, "--workload", name, "--trace", "1", *tiny,
                               "--results", str(OUT_DIR / f"selftest-{name}-{i}.json")))
            _check_run(res, f"{name} traced")
            _check_names(res["metrics"], spec["per_layer"], f"{name} traced")
            runs.append(res["metrics"])
        counts = [k for k, m in runs[0].items()
                  if m["unit"] not in TIMED_UNITS and k != "trace.overhead"]
        differ = [k for k in counts if runs[0][k]["value"] != runs[1][k]["value"]]
        if differ:
            raise AssertionError(f"{name}: counts differ between two traced runs: {differ}")
        print(f"ok  {name} traced twice: {len(counts)} count metrics repeat exactly")

    _check_restore()
    print("ok  the tracer puts back every function it wrapped")

    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "benchmark", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "crowd", "--trace", "0", *tiny)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"without the program, run.py exited {proc.returncode} "
                             f"and printed {proc.stdout[-500:]!r}")
    print(f"ok  without the program run.py exits {proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
