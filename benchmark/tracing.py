"""Traced run: time the public functions of each mftrack module from outside.

`Tracer.install` replaces each function in TARGETS that exists at the commit
under test with a timing wrapper, and `Tracer.uninstall` puts the originals
back. A function that no longer exists is recorded as absent, and the
per-layer metrics that depend on it read 0 and are listed as absent.

Self time of a span is its duration minus the durations of the wrapped
calls made inside it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns

# (module, attribute) of every wrapped function; the span is named
# "<module>.<function>"
TARGETS = (
    ("scenario", "generate"),
    ("fileio", "write_detections"),
    ("fileio", "load_detections"),
    ("fileio", "write_trajectories"),
    ("fileio", "load_ground_truth"),
    ("engine", "TrackingEngine.step"),
    ("engine", "TrackingEngine.live_tracks"),
    ("engine", "match_frame"),
    ("kalman", "predict"),
    ("kalman", "correct"),
    ("kalman", "init_kalman"),
    ("kernels", "score_matrix"),
    ("lifecycle", "sweep"),
    ("metrics", "associate"),
    ("metrics", "evaluate"),
)

# spans called from inside TrackingEngine.step whose share of the loop is
# reported per fifth of the stream
LOOP_SPANS = ("engine.live_tracks", "engine.match_frame", "kernels.score_matrix",
              "kalman.predict", "kalman.correct", "kalman.init_kalman", "lifecycle.sweep")

FILEIO_SPANS = ("fileio.write_detections", "fileio.load_detections",
                "fileio.write_trajectories", "fileio.load_ground_truth")


class Span:
    __slots__ = ("calls", "ns", "child_ns", "fifth_ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.child_ns = 0
        self.fifth_ns = [0, 0, 0, 0, 0]

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


def _arg_getter(fn, name):
    """Function (args, kwargs) -> the argument `name` of a call to fn, or
    None when fn has no such parameter."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if name not in params:
        return None
    index = params.index(name)

    def get(args, kwargs):
        return args[index] if index < len(args) else kwargs.get(name)
    return get


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.fifth: int | None = None  # fifth of the stream being stepped
        self.live = 0  # live tracks after the last step, from its report
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- hooks: counts taken from a call's arguments and result ----------------

    def _hooks(self, name: str, fn):
        if name == "scenario.generate":
            return lambda a, k, r: self._count(
                "scenario.detections", sum(len(v) for v in r.detections_by_frame.values()))
        if name == "fileio.load_detections":
            return lambda a, k, r: self._count(
                "fileio.detection_rows", sum(len(v) for v in r.values()))
        if name == "engine.step":
            return self._on_step
        if name == "engine.live_tracks":
            return lambda a, k, r: self._count("engine.live_tracks.total_len", len(r))
        if name == "engine.match_frame":
            tracks, dets = _arg_getter(fn, "tracks"), _arg_getter(fn, "detections")

            def on_match(a, k, r):
                if tracks and dets:
                    self._count("engine.match_frame.pairs_scored",
                                len(tracks(a, k)) * len(dets(a, k)))
                self._count("engine.match_frame.pairs_accepted", len(r.pairs))
            return on_match
        if name == "kalman.correct":
            measured = _arg_getter(fn, "measured")
            if measured:
                return lambda a, k, r: self._count(
                    "kalman.correct.measured_calls", measured(a, k) is not None)
        if name == "kernels.score_matrix":
            def on_scores(a, k, r):
                self._count("kernels.score_matrix.pairs", r.size)
                self._count("kernels.score_matrix.gated", int((r == 0.0).sum()))
            return on_scores
        return None

    def _on_step(self, a, k, report):
        new = len(report.new_tracks)
        left = len(report.terminated) + len(report.noise)
        # every track live when the sweep runs: last frame's live set plus
        # this frame's newborns
        self._count("lifecycle.sweep.live_tracks", self.live + new)
        self.live += new - left
        self._count("engine.tracks_created", new)
        self._count("lifecycle.terminated", len(report.terminated))
        self._count("lifecycle.noise", len(report.noise))

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        span = self.spans[name] = Span()
        hook = self._hooks(name, fn)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                span.child_ns += stack.pop()
                span.calls += 1
                span.ns += dt
                if tracer.fifth is not None:
                    span.fifth_ns[tracer.fifth] += dt
            if hook is not None:
                hook(args, kwargs, result)
            if stack:
                # the caller's self time excludes this call and its hook
                stack[-1] += perf_counter_ns() - t0
            return result
        return wrapper

    def install(self) -> None:
        for module, attr in TARGETS:
            name = f"{module}.{attr.rsplit('.', 1)[-1]}"
            try:
                owner = importlib.import_module(f"mftrack.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(leaf) if owner is not None else None
            if not inspect.isfunction(fn):
                self.absent.append(name)
                continue
            self._patched.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, fn = self._patched.pop()
            setattr(owner, leaf, fn)

    def to_json(self) -> dict:
        return {"spans": {n: [s.calls, s.ns, s.child_ns, s.fifth_ns] for n, s in self.spans.items()},
                "counts": self.counts, "absent": self.absent}


def merge(parts: list[dict]) -> tuple[dict[str, Span], dict[str, int]]:
    """Spans and counts of several traced processes, summed."""
    spans: dict[str, Span] = {}
    counts: dict[str, int] = {}
    for part in parts:
        for name, (calls, ns, child_ns, fifth_ns) in part["spans"].items():
            s = spans.setdefault(name, Span())
            s.calls += calls
            s.ns += ns
            s.child_ns += child_ns
            s.fifth_ns = [a + b for a, b in zip(s.fifth_ns, fifth_ns)]
        for key, n in part["counts"].items():
            counts[key] = counts.get(key, 0) + n
    return spans, counts


# -- per-layer metrics ------------------------------------------------------------

def layer_metrics(sp: dict[str, Span], c: dict[str, int], detections_bytes: int,
                  scores: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced repeat as {name: (value, unit)}, and
    the names of those whose span or count is absent (their value reads 0).
    `scores` holds the run's m1, m2 and m3."""
    out: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(name, unit, needs, value):
        if all(n in sp or n in c for n in needs):
            out[name] = (float(value()), unit)
        else:
            out[name] = (0.0, unit)
            absent.append(name)

    def s(n):
        return sp[n].ns / 1e9

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    put("scenario.generate.s", "s", ["scenario.generate"], lambda: s("scenario.generate"))
    put("scenario.generate.us_per_detection", "us", ["scenario.generate"],
        lambda: per(sp["scenario.generate"].ns, c["scenario.detections"], 1e-3))
    put("fileio.write_detections.s", "s", ["fileio.write_detections"],
        lambda: s("fileio.write_detections"))
    put("fileio.detections_mb", "MB", [], lambda: detections_bytes / 2**20)
    put("fileio.load_detections.s", "s", ["fileio.load_detections"],
        lambda: s("fileio.load_detections"))
    put("fileio.load_detections.us_per_row", "us", ["fileio.load_detections"],
        lambda: per(sp["fileio.load_detections"].ns, c["fileio.detection_rows"], 1e-3))
    put("fileio.write_trajectories.s", "s", ["fileio.write_trajectories"],
        lambda: s("fileio.write_trajectories"))
    put("fileio.load_ground_truth.s", "s", ["fileio.load_ground_truth"],
        lambda: s("fileio.load_ground_truth"))

    put("engine.step.s", "s", ["engine.step"], lambda: s("engine.step"))
    put("engine.step.self_s", "s", ["engine.step"], lambda: sp["engine.step"].self_ns / 1e9)
    put("engine.live_tracks.s", "s", ["engine.live_tracks"], lambda: s("engine.live_tracks"))
    put("engine.live_tracks.mean_len", "tracks", ["engine.live_tracks"],
        lambda: per(c.get("engine.live_tracks.total_len", 0), sp["engine.live_tracks"].calls))
    put("engine.tracks_created", "count", ["engine.step"], lambda: c["engine.tracks_created"])
    put("engine.match_frame.self_s", "s", ["engine.match_frame"],
        lambda: sp["engine.match_frame"].self_ns / 1e9)
    put("engine.match_frame.pairs_scored", "count", ["engine.match_frame.pairs_scored"],
        lambda: c["engine.match_frame.pairs_scored"])
    put("engine.match_frame.pairs_accepted", "count", ["engine.match_frame"],
        lambda: c.get("engine.match_frame.pairs_accepted", 0))
    put("engine.match_frame.accept_ratio", "ratio", ["engine.match_frame.pairs_scored"],
        lambda: per(c.get("engine.match_frame.pairs_accepted", 0),
                    c["engine.match_frame.pairs_scored"]))

    for fn in ("predict", "correct"):
        n = f"kalman.{fn}"
        put(f"{n}.calls", "count", [n], lambda n=n: sp[n].calls)
        put(f"{n}.s", "s", [n], lambda n=n: s(n))
        put(f"{n}.us_per_call", "us", [n], lambda n=n: per(sp[n].ns, sp[n].calls, 1e-3))
        if fn == "correct":
            put("kalman.correct.measured_calls", "count", ["kalman.correct.measured_calls"],
                lambda: c["kalman.correct.measured_calls"])
    put("kalman.init_kalman.s", "s", ["kalman.init_kalman"], lambda: s("kalman.init_kalman"))

    k = "kernels.score_matrix"
    put(f"{k}.calls", "count", [k], lambda: sp[k].calls)
    put(f"{k}.s", "s", [k], lambda: s(k))
    put(f"{k}.ns_per_pair", "ns", [k], lambda: per(sp[k].ns, c.get(f"{k}.pairs", 0)))
    put(f"{k}.gated_ratio", "ratio", [k],
        lambda: per(c.get(f"{k}.gated", 0), c.get(f"{k}.pairs", 0)))

    put("lifecycle.sweep.s", "s", ["lifecycle.sweep"], lambda: s("lifecycle.sweep"))
    put("lifecycle.sweep.us_per_live_track", "us", ["lifecycle.sweep", "engine.step"],
        lambda: per(sp["lifecycle.sweep"].ns, c["lifecycle.sweep.live_tracks"], 1e-3))
    put("lifecycle.terminated", "count", ["engine.step"], lambda: c["lifecycle.terminated"])
    put("lifecycle.noise", "count", ["engine.step"], lambda: c["lifecycle.noise"])

    put("metrics.associate.s", "s", ["metrics.associate"], lambda: s("metrics.associate"))
    put("metrics.evaluate.self_s", "s", ["metrics.evaluate"],
        lambda: sp["metrics.evaluate"].self_ns / 1e9)
    for m in ("m1", "m2", "m3"):
        put(f"metrics.{m}", "score", [], lambda m=m: scores[m])
    return out, absent


def shares(sp: dict[str, Span]) -> dict:
    """Where the time went: each loop span's share of the step loop, over the
    whole stream and per fifth, and file I/O time against the loop."""
    step = sp.get("engine.step")
    if step is None or not step.ns:
        return {}
    loop = {n: sp[n].ns / step.ns for n in LOOP_SPANS if n in sp}
    fifth = {n: [sp[n].fifth_ns[i] / step.fifth_ns[i] if step.fifth_ns[i] else 0.0
                 for i in range(5)] for n in LOOP_SPANS if n in sp}
    return {
        "loop_share": loop,
        "loop_share_per_fifth": fifth,
        "step_loop_s": step.ns / 1e9,
        "fileio_s": sum(sp[n].ns for n in FILEIO_SPANS if n in sp) / 1e9,
    }
