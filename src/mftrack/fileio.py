"""File formats and configuration parsing.

All formats are line-oriented whitespace-separated text, '#' comments
allowed, fixed column order:

  detections   frame_id detection_id x y l h [hist_0 .. hist_{n-1}]
  ground truth gt_id frame_id x y l h
  trajectories track_id frame_id x y l h status_flag   (1 matched, 0 held)
  config       key = value

Floats are written with repr so that write -> read round-trips exactly.
A detection row's histogram must have either the configured bin count or
768 raw bins (then rebinned); a missing histogram is stored as all zeros.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, HistogramShapeError, ParseError
from .metrics import EvalReport, GroundTruthObject
from .types import MAX_RAW_BINS, ColorHistogram, Detection, ObjectState, Track, TrackerConfig


def rebin(raw: np.ndarray, n: int) -> ColorHistogram:
    """Collapse a 768-bin raw histogram (3 channels x 256 levels) to n bins.

    n must be 3*b with b a divisor of 256; consecutive groups of 256/b
    levels are summed within each channel block.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size != MAX_RAW_BINS:
        raise HistogramShapeError(f"raw histogram must have {MAX_RAW_BINS} bins, got {raw.size}")
    if n % 3 != 0:
        raise ConfigError(f"n_bins={n} is not 3*b")
    b = n // 3
    if b < 1 or 256 % b != 0:
        raise ConfigError(f"n_bins={n}: {b} bins per channel does not divide 256")
    group = 256 // b
    binned = raw.reshape(3, b, group).sum(axis=2).reshape(-1)
    return ColorHistogram(binned)


def _fmt(v: float) -> str:
    return repr(float(v))


def write_detections(path: str | Path, detections_by_frame: dict[int, list[Detection]]) -> None:
    with open(path, "w") as fh:
        for f in sorted(detections_by_frame):
            for d in detections_by_frame[f]:
                s = d.state
                cols = [str(d.frame_id), str(d.detection_id),
                        _fmt(s.x), _fmt(s.y), _fmt(s.l), _fmt(s.h)]
                cols.extend(_fmt(c) for c in d.histogram.bins)
                fh.write(" ".join(cols) + "\n")


def load_detections(path: str | Path, n_bins: int) -> dict[int, list[Detection]]:
    out: dict[int, list[Detection]] = {}
    seen: set[tuple[int, int]] = set()  # (frame_id, detection_id)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            cols = line.split()
            if len(cols) < 6:
                raise ParseError(f"{path}:{lineno}: expected at least 6 columns, got {len(cols)}")
            try:
                fid = int(cols[0])
                did = int(cols[1])
                x, y, l, h = (float(c) for c in cols[2:6])
                counts = np.array([float(c) for c in cols[6:]])
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
            if counts.size == 0:
                hist = ColorHistogram(np.zeros(n_bins))
            elif counts.size == n_bins:
                hist = ColorHistogram(counts)
            elif counts.size == MAX_RAW_BINS:
                hist = rebin(counts, n_bins)
            else:
                raise HistogramShapeError(
                    f"{path}:{lineno}: histogram has {counts.size} bins, expected {n_bins} or {MAX_RAW_BINS}")
            try:
                det = Detection(fid, did, ObjectState(x, y, l, h), hist)
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
            if (fid, did) in seen:
                raise ParseError(f"{path}:{lineno}: duplicate detection_id {did} in frame {fid}")
            seen.add((fid, did))
            out.setdefault(fid, []).append(det)
    return out


def write_ground_truth(path: str | Path, gt_objects: list[GroundTruthObject]) -> None:
    with open(path, "w") as fh:
        for g in sorted(gt_objects, key=lambda g: g.gt_id):
            for f in sorted(g.states):
                s = g.states[f]
                fh.write(f"{g.gt_id} {f} {_fmt(s.x)} {_fmt(s.y)} {_fmt(s.l)} {_fmt(s.h)}\n")


def load_ground_truth(path: str | Path) -> list[GroundTruthObject]:
    states: dict[int, dict[int, ObjectState]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            cols = line.split()
            if len(cols) != 6:
                raise ParseError(f"{path}:{lineno}: expected 6 columns, got {len(cols)}")
            try:
                gid, fid = int(cols[0]), int(cols[1])
                s = ObjectState(*(float(c) for c in cols[2:6]))
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
            states.setdefault(gid, {})[fid] = s
    return [GroundTruthObject(gid, st) for gid, st in sorted(states.items())]


def write_trajectories(path: str | Path, tracks: list[Track]) -> None:
    with open(path, "w") as fh:
        for t in sorted(tracks, key=lambda t: t.track_id):
            for f in sorted(t.states):
                s = t.states[f]
                flag = 1 if f in t.matched_frames else 0
                fh.write(f"{t.track_id} {f} {_fmt(s.x)} {_fmt(s.y)} {_fmt(s.l)} {_fmt(s.h)} {flag}\n")


def load_trajectories(path: str | Path) -> dict[int, dict[int, ObjectState]]:
    out: dict[int, dict[int, ObjectState]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            cols = line.split()
            if len(cols) != 7:
                raise ParseError(f"{path}:{lineno}: expected 7 columns, got {len(cols)}")
            try:
                tid, fid = int(cols[0]), int(cols[1])
                s = ObjectState(*(float(c) for c in cols[2:6]))
                int(cols[6])
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
            out.setdefault(tid, {})[fid] = s
    return out


# -- configuration ------------------------------------------------------------

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrackerConfig)}


def _parse_value(name: str, text: str):
    f = _CONFIG_FIELDS[name]
    if name == "feature_weights":
        parts = text.replace(",", " ").split()
        if len(parts) != 4:
            raise ConfigError(f"feature_weights needs 4 values, got {len(parts)}")
        return tuple(float(p) for p in parts)
    if f.type in ("int", int):
        return int(text)
    if f.type in ("float", float):
        return float(text)
    return text


def load_config(path: str | Path) -> TrackerConfig:
    """Flat key=value config; unknown keys are errors (fail fast)."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = (p.strip() for p in line.partition("="))
            if key not in _CONFIG_FIELDS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _parse_value(key, val)
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: {e}") from e
    return TrackerConfig(**values).validate()


def write_config(path: str | Path, cfg: TrackerConfig) -> None:
    with open(path, "w") as fh:
        for f in dataclasses.fields(TrackerConfig):
            v = getattr(cfg, f.name)
            if f.name == "feature_weights":
                v = " ".join(_fmt(x) for x in v)
            fh.write(f"{f.name} = {v}\n")


def write_report(path: str | Path, report: EvalReport) -> None:
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
