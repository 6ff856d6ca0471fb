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

Detection, ground-truth and trajectory files are parsed in one np.loadtxt
pass and checked as arrays; a file that pass rejects is read again line by
line, so every error names its `path:line`.
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
    return ColorHistogram(raw.reshape(3, -1, _rebin_group(n)).sum(axis=2).reshape(-1))


def _rebin_group(n: int) -> int:
    """Raw levels summed into each of n bins, or ConfigError when n is not
    3*b with b a divisor of 256."""
    if n % 3 != 0:
        raise ConfigError(f"n_bins={n} is not 3*b")
    b = n // 3
    if b < 1 or 256 % b != 0:
        raise ConfigError(f"n_bins={n}: {b} bins per channel does not divide 256")
    return 256 // b


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


def _lines(path: str | Path):
    """("path:lineno", text) of every line of `path` that has text left
    once its '#' comment is cut."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                yield f"{path}:{lineno}", line


def _read_block(path: str | Path, tail_type) -> np.ndarray | None:
    """Every data row of `path` parsed by one np.loadtxt pass, or None when
    this fast path cannot read the file and the line parser must.

    The rows become a structured array with fields "ids" (2 int64), "box"
    (4 float64) and "tail" (the other w - 6 columns as tail_type), where w
    is the width of the first data row. None stands for mixed widths, fewer
    than 6 columns, a token numpy refuses (some `int`/`float` accept, such
    as 1_000) and any non-ASCII text: numpy's int64 parser takes some
    non-ASCII letters before a number as digits, where `int` refuses them.
    """
    try:
        with open(path, encoding="ascii") as fh:
            first = next((cols for cols in (line.split("#", 1)[0].split() for line in fh) if cols), [])
            dtype = [("ids", np.int64, (2,)), ("box", np.float64, (4,)),
                     ("tail", tail_type, (max(len(first) - 6, 0),))]
            if not first:
                # np.loadtxt warns on a file without data rows
                return np.zeros(0, dtype=dtype)
            if len(first) < 6:
                return None
            fh.seek(0)
            return np.loadtxt(fh, dtype=dtype, comments="#", ndmin=1)
    except ValueError:  # UnicodeDecodeError included
        return None


def load_detections(path: str | Path, n_bins: int) -> dict[int, list[Detection]]:
    """{frame_id: detections in file order}, frames in order of first
    appearance. Rows are parsed and validated as one block; a file the
    block path rejects goes to the line parser, which gives the same
    result or raises the error naming `path:line`."""
    block = _read_block(path, np.float64)
    if block is not None:
        try:
            return _detections_from_block(block, n_bins)
        except (ValueError, ConfigError):
            pass
    return _detections_by_line(path, n_bins)


def _detections_from_block(block: np.ndarray, n_bins: int) -> dict[int, list[Detection]]:
    """_detections_by_line's result for a parsed block; each of its per-row
    checks runs once over the block (ValueError on any failure), except
    the ones ObjectState and Detection make."""
    ids, counts = block["ids"], block["tail"]
    if _repeats_a_pair(ids):
        raise ValueError("duplicate (frame_id, detection_id)")
    if counts.shape[1] == 0:
        counts = np.zeros((len(block), n_bins))
    elif counts.shape[1] != n_bins:
        if counts.shape[1] != MAX_RAW_BINS:
            raise ValueError(f"histograms have {counts.shape[1]} bins")
        # raw counts are checked before they are summed into bins
        ColorHistogram.rows(counts)
        counts = counts.reshape(len(block), 3, -1, _rebin_group(n_bins)).sum(axis=3)
        counts = counts.reshape(len(block), n_bins)
    # whole columns as lists: one list per row would stay behind as
    # fragmented heap and raise peak RSS
    out: dict[int, list[Detection]] = {}
    for fid, did, x, y, l, h, hist in zip(*ids.T.tolist(), *block["box"].T.tolist(),
                                          ColorHistogram.rows(counts)):
        out.setdefault(fid, []).append(Detection(fid, did, ObjectState(x, y, l, h), hist))
    return out


def _repeats_a_pair(ids: np.ndarray) -> bool:
    """True when a row of the (n, 2) ids array occurs twice."""
    f, d = ids[:, 0], ids[:, 1]
    # write_detections lists the pairs in rising order, which proves them
    # distinct without np.unique's sort, whose scratch arrays stay in the
    # process's heap and raise peak RSS
    rising = (f[1:] > f[:-1]) | ((f[1:] == f[:-1]) & (d[1:] > d[:-1]))
    return not rising.all() and len(np.unique(ids, axis=0)) < len(ids)


def _detections_by_line(path: str | Path, n_bins: int) -> dict[int, list[Detection]]:
    """load_detections one line at a time: the error path, and the
    reference the block path is tested against."""
    out: dict[int, list[Detection]] = {}
    seen: set[tuple[int, int]] = set()  # (frame_id, detection_id)
    for where, line in _lines(path):
        cols = line.split()
        if len(cols) < 6:
            raise ParseError(f"{where}: expected at least 6 columns, got {len(cols)}")
        try:
            fid = int(cols[0])
            did = int(cols[1])
            x, y, l, h = (float(c) for c in cols[2:6])
            counts = np.array([float(c) for c in cols[6:]])
            if counts.size not in (0, n_bins, MAX_RAW_BINS):
                raise HistogramShapeError(
                    f"{where}: histogram has {counts.size} bins, expected {n_bins} or {MAX_RAW_BINS}")
            # a raw row's counts are checked before they are summed into bins
            hist = ColorHistogram(counts if counts.size else np.zeros(n_bins))
            if hist.n != n_bins:
                hist = rebin(hist.bins, n_bins)
            det = Detection(fid, did, ObjectState(x, y, l, h), hist)
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from e
        if (fid, did) in seen:
            raise ParseError(f"{where}: duplicate detection_id {did} in frame {fid}")
        seen.add((fid, did))
        out.setdefault(fid, []).append(det)
    return out


def write_ground_truth(path: str | Path, gt_objects: list[GroundTruthObject]) -> None:
    with open(path, "w") as fh:
        for g in sorted(gt_objects, key=lambda g: g.gt_id):
            for f in sorted(g.states):
                s = g.states[f]
                fh.write(f"{g.gt_id} {f} {_fmt(s.x)} {_fmt(s.y)} {_fmt(s.l)} {_fmt(s.h)}\n")


def _load_table(path: str | Path, ncols: int) -> dict[int, dict[int, ObjectState]]:
    """{id: {frame: state}} from rows `id frame x y l h` plus, in a
    trajectory file, an integer status flag; ncols is the row width.
    Read as one block like load_detections, with the same fallback."""
    block = _read_block(path, np.int64)  # the flag parses as a strict integer
    if block is not None and (len(block) == 0 or block["tail"].shape[1] == ncols - 6):
        try:
            out: dict[int, dict[int, ObjectState]] = {}
            for oid, fid, x, y, l, h in zip(*block["ids"].T.tolist(), *block["box"].T.tolist()):
                out.setdefault(oid, {})[fid] = ObjectState(x, y, l, h)
            return out
        except ValueError:
            pass
    return _table_by_line(path, ncols)


def _table_by_line(path: str | Path, ncols: int) -> dict[int, dict[int, ObjectState]]:
    """_load_table one line at a time: the error path and the reference."""
    out: dict[int, dict[int, ObjectState]] = {}
    for where, line in _lines(path):
        cols = line.split()
        if len(cols) != ncols:
            raise ParseError(f"{where}: expected {ncols} columns, got {len(cols)}")
        try:
            oid, fid = int(cols[0]), int(cols[1])
            s = ObjectState(*(float(c) for c in cols[2:6]))
            if ncols == 7:
                int(cols[6])  # status flag
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from e
        out.setdefault(oid, {})[fid] = s
    return out


def load_ground_truth(path: str | Path) -> list[GroundTruthObject]:
    return [GroundTruthObject(gid, st) for gid, st in sorted(_load_table(path, 6).items())]


def write_trajectories(path: str | Path, tracks: list[Track]) -> None:
    with open(path, "w") as fh:
        for t in sorted(tracks, key=lambda t: t.track_id):
            for f in sorted(t.states):
                s = t.states[f]
                flag = 1 if f in t.matched_frames else 0
                fh.write(f"{t.track_id} {f} {_fmt(s.x)} {_fmt(s.y)} {_fmt(s.l)} {_fmt(s.h)} {flag}\n")


def load_trajectories(path: str | Path) -> dict[int, dict[int, ObjectState]]:
    return _load_table(path, 7)


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
    for where, line in _lines(path):
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        key, _, val = (p.strip() for p in line.partition("="))
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            values[key] = _parse_value(key, val)
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from e
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
