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

from .errors import ConfigError, HistogramShapeError, InputError, ParseError
from .metrics import EvalReport, GroundTruthObject
from .types import (
    MAX_RAW_BINS,
    Frame,
    ObjectState,
    Track,
    TrackerConfig,
    check_counts,
    check_rows,
)


def _rebin(raw: np.ndarray, n: int) -> np.ndarray:
    """The 768 raw counts along the last axis of raw summed into n bins.

    n must be 3*b with b a divisor of 256, else ConfigError; consecutive
    groups of 256/b levels are summed within each channel block.
    """
    if n % 3 != 0:
        raise ConfigError(f"n_bins={n} is not 3*b")
    b = n // 3
    if b < 1 or 256 % b != 0:
        raise ConfigError(f"n_bins={n}: {b} bins per channel does not divide 256")
    lead = raw.shape[:-1]
    return raw.reshape(*lead, 3, b, 256 // b).sum(axis=-1).reshape(*lead, n)


def _fmt(v: float) -> str:
    return repr(float(v))


def write_detections(path: str | Path, frames: dict[int, Frame]) -> None:
    """One row per detection, frames in id order, rows in frame order."""
    with open(path, "w") as fh:
        for f in sorted(frames):
            frame = frames[f]
            # tolist gives Python floats, whose repr is _fmt's text
            rows = np.hstack([frame.boxes, frame.hist]).tolist()
            fh.writelines(f"{frame.frame_id} {did} {' '.join(map(repr, row))}\n"
                          for did, row in zip(frame.ids.tolist(), rows))


def _lines(path: str | Path):
    """("path:lineno", text) of every line of `path` that has text left
    once its '#' comment is cut. A line that is not UTF-8 text, comment
    included, is a ParseError."""
    # undecodable bytes read as lone surrogates, which only such a line holds
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:
                    raise ParseError(f"{path}:{lineno}: bytes that are not UTF-8 text "
                                     f"at column {e.start + 1}") from None
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


def load_detections(path: str | Path, n_bins: int) -> dict[int, Frame]:
    """{frame_id: the frame's detections in file order}, frames in order of
    first appearance. Rows are parsed and validated as one block, and each
    frame is a view of its rows of that block; a file the block path
    rejects goes to the line parser, which gives the same result or raises
    the error naming `path:line`."""
    block = _read_block(path, np.float64)
    if block is not None:
        try:
            return _frames_from_block(block, n_bins)
        except (ValueError, ConfigError, InputError):
            pass
    return _detections_by_line(path, n_bins)


def _frames_from_block(block: np.ndarray, n_bins: int) -> dict[int, Frame]:
    """_detections_by_line's result for a parsed block, whose rows are
    checked once, by `check_rows`; each frame is a view of its rows."""
    if not len(block):
        return {}
    ids, boxes, counts = block["ids"], block["box"], block["tail"]
    frame_ids = ids[:, 0]
    # the first row of each run of one frame id
    heads = np.flatnonzero(np.r_[True, frame_ids[1:] != frame_ids[:-1]])
    if len(np.unique(frame_ids[heads])) < len(heads):
        # a frame's rows are split: order the rows by the first row of their
        # frame, file order within a frame, with one stable argsort
        _, first, inverse = np.unique(frame_ids, return_index=True, return_inverse=True)
        return _frames_from_block(block[np.argsort(first[inverse], kind="stable")], n_bins)
    if counts.shape[1] == 0:
        counts = np.zeros((len(block), n_bins))
    elif counts.shape[1] != n_bins:
        if counts.shape[1] != MAX_RAW_BINS:
            raise ValueError(f"histograms have {counts.shape[1]} bins")
        # raw counts are checked before they are summed into bins
        check_counts(counts)
        counts = _rebin(counts, n_bins)
    check_rows(frame_ids, ids[:, 1], boxes, counts)
    bounds = [*heads.tolist(), len(block)]
    return {f: Frame.view(f, ids[a:b, 1], boxes[a:b], counts[a:b])
            for f, a, b in zip(frame_ids[heads].tolist(), bounds, bounds[1:])}


def _detections_by_line(path: str | Path, n_bins: int) -> dict[int, Frame]:
    """load_detections one line at a time: the error path, and the
    reference the block path is tested against. Each row is checked on
    its own line by the `Frame` constructor, a repeated (frame_id,
    detection_id) pair by the line that repeats it."""
    out: dict[int, dict[int, np.ndarray]] = {}  # frame_id -> detection_id -> box and counts
    for where, line in _lines(path):
        cols = line.split()
        if len(cols) < 6:
            raise ParseError(f"{where}: expected at least 6 columns, got {len(cols)}")
        try:
            fid = int(cols[0])
            did = int(cols[1])
            box = np.array([[float(c) for c in cols[2:6]]])
            counts = np.array([[float(c) for c in cols[6:]]])
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from e
        if counts.shape[1] not in (0, n_bins, MAX_RAW_BINS):
            raise HistogramShapeError(f"{where}: histogram has {counts.shape[1]} bins, "
                                      f"expected {n_bins} or {MAX_RAW_BINS}")
        try:
            if counts.shape[1] == 0:
                counts = np.zeros((1, n_bins))
            elif counts.shape[1] != n_bins:
                # a raw row's counts are checked before they are summed into bins
                check_counts(counts)
                counts = _rebin(counts, n_bins)
            Frame(fid, [did], box, counts)  # the constructor's checks, on this row alone
        except (ValueError, InputError) as e:
            raise ParseError(f"{where}: {e}") from e
        rows = out.setdefault(fid, {})
        if did in rows:
            raise ParseError(f"{where}: duplicate detection_id {did} in frame {fid}")
        rows[did] = np.hstack((box, counts))
    return {fid: Frame(fid, list(rows), *np.hsplit(np.concatenate(list(rows.values())), [4]))
            for fid, rows in out.items()}


def write_ground_truth(path: str | Path, gt_objects: list[GroundTruthObject]) -> None:
    with open(path, "w") as fh:
        for g in sorted(gt_objects, key=lambda g: g.gt_id):
            for f in sorted(g.states):
                s = g.states[f]
                fh.write(f"{g.gt_id} {f} {_fmt(s.x)} {_fmt(s.y)} {_fmt(s.l)} {_fmt(s.h)}\n")


def _load_table(path: str | Path, ncols: int) -> dict[int, dict[int, ObjectState]]:
    """{id: {frame: state}} from rows `id frame x y l h` plus, in a
    trajectory file, an integer status flag; ncols is the row width; no
    (id, frame) repeats. Read as one block like load_detections, with the same fallback."""
    block = _read_block(path, np.int64)  # the flag parses as a strict integer
    if block is not None and (len(block) == 0 or block["tail"].shape[1] == ncols - 6):
        try:
            out: dict[int, dict[int, ObjectState]] = {}
            for oid, fid, state in zip(*block["ids"].T.tolist(), ObjectState.rows(block["box"])):
                out.setdefault(oid, {})[fid] = state
            if sum(map(len, out.values())) == len(block):  # else a row repeats an (id, frame)
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
        if fid in out.setdefault(oid, {}):
            raise ParseError(f"{where}: repeated row for id {oid} in frame {fid}")
        out[oid][fid] = s
    return out


def load_ground_truth(path: str | Path) -> list[GroundTruthObject]:
    table = _load_table(path, 6)
    if not table:  # no metric is defined without ground truth
        raise InputError(f"{path}: no ground-truth rows")
    return [GroundTruthObject(gid, st) for gid, st in sorted(table.items())]


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


def write_report(path: str | Path, report: EvalReport) -> None:
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
