"""File formats and configuration parsing.

All formats are line-oriented whitespace-separated text, '#' comments
allowed, fixed column order:

  detections   frame_id detection_id x y l h [hist_0 .. hist_{n-1}]
  ground truth gt_id frame_id x y l h
  trajectories track_id frame_id x y l h status_flag   (1 matched, 0 held)
  config       key = value

Ground truth and trajectories load as one `types.Trajectories` table,
columns of ids, frames, boxes and matched, sorted by (id, frame); a
ground-truth row is matched, a trajectory row where its flag is 1. An
(id, frame) pair may appear once, and a status flag is 0 or 1.

Floats are written with repr so that write -> read round-trips exactly.
The ground-truth and trajectory writers format a block of rows at a time.
A detection row's histogram must have either the configured bin count or
768 raw bins (then rebinned); a missing histogram is stored as all zeros.
A UTF-8 byte-order mark at the start of a file is skipped.

Detection, ground-truth and trajectory files are parsed in one bulk pass
and checked as arrays; a file that pass rejects is read again line by
line, so every error names its `path:line`. The pass reads the file in
line-aligned chunks of about 64 KiB (_CHUNK_BYTES), cuts '#' comments and
hands each chunk to orjson as one JSON array of numbers, which orjson
reads to the same doubles as float(), correctly rounded. It takes JSON
numbers only, and not -0, which JSON reads as the integer 0: any other
token that int() or float() accepts (+1, .5, inf) and any non-ASCII text
outside a comment sends the file to the line parser.

On Linux that pass runs on every CPU the process may use
(os.sched_getaffinity): the file is cut into that many byte ranges, fewer
where a range would be under _PART_BYTES (1 MiB), each cut just after a
b"\\n". The first range is parsed in this process, each other one in a
forked child whose rows come down a pipe into their slice of the one
block; a range a child does not deliver has the file parsed as one range
here, and a range that does not parse sends the file to the line parser.
Elsewhere, and with one usable CPU, the file is one range.
CPython 3.12 and later issue a DeprecationWarning from os.fork() when the
process has other threads, and numpy's OpenBLAS thread pool is one. The
child is safe all the same: it runs only the parse, a pipe write and
os._exit, with no BLAS call, import or logging (this module imports
orjson before any fork), so it takes no lock that a thread fork did not
copy could be holding.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re
import signal
import sys
from pathlib import Path

import numpy as np
import orjson

from .errors import ConfigError, HistogramShapeError, InputError, ParseError
from .metrics import EvalReport
from .types import (
    MAX_RAW_BINS,
    Frame,
    Track,
    TrackerConfig,
    Trajectories,
    check_boxes,
    check_counts,
    check_rows,
)


@contextlib.contextmanager
def replacing(*paths: str | Path):
    """A temporary path beside each output path, for the block to write.
    Once the block has run through, each temporary replaces its output
    (os.replace); if it raises, they are removed and no output changes.
    An existing output that is not a regular file (a directory, or a
    device such as /dev/stdout, which a rename would replace), and two
    outputs that name one file (the real path of the directory and the
    name), are refused before the block runs; an OSError on a temporary
    names its output."""
    keys = [(os.path.realpath(os.path.dirname(p) or os.curdir), os.path.basename(p))
            for p in paths]
    for i, p in enumerate(paths):
        if os.path.exists(p) and not os.path.isfile(p):
            raise OSError(f"{p} exists and is not a regular file")
        if keys[i] in keys[:i]:
            raise InputError(f"{p}: one file named as two outputs")
    temps = [os.path.join(os.path.dirname(p), f".{os.path.basename(p)}.{os.getpid()}.tmp")
             for p in paths]
    try:
        yield temps
        for temp, p in zip(temps, paths):
            os.replace(temp, p)
    except OSError as e:  # named by the output it was for
        if e.filename in temps:
            e.filename = str(paths[temps.index(e.filename)])
        raise
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


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


def write_detections(path: str | Path, frames: dict[int, Frame]) -> None:
    """One row per detection, frames in id order, rows in frame order."""
    with open(path, "w") as fh:
        for f in sorted(frames):
            frame = frames[f]
            # tolist gives Python floats, whose repr is the text written
            rows = np.hstack([frame.boxes, frame.hist]).tolist()
            fh.writelines(f"{frame.frame_id} {did} {' '.join(map(repr, row))}\n"
                          for did, row in zip(frame.ids.tolist(), rows))


def _lines(path: str | Path):
    """("path:lineno", text) of every line of `path`, a leading UTF-8
    byte-order mark skipped, that has text left once its '#' comment is
    cut. A line that is not UTF-8 text, comment included, is a ParseError."""
    # undecodable bytes read as lone surrogates, which only such a line holds
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
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


# the smallest byte range of a file that _read_block gives a process of its own
_PART_BYTES = 1 << 20
# about the bytes of a range that _parse_range reads and parses at a time
_CHUNK_BYTES = 1 << 16
# every byte a data row may hold once its '#' comment is cut
_ROW_BYTES = b"0123456789.eE+- \t\n"
# -0 with no more of a number after it: the token -0, which JSON reads as
# the integer 0 and float() as -0.0, where the byte before is a separator
_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])")
# the row count a child sends for a range that does not parse
_NO_PARSE = (2**64 - 1).to_bytes(8, sys.byteorder)


def _read_block(path: str | Path, tail_type) -> np.ndarray | None:
    """Every data row of `path` parsed by _parse_range, or None when this
    fast path cannot read the file and the line parser must.

    The rows become a structured array with fields "ids" (2 int64), "box"
    (4 float64) and "tail" (the other w - 6 columns as tail_type), where w
    is the width of the first data row. None stands for mixed widths, fewer
    than 6 columns, text that is not UTF-8 and any token that is not a JSON
    number (some `int`/`float` accept, such as +1 or inf).

    The file is cut into one byte range per usable CPU, none under
    _PART_BYTES, each cut just after a b"\\n"; see _read_parts.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            first = next((cols for cols in (line.split("#", 1)[0].split() for line in fh) if cols), [])
            size = os.fstat(fh.fileno()).st_size
        dtype = [("ids", np.int64, (2,)), ("box", np.float64, (4,)),
                 ("tail", tail_type, (max(len(first) - 6, 0),))]
        if not first:
            return np.zeros(0, dtype=dtype)
        if len(first) < 6:
            return None
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        k = max(1, min(cpus, size // _PART_BYTES))
        with open(path, "rb") as fh:
            cuts = [0]
            for i in range(1, k):
                fh.seek(i * size // k - 1)
                fh.readline()
                cuts.append(fh.tell())
        cuts.append(size)
        ranges = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
        try:
            block = _read_parts(path, ranges, dtype)
        except OSError:  # no process or pipe to spare
            block = None
        # a child did not deliver its rows, or could not be started
        return block if block is not None else _parse_range(path, 0, size, dtype)
    except ValueError:  # UnicodeDecodeError and orjson.JSONDecodeError included
        return None


def _line_ends(fh, n: int) -> int:
    """The b"\\n" and b"\\r" bytes in the next n bytes of the binary file fh."""
    buf = bytearray(_CHUNK_BYTES)
    view = np.frombuffer(buf, np.uint8)
    count = 0
    while n > 0 and (k := fh.readinto(memoryview(buf)[:min(n, len(buf))])):
        n -= k
        count += np.count_nonzero(view[:k] == ord("\n"))
        if buf.find(b"\r", 0, k) >= 0:
            count += np.count_nonzero(view[:k] == ord("\r"))
    return count


def _chunks(fh, n: int):
    """The next n bytes of the binary file fh in chunks of about
    _CHUNK_BYTES, each but the last cut just after a line end (b"\\n" or
    b"\\r"); a line longer than that is one chunk."""
    rest = b""
    while n > 0 and (data := fh.read(min(_CHUNK_BYTES, n))):
        n -= len(data)
        data = rest + data
        cut = data.rfind(b"\n") + 1 if n > 0 else len(data)
        cut = max(cut, data.rfind(b"\r", cut) + 1)
        rest = data[cut:]
        if cut:
            yield data[:cut]
    if rest:
        yield rest


def _chunk_values(chunk: bytes) -> list:
    """The numbers orjson reads from the tokens of `chunk`, whole lines of
    a file, in file order, with a None after each data row. A ValueError
    where a line holds anything but JSON numbers, spaces, tabs and a '#'
    comment, or where the chunk is not UTF-8 text."""
    if b"\r" in chunk:  # the line ends text mode reads
        chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not chunk.isascii():
        chunk.decode("utf-8")  # else the line parser names the line
    if b"#" in chunk:
        chunk = b"\n".join(line.split(b"#", 1)[0] for line in chunk.split(b"\n"))
    # JSON also reads true, null, "2" and [1] as values, which no column holds
    if chunk.translate(None, _ROW_BYTES):
        raise ValueError("a byte no JSON number holds")
    if b"-0" in chunk and any(m.start() == 0 or chunk[m.start() - 1] in b" \t\n"
                              for m in _MINUS_ZERO.finditer(chunk)):
        raise ValueError("-0, which JSON reads as the integer 0")
    chunk = chunk.strip()
    if not chunk:
        return []
    try:
        return orjson.loads(b"[" + chunk.replace(b" ", b",").replace(b"\n", b",null,") + b",null]")
    except orjson.JSONDecodeError:  # tabs, runs of spaces or blank lines; else a bad token
        rows = (b",".join(tokens) for tokens in map(bytes.split, chunk.split(b"\n")) if tokens)
        return orjson.loads(b"[" + b",null,".join(rows) + b",null]")


def _parse_range(path: str | Path, start: int, end: int, dtype) -> np.ndarray:
    """The data rows of bytes start..end of `path` as a block of `dtype`,
    read by _chunk_values one chunk at a time; a ValueError where a chunk
    does not parse or a row does not fit `dtype`.

    The id columns, and an int64 tail, take only JSON integers that fit
    int64; the box and a float64 tail take every number as float() does.
    """
    tail = np.dtype(dtype)["tail"]
    width = 6 + tail.shape[0]
    int_columns = [0, 1, *range(6, width)] if tail.base.kind == "i" else [0, 1]
    with open(path, "rb") as fh:
        if start == 0 and fh.read(3) == b"\xef\xbb\xbf":  # a UTF-8 byte-order mark
            start = 3
        fh.seek(start)
        # a row ends at a line end or at the range's end: counting them in a
        # first pass sizes the block, which is then never copied to grow
        block = np.empty(_line_ends(fh, end - start) + 1, dtype)
        fh.seek(start)
        n = 0
        for chunk in _chunks(fh, end - start):
            values = _chunk_values(chunk)
            if not values:
                continue
            if len(values) % (width + 1):
                raise ValueError("rows of another width")
            # a None reads as nan, which no JSON number does: the Nones end
            # the rows exactly when every row has `width` numbers
            floats = np.array(values, np.float64).reshape(-1, width + 1)
            ends = np.isnan(floats)
            if not ends[:, width].all() or ends[:, :width].any():
                raise ValueError("rows of another width")
            ints = np.array([values[i::width + 1] for i in int_columns])
            if ints.dtype.kind != "i":  # a float, or an integer past int64
                raise ValueError("an id that is not an int64")
            part = block[n:n + len(floats)]
            part["ids"], part["box"] = ints[:2].T, floats[:, 2:6]
            part["tail"] = ints[2:].T if len(int_columns) > 2 else floats[:, 6:width]
            n += len(floats)
    block.resize(n, refcheck=False)
    return block


def _read_parts(path: str | Path, ranges: list[tuple[int, int]], dtype) -> np.ndarray | None:
    """The rows of the byte ranges of `path`, in file order, as one block;
    None when a child did not deliver its part, a ValueError when a range
    does not parse.

    The first range is parsed here, each other one in a forked child that
    writes down a pipe its row count, 8 bytes, and then its rows, which
    are read straight into their slice of the block; a child whose range
    does not parse sends _NO_PARSE for its count. Every child is killed
    and reaped before this returns or raises.
    """
    children = []  # (pid, read end of its pipe), in file order
    try:
        for start, end in ranges[1:]:
            children.append(_fork_part(path, start, end, dtype))
        block = _parse_range(path, *ranges[0], dtype)
        heads = [pipe.read(8) for _, pipe in children]
        if _NO_PARSE in heads:
            raise ValueError("a range does not parse")
        if any(len(head) < 8 for head in heads):
            return None
        counts = [int.from_bytes(head, sys.byteorder) for head in heads]
        n = len(block)
        # realloc: the rows parsed here stay where they are
        block.resize(n + sum(counts), refcheck=False)
        for (_, pipe), count in zip(children, counts):
            rows = block[n:n + count]
            if pipe.readinto(rows) < rows.nbytes:
                return None
            n += count
        return block
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_part(path: str | Path, start: int, end: int, dtype):
    """(pid, read end of its pipe) of a forked child that parses bytes
    start..end of `path` and writes its row count and rows down the pipe,
    or _NO_PARSE where the range does not parse.

    The child runs only the parse, the pipe write and os._exit: no BLAS
    call, import or logging, so no lock held by a thread that fork did not
    copy, such as one of numpy's OpenBLAS pool, is ever waited on.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            with open(w, "wb") as out:
                try:
                    rows = _parse_range(path, start, end, dtype)
                except ValueError:
                    out.write(_NO_PARSE)
                else:
                    out.write(len(rows).to_bytes(8, sys.byteorder))
                    out.write(rows)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, open(r, "rb")


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
    # a sort, not np.unique, whose first call imports numpy.ma (about 10 ms)
    firsts = np.sort(frame_ids[heads])
    if (firsts[1:] == firsts[:-1]).any():
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


# the rows _write_rows formats at a time
_WRITE_ROWS = 512


def _write_rows(path: str | Path, ids: np.ndarray, frames: np.ndarray, boxes: np.ndarray,
                flags: np.ndarray | None = None) -> None:
    """Write the rows `id frame x y l h [flag]` of the columns, floats by
    repr, _WRITE_ROWS rows at a time: only one block's Python objects are
    alive at once, not the whole table's."""
    with open(path, "w") as fh:
        for a in range(0, len(ids), _WRITE_ROWS):
            block = slice(a, a + _WRITE_ROWS)
            # tolist gives Python floats, whose repr is the text written
            rows = zip(ids[block].tolist(), frames[block].tolist(), boxes[block].tolist())
            if flags is None:
                fh.writelines(f"{i} {f} {x!r} {y!r} {l!r} {h!r}\n" for i, f, (x, y, l, h) in rows)
            else:
                fh.writelines(f"{i} {f} {x!r} {y!r} {l!r} {h!r} {hit:d}\n"
                              for (i, f, (x, y, l, h)), hit in zip(rows, flags[block].tolist()))


def write_ground_truth(path: str | Path, gt: Trajectories) -> None:
    """One row per row of the table, in its (id, frame) order."""
    _write_rows(path, gt.ids, gt.frames, gt.boxes)


def _load_table(path: str | Path, ncols: int) -> Trajectories:
    """The table of rows `id frame x y l h` plus, in a trajectory file
    (ncols 7), a status flag. Read as one block like load_detections, with
    the same fallback."""
    block = _read_block(path, np.int64)  # the flag parses as a strict integer
    if block is not None and (len(block) == 0 or block["tail"].shape[1] == ncols - 6):
        try:
            return _table(block["ids"][:, 0], block["ids"][:, 1], block["box"], block["tail"])
        except ValueError:
            pass
    return _table_by_line(path, ncols)


def _table(ids, frames, boxes, flags) -> Trajectories:
    """The table of rows given in file order, flags (n, 1), or (n, 0) in
    ground truth; a ValueError where an (id, frame) pair repeats, a box
    breaks `check_boxes` or a flag is not 0 or 1."""
    # rows written in (id, frame) order need no sort: rising pairs are distinct
    if not ((ids[1:] > ids[:-1]) | ((ids[1:] == ids[:-1]) & (frames[1:] > frames[:-1]))).all():
        order = np.lexsort((frames, ids))
        ids, frames, boxes, flags = ids[order], frames[order], boxes[order], flags[order]
        if ((ids[1:] == ids[:-1]) & (frames[1:] == frames[:-1])).any():
            raise ValueError("a repeated (id, frame) pair")
    check_boxes(boxes)
    if not ((flags == 0) | (flags == 1)).all():
        raise ValueError("a status flag other than 0 or 1")
    return Trajectories(np.ascontiguousarray(ids), np.ascontiguousarray(frames),
                        np.ascontiguousarray(boxes), (flags == 1).all(axis=1))


def _table_by_line(path: str | Path, ncols: int) -> Trajectories:
    """_load_table one line at a time: the error path and the reference."""
    rows: dict[tuple[int, int], list] = {}  # (id, frame) -> x, y, l, h and any flag
    for where, line in _lines(path):
        cols = line.split()
        if len(cols) != ncols:
            raise ParseError(f"{where}: expected {ncols} columns, got {len(cols)}")
        try:
            oid, fid = int(cols[0]), int(cols[1])
            box = [float(c) for c in cols[2:6]]
            check_boxes(np.array([box]))
            flags = [int(c) for c in cols[6:]]
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from e
        if not -2**63 <= min(oid, fid) <= max(oid, fid) < 2**63:
            raise ParseError(f"{where}: id or frame beyond int64")
        if flags not in ([], [0], [1]):
            raise ParseError(f"{where}: status flag {flags[0]} is not 0 or 1")
        if (oid, fid) in rows:
            raise ParseError(f"{where}: repeated row for id {oid} in frame {fid}")
        rows[oid, fid] = box + flags
    ids, frames = np.array(list(rows), dtype=np.int64).reshape(-1, 2).T
    values = np.array(list(rows.values()), dtype=np.float64).reshape(-1, ncols - 2)
    return _table(ids, frames, values[:, :4], values[:, 4:])


def load_ground_truth(path: str | Path) -> Trajectories:
    """The ground-truth table, every row matched."""
    table = _load_table(path, 6)
    if not len(table.ids):  # no metric is defined without ground truth
        raise InputError(f"{path}: no ground-truth rows")
    return table


def write_trajectories(path: str | Path, tracks: list[Track]) -> None:
    """One row per row of the tracks, in (id, frame) order, ending in its
    status flag: 1 where the track matched, 0 where it held its box."""
    table = Trajectories.of_tracks(sorted(tracks, key=lambda t: t.track_id))
    _write_rows(path, table.ids, table.frames, table.boxes, table.matched)


def load_trajectories(path: str | Path) -> Trajectories:
    """The trajectory table, a row matched where its status flag is 1."""
    return _load_table(path, 7)


# -- configuration ------------------------------------------------------------

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrackerConfig)}


def _parse_value(name: str, text: str):
    f = _CONFIG_FIELDS[name]
    if name == "feature_weights":
        parts = text.replace(",", " ").split()
        if len(parts) != 4:
            raise ValueError(f"feature_weights needs 4 values, got {len(parts)}")
        return tuple(float(p) for p in parts)
    if f.type in ("int", int):
        return int(text)
    if f.type in ("float", float):
        return float(text)
    return text


def load_config(path: str | Path) -> TrackerConfig:
    """Flat key=value config; an unknown or repeated key is an error."""
    values = {}
    for where, line in _lines(path):
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        key, _, val = (p.strip() for p in line.partition("="))
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: repeated config key {key!r}")
        try:
            values[key] = _parse_value(key, val)
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from e
    return TrackerConfig(**values).validate()


def write_report(path: str | Path, report: EvalReport) -> None:
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
