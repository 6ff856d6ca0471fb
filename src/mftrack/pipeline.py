"""End-to-end run: ingest detections, track, write trajectories and, for a
report, evaluate them against ground truth.

The throughput figure covers the tracking loop only (predict, match,
correct, lifecycle); ingestion and report writing are excluded.
"""
from __future__ import annotations

import time
from pathlib import Path

from . import fileio, metrics
from .engine import TrackingEngine
from .errors import InputError
from .types import Frame, TrackerConfig


def track_stream(
    detections_by_frame: dict[int, Frame],
    cfg: TrackerConfig,
) -> tuple[TrackingEngine, float]:
    """Run the engine over a full stream; returns (engine, tracking fps).

    Each frame is a `Frame`, as `fileio.load_detections` and
    `scenario.generate` give them; frames are stepped in id order. After
    an input frame, the frame ids up to the next input frame are stepped
    as empty frames while a track is live; once none is, the rest of the
    gap is skipped, since an empty frame without a live track would change
    nothing but the engine's last frame id. So the time taken follows the
    frames that hold detections or live tracks, not the span of frame
    ids. fps counts the frames stepped.
    """
    engine = TrackingEngine(cfg)
    if not detections_by_frame:
        return engine, 0.0
    frames = sorted(detections_by_frame)
    live = stepped = 0
    t0 = time.perf_counter()
    for fid, end in zip(frames, frames[1:] + [frames[-1] + 1]):
        for f in range(fid, end):
            if f > fid and not live:
                break
            report = engine.step(f, detections_by_frame[fid] if f == fid else [])
            live += len(report.new_tracks) - len(report.terminated) - len(report.noise)
            stepped += 1
    elapsed = time.perf_counter() - t0
    return engine, metrics.throughput(stepped, elapsed)


def run_pipeline(
    detections_path: str | Path,
    config_path: str | Path | None,
    out_path: str | Path,
    gt_path: str | Path | None = None,
    report_path: str | Path | None = None,
) -> int:
    if report_path is not None and gt_path is None:
        raise InputError("an evaluation report needs ground truth (--report without --ground-truth)")
    cfg = fileio.load_config(config_path) if config_path else TrackerConfig().validate()
    # a bad ground-truth file is rejected before any output is written
    gt = fileio.load_ground_truth(gt_path) if gt_path is not None else None
    stream = fileio.load_detections(detections_path, cfg.n_bins)
    engine, fps = track_stream(stream, cfg)
    outputs = [out_path] if report_path is None else [out_path, report_path]
    # the outputs appear together, and only once every one is written
    with fileio.replacing(*outputs) as temps:
        fileio.write_trajectories(temps[0], engine.valid_tracks())
        if report_path is not None:
            fileio.write_report(temps[1], metrics.evaluate(
                gt, engine.trajectories(), iou_threshold=cfg.eval_iou_threshold,
                method=cfg.eval_assignment, fps=fps))
    return 0
