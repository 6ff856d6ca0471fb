"""End-to-end run: ingest detections, track, write trajectories, evaluate.

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
    `scenario.generate` give them. Frame-id gaps in the input are
    processed as empty frames.
    """
    engine = TrackingEngine(cfg)
    if not detections_by_frame:
        return engine, 0.0
    lo, hi = min(detections_by_frame), max(detections_by_frame)
    t0 = time.perf_counter()
    for fid in range(lo, hi + 1):
        engine.step(fid, detections_by_frame.get(fid, []))
    elapsed = time.perf_counter() - t0
    fps = metrics.throughput(hi - lo + 1, elapsed)
    return engine, fps


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
    fileio.write_trajectories(out_path, engine.valid_tracks())
    if gt is not None:
        report = metrics.evaluate(gt, engine.trajectories(),
                                  iou_threshold=cfg.eval_iou_threshold,
                                  method=cfg.eval_assignment, fps=fps)
        if report_path is not None:
            fileio.write_report(report_path, report)
    return 0
