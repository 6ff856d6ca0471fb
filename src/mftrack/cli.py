"""Command-line interface.

Subcommands:
  track     run the tracker over a detection file
  evaluate  score an existing trajectory file against ground truth
  simulate  generate a synthetic scenario (detections + ground-truth sidecar)
  bench     time the tracking loop over the standard benchmark scenario

Exit codes: 0 success, 2 input error, 3 config error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from . import fileio, metrics, scenario
from .bench import print_bench, run_bench
from .errors import TrackerError
from .pipeline import run_pipeline
from .types import TrackerConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mftrack",
                                     description="multi-feature tracking-by-detection engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="track a detection stream")
    p.add_argument("--detections", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--ground-truth", default=None)
    p.add_argument("--report", default=None, help="evaluation report JSON (needs --ground-truth)")

    p = sub.add_parser("evaluate", help="evaluate trajectories against ground truth")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None, help="report JSON path (default: print)")

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    p.add_argument("--scenario", required=True, help="scenario spec JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out", required=True, help="output prefix (writes PREFIX.det.txt, PREFIX.gt.txt)")

    p = sub.add_parser("bench", help="tracking-loop throughput benchmark")
    p.add_argument("--frames", type=int, default=5000)
    p.add_argument("--objects", type=int, default=5)
    p.add_argument("--clutter", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=7)
    return parser


def _cmd_track(args) -> int:
    return run_pipeline(args.detections, args.config, args.out,
                        gt_path=args.ground_truth, report_path=args.report)


def _cmd_evaluate(args) -> int:
    cfg = fileio.load_config(args.config) if args.config else TrackerConfig()
    gt = fileio.load_ground_truth(args.ground_truth)
    tracks = fileio.load_trajectories(args.trajectories)
    report = metrics.evaluate(gt, tracks, iou_threshold=cfg.eval_iou_threshold,
                              method=cfg.eval_assignment)
    if args.out:
        with fileio.replacing(args.out) as (temp,):
            fileio.write_report(temp, report)
    else:
        for k, v in (("M1", report.m1), ("M2", report.m2), ("M3", report.m3),
                     ("M_bar", report.m_bar)):
            print(f"{k} = {v:.4f}")
    return 0


def _cmd_simulate(args) -> int:
    with open(args.scenario, encoding="utf-8-sig") as fh:
        spec = scenario.spec_from_json(fh.read())
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    result = scenario.generate(spec)
    with fileio.replacing(f"{args.out}.det.txt", f"{args.out}.gt.txt") as (det, gt):
        fileio.write_detections(det, result.detections_by_frame)
        fileio.write_ground_truth(gt, result.gt)
    return 0


def _cmd_bench(args) -> int:
    fps = run_bench(frames=args.frames, objects=args.objects,
                    clutter=args.clutter, seed=args.seed)
    print_bench(fps, args.frames)
    return 0


_COMMANDS = {
    "track": _cmd_track,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TrackerError as e:
        print(f"mftrack: error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"mftrack: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
