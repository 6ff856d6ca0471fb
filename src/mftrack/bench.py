"""Throughput benchmark: the standard scenario through the tracking loop."""
from __future__ import annotations

from . import scenario
from .pipeline import track_stream
from .types import TrackerConfig


def run_bench(frames: int = 5000, objects: int = 5, clutter: float = 5.0,
              seed: int = 7) -> float:
    """Generate the standard benchmark scenario and time the tracking loop
    over it with the default config. Returns frames per second."""
    spec = scenario.bench_scenario(frames=frames, objects=objects,
                                   clutter=clutter, seed=seed)
    result = scenario.generate(spec)
    _, fps = track_stream(result.detections_by_frame, TrackerConfig())
    return fps


def print_bench(fps: float, frames: int) -> None:
    print(f"tracking throughput over {frames} frames (tracking loop only): {fps:.1f} fps")
