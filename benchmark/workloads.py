"""Benchmark workloads: each one is a scenario spec built from a seed.

The program only ever sees what `scenario.generate` makes from these specs,
so the same seed always gives the same detection stream.
"""
from __future__ import annotations

# (full, tiny) sizes; tiny is for the self-test only. A full-size track
# child steps at least 1000 frames over its passes, so each repeat's p99 has
# ten frames beyond it.
_SIZES = {
    "clutter_long": {"full": 1000, "tiny": 120},
    "crowd": {"full": (32, 350), "tiny": (8, 60)},
}

# the crowd's box is 24x48, so its search radius is 26.8 px per frame since
# the last match: a 40 px lane gap is out of reach after a hit and within
# reach after a single miss
_CROWD_LANE_GAP = 40.0


def build(name: str, seed: int, size: str = "full"):
    """Scenario spec of workload `name` for `seed`."""
    from mftrack import scenario

    if name == "clutter_long":
        return scenario.bench_scenario(frames=_SIZES[name][size], objects=5,
                                       clutter=5.0, seed=seed)
    if name == "crowd":
        objects, frames = _SIZES[name][size]
        return scenario.lanes_scenario(
            n_objects=objects, duration=frames, seed=seed, speed=0.8,
            lane_gap=_CROWD_LANE_GAP, drop_probability=0.1,
            position_jitter_sigma=0.5, histogram_noise=0.05)
    raise KeyError(name)
