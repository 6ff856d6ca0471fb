"""Track lifecycle rules: termination and noise filtering.

A waiting track is terminated once the frames elapsed since its last
match exceed min(N_r, T2): reliable tracks (many matched frames) wait
longer, but never more than T2 frames. Trajectories are flagged as noise
when they are too short (only checked at end of life), barely move, or
spend too large a fraction of their life waiting.

The engine runs the rules as masks over the columns of its live rows
(`sweep_rows`); the scalar `should_terminate`, `is_noise` and `sweep` over
`Track` objects are the oracle those masks are tested against.
"""
from __future__ import annotations

import numpy as np

from .types import NOISE, TERMINATED, WAITING, Track, TrackerConfig


def should_terminate(track: Track, f_c: int, t2: int) -> bool:
    """True once the track's last match is older than its allowance."""
    return track.f_l < f_c - min(track.n_r, t2)


def is_noise(track: Track, at_end_of_life: bool, cfg: TrackerConfig) -> bool:
    """Noise tests over a whole trajectory.

    The short-life test (span < T3) only applies to trajectories that
    ended their life via the termination rule; the spatial-extent and
    waiting-ratio tests apply to any trajectory of span >= T3.
    """
    span = track.span
    if at_end_of_life and span < cfg.t3:
        return True
    if span >= cfg.t3:
        if track.d_max < cfg.t4:
            return True
        if track.t_w / span >= cfg.t5:
            return True
    return False


def sweep(live: list[Track], f_c: int, cfg: TrackerConfig) -> tuple[list[int], list[int]]:
    """The lifecycle rules over the live tracks in id order, once a frame
    is matched and corrected; returns the ids it ended as (terminated,
    noise). The engine runs them as `sweep_rows`, tested against this.

    Terminates overdue waiting tracks (noise-checking them at end of
    life), then applies the mid-life noise tests to every surviving live
    track old enough to judge. A terminated track stays valid; a noise
    track, flagged by either path, does not. The engine has stored every
    live track's state at f_c, so a track ended here reads f_c as its
    `end_frame`.
    """
    terminated, noise = [], []
    for track in live:
        if track.status == WAITING and should_terminate(track, f_c, cfg.t2):
            if is_noise(track, at_end_of_life=True, cfg=cfg):
                track.status = NOISE
                noise.append(track.track_id)
            else:
                track.status = TERMINATED
                terminated.append(track.track_id)
            continue
        if track.span >= cfg.t3 and is_noise(track, at_end_of_life=False, cfg=cfg):
            track.status = NOISE
            noise.append(track.track_id)
    return terminated, noise


def sweep_rows(birth: np.ndarray, f_l: np.ndarray, n_r: np.ndarray, d_max: np.ndarray,
               f_c: int, cfg: TrackerConfig) -> tuple[np.ndarray, np.ndarray]:
    """`sweep` over the live tracks as columns: boolean masks (terminated,
    noise) over the rows.

    birth, f_l, n_r and d_max hold one entry per live track, as the
    `Track` fields of those names. Every live track holds a state at f_c,
    so its span is f_c - birth + 1 and it waited the span's frames that
    did not match it; it waits now when f_l < f_c, which an overdue track
    does.
    """
    span = f_c + 1 - birth
    judged = span >= cfg.t3
    noisy = judged & ((d_max < cfg.t4) | ((span - n_r) / span >= cfg.t5))
    overdue = f_l + np.minimum(n_r, cfg.t2) < f_c
    # an overdue track too young to judge is short-lived noise
    noise = noisy | (overdue & ~judged)
    return overdue & ~noise, noise
