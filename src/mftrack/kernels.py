"""Pairwise similarity scoring kernel.

The hot loop of the engine is scoring every (track, detection) pair in a
frame. `score_matrix` does that in one vectorized numpy pass; the scalar
functions in `similarity.py` are its test oracle.
"""
from __future__ import annotations

import numpy as np


def score_matrix(tx, ty, treach, tarea, tratio, thist,
                 dx, dy, darea, dratio, dhist, weights) -> np.ndarray:
    """Global-similarity matrix for all (track, detection) pairs.

    treach[i] is D_max * m for track i. Pairs with zero distance
    similarity score 0 (distance feature has priority).
    """
    nt, nd = tx.size, dx.size
    if nt == 0 or nd == 0:
        return np.zeros((nt, nd))
    w1, w2, w3, w4 = weights
    d = np.hypot(tx[:, None] - dx[None, :], ty[:, None] - dy[None, :])
    ls1 = 1.0 - d / treach[:, None]
    ls2 = np.minimum(tarea[:, None], darea[None, :]) / np.maximum(tarea[:, None], darea[None, :])
    ls3 = np.minimum(tratio[:, None], dratio[None, :]) / np.maximum(tratio[:, None], dratio[None, :])
    lo = np.minimum(thist[:, None, :], dhist[None, :, :])
    hi = np.maximum(thist[:, None, :], dhist[None, :, :])
    rate = np.where(hi > 0.0, lo / np.where(hi > 0.0, hi, 1.0), 1.0)
    ls4 = rate.mean(axis=2)
    gs = (w1 * ls1 + w2 * ls2 + w3 * ls3 + w4 * ls4) / (w1 + w2 + w3 + w4)
    return np.where(ls1 > 0.0, gs, 0.0)
