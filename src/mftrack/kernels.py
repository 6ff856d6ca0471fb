"""Pairwise similarity scoring kernel and greedy one-to-one assignment.

The hot loop of the engine is scoring every (track, detection) pair in a
frame. `score_matrix` computes the distance score of every pair, and the
area, shape and colour scores only for the pairs inside the distance gate:
a pair whose distance score is 0 scores 0 whatever its other features say,
and most pairs of a frame are that far apart. The scalar functions in
`similarity.py` are its test oracle.
"""
from __future__ import annotations

import numpy as np


def score_matrix(tx, ty, treach, tarea, tratio, thist,
                 dx, dy, darea, dratio, dhist, weights) -> np.ndarray:
    """Global-similarity matrix for all (track, detection) pairs.

    treach[i] is D_max * m for track i. Pairs with zero distance
    similarity score 0 (distance feature has priority) and are not
    scored further; the others get the weighted mean of all four
    features, computed elementwise exactly as for a dense matrix.
    """
    nt, nd = tx.size, dx.size
    out = np.zeros((nt, nd))
    if nt == 0 or nd == 0:
        return out
    w1, w2, w3, w4 = weights
    d = np.hypot(tx[:, None] - dx[None, :], ty[:, None] - dy[None, :])
    ls1 = 1.0 - d / treach[:, None]
    i, j = np.nonzero(ls1 > 0.0)
    ls2 = np.minimum(tarea[i], darea[j]) / np.maximum(tarea[i], darea[j])
    ls3 = np.minimum(tratio[i], dratio[j]) / np.maximum(tratio[i], dratio[j])
    lo = np.minimum(thist[i], dhist[j])
    hi = np.maximum(thist[i], dhist[j])
    rate = np.where(hi > 0.0, lo / np.where(hi > 0.0, hi, 1.0), 1.0)
    ls4 = rate.mean(axis=1)
    out[i, j] = (w1 * ls1[i, j] + w2 * ls2 + w3 * ls3 + w4 * ls4) / (w1 + w2 + w3 + w4)
    return out


def greedy_pairs(mat: np.ndarray, row_ids, col_ids, threshold: float) -> list[tuple[int, int]]:
    """One-to-one (row, column) index pairs of `mat`, accepted greedily.

    Candidates are the entries >= threshold, taken by descending value,
    ties broken by lower row id, then lower column id, then row and column
    position; an entry is accepted when neither its row nor its column is
    taken yet. Returns the pairs in acceptance order.
    """
    i, j = np.nonzero(mat >= threshold)
    order = np.lexsort((np.asarray(col_ids)[j], np.asarray(row_ids)[i], -mat[i, j]))
    taken_r: set[int] = set()
    taken_c: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for r, c in zip(i[order].tolist(), j[order].tolist()):
        if r in taken_r or c in taken_c:
            continue
        taken_r.add(r)
        taken_c.add(c)
        pairs.append((r, c))
    return pairs
