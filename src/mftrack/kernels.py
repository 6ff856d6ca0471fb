"""Pairwise similarity scoring kernel and greedy one-to-one assignment.

The hot loop of the engine is scoring every (track, detection) pair in a
frame. States enter scoring as box rows (x, y, l, h), one row per state;
`score_matrix` takes the track and detection boxes and derives area l*h
and aspect l/h from their columns. It computes the
distance score of every pair, and the area, shape and colour scores only
for the pairs inside the distance gate: a pair whose distance score is 0
scores 0 whatever its other features say, and most pairs of a frame are
that far apart. The scalar functions in `similarity.py` are its test
oracle.
"""
from __future__ import annotations

import numpy as np


def score_matrix(tboxes, treach, thist, dboxes, dhist, weights) -> np.ndarray:
    """Global-similarity matrix for all (track, detection) pairs.

    tboxes and dboxes are (n, 4) box rows (x, y, l, h); thist and dhist
    hold one histogram row per box. treach[i] is D_max * m for track i.
    Pairs with zero distance similarity score 0 (distance feature has
    priority) and are not scored further; the others get the weighted mean
    of all four features, computed elementwise exactly as for a dense
    matrix.
    """
    nt, nd = len(tboxes), len(dboxes)
    out = np.zeros((nt, nd))
    if nt == 0 or nd == 0:
        return out
    w1, w2, w3, w4 = weights
    tx, ty, tl, th = tboxes.T
    dx, dy, dl, dh = dboxes.T
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite distance is out of reach
        d = np.hypot(tx[:, None] - dx, ty[:, None] - dy)
        ls1 = 1.0 - d / treach[:, None]
    i, j = (ls1 > 0.0).nonzero()
    # area and aspect once per box, then gathered for the gated pairs
    tarea, tratio = (tl * th).take(i), (tl / th).take(i)
    darea, dratio = (dl * dh).take(j), (dl / dh).take(j)
    ls2 = np.minimum(tarea, darea) / np.maximum(tarea, darea)
    ls3 = np.minimum(tratio, dratio) / np.maximum(tratio, dratio)
    ti, dj = thist.take(i, axis=0), dhist.take(j, axis=0)
    hi = np.maximum(ti, dj)
    # a bin empty in both histograms agrees fully
    rate = np.divide(np.minimum(ti, dj), hi, out=np.ones_like(hi), where=hi > 0.0)
    ls4 = rate.sum(axis=1) / hi.shape[1]  # the mean, bit for bit
    out[i, j] = (w1 * ls1[i, j] + w2 * ls2 + w3 * ls3 + w4 * ls4) / (w1 + w2 + w3 + w4)
    return out


def greedy_pairs(mat: np.ndarray, row_ids, col_ids, threshold: float) -> list[tuple[int, int]]:
    """One-to-one (row, column) index pairs of `mat`, accepted greedily.

    Candidates are the entries >= threshold, taken by descending value,
    ties broken by lower row id, then lower column id, then row and column
    position; an entry is accepted when neither its row nor its column is
    taken yet. Returns the pairs in acceptance order.
    """
    i, j = (mat >= threshold).nonzero()
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
