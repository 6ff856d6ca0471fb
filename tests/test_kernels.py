import numpy as np
import pytest

from conftest import boxes
from mftrack import kernels
from mftrack.similarity import (
    area_similarity,
    color_similarity,
    distance_similarity,
    global_similarity,
    shape_similarity,
)
from mftrack.types import ObjectState


def random_batch(rng, nt, nd, nbins):
    tstates = [ObjectState(*rng.uniform(1, 200, 2), *rng.uniform(1, 50, 2)) for _ in range(nt)]
    dstates = [ObjectState(*rng.uniform(1, 200, 2), *rng.uniform(1, 50, 2)) for _ in range(nd)]
    thist = rng.uniform(0, 20, (nt, nbins)) * (rng.random((nt, nbins)) < 0.8)
    dhist = rng.uniform(0, 20, (nd, nbins)) * (rng.random((nd, nbins)) < 0.8)
    m = rng.integers(1, 6, nt)
    treach = np.array([20.0 * mi for mi in m])
    return tstates, dstates, thist, dhist, m, treach


def scalar_reference(tstates, dstates, thist, dhist, m, weights):
    out = np.zeros((len(tstates), len(dstates)))
    for i, tb in enumerate(tstates):
        for j, db in enumerate(dstates):
            ls = [
                distance_similarity(tb, db, 20.0, int(m[i])),
                area_similarity(tb, db),
                shape_similarity(tb, db),
                color_similarity(thist[i], dhist[j]),
            ]
            out[i, j] = global_similarity(ls, weights)
    return out


def test_kernel_matches_scalar_reference():
    rng = np.random.default_rng(123)
    weights = (1.0, 0.5, 2.0, 1.5)
    for _ in range(5):
        tstates, dstates, thist, dhist, m, treach = random_batch(rng, 7, 9, 24)
        got = kernels.score_matrix(boxes(tstates), treach, thist,
                                   boxes(dstates), dhist, weights)
        want = scalar_reference(tstates, dstates, thist, dhist, m, weights)
        assert np.allclose(got, want, atol=1e-12)


def dense_reference(tstates, treach, thist, dstates, dhist, weights):
    """The kernel as a dense formula: every feature of every pair, then the
    gate; area and aspect come from `ObjectState.area` and `.aspect`."""
    def columns(states):
        return (np.array([s.x for s in states]), np.array([s.y for s in states]),
                np.array([s.area for s in states]), np.array([s.aspect for s in states]))
    tx, ty, tarea, tratio = columns(tstates)
    dx, dy, darea, dratio = columns(dstates)
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


@pytest.mark.parametrize("reach,gated", [(1e-3, "all"), (20.0, "some"), (1e4, "none")])
@pytest.mark.parametrize("nt,nd", [(7, 9), (1, 9), (7, 1), (1, 1)])
def test_sparse_kernel_equals_dense_reference_exactly(reach, gated, nt, nd):
    rng = np.random.default_rng(nt * 100 + nd)
    weights = (1.0, 0.5, 2.0, 1.5)
    for nbins in (24, 96):
        tstates, dstates, thist, dhist, _, treach = random_batch(rng, nt, nd, nbins)
        treach = treach / 20.0 * reach
        # bins empty in both histograms of some pairs
        thist[:, ::5] = 0.0
        dhist[:, ::5] = 0.0
        got = kernels.score_matrix(boxes(tstates), treach, thist,
                                   boxes(dstates), dhist, weights)
        want = dense_reference(tstates, treach, thist, dstates, dhist, weights)
        assert np.array_equal(got, want)
        if gated == "all":
            assert not got.any()
        elif gated == "none":
            assert got.all()


def test_boxes_rows():
    """The tests' box rows of states, which score_matrix takes."""
    states = [ObjectState(1.5, 2.0, 3.0, 4.0), ObjectState(5.0, 6.0, 7.0, 8.5)]
    assert np.array_equal(boxes(states), [[1.5, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.5]])
    assert boxes([]).shape == (0, 4)


def test_empty_inputs():
    b = boxes([])
    h = np.empty((0, 8))
    out = kernels.score_matrix(b, np.empty(0), h, b, h, (1, 1, 1, 1))
    assert out.shape == (0, 0)
    one = boxes([ObjectState(1.0, 1.0, 2.0, 2.0)])
    out = kernels.score_matrix(one, np.ones(1), np.ones((1, 8)), b, h, (1, 1, 1, 1))
    assert out.shape == (1, 0)

